// Fixture: tripoll-view-escape must flag handler view arguments deferred
// past the handler scope without a payload keepalive.  Lambda-capture
// diagnostics anchor to the captured name inside the capture list; store
// diagnostics anchor to the stored name.
#include <cstdint>
#include <string_view>

namespace fixture {

struct wedge_handler {
  void operator()(communicator& c, wire_span<std::uint64_t> candidates) {
    // Deferred without the share_current_payload() escort: the span points
    // into a payload that is freed when the handler returns.
    c.async(0, [candidates] {  // EXPECT: tripoll-view-escape
      (void)candidates;
    });
  }
};

struct name_handler {
  void operator()(communicator& c, std::string_view name) {
    tasks_.push([this, name] {  // EXPECT: tripoll-view-escape
      consume(name);
    });
    (void)c;
  }
  void consume(std::string_view);
  task_queue tasks_;
};

struct pulled_handler {
  // A received packed_batch views encoded entries inside the payload, so
  // deferring it needs the same keepalive as a wire_span.
  void operator()(communicator& c, const packed_batch<std::uint64_t>& entries) {
    tasks_.push([&c, entries] {  // EXPECT: tripoll-view-escape
      (void)c;
      (void)entries;
    });
  }
  task_queue tasks_;
};

struct store_handler {
  void operator()(communicator& c, std::string_view label, wire_span<int> xs) {
    last_label_ = label;  // EXPECT: tripoll-view-escape
    pending_.push_back(xs);  // EXPECT: tripoll-view-escape
    (void)c;
  }
  std::string_view last_label_;
  std::vector<wire_span<int>> pending_;
};

}  // namespace fixture
