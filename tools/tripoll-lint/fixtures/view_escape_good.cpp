// Fixture: view usage that tripoll-view-escape must accept -- synchronous
// use, escorted deferral, and copies.
#include <cstdint>
#include <string>
#include <string_view>

namespace fixture {

struct sync_handler {
  // Synchronous consumption within the handler scope is always fine.
  void operator()(communicator& c, wire_span<std::uint64_t> candidates) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) sum += candidates[i];
    c.note(sum);
  }
};

struct escorted_handler {
  // The sanctioned idiom (docs/THREADING.md): steal the drained payload and
  // capture the keepalive alongside the views -- the views stay valid for
  // the keepalive's lifetime.
  void operator()(communicator& c, wire_span<std::uint64_t> candidates,
                  std::string_view name) {
    auto payload = c.share_current_payload();
    tasks_.push([payload = std::move(payload), candidates, name] {
      (void)candidates;
      (void)name;
    });
  }
  task_queue tasks_;
};

struct batch_handler {
  // The survey engine's shape: a packed_batch handed to a worker task next
  // to the payload keepalive, or decoded synchronously into scratch.
  void operator()(communicator& c, const packed_batch<std::uint64_t>& entries) {
    if (defer_) {
      auto payload = c.share_current_payload();
      tasks_.push([payload = std::move(payload), entries] { (void)entries; });
      return;
    }
    entries.decode(scratch_);
  }
  bool defer_ = true;
  std::vector<entry> scratch_;
  task_queue tasks_;
};

struct copying_handler {
  // Deferring an owned copy (not the view) is fine; the lambda captures
  // only the copy's name.
  void operator()(communicator& c, std::string_view name) {
    std::string owned{name};
    c.async(0, [owned = std::move(owned)] { (void)owned; });
  }
};

struct subscript_handler {
  // Subscripts are not capture lists: xs[i] must not confuse the scanner.
  void operator()(communicator& c, wire_span<int> xs) {
    int acc = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) acc += xs[i];
    c.note(acc);
  }
};

}  // namespace fixture
