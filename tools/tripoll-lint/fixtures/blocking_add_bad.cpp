// Fixture: tripoll-callback-blocking must flag blocking constructs inside
// lambda callbacks passed to a plan's .add(), which fire on worker threads
// just like add_reduced callbacks.
#include <cstdint>
#include <cstdio>
#include <mutex>

namespace fixture {

inline void register_blocking(plan& p, context& ctx, std::mutex& m, communicator& c) {
  auto with_lock = p.add(
      [&m](const view& v, context& slice) {
        std::lock_guard<std::mutex> g(m);  // EXPECT: tripoll-callback-blocking
        slice.total += v.p;
      },
      ctx);
  auto with_collective = p.add(
      [&c](const view& v, context& slice) {
        slice.total += c.all_reduce_sum(v.q);  // EXPECT: tripoll-callback-blocking
      },
      ctx);
  auto through_pointer = (&p)->add(
      [](const view& v, context& slice) {
        std::FILE* f = fopen("rows.txt", "a");  // EXPECT: tripoll-callback-blocking
        slice.total += v.r;
        (void)f;
      },
      ctx);
  (void)with_lock;
  (void)with_collective;
  (void)through_pointer;
}

}  // namespace fixture
