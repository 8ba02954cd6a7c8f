// Fixture: .add() registrations tripoll-callback-blocking must accept --
// non-blocking lambda callbacks, functor callbacks, and container .add()
// calls that pass no callback at all.
#include <cstdint>
#include <mutex>
#include <string>

namespace fixture {

struct count_callback {
  template <typename View>
  void operator()(const View&, context& slice) const {
    ++slice.total;
  }
};

inline void register_plain(plan& p, context& ctx, file_set& files, std::mutex& m,
                           communicator& c, const std::string& path) {
  // A lambda that only touches its slice is fine on any thread.
  auto tallying = p.add([](const view& v, context& slice) { slice.total += v.p; }, ctx);
  // A functor callback has no lambda body for the check to scan.
  auto counting = p.add(count_callback{}, ctx);
  // Not a plan: a container's add() takes no callback.
  files.add(path);
  // Blocking outside the callback body belongs to the driver, not a worker.
  std::lock_guard<std::mutex> g(m);
  c.barrier();
  (void)tallying;
  (void)counting;
}

}  // namespace fixture
