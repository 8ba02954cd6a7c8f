// Must NOT compile.  Every thread that closes batches fires into its own
// slice of a `.add()` context, so a context without fork()/join() members
// (here a bare counter) is rejected with a message that says why.  The
// add_unsliceable_rejected ctest builds this file and passes only when the
// build fails with that message.
#include <cstdint>

#include "comm/runtime.hpp"
#include "core/survey.hpp"
#include "graph/frozen.hpp"

struct bare_count_callback {
  template <typename View>
  void operator()(const View& /*view*/, std::uint64_t& n) const {
    ++n;
  }
};

int main() {
  tripoll::comm::runtime::run(1, [](tripoll::comm::communicator& c) {
    tripoll::graph::dodgr<tripoll::graph::none, tripoll::graph::none> g(c);
    auto fz = tripoll::graph::freeze(g);
    std::uint64_t n = 0;
    (void)tripoll::survey(fz).add(bare_count_callback{}, n).run();
  });
}
