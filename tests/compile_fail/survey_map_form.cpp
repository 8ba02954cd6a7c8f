// Must NOT compile.  The survey engine walks slot-addressed graphs only, so
// surveying the map-form graph::dodgr is rejected with a message to freeze
// it first.  The survey_map_form_rejected ctest builds this file and passes
// only when the build fails with that message.
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "graph/dodgr.hpp"

int main() {
  tripoll::comm::runtime::run(1, [](tripoll::comm::communicator& c) {
    tripoll::graph::dodgr<tripoll::graph::none, tripoll::graph::none> g(c);
    tripoll::callbacks::count_context ctx;
    (void)tripoll::triangle_survey(g, tripoll::callbacks::count_callback{}, ctx);
  });
}
