// presets.hpp -- dataset stand-ins for the paper's evaluation graphs.
//
// The paper evaluates on LiveJournal, Friendster, Twitter, uk-2007-05,
// web-cc12-hostgraph and WDC-2012 (Table 1).  Those range from 69M to 224B
// edges; this single-node reproduction uses topology-class-matched synthetic
// graphs: R-MAT of varying skew for the social
// networks, the hub-heavy clustered web generator for the web graphs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "gen/distribute.hpp"
#include "gen/rmat.hpp"
#include "gen/temporal.hpp"
#include "gen/web.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"
#include "graph/types.hpp"

namespace tripoll::gen {

enum class dataset_kind { rmat, web };

/// A named stand-in graph.
struct dataset_spec {
  std::string name;        ///< paper dataset this stands in for
  dataset_kind kind = dataset_kind::rmat;
  rmat_params rmat{};
  web_params web{};
};

/// The four comparison-graph stand-ins (Friendster / Twitter / uk-2007-05 /
/// web-cc12-hostgraph), sized for a single node.  `scale_delta` shifts every
/// graph's log2 size (e.g. -2 for quick tests).
[[nodiscard]] std::vector<dataset_spec> standard_suite(int scale_delta = 0);

/// LiveJournal-like small social graph (Table 2's smallest row).
[[nodiscard]] dataset_spec livejournal_like(int scale_delta = 0);

/// Metadata-free graph types used by the counting benchmarks.
using plain_graph = graph::dodgr<graph::none, graph::none>;
using temporal_graph = graph::dodgr<graph::none, std::uint64_t>;
using web_graph = graph::dodgr<std::string, graph::none>;

/// Collective: generate and build a metadata-free stand-in graph.
void build_dataset(comm::communicator& c, plain_graph& g, const dataset_spec& spec,
                   graph::ordering_policy ordering = graph::ordering_policy::degree);

/// Collective: generate and build the Reddit-like temporal graph (edge
/// metadata = first-contact timestamp, the paper's multigraph reduction).
void build_temporal_graph(comm::communicator& c, temporal_graph& g,
                          const temporal_params& params,
                          graph::ordering_policy ordering = graph::ordering_policy::degree);

/// Collective: generate and build the WDC-like web graph (vertex metadata =
/// FQDN string).
void build_web_graph(comm::communicator& c, web_graph& g, const web_params& params,
                     graph::ordering_policy ordering = graph::ordering_policy::degree);

/// Collective: gather every (deduplicated) edge of the generated stream on
/// all ranks -- test support for cross-checking against the serial counter.
[[nodiscard]] std::vector<graph::edge> materialize_edges(comm::communicator& c,
                                                         const dataset_spec& spec);

/// Stream the deterministic edge list of one named ablation preset
/// ("rmat" | "temporal" | "web") to `fn(u, v)`, this rank's slice only.
/// Shared by the CLI's deterministic subcommands and the storage bench so
/// both always generate the same graphs the smoke tests diff.
template <typename Fn>
void for_preset_edges(comm::communicator& c, const std::string& which, int delta,
                      Fn&& fn) {
  if (which == "rmat") {
    const auto spec = livejournal_like(delta);
    const rmat_generator g(spec.rmat);
    for_rank_slice(c, g.num_edges(), [&](std::uint64_t k) {
      const auto e = g.edge_at(k);
      fn(e.u, e.v);
    });
  } else if (which == "temporal") {
    temporal_params params;
    params.scale = static_cast<std::uint32_t>(std::max(8, 13 + delta));
    const temporal_generator g(params);
    for_rank_slice(c, g.num_edges(), [&](std::uint64_t k) {
      const auto e = g.edge_at(k);
      fn(e.u, e.v);
    });
  } else if (which == "web") {
    const auto spec = standard_suite(delta)[3];  // webcc12-host-like
    const web_generator g(spec.web);
    for_rank_slice(c, g.num_edges(), [&](std::uint64_t k) {
      const auto e = g.edge_at(k);
      fn(e.u, e.v);
    });
  } else {
    throw std::invalid_argument("for_preset_edges: unknown preset '" + which + "'");
  }
}

}  // namespace tripoll::gen
