#ifndef AIRINDEX_GRAPH_CATALOG_H_
#define AIRINDEX_GRAPH_CATALOG_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace airindex::graph {

/// One entry of the evaluation-network catalog (paper Table 2).
struct NetworkSpec {
  std::string name;
  uint32_t num_nodes;
  /// Undirected edge count as reported by the paper.
  uint32_t num_edges;
  /// Fixed generator seed so every experiment sees the same replica.
  uint64_t seed;
};

/// The five road networks of the paper's evaluation, in Table 2 order:
/// Milan (14021/26849), Germany (28867/30429, the default network),
/// Argentina (85287/88357), India (149566/155483),
/// San Francisco (174956/223001).
const std::vector<NetworkSpec>& PaperNetworks();

/// The paper's default network ("Germany").
const NetworkSpec& DefaultNetwork();

/// Looks a catalog entry up by (case-sensitive) name.
Result<NetworkSpec> FindNetwork(std::string_view name);

/// Generates the synthetic replica of `spec`, optionally scaled down.
/// `scale` multiplies both node and edge counts (edge count floored at
/// nodes-1 so the network stays connected); scale=1.0 reproduces the paper's
/// exact sizes. See docs/reproduction.md for why synthetic replicas keep the
/// paper's observable behaviour.
Result<Graph> MakeNetwork(const NetworkSpec& spec, double scale = 1.0);

}  // namespace airindex::graph

#endif  // AIRINDEX_GRAPH_CATALOG_H_
