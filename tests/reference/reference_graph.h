#ifndef UGUIDE_TESTS_REFERENCE_REFERENCE_GRAPH_H_
#define UGUIDE_TESTS_REFERENCE_REFERENCE_GRAPH_H_

#include "fd/fd.h"
#include "relation/relation.h"
#include "violations/bipartite_graph.h"

namespace uguide {

/// The violation graph of `fds` over `relation`, detected with the
/// hash-grouping ViolatingCells free function (no partitions, no engine,
/// no thread pool) and assembled with ViolationGraph::FromPerFdCells. The
/// behavioral reference every ViolationGraph::Build path must equal bit for
/// bit, and the graph-build benchmark baseline.
ViolationGraph BuildReferenceGraph(const Relation& relation, const FdSet& fds);

}  // namespace uguide

#endif  // UGUIDE_TESTS_REFERENCE_REFERENCE_GRAPH_H_
