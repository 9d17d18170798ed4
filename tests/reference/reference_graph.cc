#include "reference/reference_graph.h"

#include <utility>
#include <vector>

#include "violations/violation_detector.h"

namespace uguide {

ViolationGraph BuildReferenceGraph(const Relation& relation,
                                   const FdSet& fds) {
  std::vector<Fd> list(fds.begin(), fds.end());
  std::vector<std::vector<Cell>> per_fd;
  per_fd.reserve(list.size());
  for (const Fd& fd : list) per_fd.push_back(ViolatingCells(relation, fd));
  return ViolationGraph::FromPerFdCells(std::move(list), per_fd);
}

}  // namespace uguide
