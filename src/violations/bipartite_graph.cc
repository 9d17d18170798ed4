#include "violations/bipartite_graph.h"

#include <utility>

#include "common/thread_pool.h"
#include "violations/violation_engine.h"

namespace uguide {

namespace {

// Smallest power of two >= n (and >= 16, so tiny graphs still probe well).
size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

/// Borrows every vector in `per_fd` for the pointer-view Merge.
std::vector<const std::vector<Cell>*> ViewsOf(
    const std::vector<std::vector<Cell>>& per_fd) {
  std::vector<const std::vector<Cell>*> views;
  views.reserve(per_fd.size());
  for (const auto& cells : per_fd) views.push_back(&cells);
  return views;
}

}  // namespace

// Assembles a graph from per-FD violation-cell vectors. Cells are
// interned in FD order, so the result is a pure function of the inputs —
// independent of how (or on how many threads) the vectors were produced.
ViolationGraph ViolationGraph::Merge(
    std::vector<Fd> fds, const std::vector<const std::vector<Cell>*>& per_fd) {
  ViolationGraph g;
  g.fds_ = std::move(fds);

  size_t total_edges = 0;
  for (const auto* cells : per_fd) total_edges += cells->size();

  // Pass 1: intern cells in FD order (first sighting assigns the id) and
  // emit the FD-side CSR in the same sweep — edges are already grouped by
  // FD. The interning table is an open-addressed linear-probe array of
  // CellIds (-1 empty), sized for the worst case (every edge a distinct
  // cell) and dropped when the merge returns.
  g.fd_cell_offsets_.reserve(g.fds_.size() + 1);
  g.fd_cell_offsets_.push_back(0);
  g.fd_cell_edges_.reserve(total_edges);
  std::vector<CellId> slots(NextPow2(total_edges * 2), -1);
  const size_t mask = slots.size() - 1;
  for (FdId f = 0; f < g.NumFds(); ++f) {
    for (const Cell& cell : *per_fd[static_cast<size_t>(f)]) {
      size_t slot = CellHash{}(cell) & mask;
      while (slots[slot] >= 0 &&
             !(g.cells_[static_cast<size_t>(slots[slot])] == cell)) {
        slot = (slot + 1) & mask;
      }
      CellId& id = slots[slot];
      if (id < 0) {
        id = static_cast<CellId>(g.cells_.size());
        g.cells_.push_back(cell);
      }
      g.fd_cell_edges_.push_back(id);
    }
    g.fd_cell_offsets_.push_back(
        static_cast<uint32_t>(g.fd_cell_edges_.size()));
  }

  // Pass 2: invert to the cell-side CSR — count degrees, prefix-sum, then
  // scatter FD ids in ascending-f order (matching the interleaved
  // push_back order of the nested-vector layout).
  g.cell_fd_offsets_.assign(g.cells_.size() + 1, 0);
  for (CellId c : g.fd_cell_edges_) {
    ++g.cell_fd_offsets_[static_cast<size_t>(c) + 1];
  }
  for (size_t i = 1; i < g.cell_fd_offsets_.size(); ++i) {
    g.cell_fd_offsets_[i] += g.cell_fd_offsets_[i - 1];
  }
  g.cell_fd_edges_.resize(total_edges);
  std::vector<uint32_t> cursor(g.cell_fd_offsets_.begin(),
                               g.cell_fd_offsets_.end() - 1);
  for (FdId f = 0; f < g.NumFds(); ++f) {
    const uint32_t begin = g.fd_cell_offsets_[static_cast<size_t>(f)];
    const uint32_t end = g.fd_cell_offsets_[static_cast<size_t>(f) + 1];
    for (uint32_t e = begin; e < end; ++e) {
      const CellId c = g.fd_cell_edges_[e];
      g.cell_fd_edges_[cursor[static_cast<size_t>(c)]++] = f;
    }
  }

  return g;
}

ViolationGraph ViolationGraph::FromPerFdCells(
    std::vector<Fd> fds, const std::vector<std::vector<Cell>>& per_fd) {
  return Merge(std::move(fds), ViewsOf(per_fd));
}

ViolationGraph ViolationGraph::FromPerFdCells(
    std::vector<Fd> fds,
    const std::vector<std::shared_ptr<const std::vector<Cell>>>& per_fd) {
  std::vector<const std::vector<Cell>*> views;
  views.reserve(per_fd.size());
  for (const auto& cells : per_fd) views.push_back(cells.get());
  return Merge(std::move(fds), views);
}

ViolationGraph ViolationGraph::Build(const Relation& relation,
                                     const FdSet& candidates) {
  ViolationEngine local(&relation);
  return Build(local, candidates, /*pool=*/nullptr);
}

ViolationGraph ViolationGraph::Build(ViolationEngine& engine,
                                     const FdSet& candidates,
                                     ThreadPool* pool) {
  // Freeze the FD list, shard the per-FD violation scans across the pool
  // (the engine is thread-safe), then merge serially in FD order: the
  // merge sees identical per-FD cell vectors regardless of thread count,
  // so cell ids and adjacency order are bit-identical to the serial build.
  std::vector<Fd> fds(candidates.begin(), candidates.end());
  std::vector<std::vector<Cell>> per_fd;
  if (pool != nullptr && pool->num_threads() > 1 && fds.size() > 1) {
    per_fd = pool->ParallelMap(
        fds, [&](const Fd& fd) { return engine.ViolatingCells(fd); });
  } else {
    per_fd.reserve(fds.size());
    for (const Fd& fd : fds) per_fd.push_back(engine.ViolatingCells(fd));
  }
  return Merge(std::move(fds), ViewsOf(per_fd));
}

size_t ViolationGraph::ApproxMemoryBytes() const {
  return fds_.size() * sizeof(Fd) + cells_.size() * sizeof(Cell) +
         fd_cell_offsets_.size() * sizeof(uint32_t) +
         fd_cell_edges_.size() * sizeof(CellId) +
         cell_fd_offsets_.size() * sizeof(uint32_t) +
         cell_fd_edges_.size() * sizeof(FdId);
}

ActiveSet::ActiveSet(const ViolationGraph& graph)
    : graph_(&graph),
      fd_active_(static_cast<size_t>(graph.NumFds()), true),
      cell_active_(static_cast<size_t>(graph.NumCells()), true),
      cell_degree_(static_cast<size_t>(graph.NumCells())) {
  for (CellId c = 0; c < graph.NumCells(); ++c) {
    cell_degree_[static_cast<size_t>(c)] =
        static_cast<int>(graph.FdsOfCell(c).size());
  }
}

void ActiveSet::DeactivateFd(FdId f) {
  if (!FdActive(f)) return;
  fd_active_.Clear(static_cast<size_t>(f));
  // Cells orphaned by this removal are no longer violations of anything.
  // The degree counts active *FDs*, so it drops whether or not the cell is
  // still active.
  for (CellId c : graph_->CellsOfFd(f)) {
    if (--cell_degree_[static_cast<size_t>(c)] == 0) DeactivateCell(c);
  }
}

}  // namespace uguide
