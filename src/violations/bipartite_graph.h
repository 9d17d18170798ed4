#ifndef UGUIDE_VIOLATIONS_BIPARTITE_GRAPH_H_
#define UGUIDE_VIOLATIONS_BIPARTITE_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitmap.h"
#include "common/check.h"
#include "common/span.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

class ThreadPool;
class ViolationEngine;

/// Index of an FD node in a ViolationGraph.
using FdId = int;
/// Index of a violation (cell) node in a ViolationGraph.
using CellId = int;

/// `i` as an index, after checking it lies in [0, bound).
inline size_t CheckedId(int i, int bound) {
  UGUIDE_CHECK(i >= 0 && i < bound) << "graph index out of range";
  return static_cast<size_t>(i);
}

/// \brief The bipartite FD <-> violation graph of §3.2.
///
/// Left nodes are candidate FDs; right nodes are the cells they flag; an
/// edge connects an FD to every cell in its g3 removal set. The graph is
/// fixed once the candidates are known and immutable by type: it has no
/// non-const member and cannot be copied, so one build is read in place by
/// every run over the same candidate set. What the expert's answers change
/// (which nodes are still live) belongs to each run's ActiveSet.
///
/// The adjacency is frozen CSR (DESIGN.md §14): both directions are stored
/// as one flat edge array plus an offset array, built once in the
/// deterministic Merge step, so ApproxMemoryBytes() is a pure function of
/// the graph's content.
class ViolationGraph {
 public:
  ViolationGraph(ViolationGraph&&) = default;
  ViolationGraph& operator=(ViolationGraph&&) = default;
  ViolationGraph(const ViolationGraph&) = delete;
  ViolationGraph& operator=(const ViolationGraph&) = delete;

  /// Builds the graph for `candidates` over `relation`. FDs that flag no
  /// cell still get a node (with no edges) so FdIds align with the input
  /// set's order. Routes violation detection through a private
  /// partition-backed engine; prefer the engine overload to share the
  /// LHS-partition cache with the rest of a session.
  static ViolationGraph Build(const Relation& relation,
                              const FdSet& candidates);

  /// As above, detecting violations through `engine`. When `pool` drives
  /// more than one thread, per-FD violation sets are computed in parallel
  /// and merged in FD order, so cell ids, adjacency order, and the whole
  /// graph are bit-identical to the serial build at any thread count
  /// (freeze inputs / shard per FD / merge in order — the discipline of
  /// parallel discovery, DESIGN.md §6).
  static ViolationGraph Build(ViolationEngine& engine, const FdSet& candidates,
                              ThreadPool* pool = nullptr);

  /// Assembles a graph directly from frozen per-FD violation-cell vectors
  /// (`per_fd[i]` belongs to `fds[i]`). This is the deterministic merge
  /// step every build path funnels through, exposed for the live-mutation
  /// layer: when an epoch recomputes cells only for FDs whose attributes a
  /// mutation touched (reusing the untouched FDs' vectors verbatim), the
  /// result is byte-identical to a fresh Build over the mutated relation.
  /// `per_fd` is read, not consumed — the live index calls this once per
  /// epoch against vectors it keeps across epochs, so copying them here
  /// would charge every batch O(total cells) for nothing.
  static ViolationGraph FromPerFdCells(
      std::vector<Fd> fds, const std::vector<std::vector<Cell>>& per_fd);

  /// As above with each FD's vector behind a shared handle — the
  /// copy-on-write layout LiveViolationIndex keeps across epochs, so a
  /// lazy epoch materialization reads the frozen handles without ever
  /// copying the untouched vectors.
  static ViolationGraph FromPerFdCells(
      std::vector<Fd> fds,
      const std::vector<std::shared_ptr<const std::vector<Cell>>>& per_fd);

  int NumFds() const { return static_cast<int>(fds_.size()); }
  int NumCells() const { return static_cast<int>(cells_.size()); }

  const Fd& fd(FdId f) const { return fds_[CheckedId(f, NumFds())]; }
  const Cell& cell(CellId c) const {
    return cells_[CheckedId(c, NumCells())];
  }

  /// Cells flagged by an FD (edges from the left), in interning order.
  ConstSpan<CellId> CellsOfFd(FdId f) const {
    const size_t i = CheckedId(f, NumFds());
    return ConstSpan<CellId>(fd_cell_edges_.data() + fd_cell_offsets_[i],
                             fd_cell_offsets_[i + 1] - fd_cell_offsets_[i]);
  }

  /// FDs flagging a cell (edges from the right), ascending.
  ConstSpan<FdId> FdsOfCell(CellId c) const {
    const size_t i = CheckedId(c, NumCells());
    return ConstSpan<FdId>(cell_fd_edges_.data() + cell_fd_offsets_[i],
                           cell_fd_offsets_[i + 1] - cell_fd_offsets_[i]);
  }

  /// Approximate heap footprint in bytes (container payloads at their
  /// logical sizes, not allocator metadata — the MemoryBudget accounting
  /// convention of DESIGN.md §8). A pure function of the graph content,
  /// so the figure is identical across build paths and thread counts. The
  /// DatasetRegistry charges shared graphs with this.
  size_t ApproxMemoryBytes() const;

 private:
  ViolationGraph() = default;

  /// Interns cells and wires adjacency from frozen per-FD cell vectors
  /// (borrowed through raw pointers so both FromPerFdCells layouts share
  /// it), in FD order — the deterministic merge step shared by every
  /// build path.
  static ViolationGraph Merge(
      std::vector<Fd> fds,
      const std::vector<const std::vector<Cell>*>& per_fd);

  std::vector<Fd> fds_;
  std::vector<Cell> cells_;
  /// CSR adjacency, frozen at Merge: FD f's cells are
  /// fd_cell_edges_[fd_cell_offsets_[f], fd_cell_offsets_[f+1]), and
  /// symmetrically for cells. Offset arrays have N+1 entries.
  std::vector<uint32_t> fd_cell_offsets_;
  std::vector<CellId> fd_cell_edges_;
  std::vector<uint32_t> cell_fd_offsets_;
  std::vector<FdId> cell_fd_edges_;
};

/// \brief One run's live nodes of a ViolationGraph.
///
/// The interactive strategies deactivate nodes as the expert answers: an
/// invalidated FD disappears together with the cells only it flagged, and
/// a cell certified clean disappears on its own. Everything starts active.
/// Flags live in Bitmaps (common/bitmap.h) so selection scans visit set
/// bits only, and the per-cell count of active flagging FDs is kept
/// incrementally, so every hot query of the strategy loops is O(1). The
/// graph is read, never written, and must outlive the set.
class ActiveSet {
 public:
  explicit ActiveSet(const ViolationGraph& graph);

  bool FdActive(FdId f) const {
    return fd_active_.Test(CheckedId(f, graph_->NumFds()));
  }
  bool CellActive(CellId c) const {
    return cell_active_.Test(CheckedId(c, graph_->NumCells()));
  }

  /// Number of active FDs flagging cell `c`; 0 once `c` is inactive.
  int ActiveDegreeOfCell(CellId c) const {
    return CellActive(c) ? cell_degree_[static_cast<size_t>(c)] : 0;
  }

  /// Deactivates an FD; cells left with no active FD are deactivated too.
  /// Idempotent.
  void DeactivateFd(FdId f);

  /// Deactivates a single cell (e.g., the expert certified it clean).
  /// Idempotent.
  void DeactivateCell(CellId c) {
    cell_active_.Clear(CheckedId(c, graph_->NumCells()));
  }

  /// Calls `fn(FdId)` for every active FD, ascending. Branch-free word
  /// scan over the active bitmap: only set bits are visited, so sparse
  /// late-session scans skip dead regions a word (64 ids) at a time.
  template <typename Fn>
  void ForEachActiveFd(Fn&& fn) const {
    fd_active_.ForEachSetBit([&](size_t f) { fn(static_cast<FdId>(f)); });
  }

  /// Calls `fn(CellId)` for every active cell, ascending.
  template <typename Fn>
  void ForEachActiveCell(Fn&& fn) const {
    cell_active_.ForEachSetBit([&](size_t c) { fn(static_cast<CellId>(c)); });
  }

 private:
  const ViolationGraph* graph_;
  /// Bit i is node i's flag.
  Bitmap fd_active_;
  Bitmap cell_active_;
  /// Active FDs flagging each cell, whether or not the cell is active.
  std::vector<int> cell_degree_;
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_BIPARTITE_GRAPH_H_
