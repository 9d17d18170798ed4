#ifndef UGUIDE_VIOLATIONS_VIOLATION_DETECTOR_H_
#define UGUIDE_VIOLATIONS_VIOLATION_DETECTOR_H_

#include <cstddef>
#include <vector>

#include "common/bitmap.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

class ViolationEngine;

/// \brief Computes the cells an (approximate) FD flags as violations.
///
/// For the FD X -> A, tuples are grouped by their X-projection; in every
/// group holding at least two distinct A-values, each member's A-cell
/// participates in a violating tuple pair and is flagged (both sides of a
/// conflict are suspects -- the convention of FD-based error detection and
/// of the paper's workflow simulation, where a cell is erroneous iff "it
/// violates some FD in Sigma_TC").
std::vector<Cell> ViolatingCells(const Relation& relation, const Fd& fd);

/// Rows of ViolatingCells (same order, without the attribute component).
std::vector<TupleId> ViolatingTuples(const Relation& relation, const Fd& fd);

/// \brief The minimum set of tuples to delete so the FD holds exactly
/// (the g3 removal set, §2.1): within each group the most frequent A-value
/// is kept and minority tuples are returned. |result| / |T| equals the g3
/// error. Ties break toward the value seen first in the relation.
std::vector<TupleId> G3RemovalTuples(const Relation& relation, const Fd& fd);

/// The A-cells of G3RemovalTuples.
std::vector<Cell> G3RemovalCells(const Relation& relation, const Fd& fd);

/// True iff the FD has at least one violating tuple pair. Cheaper than
/// materializing the violation set.
bool HasViolations(const Relation& relation, const Fd& fd);

/// For every tuple, the number of FDs in `fds` whose g3 removal set
/// contains it. Drives Tuple-Sampling-Violation-Weighting (Alg. 7, which
/// weights by membership in "the minimal number of tuples to be deleted").
std::vector<int> ViolationCountPerTuple(const Relation& relation,
                                        const FdSet& fds);

/// \brief A dense set of cells over one relation's shape.
///
/// Cell (row, col) is bit `row * num_attributes + col` of a Bitmap, so
/// membership and insertion are one word operation each, and a word scan
/// visits members in row-major order (Cell::operator<) with no sort.
class CellBitmap {
 public:
  CellBitmap() = default;
  CellBitmap(TupleId num_rows, int num_attributes)
      : bits_(static_cast<size_t>(num_rows) *
              static_cast<size_t>(num_attributes)),
        num_rows_(num_rows),
        num_attributes_(num_attributes) {}

  /// False for any cell outside the relation's shape.
  bool Contains(const Cell& cell) const {
    return cell.row >= 0 && cell.row < num_rows_ && cell.col >= 0 &&
           cell.col < num_attributes_ && bits_.Test(Index(cell));
  }

  /// Adds an in-shape cell; returns true iff it was not yet a member.
  bool Insert(const Cell& cell) {
    UGUIDE_DCHECK(cell.row >= 0 && cell.row < num_rows_ && cell.col >= 0 &&
                  cell.col < num_attributes_);
    return bits_.TestAndSet(Index(cell));
  }

  /// Calls `fn(const Cell&)` for every member, in row-major order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t width = static_cast<size_t>(num_attributes_);
    bits_.ForEachSetBit([&](size_t i) {
      fn(Cell{static_cast<TupleId>(i / width), static_cast<int>(i % width)});
    });
  }

  /// Every member, in row-major order.
  std::vector<Cell> ToVector() const {
    std::vector<Cell> out;
    ForEach([&](const Cell& cell) { out.push_back(cell); });
    return out;
  }

 private:
  size_t Index(const Cell& cell) const {
    const size_t row = static_cast<size_t>(cell.row);
    const size_t col = static_cast<size_t>(cell.col);
    return row * static_cast<size_t>(num_attributes_) + col;
  }

  Bitmap bits_;
  TupleId num_rows_ = 0;
  int num_attributes_ = 0;
};

/// \brief The set E of cells violating at least one FD of `fds` on
/// `relation`.
///
/// With `fds` = Sigma_TC this is the paper's E_T -- the FD-detectable
/// errors; the simulated expert answers cell/tuple questions from it and
/// detection metrics measure against it (§7.1).
class TrueViolationSet {
 public:
  TrueViolationSet() = default;

  /// Builds the set from the union of every FD's violating cells.
  static TrueViolationSet Compute(const Relation& relation, const FdSet& fds);

  /// As above, reusing a shared partition-backed engine (and its LHS
  /// cache) instead of re-grouping per FD.
  static TrueViolationSet Compute(ViolationEngine& engine, const FdSet& fds);

  bool Contains(const Cell& cell) const { return cells_.Contains(cell); }

  /// True iff any cell of `row` is a violation. O(1): answered from a
  /// per-row bitmap built once in Compute instead of probing the cell set
  /// per attribute (this is the simulated expert's hot path for tuple
  /// questions). The attribute count is part of the historical signature;
  /// every violating cell's column is below the relation's attribute
  /// count, so it no longer participates in the lookup.
  bool TupleViolates(TupleId row, int num_attributes) const;

  size_t Size() const { return size_; }

  /// All violating cells in row-major order.
  std::vector<Cell> ToVector() const { return cells_.ToVector(); }

 private:
  CellBitmap cells_;
  size_t size_ = 0;
  /// row_violates_[r] == true iff some cell of row r is in cells_.
  std::vector<bool> row_violates_;
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_VIOLATION_DETECTOR_H_
