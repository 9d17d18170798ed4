// Differential fuzz target for the violation engine. The input bytes decode
// into a small relation and an FD set; every violation-set query of the
// partition-backed ViolationEngine, and the detection union and E_T built
// on it, must equal a declarative pairwise oracle computed straight from
// the definition
//
//   violating rows of X -> A = {t | exists t': t[X] = t'[X], t[A] != t'[A]}
//
// by comparing every pair of decoded rows. The oracle reads the decoded
// value bytes, not the relation, so it shares no code with partitions,
// dictionary codes or hashing. The g3 removal sets are diffed against the
// hash-grouping free functions (violation_detector.h). Any mismatch traps.
//
// Layout (a missing byte reads as 0):
//   rows (0..130, so a run crosses the 64- and 128-bit word edges),
//   columns (2..6), alphabet (1..4), one value byte per cell, FD count
//   (1..12), two bytes per FD (rhs, LHS mask; the mask drops the rhs bit
//   and may be empty).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "fd/fd.h"
#include "relation/relation.h"
#include "violations/violation_detector.h"
#include "violations/violation_engine.h"

namespace {

using uguide::Cell;
using uguide::Fd;
using uguide::TupleId;

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

using Table = std::vector<std::vector<int>>;

// Rows t with some t' agreeing on every LHS column and differing on the
// RHS, ascending.
std::vector<TupleId> OracleRows(const Table& table, const Fd& fd) {
  const std::vector<int> lhs = fd.lhs.ToVector();
  std::vector<TupleId> rows;
  for (size_t t = 0; t < table.size(); ++t) {
    for (size_t u = 0; u < table.size(); ++u) {
      bool agree = true;
      for (int col : lhs) agree = agree && table[t][col] == table[u][col];
      if (agree && table[t][fd.rhs] != table[u][fd.rhs]) {
        rows.push_back(static_cast<TupleId>(t));
        break;
      }
    }
  }
  return rows;
}

void Check(bool ok) {
  if (!ok) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  const int rows = in.Next() % 131;
  const int cols = 2 + in.Next() % 5;
  const int alphabet = 1 + in.Next() % 4;

  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) {
    names.emplace_back(1, static_cast<char>('a' + c));
  }
  uguide::Relation relation(uguide::Schema::Make(names).ValueOrDie());
  Table table(static_cast<size_t>(rows));
  for (std::vector<int>& row : table) {
    std::vector<std::string> values;
    for (int c = 0; c < cols; ++c) {
      row.push_back(in.Next() % alphabet);
      values.push_back(std::to_string(row.back()));
    }
    relation.AddRow(values);
  }

  uguide::FdSet fds;
  const int num_fds = 1 + in.Next() % 12;
  for (int i = 0; i < num_fds; ++i) {
    const int rhs = in.Next() % cols;
    uint64_t lhs = in.Next() & ((uint64_t{1} << cols) - 1);
    lhs &= ~(uint64_t{1} << rhs);
    fds.Add(Fd(uguide::AttributeSet(lhs), rhs));
  }

  uguide::ViolationEngine engine(&relation);
  // The union of every FD's oracle cells, one flag per cell, row-major.
  std::vector<char> in_union(static_cast<size_t>(rows * cols), 0);
  for (const Fd& fd : fds) {
    const std::vector<TupleId> expected = OracleRows(table, fd);
    std::vector<Cell> expected_cells;
    for (TupleId r : expected) {
      expected_cells.push_back(Cell{r, fd.rhs});
      in_union[static_cast<size_t>(r * cols + fd.rhs)] = 1;
    }
    Check(engine.ViolatingTuples(fd) == expected);
    Check(engine.ViolatingCells(fd) == expected_cells);
    Check(engine.HasViolations(fd) == !expected.empty());

    // The streaming kernel yields each oracle row exactly once.
    std::vector<int> times(static_cast<size_t>(rows), 0);
    size_t yielded = 0;
    engine.ForEachViolatingRow(fd, [&](TupleId r) {
      Check(r >= 0 && r < rows);
      ++times[static_cast<size_t>(r)];
      ++yielded;
    });
    Check(yielded == expected.size());
    for (TupleId r : expected) Check(times[static_cast<size_t>(r)] == 1);

    const std::vector<TupleId> g3 = uguide::G3RemovalTuples(relation, fd);
    Check(engine.G3RemovalTuples(fd) == g3);
    Check(engine.G3RemovalCells(fd) == uguide::G3RemovalCells(relation, fd));
    Check(engine.G3RemovalCount(fd) == g3.size());
  }

  std::vector<Cell> expected_union;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (in_union[static_cast<size_t>(r * cols + c)]) {
        expected_union.push_back(Cell{r, c});
      }
    }
  }
  Check(uguide::AllDetections(engine, fds) == expected_union);
  const uguide::TrueViolationSet set =
      uguide::TrueViolationSet::Compute(engine, fds);
  Check(set.ToVector() == expected_union);
  Check(set.Size() == expected_union.size());
  for (int r = 0; r < rows; ++r) {
    bool violates = false;
    for (int c = 0; c < cols; ++c) {
      violates = violates || in_union[static_cast<size_t>(r * cols + c)];
    }
    Check(set.TupleViolates(r, cols) == violates);
  }
  return 0;
}
