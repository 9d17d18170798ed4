#include "violations/violation_engine.h"

#include "common/bitmap.h"

namespace uguide {

namespace {

// The rows `for_each` yields (each at most once) as ascending `make(row)`s:
// a word scan of a row bitmap replaces a sort of the class-order output.
template <typename T, typename ForEach, typename Make>
std::vector<T> Ascending(TupleId num_rows, const ForEach& for_each,
                         const Make& make) {
  Bitmap rows(static_cast<size_t>(num_rows));
  size_t count = 0;
  for_each([&](TupleId r) {
    rows.TestAndSet(static_cast<size_t>(r));
    ++count;
  });
  std::vector<T> out;
  out.reserve(count);
  rows.ForEachSetBit(
      [&](size_t r) { out.push_back(make(static_cast<TupleId>(r))); });
  return out;
}

// Appends the g3-minority rows of one LHS class to `out`. Mirrors the
// reference detector exactly: the majority is the most frequent RHS code,
// ties breaking toward the code seen first in the class — classes list
// rows ascending, i.e. in relation order, so the tie-break coincides with
// the hash-grouped reference. Classes have few distinct codes in practice,
// so a linear scan over a flat (code, count) array beats hashing; the
// `distinct` vectors are caller-owned scratch reused across classes.
void CollectMinorityRows(const std::vector<ValueCode>& codes,
                         Partition::ClassView cls,
                         std::vector<ValueCode>& distinct_codes,
                         std::vector<size_t>& distinct_counts,
                         std::vector<TupleId>& out) {
  distinct_codes.clear();
  distinct_counts.clear();
  for (TupleId r : cls) {
    const ValueCode code = codes[static_cast<size_t>(r)];
    size_t i = 0;
    for (; i < distinct_codes.size(); ++i) {
      if (distinct_codes[i] == code) break;
    }
    if (i == distinct_codes.size()) {
      distinct_codes.push_back(code);
      distinct_counts.push_back(1);
    } else {
      ++distinct_counts[i];
    }
  }
  if (distinct_codes.size() <= 1) return;
  // first_seen order + strict > keeps the tie-break toward the earlier code.
  size_t majority = 0;
  for (size_t i = 1; i < distinct_codes.size(); ++i) {
    if (distinct_counts[i] > distinct_counts[majority]) majority = i;
  }
  const ValueCode majority_code = distinct_codes[majority];
  for (TupleId r : cls) {
    if (codes[static_cast<size_t>(r)] != majority_code) out.push_back(r);
  }
}

}  // namespace

ViolationEngine::ViolationEngine(const Relation* relation,
                                 MemoryBudget* budget)
    : relation_(relation), store_(relation, budget) {
  UGUIDE_CHECK(relation != nullptr);
}

std::shared_ptr<const Partition> ViolationEngine::LhsPartition(
    const AttributeSet& attrs) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  return store_.Get(attrs, [&]() -> Partition {
    if (attrs.Empty()) return Partition::ForEmptySet(relation_->NumRows());
    if (attrs.Size() == 1) {
      return Partition::ForColumn(*relation_, attrs.Lowest());
    }
    // Compose from cached sub-partitions: split off the lowest attribute
    // and recurse, the same suffix decomposition as PartitionCache, so
    // candidates sharing LHS suffixes reuse each other's work. The store
    // releases its lock before invoking this builder, making the recursive
    // Get safe.
    const int low = attrs.Lowest();
    std::shared_ptr<const Partition> rest = LhsPartition(attrs.Without(low));
    std::shared_ptr<const Partition> col =
        LhsPartition(AttributeSet::Single(low));
    return rest->Product(*col);
  });
}

std::vector<TupleId> ViolationEngine::ViolatingTuples(const Fd& fd) {
  return Ascending<TupleId>(
      relation_->NumRows(),
      [&](const auto& emit) { ForEachViolatingRow(fd, emit); },
      [](TupleId r) { return r; });
}

std::vector<Cell> ViolationEngine::ViolatingCells(const Fd& fd) {
  return Ascending<Cell>(
      relation_->NumRows(),
      [&](const auto& emit) { ForEachViolatingRow(fd, emit); },
      [&](TupleId r) { return Cell{r, fd.rhs}; });
}

template <typename RowFn>
void ViolationEngine::ForEachG3RemovalRow(const Fd& fd, const RowFn& fn) {
  UGUIDE_CHECK(fd.IsValidShape());
  UGUIDE_CHECK(fd.rhs < relation_->NumAttributes());
  const std::vector<ValueCode>& codes = relation_->ColumnCodes(fd.rhs);
  std::shared_ptr<const Partition> lhs = LhsPartition(fd.lhs);
  std::vector<TupleId> minority;
  std::vector<ValueCode> distinct_codes;
  std::vector<size_t> distinct_counts;
  for (size_t i = 0; i < lhs->NumClasses(); ++i) {
    minority.clear();
    CollectMinorityRows(codes, lhs->Class(i), distinct_codes, distinct_counts,
                        minority);
    for (TupleId r : minority) fn(r);
  }
}

std::vector<TupleId> ViolationEngine::G3RemovalTuples(const Fd& fd) {
  return Ascending<TupleId>(
      relation_->NumRows(),
      [&](const auto& emit) { ForEachG3RemovalRow(fd, emit); },
      [](TupleId r) { return r; });
}

std::vector<Cell> ViolationEngine::G3RemovalCells(const Fd& fd) {
  return Ascending<Cell>(
      relation_->NumRows(),
      [&](const auto& emit) { ForEachG3RemovalRow(fd, emit); },
      [&](TupleId r) { return Cell{r, fd.rhs}; });
}

size_t ViolationEngine::G3RemovalCount(const Fd& fd) {
  size_t count = 0;
  ForEachG3RemovalRow(fd, [&](TupleId) { ++count; });
  return count;
}

bool ViolationEngine::HasViolations(const Fd& fd) {
  bool found = false;
  ForEachViolatingRow(fd, [&](TupleId) { found = true; });
  return found;
}

std::vector<int> ViolationEngine::ViolationCountPerTuple(const FdSet& fds) {
  std::vector<int> counts(static_cast<size_t>(relation_->NumRows()), 0);
  for (const Fd& fd : fds) {
    ForEachG3RemovalRow(fd,
                        [&](TupleId r) { ++counts[static_cast<size_t>(r)]; });
  }
  return counts;
}

void ViolationEngine::SeedPartition(const AttributeSet& attrs,
                                    std::shared_ptr<const Partition> partition) {
  store_.PutShared(attrs, std::move(partition), /*pinned=*/true);
}

std::vector<std::pair<AttributeSet, std::shared_ptr<const Partition>>>
ViolationEngine::StorePartitions() const {
  return store_.Snapshot();
}

size_t ViolationEngine::partition_hits() const {
  const size_t lookups = lookups_.load(std::memory_order_relaxed);
  const size_t misses = store_.recomputes();
  return lookups >= misses ? lookups - misses : 0;
}

size_t ViolationEngine::partition_misses() const {
  return store_.recomputes();
}

}  // namespace uguide
