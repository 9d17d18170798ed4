// Equivalence suite for the partition-backed violation engine (DESIGN.md
// §9): every query must be byte-identical to the hash-grouping reference
// detector, the parallel graph build must be bit-identical to the serial
// one at any thread count, and the shipped cell strategies must select the
// same questions as the full-rescan references in tests/reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/candidate_gen.h"
#include "core/cell_strategies.h"
#include "core/fd_strategies.h"
#include "core/metrics.h"
#include "core/session.h"
#include "core/tuple_strategies.h"
#include "datagen/generators.h"
#include "discovery/tane.h"
#include "errorgen/error_generator.h"
#include "oracle/simulated_expert.h"
#include "reference/reference_cell_strategies.h"
#include "reference/reference_graph.h"
#include "test_util.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_detector.h"
#include "violations/violation_engine.h"

namespace uguide {
namespace {

// A relation mixing the detector's corner cases: a constant column (one
// all-rows class), an all-distinct column (every class a singleton), and
// low-cardinality columns that produce majority-code ties.
Relation MakeRandomRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  Relation rel(
      Schema::Make({"const", "two", "six", "key", "three"}).ValueOrDie());
  for (int i = 0; i < rows; ++i) {
    rel.AddRow({"c", std::to_string(rng.NextBounded(2)),
                std::to_string(rng.NextBounded(6)), std::to_string(i),
                std::to_string(rng.NextBounded(3))});
  }
  return rel;
}

// All valid-shape FDs with |LHS| <= 2, including the empty LHS.
std::vector<Fd> EnumerateFds(int num_attributes) {
  std::vector<Fd> fds;
  for (int rhs = 0; rhs < num_attributes; ++rhs) {
    fds.push_back(Fd(AttributeSet(), rhs));
    for (int a = 0; a < num_attributes; ++a) {
      if (a == rhs) continue;
      fds.push_back(Fd(AttributeSet::Single(a), rhs));
      for (int b = a + 1; b < num_attributes; ++b) {
        if (b == rhs) continue;
        fds.push_back(Fd(AttributeSet::Single(a).With(b), rhs));
      }
    }
  }
  return fds;
}

void ExpectEngineMatchesReference(ViolationEngine& engine,
                                  const Relation& rel, const Fd& fd) {
  EXPECT_EQ(engine.ViolatingTuples(fd), ViolatingTuples(rel, fd));
  EXPECT_EQ(engine.ViolatingCells(fd), ViolatingCells(rel, fd));
  EXPECT_EQ(engine.G3RemovalTuples(fd), G3RemovalTuples(rel, fd));
  EXPECT_EQ(engine.G3RemovalCells(fd), G3RemovalCells(rel, fd));
  EXPECT_EQ(engine.G3RemovalCount(fd), G3RemovalTuples(rel, fd).size());
  EXPECT_EQ(engine.HasViolations(fd), HasViolations(rel, fd));
}

void ExpectGraphsEqual(const ViolationGraph& a, const ViolationGraph& b) {
  ASSERT_EQ(a.NumFds(), b.NumFds());
  ASSERT_EQ(a.NumCells(), b.NumCells());
  for (FdId f = 0; f < a.NumFds(); ++f) {
    EXPECT_EQ(a.fd(f), b.fd(f));
    EXPECT_EQ(a.CellsOfFd(f), b.CellsOfFd(f));
  }
  for (CellId c = 0; c < a.NumCells(); ++c) {
    EXPECT_EQ(a.cell(c), b.cell(c));
    EXPECT_EQ(a.FdsOfCell(c), b.FdsOfCell(c));
  }
}

TEST(ViolationEngineTest, MatchesReferenceOnRandomRelations) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Relation rel = MakeRandomRelation(seed, 120);
    ViolationEngine engine(&rel);
    for (const Fd& fd : EnumerateFds(rel.NumAttributes())) {
      ExpectEngineMatchesReference(engine, rel, fd);
    }
    // The 65 enumerated FDs share 11 distinct non-trivial LHS sets (plus
    // the empty set and 5 columns); the cache must have been doing its job.
    EXPECT_GT(engine.partition_hits(), engine.partition_misses());
  }
}

TEST(ViolationEngineTest, MatchesReferenceOnHandcraftedTies) {
  // zip=1 splits 2-2 between ny and boston: majority is the first-seen
  // code; both detectors must break the tie the same way.
  Relation rel(Schema::Make({"zip", "city"}).ValueOrDie());
  for (const auto& row :
       std::vector<std::vector<std::string>>{{"1", "ny"},
                                             {"1", "boston"},
                                             {"1", "boston"},
                                             {"1", "ny"},
                                             {"2", "la"}}) {
    rel.AddRow(row);
  }
  ViolationEngine engine(&rel);
  const Fd fd({0}, 1);
  ExpectEngineMatchesReference(engine, rel, fd);
  EXPECT_EQ(engine.G3RemovalTuples(fd), (std::vector<TupleId>{1, 2}));
}

TEST(ViolationEngineTest, ViolationCountPerTupleMatches) {
  Relation rel = MakeRandomRelation(7, 150);
  FdSet fds;
  for (const Fd& fd : EnumerateFds(rel.NumAttributes())) fds.Add(fd);
  ViolationEngine engine(&rel);
  EXPECT_EQ(engine.ViolationCountPerTuple(fds),
            ViolationCountPerTuple(rel, fds));
}

TEST(ViolationEngineTest, MatchesReferenceOnTaxCandidates) {
  DataGenOptions data;
  data.rows = 400;
  data.seed = 9;
  Relation clean = GenerateTax(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.1;
  errors.seed = 10;
  DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();
  CandidateGenOptions cand;
  cand.max_lhs_size = 3;
  CandidateSet candidates =
      GenerateCandidates(dataset.dirty, cand).ValueOrDie();
  ASSERT_GT(candidates.candidates.Size(), 0u);

  ViolationEngine engine(&dataset.dirty);
  for (const Fd& fd : candidates.candidates) {
    ExpectEngineMatchesReference(engine, dataset.dirty, fd);
  }
  EXPECT_GT(engine.partition_hits(), 0u);
}

TEST(ViolationEngineTest, MatchesReferenceUnderTinyMemoryBudget) {
  // A budget far below the partition working set forces LRU eviction and
  // recompute-on-miss; results must not change.
  Relation rel = MakeRandomRelation(11, 200);
  MemoryBudget budget(/*soft_limit_bytes=*/4 << 10, /*hard_limit_bytes=*/0);
  ViolationEngine engine(&rel, &budget);
  for (int pass = 0; pass < 2; ++pass) {
    for (const Fd& fd : EnumerateFds(rel.NumAttributes())) {
      ExpectEngineMatchesReference(engine, rel, fd);
    }
  }
  EXPECT_GT(budget.high_water(), 0u);
}

TEST(ViolationEngineTest, TrueViolationSetBitmapMatchesCellProbe) {
  Relation rel = MakeRandomRelation(13, 150);
  FdSet fds;
  for (const Fd& fd : EnumerateFds(rel.NumAttributes())) fds.Add(fd);
  TrueViolationSet set = TrueViolationSet::Compute(rel, fds);
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    bool expected = false;
    for (int a = 0; a < rel.NumAttributes(); ++a) {
      expected = expected || set.Contains(Cell{r, a});
    }
    EXPECT_EQ(set.TupleViolates(r, rel.NumAttributes()), expected);
  }
  EXPECT_FALSE(set.TupleViolates(-1, rel.NumAttributes()));
  EXPECT_FALSE(set.TupleViolates(rel.NumRows(), rel.NumAttributes()));
}

// The rows ForEachViolatingRow yields, sorted: equal to the ascending
// reference iff the kernel yields the reference's multiset.
std::vector<TupleId> StreamedRows(ViolationEngine& engine, const Fd& fd) {
  std::vector<TupleId> rows;
  engine.ForEachViolatingRow(fd, [&](TupleId r) { rows.push_back(r); });
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ViolationEngineTest, ForEachViolatingRowMatchesReferenceAsMultiset) {
  // Row counts on both sides of the 64-bit word edges of the row bitmap
  // behind the sorted outputs; EnumerateFds includes the empty LHS.
  for (int rows : {0, 1, 63, 64, 65, 128}) {
    Relation rel = MakeRandomRelation(static_cast<uint64_t>(rows) + 17, rows);
    ViolationEngine engine(&rel);
    for (const Fd& fd : EnumerateFds(rel.NumAttributes())) {
      EXPECT_EQ(StreamedRows(engine, fd), ViolatingTuples(rel, fd))
          << "rows=" << rows << " fd=" << fd.ToString();
      ExpectEngineMatchesReference(engine, rel, fd);
    }
    // "key" (column 3) is all-distinct: its partition has no classes.
    EXPECT_TRUE(StreamedRows(engine, Fd(AttributeSet::Single(3), 1)).empty());
    // Under the empty LHS every row of an impure column violates.
    EXPECT_EQ(StreamedRows(engine, Fd(AttributeSet(), 3)).size(),
              rows >= 2 ? static_cast<size_t>(rows) : 0u);
  }
}

TEST(ViolationEngineTest, DetectionUnionCoveringEveryCellMatchesReference) {
  // The Sampling-Saturation shape: an accepted set whose violating cells
  // cover the whole relation, so every cell's bit is set many times over.
  Relation rel(Schema::Make({"a", "b", "c"}).ValueOrDie());
  Rng rng(23);
  for (int i = 0; i < 130; ++i) {
    rel.AddRow({std::to_string(i % 2), std::to_string(rng.NextBounded(2)),
                std::to_string(i % 3)});
  }
  FdSet accepted;
  for (int rhs = 0; rhs < rel.NumAttributes(); ++rhs) {
    accepted.Add(Fd(AttributeSet(), rhs));
    for (int a = 0; a < rel.NumAttributes(); ++a) {
      if (a != rhs) accepted.Add(Fd(AttributeSet::Single(a), rhs));
    }
  }
  std::vector<Cell> every_cell;
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    for (int c = 0; c < rel.NumAttributes(); ++c) every_cell.push_back({r, c});
  }
  CellBitmap reference(rel.NumRows(), rel.NumAttributes());
  for (const Fd& fd : accepted) {
    for (const Cell& cell : ViolatingCells(rel, fd)) reference.Insert(cell);
  }
  ASSERT_EQ(reference.ToVector(), every_cell);

  ViolationEngine engine(&rel);
  EXPECT_EQ(AllDetections(engine, accepted), every_cell);
  const TrueViolationSet set = TrueViolationSet::Compute(engine, accepted);
  EXPECT_EQ(set.ToVector(), every_cell);
  EXPECT_EQ(set.Size(), every_cell.size());
  const DetectionMetrics metrics = EvaluateDetections(engine, accepted, set);
  EXPECT_EQ(metrics.detections, every_cell.size());
  EXPECT_EQ(metrics.true_positives, every_cell.size());
}

// --- CSR layout equivalence (DESIGN.md §14) -------------------------------

// Merge's interning table must give every distinct cell exactly one id.
void ExpectCellsInternedOnce(const ViolationGraph& g) {
  std::vector<Cell> interned;
  interned.reserve(static_cast<size_t>(g.NumCells()));
  for (CellId c = 0; c < g.NumCells(); ++c) interned.push_back(g.cell(c));
  std::sort(interned.begin(), interned.end());
  EXPECT_EQ(std::adjacent_find(interned.begin(), interned.end()),
            interned.end());
}

TEST(ViolationGraphTest, CsrAdjacencyMatchesReferenceOnRandomRelations) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Relation rel = MakeRandomRelation(seed, 100);
    FdSet fds;
    for (const Fd& fd : EnumerateFds(rel.NumAttributes())) fds.Add(fd);
    const ViolationGraph reference = BuildReferenceGraph(rel, fds);
    const ViolationGraph csr = ViolationGraph::Build(rel, fds);
    ExpectGraphsEqual(reference, csr);
    ExpectCellsInternedOnce(csr);
    // The footprint is a pure function of the merged content, so both
    // build paths must report the same figure.
    EXPECT_EQ(reference.ApproxMemoryBytes(), csr.ApproxMemoryBytes());
  }
}

TEST(ViolationGraphTest, ApproxMemoryBytesDeterministicAcrossThreadCounts) {
  Session session = testing::MakeHospitalSession(500);
  const size_t expected =
      BuildReferenceGraph(session.dirty(), session.candidates())
          .ApproxMemoryBytes();
  EXPECT_GT(expected, 0u);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ViolationEngine engine(&session.dirty());
    ViolationGraph parallel =
        ViolationGraph::Build(engine, session.candidates(), &pool);
    EXPECT_EQ(parallel.ApproxMemoryBytes(), expected) << threads;
  }
}

TEST(ActiveSetTest, ActiveDegreesMatchRescanUnderRandomDeactivation) {
  // The incremental per-cell active-degree counter and the orphan cascade
  // must agree with a full adjacency rescan after every step of a
  // randomized deactivation sequence (with repeats, so idempotence is
  // exercised too).
  Relation rel = MakeRandomRelation(31, 140);
  FdSet fds;
  for (const Fd& fd : EnumerateFds(rel.NumAttributes())) fds.Add(fd);
  const ViolationGraph g = ViolationGraph::Build(rel, fds);
  ASSERT_GT(g.NumFds(), 0);
  ASSERT_GT(g.NumCells(), 0);
  ActiveSet active(g);
  std::vector<bool> certified_clean(static_cast<size_t>(g.NumCells()), false);
  const auto check = [&] {
    for (CellId c = 0; c < g.NumCells(); ++c) {
      int rescan = 0;
      for (FdId f : g.FdsOfCell(c)) {
        if (active.FdActive(f)) ++rescan;
      }
      if (certified_clean[static_cast<size_t>(c)]) rescan = 0;
      ASSERT_EQ(active.CellActive(c), rescan > 0) << "cell " << c;
      ASSERT_EQ(active.ActiveDegreeOfCell(c), rescan) << "cell " << c;
    }
  };
  check();
  Rng rng(77);
  for (int step = 0; step < 200; ++step) {
    if (rng.NextBounded(2) == 0) {
      active.DeactivateFd(static_cast<FdId>(
          rng.NextBounded(static_cast<uint64_t>(g.NumFds()))));
    } else {
      const CellId c = static_cast<CellId>(
          rng.NextBounded(static_cast<uint64_t>(g.NumCells())));
      active.DeactivateCell(c);
      certified_clean[static_cast<size_t>(c)] = true;
    }
    check();
  }
  // Active id enumeration must agree with the flags (word-scan check).
  std::vector<FdId> expected_fds, scanned_fds;
  for (FdId f = 0; f < g.NumFds(); ++f) {
    if (active.FdActive(f)) expected_fds.push_back(f);
  }
  active.ForEachActiveFd([&](FdId f) { scanned_fds.push_back(f); });
  EXPECT_EQ(scanned_fds, expected_fds);
  std::vector<CellId> expected_cells, scanned_cells;
  for (CellId c = 0; c < g.NumCells(); ++c) {
    if (active.CellActive(c)) expected_cells.push_back(c);
  }
  active.ForEachActiveCell([&](CellId c) { scanned_cells.push_back(c); });
  EXPECT_EQ(scanned_cells, expected_cells);
}

TEST(ViolationGraphTest, ParallelBuildBitIdenticalAcrossThreadCounts) {
  Session session = testing::MakeHospitalSession(500);
  const ViolationGraph reference =
      BuildReferenceGraph(session.dirty(), session.candidates());
  // The relation-only overload routes through a private engine.
  ExpectGraphsEqual(reference,
                    ViolationGraph::Build(session.dirty(),
                                          session.candidates()));
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ViolationEngine engine(&session.dirty());
    ViolationGraph parallel =
        ViolationGraph::Build(engine, session.candidates(), &pool);
    ExpectGraphsEqual(reference, parallel);
  }
}

// --- strategy-level equivalence -------------------------------------------

void ExpectReportsEqual(const SessionReport& a, const SessionReport& b) {
  EXPECT_EQ(a.strategy_name, b.strategy_name);
  EXPECT_EQ(a.result.accepted_fds.fds(), b.result.accepted_fds.fds());
  EXPECT_EQ(a.result.cost_spent, b.result.cost_spent);
  EXPECT_EQ(a.result.questions_asked, b.result.questions_asked);
  EXPECT_EQ(a.metrics.detections, b.metrics.detections);
  EXPECT_EQ(a.metrics.true_positives, b.metrics.true_positives);
  EXPECT_EQ(a.metrics.false_positives, b.metrics.false_positives);
  EXPECT_EQ(a.metrics.false_negatives, b.metrics.false_negatives);
  EXPECT_EQ(a.metrics.injected_detected, b.metrics.injected_detected);
}

TEST(IncrementalSelectionTest, CellStrategiesMatchRescanReference) {
  // The lazy heaps (HS / Greedy) and SUMS's plain fixpoint and heap
  // must ask the same questions — hence produce byte-identical reports —
  // as the O(NumCells)-rescan references, including under IDK
  // answers (which change no state and re-select).
  for (double idk : {0.0, 0.25}) {
    Session session = testing::MakeHospitalSession(
        600, ErrorModel::kSystematic, 0.15, 5, idk);
    for (double budget : {30.0, 120.0}) {
      {
        auto a = MakeCellQHittingSet();
        auto b = MakeReferenceCellQHittingSet();
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
      {
        auto a = MakeCellQGreedy();
        auto b = MakeReferenceCellQGreedy();
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
      {
        auto a = MakeCellQSums();
        auto b = MakeReferenceCellQSums();
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
    }
  }
}

TEST(IncrementalSelectionTest, SumsMatchesReferenceAtTightRecompute) {
  // Recomputing the fixpoint after every answer maximizes the number of
  // Estimate-Confidence invocations and heap reseeds, and every question
  // is the first Best after a Rebuild (the heap's unordered scan).
  Session session = testing::MakeHospitalSession(500);
  CellStrategyOptions options;
  options.sums_recompute_interval = 1;
  auto a = MakeCellQSums(options);
  auto b = MakeReferenceCellQSums(options);
  ExpectReportsEqual(session.Run(*a, 150.0), session.Run(*b, 150.0));
}

TEST(IncrementalSelectionTest, SumsMatchesReferenceUntilEveryCellIsAsked) {
  // A budget no session can spend: the run only ends when no askable cell
  // is left, so evidence saturates, selection falls back to the
  // lowest-confidence order, and both strategies drain the graph to the
  // end.
  // The session is small so the rescan reference can drain it quickly.
  const double budget = 1e9;
  for (double idk : {0.0, 0.25}) {
    SCOPED_TRACE(idk);
    Session session = testing::MakeHospitalSession(
        200, ErrorModel::kSystematic, 0.15, 5, idk);
    auto a = MakeCellQSums();
    auto b = MakeReferenceCellQSums();
    const SessionReport heap = session.Run(*a, budget);
    ExpectReportsEqual(heap, session.Run(*b, budget));
    EXPECT_GT(heap.result.questions_asked, 0);
    EXPECT_LT(heap.result.cost_spent, budget);
  }
}

TEST(SessionDeterminismTest, ThreadCountDoesNotChangeAnyStrategy) {
  auto make_session = [](int threads) {
    DataGenOptions data;
    data.rows = 500;
    data.seed = 5;
    Relation clean = GenerateHospital(data);
    TaneOptions tane;
    tane.max_lhs_size = 3;
    FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
    ErrorGenOptions errors;
    errors.model = ErrorModel::kSystematic;
    errors.error_rate = 0.15;
    errors.seed = 6;
    DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();
    SessionConfig config;
    config.candidate_options.max_lhs_size = 3;
    config.candidate_options.num_threads = threads;
    return Session::Create(clean, std::move(dataset), config).ValueOrDie();
  };
  Session serial = make_session(1);
  Session parallel = make_session(4);
  ASSERT_EQ(serial.candidates().fds(), parallel.candidates().fds());

  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(MakeCellQHittingSet());
  strategies.push_back(MakeCellQGreedy());
  strategies.push_back(MakeCellQSums());
  strategies.push_back(MakeCellQOracle());
  strategies.push_back(MakeFdQBudgetedMaxCoverage());
  strategies.push_back(MakeFdQGreedy());
  strategies.push_back(MakeFdQOracle());
  strategies.push_back(MakeTupleSamplingUniform());
  strategies.push_back(MakeTupleSamplingViolationWeighting());
  strategies.push_back(MakeTupleSamplingSaturationSets());
  strategies.push_back(MakeTupleQOracle());
  for (const auto& strategy : strategies) {
    ExpectReportsEqual(serial.Run(*strategy, 60.0),
                       parallel.Run(*strategy, 60.0));
  }
}

// --- incremental weighted sampling ----------------------------------------

// Records the tuple-question sequence while delegating to a real expert.
class RecordingExpert : public Expert {
 public:
  explicit RecordingExpert(Expert* inner) : inner_(inner) {}
  Answer IsCellErroneous(const Cell& cell) override {
    return inner_->IsCellErroneous(cell);
  }
  Answer IsTupleClean(TupleId row) override {
    rows.push_back(row);
    return inner_->IsTupleClean(row);
  }
  Answer IsFdValid(const Fd& fd) override { return inner_->IsFdValid(fd); }

  std::vector<TupleId> rows;

 private:
  Expert* inner_;
};

// The pre-incremental draw: re-sums the remaining weighted mass over the
// unasked tuples before every draw (the O(n)-per-question reference the
// WeightedDraw sampler replaced).
TupleId ReferenceDrawUnasked(Rng& rng, const std::vector<double>& weights,
                             const std::vector<bool>& asked) {
  double remaining = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!asked[i]) remaining += weights[i];
  }
  if (remaining <= 0.0) {
    for (size_t i = 0; i < weights.size(); ++i) {
      if (!asked[i]) return static_cast<TupleId>(i);
    }
    return -1;
  }
  double r = rng.NextDouble() * remaining;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (asked[i]) continue;
    r -= weights[i];
    if (r < 0.0) return static_cast<TupleId>(i);
  }
  for (size_t i = weights.size(); i-- > 0;) {
    if (!asked[i]) return static_cast<TupleId>(i);
  }
  return -1;
}

TEST(IncrementalSamplingTest, ViolationWeightedDrawSequenceMatchesReference) {
  Session session = testing::MakeHospitalSession(400);
  const Relation& dirty = session.dirty();
  const int m = dirty.NumAttributes();

  // Run the production strategy with a recording expert.
  SimulatedExpert expert(&session.true_violations(), &session.truth(), m,
                         session.true_fds());
  RecordingExpert recorder(&expert);
  QuestionContext ctx;
  ctx.dirty = &dirty;
  ctx.candidates = &session.candidates();
  ctx.expert = &recorder;
  ctx.budget = 60.0;
  ctx.exact_fds = &session.exact_fds();
  TupleStrategyOptions options;
  auto strategy = MakeTupleSamplingViolationWeighting(options);
  (void)strategy->Run(ctx);
  ASSERT_FALSE(recorder.rows.empty());

  // Predict the ask sequence with the reference (re-summing) sampler: same
  // weights, same rng seed, same budget loop, same deterministic expert.
  std::vector<int> counts =
      ViolationCountPerTuple(dirty, session.candidates());
  const double total = static_cast<double>(session.candidates().Size());
  std::vector<double> weights(counts.size());
  bool any_positive = false;
  for (size_t i = 0; i < counts.size(); ++i) {
    weights[i] = std::max(0.0, total - counts[i]);
    any_positive = any_positive || weights[i] > 0.0;
  }
  if (!any_positive) std::fill(weights.begin(), weights.end(), 1.0);

  SimulatedExpert reference_expert(&session.true_violations(),
                                   &session.truth(), m, session.true_fds());
  Rng rng(options.seed);
  const double cost = ctx.cost.TupleCost(m);
  std::vector<bool> asked(static_cast<size_t>(dirty.NumRows()), false);
  std::vector<TupleId> predicted;
  double spent = 0.0;
  while (spent + cost <= ctx.budget) {
    TupleId t = ReferenceDrawUnasked(rng, weights, asked);
    if (t < 0) break;
    asked[static_cast<size_t>(t)] = true;
    (void)reference_expert.IsTupleClean(t);
    predicted.push_back(t);
    spent += cost;
  }
  EXPECT_EQ(recorder.rows, predicted);
}

}  // namespace
}  // namespace uguide
