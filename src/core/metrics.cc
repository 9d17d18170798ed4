#include "core/metrics.h"

#include "violations/violation_engine.h"

namespace uguide {

namespace {

// The union of the accepted FDs' violating cells, one bit per cell of the
// engine's relation.
CellBitmap DetectionBitmap(ViolationEngine& engine, const FdSet& accepted) {
  const Relation& relation = engine.relation();
  CellBitmap seen(relation.NumRows(), relation.NumAttributes());
  for (const Fd& fd : accepted) {
    engine.ForEachViolatingRow(
        fd, [&](TupleId r) { seen.Insert(Cell{r, fd.rhs}); });
  }
  return seen;
}

}  // namespace

std::vector<Cell> AllDetections(ViolationEngine& engine,
                                const FdSet& accepted) {
  return DetectionBitmap(engine, accepted).ToVector();
}

std::vector<Cell> AllDetections(const Relation& dirty,
                                const FdSet& accepted) {
  ViolationEngine engine(&dirty);
  return AllDetections(engine, accepted);
}

DetectionMetrics EvaluateDetections(const Relation& dirty,
                                    const FdSet& accepted,
                                    const TrueViolationSet& true_violations,
                                    const GroundTruth* injected) {
  ViolationEngine engine(&dirty);
  return EvaluateDetections(engine, accepted, true_violations, injected);
}

DetectionMetrics EvaluateDetections(ViolationEngine& engine,
                                    const FdSet& accepted,
                                    const TrueViolationSet& true_violations,
                                    const GroundTruth* injected) {
  DetectionMetrics metrics;
  metrics.total_true_errors = true_violations.Size();
  if (injected != nullptr) metrics.total_injected = injected->NumChanged();

  DetectionBitmap(engine, accepted).ForEach([&](const Cell& cell) {
    ++metrics.detections;
    if (true_violations.Contains(cell)) {
      ++metrics.true_positives;
    } else {
      ++metrics.false_positives;
    }
    if (injected != nullptr && injected->IsChanged(cell)) {
      ++metrics.injected_detected;
    }
  });
  metrics.false_negatives = metrics.total_true_errors - metrics.true_positives;
  return metrics;
}

std::string DetectionMetrics::ToString() const {
  std::string out = "detections=" + std::to_string(detections);
  out += " TP=" + std::to_string(true_positives);
  out += " FP=" + std::to_string(false_positives);
  out += " FN=" + std::to_string(false_negatives);
  out += " true%=" + std::to_string(TrueViolationPct());
  out += " false%=" + std::to_string(FalseViolationPct());
  return out;
}

}  // namespace uguide
