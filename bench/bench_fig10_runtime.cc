// Figure 10: runtime per user interaction vs. table size, Tax dataset.
// The paper's claim to reproduce (§7.2.7): tuple-based questions have
// roughly size-independent per-interaction latency; cell- and FD-based
// latency scales with the number of violations (and hence the table size).
//
// Measurement follows the paper's definition exactly -- "the time taken
// from the moment the user answers a question to the moment the next
// question is asked": a timing decorator around the simulated expert
// records the gap between consecutive questions, so per-session setup
// (candidate generation, graph construction) and finalization (sample FD
// discovery, evaluation) are excluded. A second table reports the time
// from the start of the run to the first question, which is where a
// strategy's own setup (graph build, question pool) lands.
//
// The table sizes are 1K..8K tuples; --rows=N above 8000 adds an N-tuple
// point (paper scale: --rows=100000).

#include <chrono>
#include <memory>

#include "bench_util.h"

using namespace uguide;
using namespace uguide::bench;

namespace {

using Clock = std::chrono::steady_clock;

// Delegates to the real expert while recording inter-question gaps.
class TimingExpert : public Expert {
 public:
  explicit TimingExpert(Expert* inner)
      : inner_(inner), start_(Clock::now()) {}

  Answer IsCellErroneous(const Cell& cell) override {
    Stamp();
    return inner_->IsCellErroneous(cell);
  }
  Answer IsTupleClean(TupleId row) override {
    Stamp();
    return inner_->IsTupleClean(row);
  }
  Answer IsFdValid(const Fd& fd) override {
    Stamp();
    return inner_->IsFdValid(fd);
  }

  /// Mean milliseconds between consecutive questions (0 if fewer than 2).
  double MeanGapMs() const {
    return gaps_ == 0 ? 0.0 : total_ms_ / gaps_;
  }

  /// Milliseconds from construction to the first question (0 if none).
  double FirstQuestionMs() const { return first_ms_; }

 private:
  void Stamp() {
    const Clock::time_point now = Clock::now();
    if (has_last_) {
      total_ms_ += MsBetween(last_, now);
      ++gaps_;
    } else {
      first_ms_ = MsBetween(start_, now);
    }
    last_ = now;
    has_last_ = true;
  }

  static double MsBetween(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  }

  Expert* inner_;
  Clock::time_point start_;
  Clock::time_point last_;
  double first_ms_ = 0;
  bool has_last_ = false;
  double total_ms_ = 0;
  int gaps_ = 0;
};

struct Interaction {
  double first_ms;
  double gap_ms;
};

Interaction MsPerInteraction(const Session& session, Strategy& strategy,
                             double budget) {
  SimulatedExpert inner(&session.true_violations(), &session.truth(),
                        session.dirty().NumAttributes(), session.true_fds());
  TimingExpert timed(&inner);
  QuestionContext ctx;
  ctx.dirty = &session.dirty();
  ctx.candidates = &session.candidates();
  ctx.exact_fds = &session.exact_fds();
  ctx.expert = &timed;
  ctx.budget = budget;
  ctx.true_fds = &session.true_fds();
  ctx.true_violations = &session.true_violations();
  ctx.injected = &session.truth();
  strategy.Run(ctx);
  return {timed.FirstQuestionMs(), timed.MeanGapMs()};
}

}  // namespace

int main(int argc, char** argv) {
  BenchParams params = ParseArgs(argc, argv);
  const double budget = 500.0;
  std::printf("== Figure 10: runtime per interaction vs #tuples, Tax, "
              "budget=%g ==\n", budget);

  struct Algo {
    std::string name;
    std::unique_ptr<Strategy> strategy;
  };
  std::vector<Algo> algos;
  algos.push_back({"FD-Q", MakeFdQBudgetedMaxCoverage({})});
  algos.push_back({"Cell-Q", MakeCellQSums({})});
  algos.push_back({"Tuple-Q", MakeTupleSamplingSaturationSets({})});

  std::vector<std::string> names;
  for (const Algo& algo : algos) names.push_back(algo.name);

  std::vector<int> row_counts = {1000, 2000, 4000, 8000};
  if (params.rows > row_counts.back()) row_counts.push_back(params.rows);

  std::vector<std::vector<Interaction>> measured;
  for (int rows : row_counts) {
    BenchParams scaled = params;
    scaled.rows = rows;
    Session session = MakeSession(Dataset::kTax, scaled,
                                  ErrorModel::kSystematic, 0.20, 1.0, 0.0,
                                  /*seed=*/0);
    measured.emplace_back();
    for (Algo& algo : algos) {
      MsPerInteraction(session, *algo.strategy, budget);  // warm-up
      measured.back().push_back(
          MsPerInteraction(session, *algo.strategy, budget));
    }
  }

  for (bool first : {false, true}) {
    std::printf("\n-- ms %s vs #tuples --\n",
                first ? "to the first question"
                      : "between consecutive questions");
    std::printf("%-10s", "#tuples");
    for (const auto& name : names) std::printf(" %14s", name.c_str());
    std::printf("\n");
    for (size_t i = 0; i < row_counts.size(); ++i) {
      std::printf("%-10d", row_counts[i]);
      for (const Interaction& m : measured[i]) {
        std::printf(" %14.3f", first ? m.first_ms : m.gap_ms);
      }
      std::printf("\n");
    }
  }
  return 0;
}
