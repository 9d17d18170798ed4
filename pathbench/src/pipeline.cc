// pipeline-tax20k: the paper's pipeline in one process. Tax at 20,000 rows
// with 20% systematic errors and max LHS 3 goes through discovery,
// relaxation and E_T once (the set-up), then the three Fig. 10 strategies
// run in rounds at budget 500 against a timing expert. Discovery, the
// graph build and strategy selection do nearly all the work; the server
// and live layers do none.

#include <optional>

#include "layers.h"
#include "server/protocol.h"
#include "workloads.h"

using namespace uguide;

namespace pathbench {

namespace {

const std::vector<std::string>& PipelineStrategies() {
  static const std::vector<std::string> names = {"FDQ-BMC", "CellQ-SUMS",
                                                 "Sampling-Saturation"};
  return names;
}

/// Delegates to the simulated expert while timing Fig. 10's interval: from
/// the moment an answer is handed back to the moment the next question
/// arrives. The expert's own thinking time is outside every interval.
class TimingExpert : public Expert {
 public:
  TimingExpert(Expert* inner, std::vector<Answer>* record)
      : inner_(inner), record_(record) {}

  Answer IsCellErroneous(const Cell& cell) override {
    Arrive();
    return Leave(inner_->IsCellErroneous(cell));
  }
  Answer IsTupleClean(TupleId row) override {
    Arrive();
    return Leave(inner_->IsTupleClean(row));
  }
  Answer IsFdValid(const Fd& fd) override {
    Arrive();
    return Leave(inner_->IsFdValid(fd));
  }

  /// When the first question arrived (nullopt if none was asked).
  const std::optional<Clock::time_point>& first_question() const {
    return first_question_;
  }
  const std::optional<Clock::time_point>& last_answer() const {
    return last_answer_;
  }
  const std::vector<double>& gaps_ms() const { return gaps_ms_; }

 private:
  void Arrive() {
    const Clock::time_point now = Clock::now();
    if (!first_question_.has_value()) first_question_ = now;
    if (last_answer_.has_value()) gaps_ms_.push_back(MsBetween(*last_answer_, now));
  }
  Answer Leave(Answer answer) {
    if (record_ != nullptr) record_->push_back(answer);
    last_answer_ = Clock::now();
    return answer;
  }

  Expert* inner_;
  std::vector<Answer>* record_;
  std::optional<Clock::time_point> first_question_;
  std::optional<Clock::time_point> last_answer_;
  std::vector<double> gaps_ms_;
};

// One canonical Tax instance with one fixed error recipe (systematic, 20%,
// the seed of its Zipf split over the FDs); the workload seed shuffles its
// rows after errors are injected, ledger included. A fresh table or error
// draw per seed would make each seed a different workload -- which FDs the
// errors hit moves every strategy's cost by a third -- where a shuffle
// draws another sample of the same one: the same values, errors and
// violations under other row ids, so other tie-breaks and memory layouts.
constexpr uint64_t kTableSeed = 1000;
constexpr uint64_t kErrorSeed = 2000;
constexpr uint64_t kExpertSeed = 3000;

struct Scale {
  int rows;
  double budget;
  int setup_reps;
};

Scale ScaleFor(const RunOptions& options) {
  if (options.smoke) return {2000, 100.0, 1};
  return {20000, 500.0, options.trace ? 1 : 3};
}

/// Generate, inject, Session::Create (Sigma_TC, dirty discovery, the
/// relaxation pass, E_T): everything the pipeline does once per dataset.
Session BuildSession(const Scale& scale, uint64_t seed, int threads) {
  DataGenOptions data;
  data.rows = scale.rows;
  data.seed = kTableSeed;
  Relation clean = GenerateTax(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  const FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.20;
  errors.seed = kErrorSeed;
  DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();
  ShuffleRows(seed, &clean, &dirty);
  SessionConfig config;
  config.candidate_options.max_lhs_size = 3;
  config.candidate_options.num_threads = threads;
  config.expert_seed = kExpertSeed;
  return Session::Create(clean, std::move(dirty), config).ValueOrDie();
}

struct Phase {
  /// Grouped by strategy (Stamped::group); the phase is not windowed.
  std::vector<Stamped> open_ms;
  std::vector<Stamped> answer_ms;
  double elapsed_ms = 0.0;
  double cpu_ms = 0.0;
  /// Per finished run: strategy and report.
  std::vector<std::pair<std::string, SessionReport>> reports;
  std::vector<RecordedSession> recorded;
};

/// Runs whole rounds of the three strategies until `seconds` have passed
/// (at least one round), so every phase has the same strategy mix.
Phase RunRounds(const Session& session, ThreadPool* pool, const Scale& scale,
                double seconds, bool record) {
  Phase phase;
  const double cpu_before = ProcessCpuMs();
  const Clock::time_point began = Clock::now();
  do {
    for (int group = 0; group < static_cast<int>(PipelineStrategies().size());
         ++group) {
      const std::string& name = PipelineStrategies()[group];
      std::unique_ptr<Strategy> strategy = MakeStrategyByName(name).ValueOrDie();
      SimulatedExpert expert = ExpertFor(session);
      RecordedSession recorded;
      TimingExpert timed(&expert, record ? &recorded.answers : nullptr);
      SessionStepOptions options;
      options.pool = pool;
      const Clock::time_point start = Clock::now();
      std::unique_ptr<SessionStateMachine> machine =
          SessionStateMachine::Start(session, *strategy, scale.budget, options)
              .ValueOrDie();
      SessionReport report = DriveSession(*machine, timed).ValueOrDie();
      const Clock::time_point end = Clock::now();
      if (timed.first_question().has_value()) {
        phase.open_ms.push_back(
            {0.0, MsBetween(start, *timed.first_question()), group});
        for (double gap : timed.gaps_ms()) {
          phase.answer_ms.push_back({0.0, gap, group});
        }
        phase.answer_ms.push_back(
            {0.0, MsBetween(*timed.last_answer(), end), group});
      }
      phase.reports.emplace_back(name, std::move(report));
      if (record) {
        recorded.strategy = name;
        recorded.budget = scale.budget;
        phase.recorded.push_back(std::move(recorded));
      }
    }
  } while (MsSince(began) < seconds * 1000.0);
  phase.elapsed_ms = MsSince(began);
  phase.cpu_ms = ProcessCpuMs() - cpu_before;
  return phase;
}

void SetEndToEnd(const Phase& phase, MetricList* out) {
  out->Set("sessions_per_s",
           static_cast<double>(phase.reports.size()) /
               (phase.elapsed_ms / 1000.0),
           "1/s");
  auto of = [](double (*stat)(std::vector<double>)) {
    return [stat](const std::vector<Stamped>& group) {
      return stat(Values(group));
    };
  };
  out->Set("answer_mean_ms", GroupBalanced(phase.answer_ms, of(Mean)), "ms");
  // Reported as client.answer_p50_ms: the reference the traced run's p50
  // layer times are compared against.
  out->Set("answer_p50_ms", GroupBalanced(phase.answer_ms, of(Median)), "ms");
  out->Set("answer_p90_ms", GroupBalanced(phase.answer_ms, of(P90)), "ms");
  out->Set("open_p50_ms", GroupBalanced(phase.open_ms, of(Median)), "ms");
  out->Set("cpu_ms_per_session",
           phase.cpu_ms / static_cast<double>(phase.reports.size()), "ms");
}

}  // namespace

RunResult RunPipeline(const RunOptions& options) {
  RunResult result;
  const Scale scale = ScaleFor(options);
  ThreadPool pool(BenchThreads());

  std::vector<double> setup_s;
  std::optional<Session> session;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    session.reset();
    const Clock::time_point t = Clock::now();
    session.emplace(BuildSession(scale, options.seed, BenchThreads()));
    setup_s.push_back(MsSince(t) / 1000.0);
  }

  // The traced run splits its time between an untraced phase (the
  // end-to-end numbers) and a recording phase (the overhead and the
  // material the layers replay).
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  Phase untraced = RunRounds(*session, &pool, scale, untraced_s, false);
  std::optional<Phase> traced;
  if (options.trace) {
    traced = RunRounds(*session, &pool, scale, options.seconds / 2, true);
  }

  // The workload's high-water mark, before the reference runs below.
  const double peak_rss_mb = PeakRssMb();

  // Correctness, outside every timed window: each strategy's reports at
  // the benchmark's thread count must equal a single-thread run's bytes.
  ThreadPool serial(1);
  std::map<std::string, std::string> reference;
  for (const std::string& name : PipelineStrategies()) {
    std::unique_ptr<Strategy> strategy = MakeStrategyByName(name).ValueOrDie();
    SimulatedExpert expert = ExpertFor(*session);
    SessionStepOptions step;
    step.pool = &serial;
    std::unique_ptr<SessionStateMachine> machine =
        SessionStateMachine::Start(*session, *strategy, scale.budget, step)
            .ValueOrDie();
    reference[name] =
        SerializeSessionReport(DriveSession(*machine, expert).ValueOrDie());
  }
  std::map<std::string, std::vector<double>> true_pct, false_pct;
  for (const Phase* phase : {&untraced, traced ? &*traced : nullptr}) {
    if (phase == nullptr) continue;
    result.attempted += static_cast<int64_t>(phase->reports.size() +
                                             phase->answer_ms.size());
    for (const auto& [name, report] : phase->reports) {
      if (SerializeSessionReport(report) != reference[name]) {
        ++result.failed;
        result.correct = false;
        result.notes.push_back("report mismatch: " + name +
                               " at the benchmark's thread count differs "
                               "from the single-thread run");
      }
      true_pct[name].push_back(report.metrics.TrueViolationPct());
      false_pct[name].push_back(report.metrics.FalseViolationPct());
    }
  }
  std::vector<double> true_means, false_means;
  for (const auto& [name, values] : true_pct) true_means.push_back(Mean(values));
  for (const auto& [name, values] : false_pct) {
    false_means.push_back(Mean(values));
  }

  MetricList& e2e = result.end_to_end;
  e2e.Set("setup_s", Median(setup_s), "s");
  SetEndToEnd(untraced, &e2e);
  e2e.Set("peak_rss_mb", peak_rss_mb, "MiB");
  result.layers.Set("core.true_violation_pct", Mean(true_means), "%");
  result.layers.Set("core.false_violation_pct", Mean(false_means), "%");
  result.notes.push_back(SampleNote(Values(untraced.answer_ms),
                                    Values(untraced.open_ms),
                                    untraced.reports.size(), setup_s.size()));

  if (options.trace) {
    MetricList& layers = result.layers;
    SetupRecipe recipe;
    recipe.table = TableKind::kTax;
    recipe.rows = scale.rows;
    recipe.data_seed = kTableSeed;
    recipe.shuffle_seed = options.seed;
    recipe.error_rate = 0.20;
    recipe.error_seed = kErrorSeed;
    recipe.threads = BenchThreads();
    TraceSetup(recipe, &pool, &layers);

    const Session& s = *session;
    double step_p50 = 0.0;
    const bool faithful = ReplaySteps(
        traced->recorded,
        [&](const RecordedSession&) {
          return SessionTarget{&s, nullptr, nullptr, &pool};
        },
        /*budget_s=*/0.0, &layers, &step_p50);
    if (!faithful) {
      ++result.failed;
      result.correct = false;
      result.notes.push_back("step replay diverged from the recorded run");
    }
    const double answer_p50 = e2e.Get("answer_p50_ms");
    // The strategy step is the only layer on the pipeline's answer path.
    layers.Set("core.step_share_pct", 100.0 * step_p50 / answer_p50, "%");
    layers.Set("trace.coverage_pct", 100.0 * step_p50 / answer_p50, "%");
    MetricList traced_e2e;
    SetEndToEnd(*traced, &traced_e2e);
    layers.Set("trace.overhead_pct",
               100.0 * (traced_e2e.Get("answer_p50_ms") / answer_p50 - 1.0),
               "%");
  }
  return result;
}

}  // namespace pathbench
