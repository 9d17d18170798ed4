#include "layers.h"

#include <sys/stat.h>

#include <algorithm>
#include <optional>
#include <set>

#include "server/protocol.h"
#include "server/session_manager.h"

using namespace uguide;

namespace pathbench {

namespace {

double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Answers one surfaced question the way every driver does.
AnswerSubmission Submission(Answer answer) {
  AnswerSubmission submission;
  submission.answer = answer;
  return submission;
}

/// The core.step_* metric name of a strategy ("" if not one of the four).
std::string StepMetricName(const std::string& strategy) {
  if (strategy == "FDQ-BMC") return "core.step_fdq_bmc_p50_ms";
  if (strategy == "CellQ-SUMS") return "core.step_cellq_sums_p50_ms";
  if (strategy == "CellQ-HS") return "core.step_cellq_hs_p50_ms";
  if (strategy == "Sampling-Saturation") return "core.step_sampling_sat_p50_ms";
  return "";
}

/// A serialized report without its data_version line.
std::string WithoutDataVersion(std::string report) {
  const std::string key = "\ndata_version=";
  const size_t at = report.find(key);
  if (at == std::string::npos) return report;
  const size_t end = report.find('\n', at + 1);
  report.erase(at, end == std::string::npos ? std::string::npos : end - at);
  return report;
}

/// Whether a replayed server frame reproduces the recorded one. A live
/// session's report stamps the epoch it ran on, which the replay manager
/// serves as static data at version 0, so a live report is compared without
/// its data_version line; every other frame must match byte for byte.
bool SameFrame(const std::string& replayed, const std::string& recorded,
               bool live) {
  if (replayed == recorded) return true;
  if (!live) return false;
  Result<ServerFrame> a = ParseServerFrame(replayed);
  Result<ServerFrame> b = ParseServerFrame(recorded);
  return a.ok() && b.ok() && a->type == ServerFrameType::kReport &&
         b->type == ServerFrameType::kReport && a->id == b->id &&
         WithoutDataVersion(a->report) == WithoutDataVersion(b->report);
}

}  // namespace

SimulatedExpert ExpertFor(const Session& session) {
  const SessionConfig& config = session.config();
  return SimulatedExpert(&session.true_violations(), &session.truth(),
                         session.dirty().NumAttributes(), session.true_fds(),
                         config.idk_rate, config.expert_seed,
                         config.wrong_rate);
}

void ShuffleRows(uint64_t seed, Relation* clean, DirtyDataset* dirty) {
  const TupleId rows = clean->NumRows();
  std::vector<TupleId> order(static_cast<size_t>(rows));
  for (TupleId r = 0; r < rows; ++r) order[static_cast<size_t>(r)] = r;
  Rng rng(seed);
  rng.Shuffle(order);
  std::vector<TupleId> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    position[static_cast<size_t>(order[i])] = static_cast<TupleId>(i);
  }
  auto permuted = [&order](const Relation& table) {
    Relation out(table.schema());
    std::vector<std::string> row(static_cast<size_t>(table.NumAttributes()));
    for (TupleId r : order) {
      for (int c = 0; c < table.NumAttributes(); ++c) {
        row[static_cast<size_t>(c)] = table.Value(r, c);
      }
      out.AddRow(row);
    }
    return out;
  };
  *clean = permuted(*clean);
  dirty->dirty = permuted(dirty->dirty);
  GroundTruth truth;
  for (const Cell& cell : dirty->truth.ChangedCells()) {
    truth.MarkChanged({position[static_cast<size_t>(cell.row)], cell.col});
  }
  dirty->truth = std::move(truth);
}

void TraceSetup(const SetupRecipe& recipe, ThreadPool* pool,
                MetricList* layers) {
  DataGenOptions data;
  data.rows = recipe.rows;
  data.seed = recipe.data_seed;
  Clock::time_point t = Clock::now();
  Relation clean = recipe.table == TableKind::kTax ? GenerateTax(data)
                                                   : GenerateHospital(data);
  layers->Set("datagen.generate_ms", MsSince(t), "ms");

  TaneOptions clean_tane;
  clean_tane.max_lhs_size = recipe.max_lhs;
  t = Clock::now();
  const FdSet true_fds = DiscoverFds(clean, clean_tane).ValueOrDie();
  layers->Set("discovery.tane_clean_ms", MsSince(t), "ms");

  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = recipe.error_rate;
  errors.seed = recipe.error_seed;
  t = Clock::now();
  DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();
  layers->Set("errorgen.inject_ms", MsSince(t), "ms");
  if (recipe.shuffle_seed.has_value()) {
    ShuffleRows(*recipe.shuffle_seed, &clean, &dirty);
  }

  // GenerateCandidates' two passes, called one by one: exact discovery on
  // the dirty table, then the approximate pass that relaxes it.
  // Unlimited budgets only track each pass's partition high-water mark.
  const CandidateGenOptions candidate_defaults;
  MemoryBudget exact_budget, approx_budget;
  TaneOptions exact;
  exact.max_lhs_size = recipe.max_lhs;
  exact.num_threads = recipe.threads;
  exact.memory_budget = &exact_budget;
  t = Clock::now();
  const DiscoveryOutcome exact_outcome =
      DiscoverFdsDetailed(dirty.dirty, exact).ValueOrDie();
  layers->Set("discovery.tane_dirty_ms", MsSince(t), "ms");
  TaneOptions approx = exact;
  approx.max_error = candidate_defaults.relax_threshold;
  approx.memory_budget = &approx_budget;
  t = Clock::now();
  const DiscoveryOutcome candidates =
      DiscoverFdsDetailed(dirty.dirty, approx).ValueOrDie();
  layers->Set("discovery.relax_ms", MsSince(t), "ms");
  layers->Set("discovery.candidate_fds",
              static_cast<double>(candidates.fds.Size()), "count");
  layers->Set("discovery.peak_partition_bytes",
              static_cast<double>(std::max(exact_outcome.peak_memory_bytes,
                                           candidates.peak_memory_bytes)),
              "bytes");

  t = Clock::now();
  const TrueViolationSet et = TrueViolationSet::Compute(dirty.dirty, true_fds);
  layers->Set("core.true_violations_ms", MsSince(t), "ms");

  ViolationEngine engine(&dirty.dirty);
  t = Clock::now();
  const ViolationGraph graph =
      ViolationGraph::Build(engine, candidates.fds, pool);
  layers->Set("violations.graph_build_ms", MsSince(t), "ms");
  layers->Set("violations.graph_cells", graph.NumCells(), "count");
  layers->Set("violations.graph_bytes",
              static_cast<double>(graph.ApproxMemoryBytes()), "bytes");
  const double hits = static_cast<double>(engine.partition_hits());
  const double misses = static_cast<double>(engine.partition_misses());
  layers->Set("violations.partition_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

bool ReplaySteps(const std::vector<RecordedSession>& sessions,
                 const TargetFor& target_for, double budget_s,
                 MetricList* layers, double* step_p50) {
  std::map<std::string, std::vector<double>> steps;
  std::vector<double> start_ms, finish_ms, questions;
  std::set<std::string> replayed_strategies;
  bool faithful = true;
  const Clock::time_point began = Clock::now();
  for (const RecordedSession& recorded : sessions) {
    if (MsSince(began) > budget_s * 1000.0 &&
        replayed_strategies.count(recorded.strategy) > 0) {
      continue;
    }
    replayed_strategies.insert(recorded.strategy);
    const SessionTarget target = target_for(recorded);
    std::unique_ptr<Strategy> strategy =
        MakeStrategyByName(recorded.strategy).ValueOrDie();
    SessionStepOptions options;
    options.pool = target.pool;
    options.engine = target.engine;
    options.graph = target.graph;
    if (recorded.epoch != nullptr) options.data_version = recorded.epoch->version;

    Clock::time_point t = Clock::now();
    std::unique_ptr<SessionStateMachine> machine =
        SessionStateMachine::Start(*target.session, *strategy,
                                   recorded.budget, options)
            .ValueOrDie();
    std::optional<SessionQuestion> question = machine->NextQuestion();
    start_ms.push_back(MsSince(t));
    size_t asked = 0;
    std::vector<double>& samples = steps[recorded.strategy];
    while (question.has_value()) {
      if (asked >= recorded.answers.size()) {
        faithful = false;
        machine->Abandon();
        break;
      }
      t = Clock::now();
      MustOk(machine->SubmitAnswer(Submission(recorded.answers[asked])));
      question = machine->NextQuestion();
      const double ms = MsSince(t);
      samples.push_back(ms);
      ++asked;
    }
    if (asked != recorded.answers.size()) faithful = false;
    if (!faithful) break;
    t = Clock::now();
    machine->Finish().ValueOrDie();
    finish_ms.push_back(MsSince(t));
    questions.push_back(static_cast<double>(asked));
  }
  layers->Set("core.start_ms", Median(start_ms), "ms");
  layers->Set("core.finish_ms", Median(finish_ms), "ms");
  layers->Set("core.questions", Mean(questions), "count");
  std::vector<Stamped> grouped;
  int group = 0;
  for (const auto& [name, samples] : steps) {
    layers->Set(StepMetricName(name), Median(samples), "ms");
    for (double ms : samples) grouped.push_back({0.0, ms, group});
    ++group;
  }
  *step_p50 = GroupBalanced(grouped, [](const std::vector<Stamped>& g) {
    return Median(Values(g));
  });
  return faithful;
}

bool ReplayManager(const std::vector<RecordedSession>& sessions,
                   const TargetFor& target_for, const std::string& dir,
                   double budget_s, MetricList* layers) {
  // One manager per distinct session (live sessions ran on many epochs),
  // each with its own journal directory, configured as the daemon's.
  std::map<const Session*, std::unique_ptr<SessionManager>> managers;
  std::vector<double> open_ms, answer_ms;
  std::set<std::string> replayed_strategies;
  bool faithful = true;
  const Clock::time_point began = Clock::now();
  for (const RecordedSession& recorded : sessions) {
    if (recorded.client_lines.empty()) continue;
    if (MsSince(began) > budget_s * 1000.0 &&
        replayed_strategies.count(recorded.strategy) > 0) {
      continue;
    }
    replayed_strategies.insert(recorded.strategy);
    const SessionTarget target = target_for(recorded);
    std::unique_ptr<SessionManager>& manager = managers[target.session];
    if (manager == nullptr) {
      SessionManagerOptions options;
      options.max_sessions = 128;
      options.journal_dir = dir + "/m" + std::to_string(managers.size());
      ::mkdir(options.journal_dir.c_str(), 0755);
      options.journal_fsync = JournalFsyncMode::kBatch;
      options.pool = target.pool;
      options.engine = target.engine;
      options.graph = target.graph;
      manager = std::make_unique<SessionManager>(target.session, options);
    }
    size_t reply = 0;
    for (size_t i = 0; i < recorded.client_lines.size(); ++i) {
      const Clock::time_point t = Clock::now();
      const std::vector<std::string> frames =
          manager->HandleLine(recorded.client_lines[i]);
      const double ms = MsSince(t);
      (i == 0 ? open_ms : answer_ms).push_back(ms);
      for (const std::string& frame : frames) {
        if (reply >= recorded.server_lines.size()) {
          faithful = false;
          break;
        }
        const std::string& expected = recorded.server_lines[reply++];
        if (!SameFrame(frame, expected, recorded.epoch != nullptr)) {
          faithful = false;
        }
      }
    }
    if (reply != recorded.server_lines.size()) faithful = false;
  }
  layers->Set("manager.open_p50_ms", Median(open_ms), "ms");
  layers->Set("manager.answer_p50_ms", Median(answer_ms), "ms");
  return faithful;
}

void ReplayJournal(const std::vector<RecordedSession>& sessions,
                   const std::string& dir, double budget_s,
                   MetricList* layers) {
  std::vector<double> append_us, sync_us;
  int file = 0;
  const Clock::time_point began = Clock::now();
  for (const RecordedSession& recorded : sessions) {
    if (recorded.server_lines.empty()) continue;
    if (file > 0 && MsSince(began) > budget_s * 1000.0) break;
    JournalHeader header;
    header.strategy_name = recorded.strategy;
    header.budget = recorded.budget;
    JournalWriterOptions options;
    // Batch mode never syncs inside Append while Sync() follows every
    // record, so the two halves of an fsync-every append time apart.
    options.fsync_mode = JournalFsyncMode::kBatch;
    JournalWriter writer =
        JournalWriter::Open(dir + "/replay-" + std::to_string(file++) +
                                ".journal",
                            header, options)
            .ValueOrDie();
    size_t answered = 0;
    for (const std::string& line : recorded.server_lines) {
      Result<ServerFrame> frame = ParseServerFrame(line);
      if (!frame.ok() || frame->type != ServerFrameType::kQuestion) continue;
      if (answered >= recorded.answers.size()) break;
      JournalRecord record;
      record.kind = frame->question.kind;
      record.cell = frame->question.cell;
      record.row = frame->question.row;
      record.fd = frame->question.fd;
      record.cost = frame->question.nominal_cost;
      record.answer = recorded.answers[answered++];
      const Clock::time_point t0 = Clock::now();
      MustOk(writer.Append(record));
      const Clock::time_point t1 = Clock::now();
      MustOk(writer.Sync());
      const Clock::time_point t2 = Clock::now();
      append_us.push_back(UsBetween(t0, t1));
      sync_us.push_back(UsBetween(t1, t2));
    }
    MustOk(writer.Close());
  }
  layers->Set("journal.append_p50_us", Median(append_us), "us");
  layers->Set("journal.sync_p50_us", Median(sync_us), "us");
}

void ReplayProtocol(const std::vector<RecordedSession>& sessions,
                    MetricList* layers) {
  std::vector<double> parse_us, format_us;
  for (const RecordedSession& recorded : sessions) {
    for (const std::string& line : recorded.client_lines) {
      const Clock::time_point t = Clock::now();
      Result<ClientFrame> frame = ParseClientFrame(line);
      parse_us.push_back(UsBetween(t, Clock::now()));
      MustOk(frame.status());
    }
    for (const std::string& line : recorded.server_lines) {
      Result<ServerFrame> frame = ParseServerFrame(line);
      if (!frame.ok() || frame->type != ServerFrameType::kQuestion) continue;
      const Clock::time_point t = Clock::now();
      const std::string formatted =
          FormatQuestionFrame(frame->id, frame->question);
      format_us.push_back(UsBetween(t, Clock::now()));
      if (formatted.empty()) std::abort();
    }
  }
  layers->Set("protocol.parse_p50_us", Median(parse_us), "us");
  layers->Set("protocol.format_p50_us", Median(format_us), "us");
}

bool ReplayLive(const Session& base, ViolationEngine* engine,
                const ViolationGraph& graph, uint64_t content_hash,
                ThreadPool* pool, const std::vector<MutationBatch>& batches,
                MetricList* layers) {
  LiveDataset live(&base, engine, &graph, content_hash, pool);
  std::vector<double> apply_ms, materialize_ms;
  bool faithful = true;
  DataVersion expected = 0;
  for (const MutationBatch& batch : batches) {
    Clock::time_point t = Clock::now();
    const MutationReceipt receipt = live.Apply(batch);
    apply_ms.push_back(MsSince(t));
    if (receipt.refused != 0 || receipt.version != ++expected) {
      faithful = false;
    }
    const std::shared_ptr<const LiveEpoch> epoch = live.Current();
    if (epoch->version != receipt.version) faithful = false;
    t = Clock::now();
    epoch->graph();
    materialize_ms.push_back(MsSince(t));
  }
  const LiveDataset::Stats stats = live.stats();
  layers->Set("live.apply_p50_ms", Median(apply_ms), "ms");
  layers->Set("live.graph_materialize_ms", Median(materialize_ms), "ms");
  layers->Set("live.fds_recomputed", static_cast<double>(stats.fds_recomputed),
              "count");
  const double touched =
      static_cast<double>(stats.fds_recomputed + stats.fds_skipped);
  layers->Set("live.fd_skip_ratio",
              touched > 0 ? static_cast<double>(stats.fds_skipped) / touched
                          : 0.0,
              "ratio");
  return faithful;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"client.sessions_per_s", "1/s"},
      {"client.answer_mean_ms", "ms"},
      {"client.answer_p50_ms", "ms"},
      {"client.answer_p90_ms", "ms"},
      {"client.open_p50_ms", "ms"},
      {"datagen.generate_ms", "ms"},
      {"errorgen.inject_ms", "ms"},
      {"discovery.tane_clean_ms", "ms"},
      {"discovery.tane_dirty_ms", "ms"},
      {"discovery.relax_ms", "ms"},
      {"discovery.candidate_fds", "count"},
      {"discovery.peak_partition_bytes", "bytes"},
      {"core.true_violations_ms", "ms"},
      {"core.finish_ms", "ms"},
      {"violations.graph_build_ms", "ms"},
      {"violations.graph_cells", "count"},
      {"violations.graph_bytes", "bytes"},
      {"violations.partition_hit_ratio", "ratio"},
      {"core.start_ms", "ms"},
      {"core.step_fdq_bmc_p50_ms", "ms"},
      {"core.step_cellq_sums_p50_ms", "ms"},
      {"core.step_cellq_hs_p50_ms", "ms"},
      {"core.step_sampling_sat_p50_ms", "ms"},
      {"core.questions", "count"},
      {"core.step_share_pct", "%"},
      {"core.true_violation_pct", "%"},
      {"core.false_violation_pct", "%"},
      {"journal.append_p50_us", "us"},
      {"journal.sync_p50_us", "us"},
      {"protocol.parse_p50_us", "us"},
      {"protocol.format_p50_us", "us"},
      {"manager.open_p50_ms", "ms"},
      {"manager.answer_p50_ms", "ms"},
      {"admission.shed", "count"},
      {"transport.answer_p50_ms", "ms"},
      {"reactor.dropped", "count"},
      {"registry.open_ms", "ms"},
      {"live.apply_p50_ms", "ms"},
      {"live.graph_materialize_ms", "ms"},
      {"live.fds_recomputed", "count"},
      {"live.fd_skip_ratio", "ratio"},
      {"live.mutate_p50_ms", "ms"},
      {"live.mutate_p90_ms", "ms"},
      {"live.mutate_late_p90_ms", "ms"},
      {"trace.coverage_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

void FillBypassedLayers(MetricList* layers) {
  MetricList ordered;
  for (const auto& [name, unit] : LayerMetricNames()) {
    ordered.Set(name, layers->Get(name), unit);
  }
  *layers = ordered;
}

}  // namespace pathbench
