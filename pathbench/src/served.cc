// The served workloads: an in-process ServingDaemon on loopback over the
// served Hospital recipe, journals on, driven by closed-loop client
// connections from this process.
//
//  served-fd    4 connections running FDQ-BMC sessions. Each answer is
//               strategy-bound, so FD selection and the session step
//               dominate and transport is a minority.
//  served-cell  4 connections running CellQ-HS sessions. The strategy step
//               is tiny, so framing, queueing, dispatch, protocol,
//               admission, the journal and the per-open graph copy
//               dominate: where a transport change must show.
//  live-mutate  3 connections mixing FDQ-BMC and CellQ-HS beside one
//               connection sending op=mutate batches open-loop at a fixed
//               rate (sizes cycling 1, 8, 64 rows of mixed update, append
//               and delete). LiveDataset::Apply, epoch publication and
//               lazy graph materialisation carry the load.
//
// Closed loops model the expert, who waits for each question before
// answering; the open-loop mutator models independent writers and is timed
// from when each batch was due.

#include <sys/stat.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "layers.h"
#include "live/live_relation.h"
#include "server/daemon.h"
#include "server/dataset.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"
#include "workloads.h"

using namespace uguide;

namespace pathbench {

namespace {

constexpr int kReadTimeoutMs = 30000;
/// Equal slices a timed phase is summarised over (see WindowedQuantile).
constexpr int kWindows = 5;
/// Sessions per client connection kept for the layer replays.
constexpr size_t kRecordCap = 48;
/// Rows per mutation batch, cycled.
constexpr int kBatchRows[] = {1, 8, 64};
/// Mutation batches per second. At 10/s the sessions opening on each fresh
/// epoch pay its cold partitions and graph merge, fewer sessions per epoch
/// make each slower, and the session rate swung by a third between runs.
constexpr double kMutateHz = 4.0;
/// Per-session budgets, drawn uniformly from the workload seed (mean 64,
/// the served recipe's default).
constexpr double kBudgets[] = {48.0, 56.0, 64.0, 72.0, 80.0};

struct Scale {
  int rows;
  /// Timed set-ups before the timed phases and, again, after them.
  int setup_reps_before;
  int setup_reps_after;
};

// A served set-up takes ~0.17 s, and a slow spell of the host moves every
// set-up inside it alike (0.13 s in one window, 0.19 s in another of the
// same run), so the untraced run times set-up in two windows ~10 s apart
// and reports the median of both.
Scale ScaleFor(const RunOptions& options) {
  if (options.smoke) return {300, 1, 0};
  return {1200, options.trace ? 1 : 8, options.trace ? 0 : 8};
}

/// One daemon deployment. Members are declared in construction order, so
/// the daemon is torn down first and the registry last.
struct Deployment {
  std::unique_ptr<DatasetRegistry> registry;
  std::shared_ptr<const DatasetArtifacts> artifacts;
  /// Workers of LiveDataset::Apply's violation maintenance. Not the
  /// daemon's pool: Apply fans out on its pool while holding the dataset
  /// lock, and a daemon worker serving an open blocks on that lock, so
  /// with every other daemon worker parked on it the fan-out's queued
  /// helpers never run and the daemon deadlocks (uguided wires one pool
  /// into both and can hang under concurrent opens and mutations).
  std::unique_ptr<ThreadPool> live_pool;
  std::unique_ptr<LiveDataset> live;
  std::unique_ptr<ServingDaemon> daemon;
};

/// Set-up as an operator pays it: cold registry open (generate, inject,
/// Session::Create, engine warm-up, graph build), the live dataset, and the
/// daemon's listener and reactor.
std::unique_ptr<Deployment> Deploy(const ServedDatasetOptions& dataset,
                                   ThreadPool* pool, bool live,
                                   const std::string& journal_dir) {
  auto d = std::make_unique<Deployment>();
  DatasetRegistryOptions registry_options;
  registry_options.pool = pool;
  d->registry = std::make_unique<DatasetRegistry>(registry_options);
  d->artifacts = d->registry->Open(dataset).ValueOrDie();
  if (live) {
    d->live_pool = std::make_unique<ThreadPool>(pool->num_threads());
    d->live = std::make_unique<LiveDataset>(
        &d->artifacts->session, d->artifacts->engine.get(),
        &d->artifacts->graph, d->artifacts->key.content_hash,
        d->live_pool.get());
  }
  ::mkdir(journal_dir.c_str(), 0755);
  DaemonOptions options;
  options.manager.max_sessions = 128;
  options.manager.pool = pool;
  options.manager.journal_dir = journal_dir;
  // An fsync every JournalWriter::kBatchInterval records, not every record:
  // with one per answer the served-cell answer time moved 2.5x with the
  // host's disk load, so the figure measured the disk, not the daemon.
  options.manager.journal_fsync = JournalFsyncMode::kBatch;
  options.manager.live = d->live.get();
  d->daemon = ServingDaemon::Start(d->artifacts, options).ValueOrDie();
  return d;
}

Answer Ask(Expert& expert, const SessionQuestion& q) {
  switch (q.kind) {
    case QuestionKind::kCell:
      return expert.IsCellErroneous(q.cell);
    case QuestionKind::kTuple:
      return expert.IsTupleClean(q.row);
    case QuestionKind::kFd:
      return expert.IsFdValid(q.fd);
  }
  return Answer::kIdk;
}

/// The integer of a `key=N` line of a serialized report (0 if absent).
DataVersion ReportVersion(const std::string& report) {
  const std::string key = "\ndata_version=";
  const size_t at = report.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(report.c_str() + at + key.size(), nullptr, 10);
}

/// The mutation stream: a steady state around the base table. Updates
/// corrupt a base cell with a value from the same column, or heal one
/// corrupted earlier (more likely the more are outstanding, so a few dozen
/// stay corrupted); appends copy a base row; deletes remove an appended
/// row. Every op is valid by construction -- updates touch base rows,
/// which are never deleted, and deletes target live appended rows -- and
/// the table neither grows nor decays over a run, so the work per session
/// does not drift with the run's length.
class MutationSource {
 public:
  MutationSource(const Relation& base, uint64_t seed)
      : base_(&base), rows_(base.NumRows()), rng_(seed) {}

  MutationBatch Next(int ops) {
    constexpr double kCorruptTarget = 48.0;
    MutationBatch batch;
    const int cols = base_->NumAttributes();
    for (int i = 0; i < ops; ++i) {
      const uint64_t roll = rng_.NextBounded(100);
      if (roll < 70) {
        const double heal_p = std::min(
            1.0, static_cast<double>(corrupted_.size()) / (2 * kCorruptTarget));
        if (!corrupted_.empty() && rng_.NextBool(heal_p)) {
          const Cell cell = TakeRandom(&corrupted_);
          batch.ops.push_back(
              Mutation::Update(cell.row, cell.col, base_->Value(cell)));
        } else {
          const Cell cell{RandomBaseRow(),
                          static_cast<int>(rng_.NextBounded(cols))};
          corrupted_.push_back(cell);
          batch.ops.push_back(Mutation::Update(
              cell.row, cell.col, base_->Value(RandomBaseRow(), cell.col)));
        }
      } else if (roll < 85 || appended_.empty()) {
        std::vector<std::string> values;
        const TupleId source = RandomBaseRow();
        for (int c = 0; c < cols; ++c) values.push_back(base_->Value(source, c));
        appended_.push_back(rows_++);
        batch.ops.push_back(Mutation::Append(std::move(values)));
      } else {
        batch.ops.push_back(Mutation::Delete(TakeRandom(&appended_)));
      }
    }
    return batch;
  }

 private:
  TupleId RandomBaseRow() {
    return static_cast<TupleId>(
        rng_.NextBounded(static_cast<uint64_t>(base_->NumRows())));
  }

  template <typename T>
  T TakeRandom(std::vector<T>* items) {
    const size_t at = rng_.NextBounded(items->size());
    T item = (*items)[at];
    (*items)[at] = items->back();
    items->pop_back();
    return item;
  }

  const Relation* base_;
  /// Rows ever created: an append takes the next id, a delete keeps its.
  TupleId rows_;
  Rng rng_;
  /// Base cells currently holding a foreign value.
  std::vector<Cell> corrupted_;
  /// Appended rows not yet deleted.
  std::vector<TupleId> appended_;
};

/// Every acknowledged batch, in version order, across all phases.
struct MutationLog {
  explicit MutationLog(MutationSource s) : source(std::move(s)) {}
  MutationSource source;
  std::vector<MutationBatch> acked;
  int sent = 0;
  /// Set when an ack disagrees with the model: later versions can no
  /// longer be reconstructed, so the run is failed.
  bool broken = false;
};

/// What a report must be compared against: its data version, strategy
/// and budget.
using ReferenceKey = std::tuple<DataVersion, std::string, double>;

struct Outcome {
  ReferenceKey key;
  std::string report;
};

/// One connection's share of a phase.
struct Tally {
  std::vector<Stamped> open_ms;
  std::vector<Stamped> answer_ms;
  /// When each report arrived, in ms since the phase began.
  std::vector<double> done_at_ms;
  std::vector<Outcome> outcomes;
  std::vector<RecordedSession> recorded;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t reopened = 0;
  std::vector<std::string> errors;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(what));
  }
};

struct PhaseResult {
  Tally clients;
  /// The timed window: from the phase start to its deadline. Sessions
  /// still draining after the deadline are checked but not timed.
  double span_ms = 0.0;
  /// Process CPU time over the whole phase, drain included.
  double cpu_ms = 0.0;
  std::vector<double> mutate_ms;
  std::vector<double> late_ms;
};

struct Env {
  ServedKind kind;
  const Deployment* deployment;
  uint64_t seed;
  int clients;
};

std::string StrategyFor(ServedKind kind, Rng& traffic) {
  switch (kind) {
    case ServedKind::kFd:
      return "FDQ-BMC";
    case ServedKind::kCell:
      return "CellQ-HS";
    case ServedKind::kLive:
      return traffic.NextBool(0.5) ? "FDQ-BMC" : "CellQ-HS";
  }
  return "FDQ-BMC";
}

/// One closed-loop connection: open a session, answer every question with
/// the simulated expert as soon as it arrives, take the report, repeat
/// until the deadline (and at least `min_sessions` sessions).
void ClientLoop(const Env& env, int client, const std::string& tag,
                Clock::time_point start, Clock::time_point deadline,
                int min_sessions, bool record, Tally* tally) {
  const Deployment& d = *env.deployment;
  LineClient conn;
  if (!conn.Connect(d.daemon->port(), kReadTimeoutMs)) {
    ++tally->attempted;
    tally->Fail("connect failed");
    return;
  }
  // The traffic each connection sends is drawn from the workload seed.
  Rng traffic(env.seed * 0x9e3779b97f4a7c15ULL +
              std::hash<std::string>{}(tag) + static_cast<uint64_t>(client));
  for (int n = 0; n < min_sessions || Clock::now() < deadline; ++n) {
    const std::string strategy = StrategyFor(env.kind, traffic);
    const double budget = kBudgets[traffic.NextBounded(std::size(kBudgets))];
    // A live session runs on whichever epoch is current when the daemon
    // handles the open; the expert must judge that epoch's E_T.
    std::shared_ptr<const LiveEpoch> epoch =
        d.live != nullptr ? d.live->Current() : nullptr;
    const Session& session =
        epoch != nullptr ? *epoch->session : d.artifacts->session;
    SimulatedExpert expert = ExpertFor(session);

    ClientFrame open;
    open.op = ClientOp::kOpen;
    open.id = tag + "-c" + std::to_string(client) + "-" + std::to_string(n);
    open.strategy = strategy;
    open.budget = budget;
    open.has_budget = true;
    const bool recording = record && tally->recorded.size() < kRecordCap;
    RecordedSession rec;
    std::string line = FormatClientFrame(open);
    std::string reply;
    ++tally->attempted;
    Clock::time_point sent = Clock::now();
    if (!conn.WriteLine(line) || !conn.ReadLine(&reply)) {
      tally->Fail("open: no reply within the timeout");
      return;
    }
    const double open_ms = MsSince(sent);
    Result<ServerFrame> frame = ParseServerFrame(reply);
    if (!frame.ok() || frame->type == ServerFrameType::kError) {
      tally->Fail("open refused: " + reply);
      continue;
    }
    if (epoch != nullptr && frame->type == ServerFrameType::kQuestion &&
        d.live->Current()->version != epoch->version) {
      // The epoch moved while the open was in flight, so which one the
      // session pinned is unknown: close it (journal kept) and open anew.
      ClientFrame close;
      close.op = ClientOp::kClose;
      close.id = open.id;
      if (!conn.WriteLine(FormatClientFrame(close)) ||
          !conn.ReadLine(&reply)) {
        tally->Fail("close: no reply within the timeout");
        return;
      }
      ++tally->reopened;
      continue;
    }
    const int group = strategy == "FDQ-BMC" ? 0 : 1;
    tally->open_ms.push_back({MsSince(start), open_ms, group});
    if (recording) {
      rec.client_lines.push_back(line);
      rec.server_lines.push_back(reply);
    }
    bool ok = true;
    while (frame->type == ServerFrameType::kQuestion) {
      ClientFrame answer;
      answer.op = ClientOp::kAnswer;
      answer.id = open.id;
      answer.seq = frame->question.index;
      answer.answer = Ask(expert, frame->question);
      line = FormatClientFrame(answer);
      ++tally->attempted;
      sent = Clock::now();
      if (!conn.WriteLine(line) || !conn.ReadLine(&reply)) {
        tally->Fail("answer: no reply within the timeout");
        return;
      }
      const Clock::time_point now = Clock::now();
      tally->answer_ms.push_back(
          {MsBetween(start, now), MsBetween(sent, now), group});
      if (recording) {
        rec.answers.push_back(answer.answer);
        rec.client_lines.push_back(line);
        rec.server_lines.push_back(reply);
      }
      frame = ParseServerFrame(reply);
      if (!frame.ok() || frame->type == ServerFrameType::kError) {
        tally->Fail("answer refused: " + reply);
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    if (frame->type != ServerFrameType::kReport) {
      tally->Fail("unexpected frame: " + reply);
      continue;
    }
    tally->done_at_ms.push_back(MsSince(start));
    tally->outcomes.push_back(
        {{ReportVersion(frame->report), strategy, budget}, frame->report});
    if (recording) {
      rec.strategy = strategy;
      rec.budget = budget;
      rec.epoch = std::move(epoch);
      tally->recorded.push_back(std::move(rec));
    }
  }
}

/// The open-loop writer: batch k is due at start + k/hz whatever happened
/// to batch k-1; latency runs from the due time to the ack.
void MutatorLoop(const Env& env, Clock::time_point start,
                 Clock::time_point deadline, MutationLog* log,
                 PhaseResult* out) {
  LineClient conn;
  if (!conn.Connect(env.deployment->daemon->port(), kReadTimeoutMs)) {
    ++out->clients.attempted;
    out->clients.Fail("mutator: connect failed");
    return;
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kMutateHz));
  for (int k = 0; !log->broken; ++k) {
    const Clock::time_point due = start + k * period;
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    out->late_ms.push_back(MsSince(due));
    ClientFrame mutate;
    mutate.op = ClientOp::kMutate;
    mutate.id = "m" + std::to_string(log->sent);
    MutationBatch batch = log->source.Next(kBatchRows[log->sent % 3]);
    ++log->sent;
    mutate.mutations = batch.ops;
    std::string reply;
    ++out->clients.attempted;
    if (!conn.WriteLine(FormatClientFrame(mutate)) || !conn.ReadLine(&reply)) {
      out->clients.Fail("mutate: no reply within the timeout");
      log->broken = true;
      return;
    }
    out->mutate_ms.push_back(MsSince(due));
    Result<ServerFrame> frame = ParseServerFrame(reply);
    if (!frame.ok() || frame->type != ServerFrameType::kMutated ||
        frame->refused != 0 ||
        frame->applied != static_cast<int>(batch.ops.size()) ||
        frame->version != log->acked.size() + 1) {
      out->clients.Fail("mutate refused or off-version: " + reply);
      log->broken = true;
      return;
    }
    log->acked.push_back(std::move(batch));
  }
}

void Merge(Tally* into, Tally&& from) {
  auto append = [](auto* dst, auto&& src) {
    dst->insert(dst->end(), std::make_move_iterator(src.begin()),
                std::make_move_iterator(src.end()));
  };
  append(&into->open_ms, from.open_ms);
  append(&into->answer_ms, from.answer_ms);
  append(&into->done_at_ms, from.done_at_ms);
  append(&into->outcomes, from.outcomes);
  append(&into->recorded, from.recorded);
  append(&into->errors, from.errors);
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->reopened += from.reopened;
}

PhaseResult RunPhase(const Env& env, const std::string& tag, double seconds,
                     int min_sessions, bool record, MutationLog* log) {
  PhaseResult result;
  const double cpu_before = ProcessCpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Tally> tallies(env.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < env.clients; ++c) {
    threads.emplace_back(ClientLoop, std::cref(env), c, tag, start, deadline,
                         min_sessions, record, &tallies[c]);
  }
  if (log != nullptr) {
    threads.emplace_back(MutatorLoop, std::cref(env), start, deadline, log,
                         &result);
  }
  for (std::thread& t : threads) t.join();
  for (Tally& t : tallies) Merge(&result.clients, std::move(t));
  result.span_ms = seconds * 1000.0;
  result.cpu_ms = ProcessCpuMs() - cpu_before;
  return result;
}

void SetEndToEnd(const PhaseResult& phase, MetricList* out) {
  const Tally& t = phase.clients;
  out->Set("sessions_per_s",
           WindowedRate(t.done_at_ms, phase.span_ms, kWindows), "1/s");
  auto windowed = [&phase](const std::function<double(std::vector<double>)>&
                                stat) {
    return [&phase, stat](const std::vector<Stamped>& group) {
      return Windowed(group, phase.span_ms, kWindows, stat);
    };
  };
  out->Set("answer_mean_ms", GroupBalanced(t.answer_ms, windowed(Mean)),
           "ms");
  // Reported as client.answer_p50_ms: the reference the traced run's p50
  // layer times are compared against.
  out->Set("answer_p50_ms", GroupBalanced(t.answer_ms, windowed(Median)),
           "ms");
  out->Set("answer_p90_ms", GroupBalanced(t.answer_ms, windowed(P90)), "ms");
  out->Set("open_p50_ms", GroupBalanced(t.open_ms, windowed(Median)), "ms");
  out->Set("cpu_ms_per_session",
           phase.cpu_ms / static_cast<double>(t.outcomes.size()), "ms");
}

/// The in-process reference of every (data version, strategy, budget) a
/// served report carries: Session::Run on the base session for version 0,
/// and on Session::Rebase over the acked batches replayed up to V
/// otherwise.
std::map<ReferenceKey, SessionReport> ComputeReferences(
    const Session& base, const std::set<ReferenceKey>& keys,
    const std::vector<MutationBatch>& acked, ThreadPool* pool) {
  std::set<DataVersion> versions;
  for (const ReferenceKey& key : keys) versions.insert(std::get<0>(key));
  std::map<DataVersion, Relation> snapshots;
  if (!versions.empty() && *versions.rbegin() > 0) {
    LiveRelation replay(base.dirty());
    for (const MutationBatch& batch : acked) {
      const MutationReceipt receipt = replay.Apply(batch);
      if (versions.count(receipt.version) > 0) {
        snapshots.emplace(receipt.version, replay.relation());
      }
      if (receipt.version >= *versions.rbegin()) break;
    }
  }
  const std::vector<ReferenceKey> tasks(keys.begin(), keys.end());
  std::vector<std::optional<SessionReport>> reports(tasks.size());
  pool->ParallelFor(tasks.size(), [&](size_t i) {
    const auto& [version, name, budget] = tasks[i];
    auto snapshot = snapshots.find(version);
    if (version > 0 && snapshot == snapshots.end()) return;  // never acked
    std::optional<Session> rebased;
    if (version > 0) rebased.emplace(Session::Rebase(base, snapshot->second));
    const Session& session = version > 0 ? *rebased : base;
    std::unique_ptr<Strategy> strategy = MakeStrategyByName(name).ValueOrDie();
    SessionRunOptions options;
    options.data_version = version;
    reports[i] = session.Run(*strategy, budget, options).ValueOrDie();
  });
  std::map<ReferenceKey, SessionReport> out;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (reports[i].has_value()) out.emplace(tasks[i], std::move(*reports[i]));
  }
  return out;
}

}  // namespace

RunResult RunServed(const RunOptions& options, ServedKind kind) {
  RunResult result;
  const Scale scale = ScaleFor(options);
  const bool live = kind == ServedKind::kLive;
  ThreadPool pool(BenchThreads());

  ServedDatasetOptions dataset;
  dataset.rows = scale.rows;
  // The dataset is the served recipe's default instance, whatever the
  // seed: a deployment serves one dataset, and the seed draws the traffic
  // (session budgets, strategy mix, mutation stream) sent at it.
  dataset.num_threads = BenchThreads();

  std::vector<double> setup_s;
  const auto timed_deploy = [&]() {
    const std::string journals =
        options.scratch_dir + "/journals-" + std::to_string(setup_s.size());
    const Clock::time_point t = Clock::now();
    std::unique_ptr<Deployment> d = Deploy(dataset, &pool, live, journals);
    setup_s.push_back(MsSince(t) / 1000.0);
    return d;
  };
  std::unique_ptr<Deployment> deployment;
  for (int rep = 0; rep < scale.setup_reps_before; ++rep) {
    deployment.reset();
    deployment = timed_deploy();
  }

  Env env;
  env.kind = kind;
  env.deployment = deployment.get();
  env.seed = options.seed;
  // One connection of the nproc budget goes to the mutator on live-mutate.
  env.clients = live ? std::max(1, BenchThreads() - 1) : BenchThreads();
  std::optional<MutationLog> log;
  if (live) {
    log.emplace(MutationSource(deployment->artifacts->session.dirty(),
                               0x5eed0000 ^ options.seed));
  }
  MutationLog* mutator = log.has_value() ? &*log : nullptr;

  // Warm-up: one untimed session per connection fills the engine's
  // partition caches and the allocator before anything is measured.
  PhaseResult warmup = RunPhase(env, "w", 0.0, 1, false, nullptr);
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  PhaseResult untraced = RunPhase(env, "u", untraced_s, 1, false, mutator);
  std::optional<PhaseResult> traced;
  if (options.trace) {
    traced = RunPhase(env, "t", options.seconds / 2, 1, true, mutator);
  }
  const AdmissionStats admission = deployment->daemon->manager().admission_stats();
  const SessionManagerStats manager_stats =
      deployment->daemon->manager().stats();
  const ReactorStats reactor = deployment->daemon->reactor().stats();
  deployment->daemon->Shutdown();
  // The workload's high-water mark, before the reference check below holds
  // its own snapshots and sessions.
  const double peak_rss_mb = PeakRssMb();
  for (int rep = 0; rep < scale.setup_reps_after; ++rep) timed_deploy();

  // Correctness, outside every timed window: every report must equal the
  // in-process reference of its strategy and data version byte for byte.
  std::vector<const PhaseResult*> phases = {&warmup, &untraced};
  if (traced.has_value()) phases.push_back(&*traced);
  std::set<ReferenceKey> keys;
  for (const PhaseResult* phase : phases) {
    for (const Outcome& o : phase->clients.outcomes) {
      keys.insert(o.key);
    }
  }
  const std::vector<MutationBatch> no_batches;
  const std::map<ReferenceKey, SessionReport> references = ComputeReferences(
      deployment->artifacts->session, keys,
      log.has_value() ? log->acked : no_batches, &pool);
  std::vector<double> true_pct, false_pct;
  for (const PhaseResult* phase : phases) {
    result.attempted += phase->clients.attempted;
    result.failed += phase->clients.failed;
    for (const std::string& e : phase->clients.errors) {
      result.notes.push_back("failure: " + e);
    }
    for (const Outcome& o : phase->clients.outcomes) {
      auto ref = references.find(o.key);
      if (ref == references.end() ||
          SerializeSessionReport(ref->second) != o.report) {
        ++result.failed;
        if (result.notes.size() < 8) {
          result.notes.push_back(
              "report mismatch: " + std::get<1>(o.key) + " budget " +
              std::to_string(std::get<2>(o.key)) + " at data_version " +
              std::to_string(std::get<0>(o.key)));
        }
        continue;
      }
      if (phase == &untraced) {
        true_pct.push_back(ref->second.metrics.TrueViolationPct());
        false_pct.push_back(ref->second.metrics.FalseViolationPct());
      }
    }
  }
  if (log.has_value() && log->broken) ++result.failed;
  result.correct = result.failed == 0;

  MetricList& e2e = result.end_to_end;
  e2e.Set("setup_s", Median(setup_s), "s");
  SetEndToEnd(untraced, &e2e);
  e2e.Set("peak_rss_mb", peak_rss_mb, "MiB");
  result.layers.Set("core.true_violation_pct", Mean(true_pct), "%");
  result.layers.Set("core.false_violation_pct", Mean(false_pct), "%");

  const Tally& u = untraced.clients;
  std::string samples =
      SampleNote(Values(u.answer_ms), Values(u.open_ms), u.outcomes.size(),
                 setup_s.size());
  if (live) {
    samples += " mutations=" + std::to_string(untraced.mutate_ms.size()) +
               " mutate_p50_ms=" +
               std::to_string(Median(untraced.mutate_ms)) +
               " mutate_p90_ms=" +
               std::to_string(Quantile(untraced.mutate_ms, 0.90)) +
               " reopened=" + std::to_string(u.reopened);
  }
  result.notes.push_back(samples);

  if (options.trace) {
    MetricList& layers = result.layers;
    SetupRecipe recipe;
    recipe.table = TableKind::kHospital;
    recipe.rows = dataset.rows;
    recipe.data_seed = dataset.seed;
    recipe.error_rate = dataset.error_rate;
    recipe.error_seed = dataset.seed + 1;
    recipe.max_lhs = dataset.max_lhs;
    recipe.threads = BenchThreads();
    TraceSetup(recipe, &pool, &layers);
    {
      DatasetRegistryOptions registry_options;
      registry_options.pool = &pool;
      DatasetRegistry cold(registry_options);
      const Clock::time_point t = Clock::now();
      cold.Open(dataset).ValueOrDie();
      layers.Set("registry.open_ms", MsSince(t), "ms");
    }

    const DatasetArtifacts& base = *deployment->artifacts;
    const TargetFor target_for = [&](const RecordedSession& rec) {
      if (rec.epoch != nullptr) {
        return SessionTarget{rec.epoch->session.get(), rec.epoch->engine.get(),
                             &rec.epoch->graph(), &pool};
      }
      return SessionTarget{&base.session, base.engine.get(), &base.graph,
                           &pool};
    };
    const std::vector<RecordedSession>& recorded = traced->clients.recorded;
    double step_p50 = 0.0;
    bool faithful =
        ReplaySteps(recorded, target_for, 1.5, &layers, &step_p50);
    const std::string replay_dir = options.scratch_dir + "/replay";
    ::mkdir(replay_dir.c_str(), 0755);
    faithful &= ReplayManager(recorded, target_for, replay_dir, 1.5, &layers);
    ReplayJournal(recorded, replay_dir, 1.0, &layers);
    ReplayProtocol(recorded, &layers);
    if (live) {
      faithful &= ReplayLive(base.session, base.engine.get(), base.graph,
                             base.key.content_hash, &pool, log->acked, &layers);
      layers.Set("live.mutate_p50_ms", Median(untraced.mutate_ms), "ms");
      layers.Set("live.mutate_p90_ms", Quantile(untraced.mutate_ms, 0.90),
                 "ms");
      layers.Set("live.mutate_late_p90_ms", Quantile(untraced.late_ms, 0.90),
                 "ms");
    }
    if (!faithful) {
      ++result.failed;
      result.correct = false;
      result.notes.push_back("a layer replay diverged from the recorded run");
    }
    layers.Set("admission.shed",
               static_cast<double>(admission.rate_limited +
                                   admission.deadline_shed +
                                   admission.brownout_refused +
                                   admission.brownout_shed +
                                   manager_stats.refused),
               "count");
    layers.Set("reactor.dropped", static_cast<double>(reactor.dropped),
               "count");

    const double answer_p50 = e2e.Get("answer_p50_ms");
    layers.Set("transport.answer_p50_ms",
               answer_p50 - layers.Get("manager.answer_p50_ms"), "ms");
    layers.Set("core.step_share_pct", 100.0 * step_p50 / answer_p50, "%");
    // Layers measured on the answer path (the daemon fsyncs once per
    // JournalWriter::kBatchInterval records); transport is the residual and
    // is left out, so coverage is what the layers explain on their own.
    const double attributed =
        step_p50 +
        (layers.Get("journal.append_p50_us") +
         layers.Get("journal.sync_p50_us") / JournalWriter::kBatchInterval +
         layers.Get("protocol.parse_p50_us") +
         layers.Get("protocol.format_p50_us")) /
            1000.0;
    layers.Set("trace.coverage_pct", 100.0 * attributed / answer_p50, "%");
    MetricList traced_e2e;
    SetEndToEnd(*traced, &traced_e2e);
    layers.Set("trace.overhead_pct",
               100.0 * (traced_e2e.Get("answer_p50_ms") / answer_p50 - 1.0),
               "%");
  }
  return result;
}

}  // namespace pathbench
