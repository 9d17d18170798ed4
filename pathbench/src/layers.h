// Layer-by-layer timing for the traced mode. Nothing inside the program is
// instrumented: every function here calls one module's public entry points
// from the benchmark's side, either stage by stage (the set-up chain) or by
// replaying what a workload run recorded (answers, wire frames, mutation
// batches) into that module alone.

#ifndef UGUIDE_PATHBENCH_LAYERS_H_
#define UGUIDE_PATHBENCH_LAYERS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/uguide.h"
#include "live/live_dataset.h"
#include "measure.h"

namespace pathbench {

/// Which generator a recipe draws its clean table from.
enum class TableKind { kTax, kHospital };

/// The offline phase of one dataset, stage by stage.
struct SetupRecipe {
  TableKind table = TableKind::kTax;
  int rows = 0;
  uint64_t data_seed = 0;
  /// When set, the rows are shuffled with this seed after errors are
  /// injected (ShuffleRows; untimed, it prepares the benchmark's input).
  std::optional<uint64_t> shuffle_seed;
  double error_rate = 0.0;
  uint64_t error_seed = 0;
  int max_lhs = 3;
  int threads = 1;
};

/// The simulated expert of `session`, configured exactly as Session::Run
/// configures it.
uguide::SimulatedExpert ExpertFor(const uguide::Session& session);

/// Puts the rows of `clean` and `dirty` in one seeded random order and
/// remaps the error ledger to match: an isomorphic instance (same values,
/// same errors, same violations) under other row ids.
void ShuffleRows(uint64_t seed, uguide::Relation* clean,
                 uguide::DirtyDataset* dirty);

/// Runs the set-up chain once, one module call at a time: datagen,
/// discovery on the clean table (Sigma_TC), errorgen, exact and
/// approximate discovery on the dirty table (candidate generation's two
/// passes), E_T, and the violation graph over the candidates. Fills the
/// datagen./errorgen./discovery./violations. metrics and
/// core.true_violations_ms.
void TraceSetup(const SetupRecipe& recipe, uguide::ThreadPool* pool,
                MetricList* layers);

/// One session as a workload saw it, kept for replay.
struct RecordedSession {
  std::string strategy;
  double budget = 0.0;
  /// The expert's answers, in question order.
  std::vector<uguide::Answer> answers;
  /// Served sessions only: the client frames as sent (open, then one per
  /// answer) and the server frames as received (questions, then report).
  std::vector<std::string> client_lines;
  std::vector<std::string> server_lines;
  /// Live sessions only: the epoch the session ran against.
  std::shared_ptr<const uguide::LiveEpoch> epoch;
};

/// The shared resources a session runs against.
struct SessionTarget {
  const uguide::Session* session = nullptr;
  uguide::ViolationEngine* engine = nullptr;
  const uguide::ViolationGraph* graph = nullptr;
  uguide::ThreadPool* pool = nullptr;
};
using TargetFor = std::function<SessionTarget(const RecordedSession&)>;

/// Replays recorded answers straight into SessionStateMachine (no journal,
/// no protocol) until `budget_s` is spent, at least one session per
/// strategy. Fills core.start_ms, core.step_*_p50_ms, core.finish_ms and
/// core.questions, and sets `step_p50` to the step medians balanced over
/// strategies as the end-to-end latencies are (GroupBalanced). Returns
/// false if a replay diverged from the recording.
bool ReplaySteps(const std::vector<RecordedSession>& sessions,
                 const TargetFor& target_for, double budget_s,
                 MetricList* layers, double* step_p50);

/// Replays recorded client frames through an in-process SessionManager
/// (journaling every answer, as the served workloads' daemon does) and checks the
/// replies against the recorded server frames, byte for byte (a live
/// report apart from its data_version line). Fills manager.open_p50_ms
/// and manager.answer_p50_ms. Returns false on any divergence.
bool ReplayManager(const std::vector<RecordedSession>& sessions,
                   const TargetFor& target_for, const std::string& dir,
                   double budget_s, MetricList* layers);

/// Replays the recorded question/answer pairs into JournalWriter::Append
/// and ::Sync under `dir`, session by session until `budget_s` is spent.
/// Fills journal.append_p50_us and journal.sync_p50_us.
void ReplayJournal(const std::vector<RecordedSession>& sessions,
                   const std::string& dir, double budget_s,
                   MetricList* layers);

/// Times ParseClientFrame over every recorded client frame and
/// FormatQuestionFrame over every recorded question. Fills
/// protocol.parse_p50_us and protocol.format_p50_us.
void ReplayProtocol(const std::vector<RecordedSession>& sessions,
                    MetricList* layers);

/// Replays acknowledged batches, in version order, into a fresh
/// LiveDataset over the same base artifacts, timing Apply and the first
/// graph() of every published epoch. Fills live.apply_p50_ms,
/// live.graph_materialize_ms, live.fds_recomputed and live.fd_skip_ratio.
/// Returns false if a replayed batch lands on another version.
bool ReplayLive(const uguide::Session& base, uguide::ViolationEngine* engine,
                const uguide::ViolationGraph& graph, uint64_t content_hash,
                uguide::ThreadPool* pool,
                const std::vector<uguide::MutationBatch>& batches,
                MetricList* layers);

/// Every per-layer metric name with its unit, in output order. A traced
/// run reports each one; a layer a workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/// Fills every name of LayerMetricNames() that `layers` lacks with 0.
void FillBypassedLayers(MetricList* layers);

}  // namespace pathbench

#endif  // UGUIDE_PATHBENCH_LAYERS_H_
