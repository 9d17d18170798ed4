// Shared vocabulary of the path benchmark: clocks, sample summaries, the
// named-metric list every workload fills, and the blocking line client the
// served workloads drive the daemon with.

#ifndef UGUIDE_PATHBENCH_MEASURE_H_
#define UGUIDE_PATHBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace pathbench {

/// Dies with the status message unless `status` is OK: the benchmark's own
/// set-up and replays have no failure to report but a broken program.
inline void MustOk(const uguide::Status& status) {
  UGUIDE_CHECK(status.ok()) << status.ToString();
}

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
inline double P90(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.9);
}
double Mean(std::vector<double> samples);

/// A measurement stamped with when it completed, in ms since its phase
/// began, and with the group (strategy) it belongs to.
struct Stamped {
  double at_ms = 0.0;
  double value = 0.0;
  int group = 0;
};

std::vector<double> Values(const std::vector<Stamped>& samples);

/// Cuts [0, span_ms) into `windows` equal slices and returns the median
/// over slices of `stat` of each slice's values (empty slices and samples
/// past the span are skipped). A burst of interference from outside the
/// process then moves one slice, not the reported figure.
double Windowed(const std::vector<Stamped>& samples, double span_ms,
                int windows,
                const std::function<double(std::vector<double>)>& stat);

/// The mean over groups of `stat` applied to each group's samples. On a
/// strategy mix, a percentile of the pooled samples sits between two
/// strategies' clusters and jumps when the mix shifts by a few sessions; a
/// mean of per-strategy percentiles moves only when a strategy does.
double GroupBalanced(
    const std::vector<Stamped>& samples,
    const std::function<double(const std::vector<Stamped>&)>& stat);

/// Like Windowed, for a rate: the median over slices of events per second.
double WindowedRate(const std::vector<double>& event_at_ms, double span_ms,
                    int windows);

/// The sample counts of a phase plus the percentiles its samples support
/// beyond the reported ones (p99 of answers from 1000 samples, p90 of
/// opens from 100: at least ten samples lie beyond each).
std::string SampleNote(const std::vector<double>& answer_ms,
                       const std::vector<double>& open_ms, size_t sessions,
                       size_t setups);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Client connections and worker threads of every workload: min(4, nproc).
/// Fixed, not a flag: it shapes the traffic itself (connections, daemon
/// workers, discovery threads), so one workload name means one load.
int BenchThreads();

/// CPU time (user + system, all threads) this process has used, in ms.
double ProcessCpuMs();

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An ordered set of metrics; Set() overwrites an existing name.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The value of `name`, or 0 when absent.
  double Get(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Scale and knobs of one invocation.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the smoke mode; the real sizes otherwise.
  bool smoke = false;
  /// Where journals and scratch files go; removed when the run ends.
  std::string scratch_dir;
};

/// What a workload run reports. End-to-end metrics always come from an
/// untraced phase; `layers` holds the report quality on every run and every
/// per-layer metric in trace mode.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricList end_to_end;
  MetricList layers;
  /// Human-readable lines (sample counts, extra percentiles) printed
  /// before the result.
  std::vector<std::string> notes;
};

/// A blocking newline-delimited client of the uguided protocol over
/// loopback, with a receive timeout so a wedged daemon fails the run
/// instead of hanging it.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(int port, int timeout_ms);
  bool WriteLine(const std::string& line);
  /// False on timeout, EOF or error.
  bool ReadLine(std::string* line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace pathbench

#endif  // UGUIDE_PATHBENCH_MEASURE_H_
