// pathbench — the end-to-end benchmark of UGuide's three paths: the
// in-process paper pipeline, the served session over uguided, and the live
// path (op=mutate -> new epoch -> first question).
//
//   pathbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--source-digest HEX]
//   pathbench --smoke
//
// Workloads: pipeline-tax20k, served-fd, served-cell, live-mutate (see
// README.md beside this directory's CMakeLists.txt). The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit status is 0 only when every output was checked correct.

#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "layers.h"
#include "workloads.h"

namespace pathbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"cpu_ms_per_session", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

namespace {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "pipeline-tax20k", "served-fd", "served-cell", "live-mutate"};
  return names;
}

struct Args {
  RunOptions run;
  bool smoke = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

void Usage() {
  std::fprintf(stderr,
               "usage: pathbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] "
               "[--source-digest HEX]\n"
               "       pathbench --smoke\n"
               "workloads: pipeline-tax20k served-fd served-cell "
               "live-mutate\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pathbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->run.workload = value;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->run.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->run.trace = value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "pathbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->smoke) return true;
  return std::find(WorkloadNames().begin(), WorkloadNames().end(),
                   args->run.workload) != WorkloadNames().end();
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "pipeline-tax20k") return RunPipeline(options);
  if (options.workload == "served-fd") {
    return RunServed(options, ServedKind::kFd);
  }
  if (options.workload == "served-cell") {
    return RunServed(options, ServedKind::kCell);
  }
  return RunServed(options, ServedKind::kLive);
}

std::string ContextJson(const Args& args, const RunOptions& run) {
  char host[256] = {0};
  ::gethostname(host, sizeof(host) - 1);
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"host\": \"%s\", \"nproc\": %u, \"threads\": %d, "
      "\"build_type\": \"Release\", \"compiler\": \"%s\", "
      "\"commit\": \"%s\", \"source_digest\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
      host, std::thread::hardware_concurrency(), BenchThreads(),
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      args.commit.c_str(), args.source_digest.c_str(), run.workload.c_str(),
      static_cast<unsigned long long>(run.seed), run.seconds,
      run.trace ? 1 : 0);
  return buf;
}

void PrintTable(const char* title, const MetricList& metrics) {
  std::printf("  %s\n", title);
  for (const Metric& m : metrics.items()) {
    std::printf("    %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string ResultJson(const RunResult& result, const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

/// Keeps exactly the declared end-to-end metrics in `result->end_to_end`,
/// in their order, and moves the client's wall-clock figures to the layers
/// as `client.*` (all layers, in order, when traced); false if a workload
/// failed to produce a declared metric.
bool SplitEndToEnd(bool traced, RunResult* result) {
  MetricList declared;
  int found = 0;
  for (const Metric& m : result->end_to_end.items()) {
    bool is_declared = false;
    for (const auto& [name, unit] : EndToEndMetricNames()) {
      is_declared |= m.name == name;
      if (m.name == name && m.unit == unit) ++found;
    }
    if (!is_declared) result->layers.Set("client." + m.name, m.value, m.unit);
  }
  for (const auto& [name, unit] : EndToEndMetricNames()) {
    declared.Set(name, result->end_to_end.Get(name), unit);
  }
  result->end_to_end = declared;
  if (traced) FillBypassedLayers(&result->layers);
  return found == static_cast<int>(EndToEndMetricNames().size());
}

/// Runs one workload and prints its report; returns the exit status.
int RunOne(const Args& args, RunOptions run) {
  // Journal ids repeat across runs, so each run gets a fresh directory.
  run.scratch_dir += "/" + run.workload + (run.trace ? "-traced" : "");
  std::filesystem::create_directories(run.scratch_dir);
  std::printf("pathbench: context %s\n", ContextJson(args, run).c_str());
  std::fflush(stdout);
  RunResult result = RunWorkload(run);
  if (!SplitEndToEnd(run.trace, &result)) {
    result.correct = false;
    result.notes.push_back("an end-to-end metric is missing");
  }
  if (run.trace && result.layers.items().size() != LayerMetricNames().size()) {
    result.correct = false;
    result.notes.push_back("a per-layer metric is missing");
  }
  std::printf("pathbench: %s seed=%llu trace=%d\n", run.workload.c_str(),
              static_cast<unsigned long long>(run.seed), run.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  PrintTable("end to end (untraced phase)", result.end_to_end);
  PrintTable(run.trace ? "per layer" : "per layer (client figures and report "
                                       "quality; the rest in trace mode)",
             result.layers);
  std::printf("  failed_frac %.6f (%lld of %lld operations)\n",
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  std::printf("%s\n",
              ResultJson(result, run.trace ? result.layers : result.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 && result.attempted > 0 ? 0 : 1;
}

/// Every workload at toy scale, untraced and traced, in one process: each
/// must emit every named metric with its unit and pass its checks.
int RunSmoke(const Args& args) {
  int failures = 0;
  for (const std::string& workload : WorkloadNames()) {
    for (bool trace : {false, true}) {
      RunOptions run = args.run;
      run.workload = workload;
      run.smoke = true;
      run.seconds = 1.0;
      run.trace = trace;
      if (RunOne(args, run) != 0) {
        ++failures;
        std::printf("pathbench smoke: FAILED %s trace=%d\n", workload.c_str(),
                    trace ? 1 : 0);
      }
    }
  }
  std::printf("pathbench smoke: %s (%d failing run(s))\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

void OnWatchdog(int) {
  static const char kMessage[] =
      "pathbench: watchdog: the run did not finish in time\n";
  [[maybe_unused]] const ssize_t n =
      ::write(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
  ::_exit(4);
}

}  // namespace
}  // namespace pathbench

int main(int argc, char** argv) {
  using namespace pathbench;
#ifndef NDEBUG
  std::fprintf(stderr,
               "pathbench: refusing to record from a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  // Journals and replay files live in a private directory of the working
  // directory, removed when the run ends.
  // A wedged program must fail the run, not hang it: no single run takes
  // anywhere near this long.
  std::signal(SIGALRM, OnWatchdog);
  ::alarm(args.smoke ? 590 : 170);
  const std::filesystem::path scratch =
      std::filesystem::path(".bench_build") /
      ("scratch-" + std::to_string(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  args.run.scratch_dir = scratch.string();
  const int status = args.smoke ? RunSmoke(args) : RunOne(args, args.run);
  std::filesystem::remove_all(scratch);
  return status;
}
