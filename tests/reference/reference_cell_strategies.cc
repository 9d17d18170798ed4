#include "reference/reference_cell_strategies.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>
#include <vector>

#include "violations/bipartite_graph.h"
#include "violations/violation_engine.h"

namespace uguide {

namespace {

// One reference run: the graph the shipped strategies run on (the
// context's shared artifact, read in place, else a fresh Build), Algorithm
// 2's FD confidences and the asked flags. Activity is kept by definition
// and shares nothing with the shipped ActiveSet: an FD is active until a
// "no" answer invalidates it, and a cell's active degree is a rescan of
// its active flagging FDs, or 0 once the expert certified it clean. A
// cell is active iff that degree is positive.
struct RescanRun {
  RescanRun(const QuestionContext& ctx, double initial_confidence)
      : engine(ctx.engine, ctx.dirty),
        graph(ctx.graph != nullptr
                  ? *ctx.graph
                  : owned_graph.emplace(ViolationGraph::Build(
                        *engine, *ctx.candidates, ctx.pool))),
        fd_active(static_cast<size_t>(graph.NumFds()), true),
        clean(static_cast<size_t>(graph.NumCells()), false),
        degree(static_cast<size_t>(graph.NumCells()), 0),
        confidence(static_cast<size_t>(graph.NumFds()), initial_confidence),
        asked(static_cast<size_t>(graph.NumCells()), false) {
    Rescan();
  }

  bool FdActive(FdId f) const { return fd_active[static_cast<size_t>(f)]; }
  int ActiveDegree(CellId c) const { return degree[static_cast<size_t>(c)]; }
  bool CellActive(CellId c) const { return ActiveDegree(c) > 0; }

  bool Askable(CellId c) const {
    return !asked[static_cast<size_t>(c)] && CellActive(c);
  }

  // Recomputes every cell's degree from the flags, in full. The flags
  // move only in Invalidate, which calls this after every change.
  void Rescan() {
    std::fill(degree.begin(), degree.end(), 0);
    for (FdId f = 0; f < graph.NumFds(); ++f) {
      if (!FdActive(f)) continue;
      for (CellId c : graph.CellsOfFd(f)) ++degree[static_cast<size_t>(c)];
    }
    for (CellId c = 0; c < graph.NumCells(); ++c) {
      if (clean[static_cast<size_t>(c)]) degree[static_cast<size_t>(c)] = 0;
    }
  }

  // "No": every FD flagging `c` is invalid, and `c` is clean.
  void Invalidate(CellId c) {
    for (FdId f : graph.FdsOfCell(c)) {
      fd_active[static_cast<size_t>(f)] = false;
    }
    clean[static_cast<size_t>(c)] = true;
    Rescan();
  }

  // "Yes": every active FD flagging `c` gains `delta`, capped at 1.
  void Confirm(CellId c, double delta, std::vector<double>& conf) const {
    for (FdId f : graph.FdsOfCell(c)) {
      if (FdActive(f)) {
        double& v = conf[static_cast<size_t>(f)];
        v = std::min(1.0, v + delta);
      }
    }
  }

  // Active FDs whose `conf` reached `threshold`, ascending.
  FdSet Accept(const std::vector<double>& conf, double threshold) const {
    FdSet accepted;
    for (FdId f = 0; f < graph.NumFds(); ++f) {
      if (FdActive(f) && conf[static_cast<size_t>(f)] >= threshold) {
        accepted.Add(graph.fd(f));
      }
    }
    return accepted;
  }

  EngineRef engine;
  // The run's private build when the context shares no graph.
  std::optional<ViolationGraph> owned_graph;
  const ViolationGraph& graph;
  std::vector<bool> fd_active;
  std::vector<bool> clean;
  std::vector<int> degree;
  std::vector<double> confidence;
  std::vector<bool> asked;
};

// Asks `pick()`'s cell (-1 = none left) while one more question fits the
// budget, then hands the answer to `apply(cell, answer)`.
template <typename PickFn, typename ApplyFn>
StrategyResult AskWhileBudgetLasts(const QuestionContext& ctx,
                                   const RescanRun& run, PickFn pick,
                                   ApplyFn apply) {
  StrategyResult result;
  const double cost = ctx.cost.CellCost();
  while (result.cost_spent + cost <= ctx.budget) {
    const CellId c = pick();
    if (c < 0) break;
    const Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(c));
    result.cost_spent += cost;
    ++result.questions_asked;
    apply(c, answer);
  }
  return result;
}

// Algorithm 2's answer handling, shared by the HS and Greedy references.
void ApplyAlgorithm2(RescanRun& run, CellId c, Answer answer, double delta) {
  run.asked[static_cast<size_t>(c)] = true;
  if (answer == Answer::kYes) {
    run.Confirm(c, delta, run.confidence);
  } else if (answer == Answer::kNo) {
    run.Invalidate(c);
  }
}

class ReferenceCellQHittingSet : public Strategy {
 public:
  explicit ReferenceCellQHittingSet(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-HS"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    RescanRun run(ctx, options_.initial_confidence);
    // Weight (Algorithm 2 line 3) = average confidence of the active FDs
    // flagging c; the question minimizes weight / active degree.
    const auto score = [&run](CellId c) {
      double sum = 0.0;
      int count = 0;
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (!run.FdActive(f)) continue;
        sum += run.confidence[static_cast<size_t>(f)];
        ++count;
      }
      const double weight = count == 0 ? 0.0 : sum / count;
      return weight / run.ActiveDegree(c);
    };
    const auto pick = [&] {
      CellId best = -1;
      double best_score = 0.0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const double s = score(c);
        if (best < 0 || s < best_score) {
          best = c;
          best_score = s;
        }
      }
      return best;
    };
    StrategyResult result =
        AskWhileBudgetLasts(ctx, run, pick, [&](CellId c, Answer answer) {
          ApplyAlgorithm2(run, c, answer, options_.delta);
        });
    result.accepted_fds =
        run.Accept(run.confidence, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

class ReferenceCellQGreedy : public Strategy {
 public:
  explicit ReferenceCellQGreedy(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-Greedy"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    RescanRun run(ctx, options_.initial_confidence);
    const auto pick = [&] {
      CellId best = -1;
      int best_degree = 0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const int degree = run.ActiveDegree(c);
        if (degree > best_degree) {
          best = c;
          best_degree = degree;
        }
      }
      return best;
    };
    StrategyResult result =
        AskWhileBudgetLasts(ctx, run, pick, [&](CellId c, Answer answer) {
          ApplyAlgorithm2(run, c, answer, options_.delta);
        });
    result.accepted_fds =
        run.Accept(run.confidence, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

class ReferenceCellQSums : public Strategy {
 public:
  explicit ReferenceCellQSums(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-SUMS"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    RescanRun run(ctx, options_.initial_confidence);
    const size_t num_cells = static_cast<size_t>(run.graph.NumCells());
    std::vector<double> cell_conf(num_cells, 1.0);
    std::vector<bool> pinned(num_cells, false);
    // Acceptance evidence, bumped by confirmations like Algorithm 2;
    // run.confidence holds the fixpoint's FD scores instead.
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    const auto score = [&](CellId c) {
      const double uncertainty =
          1.0 - std::abs(2.0 * cell_conf[static_cast<size_t>(c)] - 1.0);
      double marginal = 0.0;
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (run.FdActive(f)) {
          marginal += 1.0 - evidence[static_cast<size_t>(f)];
        }
      }
      return (0.05 + uncertainty) * marginal;
    };
    const auto pick = [&] {
      CellId best = -1;
      double best_score = 0.0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const double s = score(c);
        if (s > best_score) {
          best = c;
          best_score = s;
        }
      }
      if (best >= 0) return best;
      double lowest = 2.0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        if (cell_conf[static_cast<size_t>(c)] < lowest) {
          best = c;
          lowest = cell_conf[static_cast<size_t>(c)];
        }
      }
      return best;
    };

    EstimateConfidence(run, cell_conf, pinned);
    int answers_since_estimate = 0;
    StrategyResult result =
        AskWhileBudgetLasts(ctx, run, pick, [&](CellId c, Answer answer) {
          run.asked[static_cast<size_t>(c)] = true;
          if (answer == Answer::kIdk) return;
          if (answer == Answer::kYes) {
            pinned[static_cast<size_t>(c)] = true;
            cell_conf[static_cast<size_t>(c)] = 1.0;
            run.Confirm(c, options_.delta, evidence);
          } else {
            run.Invalidate(c);
          }
          if (++answers_since_estimate >= options_.sums_recompute_interval) {
            EstimateConfidence(run, cell_conf, pinned);
            answers_since_estimate = 0;
          }
        });
    result.accepted_fds =
        run.Accept(evidence, options_.sums_accept_threshold);
    return result;
  }

 private:
  // Algorithm 4, every node recomputed every iteration: FD score =
  // log(1 + n) * mean confidence of its n active cells, cell score = sum of
  // its active FDs' scores, each side max-normalized; pinned cells keep
  // their value; stops once no FD score moved by the tolerance.
  void EstimateConfidence(RescanRun& run, std::vector<double>& cell_conf,
                          const std::vector<bool>& pinned) const {
    const int num_fds = run.graph.NumFds();
    const int num_cells = run.graph.NumCells();
    std::vector<double> next_fd(static_cast<size_t>(num_fds), 0.0);
    for (int iter = 0; iter < options_.sums_max_iterations; ++iter) {
      double max_fd = 0.0;
      for (FdId f = 0; f < num_fds; ++f) {
        next_fd[static_cast<size_t>(f)] = 0.0;
        if (!run.FdActive(f)) continue;
        double sum = 0.0;
        int count = 0;
        for (CellId c : run.graph.CellsOfFd(f)) {
          if (!run.CellActive(c)) continue;
          sum += cell_conf[static_cast<size_t>(c)];
          ++count;
        }
        next_fd[static_cast<size_t>(f)] =
            count == 0 ? 0.0 : std::log(1.0 + count) * (sum / count);
        max_fd = std::max(max_fd, next_fd[static_cast<size_t>(f)]);
      }
      if (max_fd > 0.0) {
        for (double& v : next_fd) v /= max_fd;
      }
      double max_delta = 0.0;
      for (FdId f = 0; f < num_fds; ++f) {
        max_delta = std::max(
            max_delta, std::abs(next_fd[static_cast<size_t>(f)] -
                                run.confidence[static_cast<size_t>(f)]));
      }
      run.confidence.swap(next_fd);

      double max_cell = 0.0;
      for (CellId c = 0; c < num_cells; ++c) {
        if (!run.CellActive(c) || pinned[static_cast<size_t>(c)]) {
          continue;
        }
        double sum = 0.0;
        for (FdId f : run.graph.FdsOfCell(c)) {
          if (run.FdActive(f)) {
            sum += run.confidence[static_cast<size_t>(f)];
          }
        }
        cell_conf[static_cast<size_t>(c)] = sum;
        max_cell = std::max(max_cell, sum);
      }
      if (max_cell > 0.0) {
        for (CellId c = 0; c < num_cells; ++c) {
          if (!pinned[static_cast<size_t>(c)] && run.CellActive(c)) {
            cell_conf[static_cast<size_t>(c)] /= max_cell;
          }
        }
      }

      if (max_delta < options_.sums_tolerance) break;
    }
  }

  CellStrategyOptions options_;
};

}  // namespace

std::unique_ptr<Strategy> MakeReferenceCellQHittingSet(
    const CellStrategyOptions& options) {
  return std::make_unique<ReferenceCellQHittingSet>(options);
}

std::unique_ptr<Strategy> MakeReferenceCellQGreedy(
    const CellStrategyOptions& options) {
  return std::make_unique<ReferenceCellQGreedy>(options);
}

std::unique_ptr<Strategy> MakeReferenceCellQSums(
    const CellStrategyOptions& options) {
  return std::make_unique<ReferenceCellQSums>(options);
}

}  // namespace uguide
