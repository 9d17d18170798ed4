#include "core/cell_strategies.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "fd/closure.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_engine.h"

namespace uguide {

namespace {

// Shared working state for one cell-strategy run. The run reads the
// context's prebuilt shared graph (a DatasetRegistry artifact or a live
// epoch's graph over the same candidate set) in place; without one it
// builds a private graph through the session's shared violation engine
// (or a private fallback) and, when the context carries a pool, in
// parallel -- bit-identical to the serial build either way. Answers
// change only what the run owns: its ActiveSet, confidences and asked
// flags.
struct CellRun {
  CellRun(const QuestionContext& ctx, const CellStrategyOptions& options)
      : engine(ctx.engine, ctx.dirty),
        graph(ctx.graph != nullptr
                  ? *ctx.graph
                  : owned_graph.emplace(ViolationGraph::Build(
                        *engine, *ctx.candidates, ctx.pool))),
        active(graph),
        fd_conf(static_cast<size_t>(graph.NumFds()),
                options.initial_confidence),
        asked(static_cast<size_t>(graph.NumCells()), false),
        seen(static_cast<size_t>(graph.NumCells()), false) {}

  EngineRef engine;
  // The run's private build when the context shares no graph.
  std::optional<ViolationGraph> owned_graph;
  const ViolationGraph& graph;
  ActiveSet active;
  std::vector<double> fd_conf;
  std::vector<bool> asked;

  // Average confidence of the active FDs flagging `c` (Algorithm 2 line 3).
  double CellWeight(CellId c) const {
    double sum = 0.0;
    int count = 0;
    for (FdId f : graph.FdsOfCell(c)) {
      if (!active.FdActive(f)) continue;
      sum += fd_conf[static_cast<size_t>(f)];
      ++count;
    }
    return count == 0 ? 0.0 : sum / count;
  }

  // An active cell has an active flagging FD, hence a nonzero degree.
  bool Askable(CellId c) const {
    return !asked[static_cast<size_t>(c)] && active.CellActive(c);
  }

  // Calls `fn(c)` once for every askable cell flagged by some FD of `fds`:
  // the cells whose score an answer touching those FDs can move. A cell
  // flagged by several of them is visited once (scores are O(degree)).
  template <typename Fn>
  void ForEachAskableCellOf(const std::vector<FdId>& fds, Fn&& fn) {
    for (FdId f : fds) {
      for (CellId c : graph.CellsOfFd(f)) {
        if (seen[static_cast<size_t>(c)] || !Askable(c)) continue;
        seen[static_cast<size_t>(c)] = true;
        touched.push_back(c);
        fn(c);
      }
    }
    for (CellId c : touched) seen[static_cast<size_t>(c)] = false;
    touched.clear();
  }

  // Accepts surviving FDs whose `conf` reached the absolute cut;
  // threshold 0 accepts every surviving FD.
  FdSet Accept(const std::vector<double>& conf, double threshold) const {
    FdSet accepted;
    active.ForEachActiveFd([&](FdId f) {
      if (conf[static_cast<size_t>(f)] >= threshold) {
        accepted.Add(graph.fd(f));
      }
    });
    return accepted;
  }

 private:
  // Scratch of ForEachAskableCellOf; `seen` is all false between calls.
  std::vector<bool> seen;
  std::vector<CellId> touched;
};

// Applies the expert's answer to `c` with Algorithm 2's updates, bumping
// `conf` on "yes". Returns the FDs whose state the answer touched
// (confidence bump on "yes", deactivation on "no") so the heap selectors
// know which cells to rescore.
std::vector<FdId> ApplyAnswer(CellRun& run, CellId c, Answer answer,
                              double delta, std::vector<double>& conf) {
  run.asked[static_cast<size_t>(c)] = true;
  std::vector<FdId> affected;
  switch (answer) {
    case Answer::kYes:
      // Confirmed violation: every flagging FD gains confidence. Only FDs
      // whose confidence actually moved (it saturates at 1) are reported:
      // an unchanged confidence cannot change any cell's score, so
      // rescoring its cells would push byte-identical heap entries.
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (run.active.FdActive(f)) {
          double& v = conf[static_cast<size_t>(f)];
          const double bumped = std::min(1.0, v + delta);
          if (bumped != v) {
            v = bumped;
            affected.push_back(f);
          }
        }
      }
      break;
    case Answer::kNo: {
      // Certified clean: every FD that called this an error is invalid.
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (!run.active.FdActive(f)) continue;
        affected.push_back(f);
        run.active.DeactivateFd(f);
      }
      run.active.DeactivateCell(c);
      break;
    }
    case Answer::kIdk:
      break;
  }
  return affected;
}

// Lazy-invalidation selector: a min-heap over (score, cell) that pops the
// askable cell with the smallest score, ties toward the lowest CellId —
// exactly the cell an ascending linear scan (first strict improvement)
// would pick. Rescoring pushes a fresh entry instead of updating in place;
// stale entries are recognized on pop by comparing against the score
// array. Scores are recomputed by the same floating-point expression every
// time, so the staleness equality test and the selected cells are exact.
// The entry vector keeps its storage across Rebuilds.
class SelectionHeap {
 public:
  explicit SelectionHeap(int num_cells)
      : score_(static_cast<size_t>(num_cells), 0.0) {}

  void Update(CellId c, double score) {
    Heapify();
    score_[static_cast<size_t>(c)] = score;
    heap_.emplace_back(score, c);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
  }

  // Makes every entry of `c` stale until its next Update: NaN compares
  // unequal to every score.
  void Retire(CellId c) {
    score_[static_cast<size_t>(c)] = std::numeric_limits<double>::quiet_NaN();
  }

  // Drops every entry, then reseeds from `fill`, which calls its argument
  // as push(cell, score) at most once per cell, so the push order cannot
  // change what Best selects. The entries are heapified in O(n) only when
  // a second Best or an Update needs the order: a strategy that rescores
  // everything after each answer asks one Best per Rebuild, which a linear
  // scan answers, and a Rebuild whose first Best finds nothing live is
  // replaced without ever being ordered.
  template <typename FillFn>
  void Rebuild(const FillFn& fill) {
    heap_.clear();
    fill([&](CellId c, double score) {
      score_[static_cast<size_t>(c)] = score;
      heap_.emplace_back(score, c);
    });
    heaped_ = false;
    scanned_ = false;
  }

  // The askable cell with the minimal (score, id). Does not pop the
  // returned entry: asking marks the cell un-askable, which retires the
  // entry on the next call. Returns -1 when no candidate remains.
  template <typename AskableFn>
  CellId Best(const AskableFn& askable) {
    const auto live = [&](const Entry& e) {
      return askable(e.second) &&
             e.first == score_[static_cast<size_t>(e.second)];
    };
    if (!heaped_ && !scanned_) {
      scanned_ = true;
      const Entry* best = nullptr;
      for (const Entry& e : heap_) {
        if ((best == nullptr || e < *best) && live(e)) best = &e;
      }
      return best == nullptr ? -1 : best->second;
    }
    Heapify();
    while (!heap_.empty()) {
      if (live(heap_.front())) return heap_.front().second;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
      heap_.pop_back();
    }
    return -1;
  }

 private:
  using Entry = std::pair<double, CellId>;

  void Heapify() {
    if (heaped_) return;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
    heaped_ = true;
  }

  std::vector<double> score_;
  // A min-heap under std::greater once heaped_ is set.
  std::vector<Entry> heap_;
  bool heaped_ = true;
  // Whether Best already answered from the unordered entries.
  bool scanned_ = false;
};

// The budgeted ask loop every cell strategy shares (the counterpart of
// RunFdLoop): while one more question fits the budget, asks the cell
// `select()` returns (-1 = nothing left to ask) and hands the expert's
// answer to `on_answer(cell, answer)`. It owns the budget check, the
// expert call and the question tally; selection and answer handling
// belong to the strategy.
template <typename SelectFn, typename AnswerFn>
StrategyResult RunCellLoop(const QuestionContext& ctx,
                           const ViolationGraph& graph, SelectFn select,
                           AnswerFn on_answer) {
  StrategyResult result;
  const double cost = ctx.cost.CellCost();
  while (result.cost_spent + cost <= ctx.budget) {
    const CellId best = select();
    if (best < 0) break;
    const Answer answer = ctx.expert->IsCellErroneous(graph.cell(best));
    result.cost_spent += cost;
    ++result.questions_asked;
    on_answer(best, answer);
  }
  return result;
}

// Hitting-set rule (Algorithm 2): minimize weight / active-degree.
double HittingSetScore(const CellRun& run, CellId c) {
  return run.CellWeight(c) / run.active.ActiveDegreeOfCell(c);
}

// Greedy rule (§7.1): maximize the number of flagging candidate FDs.
// Negated so the min-heap selects the maximum; degrees are small integers,
// exactly representable, so staleness equality is exact.
double GreedyScore(const CellRun& run, CellId c) {
  return -static_cast<double>(run.active.ActiveDegreeOfCell(c));
}

// CellQ-HS and CellQ-Greedy: each round asks the askable cell with the
// minimal (Score, id) from a lazy SelectionHeap, then applies Algorithm 2's
// updates. Only cells adjacent to an FD the answer touched can change
// score, so only those are rescored. Greedy's score is the degree alone,
// which a "yes" never moves (it changes confidences), so Greedy skips the
// rescoring there instead of pushing duplicate entries.
template <double (*Score)(const CellRun&, CellId), bool kRescoreOnYes>
class HeapCellStrategy : public Strategy {
 public:
  HeapCellStrategy(std::string_view name, const CellStrategyOptions& options)
      : name_(name), options_(options) {}

  std::string_view name() const override { return name_; }

  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    SelectionHeap heap(run.graph.NumCells());
    // Word scan: only active cells are visited, and Askable implies active,
    // so seeding the heap over the bitmap matches the dense 0..NumCells
    // scan exactly (ascending, same entries).
    run.active.ForEachActiveCell([&](CellId c) {
      if (run.Askable(c)) heap.Update(c, Score(run, c));
    });
    const auto askable = [&run](CellId c) { return run.Askable(c); };
    StrategyResult result = RunCellLoop(
        ctx, run.graph, [&] { return heap.Best(askable); },
        [&](CellId best, Answer answer) {
          const std::vector<FdId> affected =
              ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
          if (!kRescoreOnYes && answer == Answer::kYes) return;
          run.ForEachAskableCellOf(
              affected, [&](CellId c) { heap.Update(c, Score(run, c)); });
        });
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  std::string_view name_;
  CellStrategyOptions options_;
};

class CellQOracle : public Strategy {
 public:
  explicit CellQOracle(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-Oracle"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    UGUIDE_CHECK(ctx.true_violations != nullptr && ctx.true_fds != nullptr)
        << "CellQ-Oracle requires the true violation set and true FDs";
    CellRun run(ctx, options_);

    // The oracle knows which candidate FDs are genuinely implied by the
    // clean table's FDs.
    ClosureEngine true_closure(*ctx.true_fds);
    std::vector<bool> is_true_fd(static_cast<size_t>(run.graph.NumFds()));
    for (FdId f = 0; f < run.graph.NumFds(); ++f) {
      is_true_fd[static_cast<size_t>(f)] =
          true_closure.Implies(run.graph.fd(f));
    }

    // Payoff of a question: a clean cell kills its active false FDs; a
    // true violation pushes its unaccepted true FDs toward acceptance.
    const auto select = [&] {
      CellId best = -1;
      double best_payoff = 0.0;
      run.active.ForEachActiveCell([&](CellId c) {
        if (!run.Askable(c)) return;
        double payoff = 0.0;
        const bool is_violation =
            ctx.true_violations->Contains(run.graph.cell(c));
        for (FdId f : run.graph.FdsOfCell(c)) {
          if (!run.active.FdActive(f)) continue;
          if (!is_violation) {
            payoff += is_true_fd[static_cast<size_t>(f)] ? 0.0 : 1.0;
          } else if (is_true_fd[static_cast<size_t>(f)] &&
                     run.fd_conf[static_cast<size_t>(f)] <
                         options_.accept_threshold) {
            payoff += 1.0;
          }
        }
        if (payoff > best_payoff) {
          best = c;
          best_payoff = payoff;
        }
      });
      return best;
    };
    StrategyResult result =
        RunCellLoop(ctx, run.graph, select, [&](CellId best, Answer answer) {
          ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
        });
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

// --- Cell-Q-SUMS ----------------------------------------------------------

class CellQSums : public Strategy {
 public:
  explicit CellQSums(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-SUMS"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    std::vector<double> cell_conf(static_cast<size_t>(run.graph.NumCells()),
                                  1.0);
    // Cells the expert confirmed as violations are pinned at confidence 1
    // and keep feeding evidence into Estimate-Confidence.
    std::vector<bool> pinned(static_cast<size_t>(run.graph.NumCells()),
                             false);
    std::vector<double> next_fd(static_cast<size_t>(run.graph.NumFds()));

    // Evidence confidence, separate from the Estimate-Confidence fixpoint
    // scores in run.fd_conf: acceptance follows the same confirmed-
    // violation mechanism as Algorithm 2, while the fixpoint drives
    // question selection.
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    const auto score = [&](CellId c) {
      return Score(run, cell_conf, evidence, c);
    };

    // Selection: one lazy heap, keyed on the negated score, so its minimal
    // (key, id) is the maximal score with ties toward the lowest id --
    // Algorithm 3's first strict maximum over an ascending scan. Negation
    // is exact, and only scores > 0 enter. Every estimate() moves
    // cell_conf, so it reseeds the heap; only cells of an open FD (active,
    // evidence < 1) can score > 0, since each active FD adds 1 - evidence
    // >= 0 to the marginal. Between estimates a score moves only with its
    // flagging FDs' evidence or activity (see on_answer).
    SelectionHeap heap(run.graph.NumCells());
    std::vector<FdId> open_fds;
    // Set once no askable cell scores > 0. None does again before the next
    // estimate: evidence only rises, and a "no" only drops non-negative
    // terms. The heap then holds the fallback order instead, which no
    // answer moves before the next estimate either.
    bool fallback = false;
    const auto estimate = [&] {
      EstimateConfidence(run, cell_conf, pinned, next_fd);
      open_fds.clear();
      run.active.ForEachActiveFd([&](FdId f) {
        if (evidence[static_cast<size_t>(f)] < 1.0) open_fds.push_back(f);
      });
      heap.Rebuild([&](const auto& push) {
        run.ForEachAskableCellOf(open_fds, [&](CellId c) {
          const double s = score(c);
          if (s > 0.0) push(c, -s);
        });
      });
      fallback = false;
    };
    const auto askable = [&run](CellId c) { return run.Askable(c); };
    const auto select = [&] {
      const CellId best = heap.Best(askable);
      if (best >= 0 || fallback) return best;
      // No confirmation can add evidence anymore; spend leftover budget
      // hunting false positives instead: ask the least trusted violation,
      // whose "no" answer invalidates its flagging FDs. Keyed on
      // (cell_conf, id): ties go to the lowest id, as in an ascending scan.
      fallback = true;
      heap.Rebuild([&](const auto& push) {
        run.active.ForEachActiveCell([&](CellId c) {
          if (run.Askable(c)) push(c, cell_conf[static_cast<size_t>(c)]);
        });
      });
      return heap.Best(askable);
    };

    estimate();
    int answers_since_estimate = 0;
    const auto on_answer = [&](CellId best, Answer answer) {
      // FDs whose evidence moved ("yes") or that were deactivated ("no"):
      // the only score inputs an answer changes, besides askability.
      const std::vector<FdId> affected =
          ApplyAnswer(run, best, answer, options_.delta, evidence);
      if (answer == Answer::kIdk) return;  // no new evidence; re-select
      if (answer == Answer::kYes) {
        pinned[static_cast<size_t>(best)] = true;
        cell_conf[static_cast<size_t>(best)] = 1.0;
      }
      // The fixpoint moves little per answer; recompute in batches.
      if (++answers_since_estimate >= options_.sums_recompute_interval) {
        estimate();
        answers_since_estimate = 0;
      } else if (!fallback) {
        run.ForEachAskableCellOf(affected, [&](CellId c) {
          const double s = score(c);
          if (s > 0.0) {
            heap.Update(c, -s);
          } else {
            heap.Retire(c);
          }
        });
      }
    };
    StrategyResult result = RunCellLoop(ctx, run.graph, select, on_answer);

    // Accept like Algorithm 2, from the evidence confidences.
    result.accepted_fds =
        run.Accept(evidence, options_.sums_accept_threshold);
    return result;
  }

 private:
  // Maximum information: confidence near 1/2 (the fixpoint is unsure),
  // weighted by the *marginal* evidence the answer can add -- flagging
  // FDs that are already confirmed contribute nothing, so the strategy
  // moves on instead of re-confirming the same dependencies.
  static double Score(const CellRun& run, const std::vector<double>& cell_conf,
                      const std::vector<double>& evidence, CellId c) {
    const double uncertainty =
        1.0 - std::abs(2.0 * cell_conf[static_cast<size_t>(c)] - 1.0);
    double marginal = 0.0;
    for (FdId f : run.graph.FdsOfCell(c)) {
      if (run.active.FdActive(f)) {
        marginal += 1.0 - evidence[static_cast<size_t>(f)];
      }
    }
    return (0.05 + uncertainty) * marginal;
  }

  // Algorithm 4: alternate confidence propagation between FDs and
  // violations until convergence. FD confidence = log-boosted average of
  // its violations' confidences; violation confidence = sum of its FDs'
  // confidences; both max-normalized each round. Pinned (expert-labelled)
  // cells keep their value. Each side is one sum+max pass and one
  // normalize pass; `next_fd` is scratch of NumFds() entries.
  void EstimateConfidence(CellRun& run, std::vector<double>& cell_conf,
                          const std::vector<bool>& pinned,
                          std::vector<double>& next_fd) const {
    const int num_fds = run.graph.NumFds();
    for (int iter = 0; iter < options_.sums_max_iterations; ++iter) {
      double max_fd = 0.0;
      for (FdId f = 0; f < num_fds; ++f) {
        double u = 0.0;
        if (run.active.FdActive(f)) {
          double sum = 0.0;
          int count = 0;
          for (CellId c : run.graph.CellsOfFd(f)) {
            if (!run.active.CellActive(c)) continue;
            sum += cell_conf[static_cast<size_t>(c)];
            ++count;
          }
          if (count > 0) u = std::log(1.0 + count) * (sum / count);
        }
        next_fd[static_cast<size_t>(f)] = u;
        max_fd = std::max(max_fd, u);
      }
      double max_delta = 0.0;
      for (FdId f = 0; f < num_fds; ++f) {
        double& v = next_fd[static_cast<size_t>(f)];
        if (max_fd > 0.0) v /= max_fd;
        max_delta = std::max(
            max_delta, std::abs(v - run.fd_conf[static_cast<size_t>(f)]));
      }
      run.fd_conf.swap(next_fd);

      // Inactive FDs now hold +0.0, and adding +0.0 to a non-negative sum
      // leaves its bits unchanged, so the cell sums need no activity test.
      double max_cell = 0.0;
      run.active.ForEachActiveCell([&](CellId c) {
        if (pinned[static_cast<size_t>(c)]) return;
        double sum = 0.0;
        for (FdId f : run.graph.FdsOfCell(c)) {
          sum += run.fd_conf[static_cast<size_t>(f)];
        }
        cell_conf[static_cast<size_t>(c)] = sum;
        max_cell = std::max(max_cell, sum);
      });
      if (max_cell > 0.0) {
        run.active.ForEachActiveCell([&](CellId c) {
          if (!pinned[static_cast<size_t>(c)]) {
            cell_conf[static_cast<size_t>(c)] /= max_cell;
          }
        });
      }

      if (max_delta < options_.sums_tolerance) break;
    }
  }

  CellStrategyOptions options_;
};

}  // namespace

std::unique_ptr<Strategy> MakeCellQHittingSet(
    const CellStrategyOptions& options) {
  return std::make_unique<HeapCellStrategy<HittingSetScore, true>>(
      "CellQ-HS", options);
}

std::unique_ptr<Strategy> MakeCellQSums(const CellStrategyOptions& options) {
  // The fallback order stays valid between estimates only while evidence
  // never falls and never exceeds 1.
  UGUIDE_CHECK(options.initial_confidence >= 0.0 &&
               options.initial_confidence <= 1.0)
      << "CellQ-SUMS initial_confidence must lie in [0, 1], got "
      << options.initial_confidence;
  UGUIDE_CHECK(options.delta >= 0.0)
      << "CellQ-SUMS delta must be >= 0, got " << options.delta;
  return std::make_unique<CellQSums>(options);
}

std::unique_ptr<Strategy> MakeCellQGreedy(const CellStrategyOptions& options) {
  return std::make_unique<HeapCellStrategy<GreedyScore, false>>(
      "CellQ-Greedy", options);
}

std::unique_ptr<Strategy> MakeCellQOracle(const CellStrategyOptions& options) {
  return std::make_unique<CellQOracle>(options);
}

}  // namespace uguide
