#include "core/cell_strategies.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
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

  // Accepts surviving FDs whose confidence reached the absolute cut;
  // threshold 0 accepts every surviving FD.
  FdSet Accept(double threshold) const {
    FdSet accepted;
    active.ForEachActiveFd([&](FdId f) {
      if (fd_conf[static_cast<size_t>(f)] >= threshold) {
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

// Applies the expert's answer to `c` with Algorithm 2's updates. Returns
// the FDs whose state the answer touched (confidence bump on "yes",
// deactivation on "no") so the heap selectors know which cells to
// rescore.
std::vector<FdId> ApplyAnswer(CellRun& run, CellId c, Answer answer,
                              double delta) {
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
          double& conf = run.fd_conf[static_cast<size_t>(f)];
          const double bumped = std::min(1.0, conf + delta);
          if (bumped != conf) {
            conf = bumped;
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
class SelectionHeap {
 public:
  explicit SelectionHeap(int num_cells)
      : score_(static_cast<size_t>(num_cells), 0.0) {}

  void Update(CellId c, double score) {
    score_[static_cast<size_t>(c)] = score;
    heap_.emplace(score, c);
  }

  // Makes every entry of `c` stale until its next Update: NaN compares
  // unequal to every score.
  void Retire(CellId c) {
    score_[static_cast<size_t>(c)] = std::numeric_limits<double>::quiet_NaN();
  }

  // Drops every entry, then reseeds from `fill`, which calls its argument
  // as push(cell, score) once per candidate. One O(n) heapify, so a
  // strategy that rescores everything at once does not leave the old
  // entries piling up behind the new ones.
  template <typename FillFn>
  void Rebuild(const FillFn& fill) {
    std::vector<Entry> entries;
    fill([&](CellId c, double score) {
      score_[static_cast<size_t>(c)] = score;
      entries.emplace_back(score, c);
    });
    heap_ = Heap(std::greater<Entry>(), std::move(entries));
  }

  // The askable cell with the minimal (score, id). Does not pop the
  // returned entry: asking marks the cell un-askable, which retires the
  // entry on the next call. Returns -1 when no candidate remains.
  template <typename AskableFn>
  CellId Best(const AskableFn& askable) {
    while (!heap_.empty()) {
      const auto [score, c] = heap_.top();
      if (!askable(c) || score != score_[static_cast<size_t>(c)]) {
        heap_.pop();
        continue;
      }
      return c;
    }
    return -1;
  }

 private:
  using Entry = std::pair<double, CellId>;
  using Heap =
      std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>;

  std::vector<double> score_;
  Heap heap_;
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
              ApplyAnswer(run, best, answer, options_.delta);
          if (!kRescoreOnYes && answer == Answer::kYes) return;
          run.ForEachAskableCellOf(
              affected, [&](CellId c) { heap.Update(c, Score(run, c)); });
        });
    result.accepted_fds = run.Accept(options_.accept_threshold);
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
          ApplyAnswer(run, best, answer, options_.delta);
        });
    result.accepted_fds = run.Accept(options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

// --- Cell-Q-SUMS ----------------------------------------------------------

// Persistent fixpoint state for Estimate-Confidence: un-normalized node
// scores plus staleness flags. A node's expensive adjacency sum is
// recomputed only when one of its inputs changed (an expert answer or a
// bitwise change of a neighbor's normalized value in the previous
// half-iteration); normalization and convergence checks stay cheap
// whole-array scalar passes. Because a non-stale node's stored sum is
// bitwise what the full recomputation would produce, every iteration —
// and therefore the whole fixpoint, its iteration count, and the selected
// questions — is byte-identical to recomputing every node each iteration
// (the full-recomputation reference in tests/reference).
struct SumsState {
  explicit SumsState(const ViolationGraph& graph)
      : u_fd(static_cast<size_t>(graph.NumFds()), 0.0),
        raw_cell(static_cast<size_t>(graph.NumCells()), 0.0),
        norm_fd(static_cast<size_t>(graph.NumFds()), 0.0),
        fd_stale(static_cast<size_t>(graph.NumFds()), 1),
        cell_stale(static_cast<size_t>(graph.NumCells()), 1) {}

  std::vector<double> u_fd;      // un-normalized FD scores
  std::vector<double> raw_cell;  // un-normalized cell sums
  std::vector<double> norm_fd;   // scratch for normalized FD values
  std::vector<char> fd_stale;
  std::vector<char> cell_stale;
  // Dense-staleness mode bits: a node is stale iff the side's `all` bit is
  // set or its flag is. Normalization-max shifts cascade bitwise changes
  // to a whole side at once; flipping one bit then lets the refresh pass
  // skip flag reads entirely and run at full-recomputation cost.
  bool fd_all_stale = true;
  bool cell_all_stale = true;

  void MarkFdsOfCell(const ViolationGraph& graph, CellId c) {
    for (FdId f : graph.FdsOfCell(c)) fd_stale[static_cast<size_t>(f)] = 1;
  }
  void MarkCellsOfFd(const ViolationGraph& graph, FdId f) {
    for (CellId c : graph.CellsOfFd(f)) cell_stale[static_cast<size_t>(c)] = 1;
  }
};

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
    SumsState state(run.graph);

    // Evidence confidence, separate from the Estimate-Confidence fixpoint
    // scores in run.fd_conf: acceptance follows the same confirmed-
    // violation mechanism as Algorithm 2, while the fixpoint drives
    // question selection.
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    const auto score = [&](CellId c) {
      return Score(run, cell_conf, evidence, c);
    };

    // Selection: a lazy heap keyed on the negated score, so its minimal
    // (key, id) is the maximal score with ties toward the lowest id --
    // Algorithm 3's first strict maximum over an ascending scan. Negation
    // is exact, and only scores > 0 enter. Every estimate() moves
    // cell_conf and with it (potentially) every score, so it reseeds the
    // whole heap; between estimates a score moves only with its flagging
    // FDs' evidence or activity (see on_answer).
    SelectionHeap heap(run.graph.NumCells());
    const auto estimate = [&] {
      EstimateConfidence(run, cell_conf, pinned, state);
      heap.Rebuild([&](const auto& push) {
        run.active.ForEachActiveCell([&](CellId c) {
          if (!run.Askable(c)) return;
          const double s = score(c);
          if (s > 0.0) push(c, -s);
        });
      });
    };
    const auto askable = [&run](CellId c) { return run.Askable(c); };
    const auto select = [&] {
      CellId best = heap.Best(askable);
      if (best >= 0) return best;
      // No confirmation can add evidence anymore; spend leftover budget
      // hunting false positives instead: ask the least trusted violation,
      // whose "no" answer invalidates its flagging FDs.
      double lowest = 2.0;
      run.active.ForEachActiveCell([&](CellId c) {
        if (!run.Askable(c)) return;
        if (cell_conf[static_cast<size_t>(c)] < lowest) {
          best = c;
          lowest = cell_conf[static_cast<size_t>(c)];
        }
      });
      return best;
    };

    estimate();
    int answers_since_estimate = 0;
    const auto on_answer = [&](CellId best, Answer answer) {
      run.asked[static_cast<size_t>(best)] = true;
      // FDs whose evidence moved ("yes") or that were deactivated ("no"):
      // the only score inputs an answer changes, besides askability.
      std::vector<FdId> affected;
      switch (answer) {
        case Answer::kYes:
          pinned[static_cast<size_t>(best)] = true;
          cell_conf[static_cast<size_t>(best)] = 1.0;
          // The pinned cell's value feeds its flagging FDs' averages.
          state.MarkFdsOfCell(run.graph, best);
          for (FdId f : run.graph.FdsOfCell(best)) {
            if (run.active.FdActive(f)) {
              double& conf = evidence[static_cast<size_t>(f)];
              const double bumped = std::min(1.0, conf + options_.delta);
              if (bumped != conf) {
                conf = bumped;
                affected.push_back(f);
              }
            }
          }
          break;
        case Answer::kNo: {
          for (FdId f : run.graph.FdsOfCell(best)) {
            if (!run.active.FdActive(f)) continue;
            affected.push_back(f);
            run.active.DeactivateFd(f);
          }
          run.active.DeactivateCell(best);
          // Deactivated FDs drop to score 0 and leave their cells' sums.
          for (FdId f : affected) {
            state.fd_stale[static_cast<size_t>(f)] = 1;
            state.MarkCellsOfFd(run.graph, f);
          }
          break;
        }
        case Answer::kIdk:
          return;  // no new evidence; re-select
      }
      // The fixpoint moves little per answer; recompute in batches.
      if (++answers_since_estimate >= options_.sums_recompute_interval) {
        estimate();
        answers_since_estimate = 0;
      } else {
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
    FdSet accepted;
    for (FdId f = 0; f < run.graph.NumFds(); ++f) {
      if (run.active.FdActive(f) &&
          evidence[static_cast<size_t>(f)] >=
              options_.sums_accept_threshold) {
        accepted.Add(run.graph.fd(f));
      }
    }
    result.accepted_fds = std::move(accepted);
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
  // cells keep their value.
  //
  // Adjacency sums are recomputed only for nodes whose inputs changed.
  // Un-normalized scores persist in `state` across calls; staleness is
  // seeded by expert answers (see Run) and propagated inside an iteration
  // by *bitwise* comparison of normalized values, so a node is recomputed
  // exactly when a full recomputation could produce a different bit
  // pattern. Normalization, the convergence delta, and the max reductions
  // remain O(nodes) scalar passes over stored values — the arithmetic of
  // a full recomputation, hence identical results, iteration counts, and
  // early exits.
  void EstimateConfidence(CellRun& run, std::vector<double>& cell_conf,
                          const std::vector<bool>& pinned,
                          SumsState& state) const {
    const int num_fds = run.graph.NumFds();
    const int num_cells = run.graph.NumCells();
    // Changed nodes collected per iteration; when a large fraction of one
    // side changed (a "no" answer shifting a normalization max cascades
    // globally), setting the other side's dense-staleness bit beats
    // per-node adjacency marking, and the next refresh runs flag-free at
    // full-recomputation cost. Over-marking only triggers recomputation,
    // which is deterministic, so results are unaffected.
    std::vector<FdId> changed_fds;
    std::vector<CellId> changed_cells;
    const auto fd_score = [&](FdId f) {
      if (!run.active.FdActive(f)) return 0.0;
      double sum = 0.0;
      int count = 0;
      for (CellId c : run.graph.CellsOfFd(f)) {
        if (!run.active.CellActive(c)) continue;
        sum += cell_conf[static_cast<size_t>(c)];
        ++count;
      }
      return count == 0 ? 0.0 : std::log(1.0 + count) * (sum / count);
    };
    const auto cell_sum = [&](CellId c) {
      double sum = 0.0;
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (run.active.FdActive(f)) {
          sum += run.fd_conf[static_cast<size_t>(f)];
        }
      }
      return sum;
    };
    for (int iter = 0; iter < options_.sums_max_iterations; ++iter) {
      // FD side: refresh stale un-normalized scores.
      if (state.fd_all_stale) {
        state.fd_all_stale = false;
        std::fill(state.fd_stale.begin(), state.fd_stale.end(), 0);
        for (FdId f = 0; f < num_fds; ++f) {
          state.u_fd[static_cast<size_t>(f)] = fd_score(f);
        }
      } else {
        for (FdId f = 0; f < num_fds; ++f) {
          if (!state.fd_stale[static_cast<size_t>(f)]) continue;
          state.fd_stale[static_cast<size_t>(f)] = 0;
          state.u_fd[static_cast<size_t>(f)] = fd_score(f);
        }
      }
      double max_fd = 0.0;
      for (FdId f = 0; f < num_fds; ++f) {
        max_fd = std::max(max_fd, state.u_fd[static_cast<size_t>(f)]);
      }
      double max_delta = 0.0;
      changed_fds.clear();
      for (FdId f = 0; f < num_fds; ++f) {
        const double u = state.u_fd[static_cast<size_t>(f)];
        const double v = max_fd > 0.0 ? u / max_fd : u;
        state.norm_fd[static_cast<size_t>(f)] = v;
        max_delta = std::max(
            max_delta, std::abs(v - run.fd_conf[static_cast<size_t>(f)]));
        // A bitwise change of this FD's normalized score invalidates the
        // stored sums of the cells it flags.
        if (v != run.fd_conf[static_cast<size_t>(f)]) {
          changed_fds.push_back(f);
        }
      }
      run.fd_conf.swap(state.norm_fd);
      if (!state.cell_all_stale) {
        if (changed_fds.size() >= static_cast<size_t>(num_fds) / 4 + 1) {
          state.cell_all_stale = true;
        } else {
          for (FdId f : changed_fds) state.MarkCellsOfFd(run.graph, f);
        }
      }

      // Violation side: refresh stale sums, then normalize in place.
      if (state.cell_all_stale) {
        state.cell_all_stale = false;
        std::fill(state.cell_stale.begin(), state.cell_stale.end(), 0);
        for (CellId c = 0; c < num_cells; ++c) {
          if (!run.active.CellActive(c) || pinned[static_cast<size_t>(c)]) {
            continue;
          }
          state.raw_cell[static_cast<size_t>(c)] = cell_sum(c);
        }
      } else {
        for (CellId c = 0; c < num_cells; ++c) {
          if (!run.active.CellActive(c) || pinned[static_cast<size_t>(c)]) {
            continue;
          }
          if (!state.cell_stale[static_cast<size_t>(c)]) continue;
          state.cell_stale[static_cast<size_t>(c)] = 0;
          state.raw_cell[static_cast<size_t>(c)] = cell_sum(c);
        }
      }
      double max_cell = 0.0;
      for (CellId c = 0; c < num_cells; ++c) {
        if (!run.active.CellActive(c) || pinned[static_cast<size_t>(c)]) {
          continue;
        }
        max_cell =
            std::max(max_cell, state.raw_cell[static_cast<size_t>(c)]);
      }
      changed_cells.clear();
      for (CellId c = 0; c < num_cells; ++c) {
        if (!run.active.CellActive(c) || pinned[static_cast<size_t>(c)]) {
          continue;
        }
        const double raw = state.raw_cell[static_cast<size_t>(c)];
        const double v = max_cell > 0.0 ? raw / max_cell : raw;
        if (v != cell_conf[static_cast<size_t>(c)]) {
          cell_conf[static_cast<size_t>(c)] = v;
          changed_cells.push_back(c);
        }
      }
      if (!state.fd_all_stale) {
        if (changed_cells.size() >= static_cast<size_t>(num_cells) / 4 + 1) {
          state.fd_all_stale = true;
        } else {
          for (CellId c : changed_cells) state.MarkFdsOfCell(run.graph, c);
        }
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
