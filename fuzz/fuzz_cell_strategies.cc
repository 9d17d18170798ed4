// Differential fuzz target for the cell strategies. The input bytes decode
// into a small relation, a candidate FD set, a budget, a SUMS recompute
// interval and a scripted expert; CellQ-HS, CellQ-Greedy and CellQ-SUMS
// then each run next to their full-rescan reference (tests/reference),
// once building their own graph and once reading one prebuilt graph that
// all three share. Any difference from the reference in the accepted FDs,
// the cost spent, the number of questions asked or the sequence of asked
// cells traps.
//
// Layout (a missing byte reads as 0):
//   rows (1..32), columns (2..6), alphabet (1..4), one value byte per cell,
//   FD count (1..12), two bytes per FD (rhs, LHS mask), budget (0..255),
//   interval flag (odd = 1, even = 20), then the answer script: one byte
//   per question, cycled, byte % 3 = yes/no/idk (empty = always yes).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cell_strategies.h"
#include "fd/fd.h"
#include "oracle/expert.h"
#include "reference/reference_cell_strategies.h"
#include "relation/relation.h"
#include "violations/bipartite_graph.h"

namespace {

using uguide::Answer;

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

  std::vector<uint8_t> Rest() const {
    return pos_ < size_ ? std::vector<uint8_t>(data_ + pos_, data_ + size_)
                        : std::vector<uint8_t>();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Answers every question from the script, in order, wrapping around, and
// records the cells it was asked.
class ScriptedExpert : public uguide::Expert {
 public:
  explicit ScriptedExpert(const std::vector<uint8_t>& script)
      : script_(script) {}

  Answer IsCellErroneous(const uguide::Cell& cell) override {
    asked_.push_back(cell);
    return Next();
  }
  Answer IsTupleClean(uguide::TupleId) override { return Next(); }
  Answer IsFdValid(const uguide::Fd&) override { return Next(); }

  const std::vector<uguide::Cell>& asked() const { return asked_; }

 private:
  Answer Next() {
    if (script_.empty()) return Answer::kYes;
    return static_cast<Answer>(script_[next_++ % script_.size()] % 3);
  }

  const std::vector<uint8_t>& script_;
  size_t next_ = 0;
  std::vector<uguide::Cell> asked_;
};

bool SameResult(const uguide::StrategyResult& a,
                const uguide::StrategyResult& b) {
  return a.accepted_fds.fds() == b.accepted_fds.fds() &&
         a.cost_spent == b.cost_spent &&
         a.questions_asked == b.questions_asked;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  const int rows = 1 + in.Next() % 32;
  const int cols = 2 + in.Next() % 5;
  const int alphabet = 1 + in.Next() % 4;

  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) {
    names.emplace_back(1, static_cast<char>('a' + c));
  }
  uguide::Relation relation(uguide::Schema::Make(names).ValueOrDie());
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> values;
    for (int c = 0; c < cols; ++c) {
      values.push_back(std::to_string(in.Next() % alphabet));
    }
    relation.AddRow(values);
  }

  uguide::FdSet candidates;
  const int num_fds = 1 + in.Next() % 12;
  for (int i = 0; i < num_fds; ++i) {
    const int rhs = in.Next() % cols;
    uint64_t lhs = in.Next() & ((uint64_t{1} << cols) - 1);
    lhs &= ~(uint64_t{1} << rhs);
    if (lhs == 0) lhs = uint64_t{1} << ((rhs + 1) % cols);
    candidates.Add(uguide::Fd(uguide::AttributeSet(lhs), rhs));
  }

  uguide::CellStrategyOptions options;
  const double budget = in.Next();
  options.sums_recompute_interval = (in.Next() & 1) != 0 ? 1 : 20;
  const std::vector<uint8_t> script = in.Rest();

  // One prebuilt graph that every shipped strategy below reads in place,
  // in turn, as a DatasetRegistry artifact is read by its sessions.
  const uguide::ViolationGraph shared =
      uguide::ViolationGraph::Build(relation, candidates);

  using Factory =
      std::unique_ptr<uguide::Strategy> (*)(const uguide::CellStrategyOptions&);
  struct Run {
    uguide::StrategyResult result;
    std::vector<uguide::Cell> asked;
  };
  const auto run = [&](Factory make, const uguide::ViolationGraph* graph) {
    ScriptedExpert expert(script);
    uguide::QuestionContext ctx;
    ctx.dirty = &relation;
    ctx.candidates = &candidates;
    ctx.expert = &expert;
    ctx.budget = budget;
    ctx.graph = graph;
    Run out;
    out.result = make(options)->Run(ctx);
    out.asked = expert.asked();
    return out;
  };
  const auto same = [](const Run& a, const Run& b) {
    return SameResult(a.result, b.result) && a.asked == b.asked;
  };

  const Factory pairs[][2] = {
      {uguide::MakeCellQHittingSet, uguide::MakeReferenceCellQHittingSet},
      {uguide::MakeCellQGreedy, uguide::MakeReferenceCellQGreedy},
      {uguide::MakeCellQSums, uguide::MakeReferenceCellQSums},
  };
  for (const auto& pair : pairs) {
    const Run want = run(pair[1], nullptr);
    if (!same(run(pair[0], nullptr), want) ||
        !same(run(pair[0], &shared), want)) {
      __builtin_trap();
    }
  }
  return 0;
}
