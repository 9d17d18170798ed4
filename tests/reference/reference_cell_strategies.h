#ifndef UGUIDE_TESTS_REFERENCE_REFERENCE_CELL_STRATEGIES_H_
#define UGUIDE_TESTS_REFERENCE_REFERENCE_CELL_STRATEGIES_H_

#include <memory>

#include "core/cell_strategies.h"
#include "core/strategy.h"

namespace uguide {

// Full-rescan references for the shipped cell strategies: every question
// is picked by scanning all cells, and CellQ-SUMS recomputes every node of
// Estimate-Confidence in every iteration. They share no code with
// core/cell_strategies.cc -- own run state, activity flags (not the
// shipped ActiveSet), answer application and score functions, written
// with the same floating-point expressions in the same order -- so the
// equivalence suite and fuzz_cell_strategies can hold the shipped
// selectors to byte-identical results. Each reports the same name() as
// the strategy it checks.

/// Cell-Q-Hitting-Set (Algorithm 2): the first askable cell of minimal
/// weight / active degree.
std::unique_ptr<Strategy> MakeReferenceCellQHittingSet(
    const CellStrategyOptions& options = {});

/// CellQ-Greedy (§7.1): the first askable cell of maximal active degree.
std::unique_ptr<Strategy> MakeReferenceCellQGreedy(
    const CellStrategyOptions& options = {});

/// Cell-Q-SUMS (Algorithms 3-4): the first askable cell of maximal
/// positive score, else the least confident one, with the original
/// full-recomputation Estimate-Confidence fixpoint.
std::unique_ptr<Strategy> MakeReferenceCellQSums(
    const CellStrategyOptions& options = {});

}  // namespace uguide

#endif  // UGUIDE_TESTS_REFERENCE_REFERENCE_CELL_STRATEGIES_H_
