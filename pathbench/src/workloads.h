// The four workloads. Each runs untraced for its end-to-end metrics and,
// in trace mode, additionally records one phase and replays it into the
// layers (see layers.h).

#ifndef UGUIDE_PATHBENCH_WORKLOADS_H_
#define UGUIDE_PATHBENCH_WORKLOADS_H_

#include "measure.h"

namespace pathbench {

/// `pipeline-tax20k`: the in-process paper pipeline (Fig. 10).
RunResult RunPipeline(const RunOptions& options);

/// Which traffic an in-process uguided serves.
enum class ServedKind {
  kFd,    ///< `served-fd`: FDQ-BMC sessions
  kCell,  ///< `served-cell`: CellQ-HS sessions
  kLive,  ///< `live-mutate`: mixed sessions beside open-loop op=mutate
};

RunResult RunServed(const RunOptions& options, ServedKind kind);

/// Every end-to-end metric name with its unit, in output order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();

}  // namespace pathbench

#endif  // UGUIDE_PATHBENCH_WORKLOADS_H_
