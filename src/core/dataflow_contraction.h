#ifndef HATEN2_CORE_DATAFLOW_CONTRACTION_H_
#define HATEN2_CORE_DATAFLOW_CONTRACTION_H_

#include "core/contraction_strategy.h"

namespace haten2 {

/// \brief The paper's contraction path: every evaluation is a dataflow Plan
/// of MapReduce jobs whose shapes and counts follow the selected HaTen2
/// variant exactly (Tables III/IV hold by construction).
///
///  - kDri: one IMHP job producing every Hadamard stream, then one merge.
///  - kDrn: one Hadamard job per (stream, column), then one merge.
///  - kDnn: decoupled Hadamard + Collapse chains (per column for pairwise).
///  - kNaive: per-column broadcast TTV chains.
///
/// This is a pure code motion of the pre-strategy implementation — output is
/// bit-identical and the existing driver tests enforce it. The DNN/Naive
/// input scan is served from ctx.cache.
class DataflowContraction : public ContractionStrategy {
 public:
  const char* name() const override { return "dataflow"; }
  Result<SliceBlocks> Contract(const ContractionContext& ctx) const override;
};

}  // namespace haten2

#endif  // HATEN2_CORE_DATAFLOW_CONTRACTION_H_
