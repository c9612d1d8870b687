#ifndef HATEN2_CORE_INCORE_CONTRACTION_H_
#define HATEN2_CORE_INCORE_CONTRACTION_H_

#include "core/contraction_strategy.h"

namespace haten2 {

/// \brief DFacTo-style in-core contraction: builds a compressed slice-major
/// layout of the tensor (linalg/sparse_kernels.h, CSF-lite) and evaluates
///  - kPairwise as two SpMV-shaped passes per rank block (CsfMttkrp), and
///  - kCross as a blocked slice-wise chain (CsfCrossContract),
/// with no shuffle and no intermediate records. The layout is served from
/// ctx.cache (one build per (tensor content, free mode) per cache).
///
/// The evaluation is a single plan node named "InCoreContract[m<free>]",
/// annotated "incore" with a ContractionTiming carrying the layout-build and
/// kernel-evaluate wall times (surfaced per node in haten2-stats-v9).
///
/// Numerics: each entry's contribution is formed in ascending contracted-mode
/// order — the same association the dataflow merges use — so tensors whose
/// fibers are singletons (e.g. superdiagonal test tensors) reproduce the
/// dataflow output bit-for-bit; general tensors agree to rounding. The
/// variant knob does not change the math here, only the dataflow job shapes,
/// so it is ignored.
class InCoreContraction : public ContractionStrategy {
 public:
  const char* name() const override { return "incore"; }
  Result<SliceBlocks> Contract(const ContractionContext& ctx) const override;
};

}  // namespace haten2

#endif  // HATEN2_CORE_INCORE_CONTRACTION_H_
