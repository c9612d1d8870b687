#ifndef HATEN2_CORE_CONTRACTION_STRATEGY_H_
#define HATEN2_CORE_CONTRACTION_STRATEGY_H_

#include <vector>

#include "core/contract.h"
#include "core/variant.h"
#include "mapreduce/engine.h"
#include "tensor/dense_matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/result.h"

namespace haten2 {

/// \brief Validated, shared state of one bottleneck-op evaluation, built by
/// MultiModeContract and handed to the selected ContractionStrategy.
///
/// All invariants hold by the time a strategy sees this: the tensor is
/// canonical with order in [2, kMaxMrOrder], `cfactors` are non-null with
/// rows matching their mode's extent, and for kPairwise all column counts
/// are equal. `cmodes` / `cfactors` / `block_dims` are parallel arrays over
/// the contracted modes in ascending mode order.
struct ContractionContext {
  Engine* engine = nullptr;
  const SparseTensor* x = nullptr;
  int free_mode = 0;
  MergeKind kind = MergeKind::kCross;
  Variant variant = Variant::kDri;
  std::vector<int> cmodes;                   // contracted modes, ascending
  std::vector<const DenseMatrix*> cfactors;  // parallel to cmodes
  std::vector<int64_t> block_dims;           // cfactors[s]->cols()
  /// Cache of iteration-invariant derived forms of `x` (decoded records for
  /// the dataflow DNN/Naive scan, compressed layouts for the in-core
  /// kernels). Never null: MultiModeContract hands over the caller's
  /// per-decomposition cache, or a call-local one.
  ContractCache* cache = nullptr;

  int num_streams() const { return static_cast<int>(cmodes.size()); }

  /// The output shape every strategy fills, with no rows yet: free_dim =
  /// I_free, and rows of width ΠQ_s for kCross or of the single shared
  /// rank R for the pairwise-style merges.
  SliceBlocks EmptyBlocks() const {
    SliceBlocks out;
    out.free_dim = x->dim(free_mode);
    out.block_dims = block_dims;
    if (kind != MergeKind::kCross) out.block_dims.resize(1);
    return out;
  }
};

/// \brief How one contraction evaluation executes. Implementations are
/// stateless (a single const instance serves every call): `Contract` builds
/// a dataflow Plan, tags its nodes with the strategy name via
/// Plan::AnnotateContraction (so stats_json records the per-node choice),
/// and runs it through a PlanScheduler on ctx.engine.
///
/// Two implementations exist:
///  - DataflowContraction (core/dataflow_contraction.h): the paper's
///    MapReduce job pipelines, variant-faithful job counts.
///  - InCoreContraction (core/incore_contraction.h): DFacTo-style kernels
///    over a compressed slice-major layout, one plan node, no shuffle.
/// ClusterConfig::contraction selects between them per plan node (the
/// `auto` policy consults CostModel::EstimateInCoreLayoutBytes).
class ContractionStrategy {
 public:
  virtual ~ContractionStrategy() = default;

  /// Strategy tag recorded in PlanNodeStats ("dataflow" / "incore").
  virtual const char* name() const = 0;

  /// Evaluates the contraction described by `ctx`.
  virtual Result<SliceBlocks> Contract(const ContractionContext& ctx) const = 0;
};

}  // namespace haten2

#endif  // HATEN2_CORE_CONTRACTION_STRATEGY_H_
