#include "core/incore_contraction.h"

#include <memory>

#include "linalg/sparse_kernels.h"
#include "mapreduce/plan.h"
#include "mapreduce/scheduler.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace haten2 {

Result<SliceBlocks> InCoreContraction::Contract(
    const ContractionContext& ctx) const {
  Plan plan("contract-incore");
  auto timing = std::make_shared<ContractionTiming>();
  SliceBlocks blocks;
  int node = plan.AddProducer<SliceBlocks>(
      StrFormat("InCoreContract[m%d]", ctx.free_mode), {},
      [&ctx, timing]() -> Result<SliceBlocks> {
        // Layout acquisition: iteration-invariant, like the dataflow record
        // scan, so the cache builds it once per (tensor content, mode).
        WallTimer build_timer;
        HATEN2_ASSIGN_OR_RETURN(std::shared_ptr<const CsfLayout> layout,
                                ctx.cache->Layout(*ctx.x, ctx.free_mode));
        timing->layout_build_seconds = build_timer.ElapsedSeconds();

        // The kernels emit only nnz-touched slices, matching the dataflow
        // merges, as one flat row-major buffer in layout (ascending) order.
        SliceBlocks out = ctx.EmptyBlocks();
        WallTimer eval_timer;
        if (ctx.kind != MergeKind::kCross) {
          const int rank = static_cast<int>(ctx.block_dims[0]);
          HATEN2_RETURN_IF_ERROR(
              CsfMttkrp(*layout, ctx.cfactors, rank, &out.values));
        } else {
          HATEN2_RETURN_IF_ERROR(CsfCrossContract(
              *layout, ctx.cfactors, ctx.block_dims, &out.values));
        }
        timing->evaluate_seconds = eval_timer.ElapsedSeconds();
        out.slice_ids = layout->slice_ids;
        return out;
      },
      &blocks);
  plan.AnnotateContraction(node, "incore", timing);
  PlanScheduler scheduler(ctx.engine);
  HATEN2_RETURN_IF_ERROR(scheduler.Execute(plan));
  return blocks;
}

}  // namespace haten2
