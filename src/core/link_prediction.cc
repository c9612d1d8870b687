#include "core/link_prediction.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_set>

#include "util/hash.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

struct IndexVectorHash {
  size_t operator()(const std::vector<int64_t>& v) const {
    uint64_t seed = 0x11bb11bbULL;
    for (int64_t x : v) seed = HashCombine(seed, static_cast<uint64_t>(x));
    return static_cast<size_t>(seed);
  }
};

/// Model value at a coordinate.
double Score(const KruskalModel& model, const std::vector<int64_t>& idx) {
  double total = 0.0;
  for (int64_t r = 0; r < model.rank(); ++r) {
    double p = model.lambda[static_cast<size_t>(r)];
    for (size_t m = 0; m < model.factors.size(); ++m) {
      p *= model.factors[m](idx[m], r);
    }
    total += p;
  }
  return total;
}

/// Top `beam` row indices of column r of `factor`.
std::vector<int64_t> TopRows(const DenseMatrix& factor, int64_t r,
                             int64_t beam, bool by_magnitude) {
  std::vector<std::pair<double, int64_t>> scored;
  scored.reserve(static_cast<size_t>(factor.rows()));
  for (int64_t i = 0; i < factor.rows(); ++i) {
    double v = factor(i, r);
    scored.emplace_back(by_magnitude ? std::fabs(v) : v, i);
  }
  int64_t keep = std::min(beam, factor.rows());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(keep));
  for (int64_t i = 0; i < keep; ++i) {
    rows.push_back(scored[static_cast<size_t>(i)].second);
  }
  return rows;
}

Status ValidateModelAgainst(const KruskalModel& model,
                            const SparseTensor& observed) {
  const int order = observed.order();
  if (static_cast<int>(model.factors.size()) != order) {
    return Status::InvalidArgument(
        "model order does not match the observed tensor");
  }
  for (int m = 0; m < order; ++m) {
    if (model.factors[static_cast<size_t>(m)].rows() != observed.dim(m)) {
      return Status::InvalidArgument(
          StrFormat("model mode %d does not match the tensor dims", m));
    }
  }
  if (!observed.canonical()) {
    return Status::FailedPrecondition(
        "observed tensor must be canonical (call Canonicalize())");
  }
  return Status::OK();
}

}  // namespace

Result<CandidateBeams> ComputeCandidateBeams(
    const KruskalModel& model, const LinkPredictionOptions& options) {
  if (options.beam <= 0) {
    return Status::InvalidArgument("beam must be positive");
  }
  if (model.factors.empty()) {
    return Status::InvalidArgument("model has no factor matrices");
  }
  CandidateBeams beams;
  beams.beam = options.beam;
  beams.rank_rows_by_magnitude = options.rank_rows_by_magnitude;
  beams.rows.resize(static_cast<size_t>(model.rank()));
  for (int64_t r = 0; r < model.rank(); ++r) {
    auto& per_mode = beams.rows[static_cast<size_t>(r)];
    per_mode.reserve(model.factors.size());
    for (const DenseMatrix& factor : model.factors) {
      per_mode.push_back(TopRows(factor, r, options.beam,
                                 options.rank_rows_by_magnitude));
    }
  }
  return beams;
}

Result<std::vector<PredictedEntry>> PredictTopEntries(
    const KruskalModel& model, const SparseTensor& observed, int64_t k,
    const LinkPredictionOptions& options, LinkPredictionStats* stats) {
  HATEN2_ASSIGN_OR_RETURN(CandidateBeams beams,
                          ComputeCandidateBeams(model, options));
  return PredictTopEntries(model, beams, observed, k, options, stats);
}

Result<std::vector<PredictedEntry>> PredictTopEntries(
    const KruskalModel& model, const CandidateBeams& beams,
    const SparseTensor& observed, int64_t k,
    const LinkPredictionOptions& options, LinkPredictionStats* stats) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (options.beam <= 0) {
    return Status::InvalidArgument("beam must be positive");
  }
  if (!beams.Matches(options)) {
    return Status::InvalidArgument(
        "precomputed beams do not match the query options");
  }
  if (static_cast<int64_t>(beams.rows.size()) != model.rank()) {
    return Status::InvalidArgument(
        "precomputed beams do not match the model rank");
  }
  HATEN2_RETURN_IF_ERROR(ValidateModelAgainst(model, observed));
  const int order = observed.order();

  LinkPredictionStats counters;

  // Phase 1: enumerate the per-component cross products and deduplicate
  // across components, preserving first-seen order. The overlap between
  // components is typically large (they concentrate on the same hub
  // entities), so dedup before scoring avoids rescoring shared cells.
  std::unordered_set<std::vector<int64_t>, IndexVectorHash> seen;
  std::vector<std::vector<int64_t>> unique_candidates;
  std::vector<int64_t> idx(static_cast<size_t>(order));
  for (int64_t r = 0; r < model.rank(); ++r) {
    const auto& per_mode = beams.rows[static_cast<size_t>(r)];
    if (static_cast<int>(per_mode.size()) != order) {
      return Status::InvalidArgument(
          "precomputed beams do not match the tensor order");
    }
    for (int m = 0; m < order; ++m) {
      if (per_mode[static_cast<size_t>(m)].empty()) {
        return Status::InvalidArgument("precomputed beams have an empty mode");
      }
    }
    // Odometer over the cross product of the per-mode beams.
    std::vector<size_t> pos(static_cast<size_t>(order), 0);
    while (true) {
      for (int m = 0; m < order; ++m) {
        idx[static_cast<size_t>(m)] =
            per_mode[static_cast<size_t>(m)][pos[static_cast<size_t>(m)]];
      }
      ++counters.candidates_enumerated;
      if (seen.insert(idx).second) {
        unique_candidates.push_back(idx);
      }
      int m = 0;
      while (m < order) {
        if (++pos[static_cast<size_t>(m)] <
            per_mode[static_cast<size_t>(m)].size()) {
          break;
        }
        pos[static_cast<size_t>(m)] = 0;
        ++m;
      }
      if (m == order) break;
    }
  }
  counters.candidates_deduped =
      static_cast<int64_t>(unique_candidates.size());

  // Phase 2: score each unique unobserved cell, keeping the top k in a
  // min-heap.
  auto cmp = [](const PredictedEntry& a, const PredictedEntry& b) {
    return a.score > b.score;
  };
  std::priority_queue<PredictedEntry, std::vector<PredictedEntry>,
                      decltype(cmp)>
      heap(cmp);
  for (const std::vector<int64_t>& candidate : unique_candidates) {
    if (observed.Get(candidate) != 0.0) continue;
    ++counters.candidates_scored;
    double score = Score(model, candidate);
    if (static_cast<int64_t>(heap.size()) < k) {
      heap.push(PredictedEntry{candidate, score});
    } else if (score > heap.top().score) {
      heap.pop();
      heap.push(PredictedEntry{candidate, score});
    }
  }

  std::vector<PredictedEntry> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());  // descending score
  if (stats != nullptr) *stats = counters;
  return out;
}

}  // namespace haten2
