#include "linalg/sketch.h"

#include <cmath>

#include "linalg/linalg.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace haten2 {

namespace {

/// Uniform draw in (0, 1]: the top 53 bits as a double, nudged off zero so
/// the Box–Muller log never sees 0.
double ToUnitOpen(uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

/// Per-entry hash: one well-mixed word per (seed, flattened index, salt).
uint64_t EntryHash(uint64_t seed, uint64_t index, uint64_t salt) {
  return Mix64(seed ^ Mix64(index * 1000003ULL + salt));
}

constexpr uint64_t kGaussianSalt = 0x5ce7c401ULL;
constexpr uint64_t kCountSketchBucketSalt = 0x5ce7c402ULL;
constexpr uint64_t kCountSketchSignSalt = 0x5ce7c403ULL;
constexpr uint64_t kModeSeedSalt = 0x5ce7c404ULL;

}  // namespace

const char* SketchKindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kGaussian:
      return "gaussian";
    case SketchKind::kCountSketch:
      return "countsketch";
  }
  return "unknown";
}

Result<SketchKind> ParseSketchKind(const std::string& name) {
  if (name == "gaussian") return SketchKind::kGaussian;
  if (name == "countsketch") return SketchKind::kCountSketch;
  return Status::InvalidArgument(
      StrFormat("unknown sketch kind \"%s\" (want gaussian or countsketch)",
                name.c_str()));
}

Result<DenseMatrix> SketchOperator(SketchKind kind, int64_t in_dim,
                                   int64_t sketch_size, uint64_t seed) {
  if (in_dim < 1) {
    return Status::InvalidArgument(
        StrFormat("sketch input dimension must be >= 1, got %lld",
                  (long long)in_dim));
  }
  if (sketch_size < 1) {
    return Status::InvalidArgument(StrFormat(
        "sketch_size must be >= 1, got %lld", (long long)sketch_size));
  }
  DenseMatrix omega(in_dim, sketch_size);
  if (kind == SketchKind::kGaussian) {
    // N(0, 1/s) entries via Box–Muller on two counter-hashed uniforms, so
    // the sketch E[ΩΩᵀ] = I/s · s = I preserves norms in expectation.
    const double scale = 1.0 / std::sqrt(static_cast<double>(sketch_size));
    for (int64_t q = 0; q < in_dim; ++q) {
      for (int64_t j = 0; j < sketch_size; ++j) {
        const uint64_t index =
            static_cast<uint64_t>(q) * static_cast<uint64_t>(sketch_size) +
            static_cast<uint64_t>(j);
        const double u1 = ToUnitOpen(EntryHash(seed, 2 * index, kGaussianSalt));
        const double u2 =
            ToUnitOpen(EntryHash(seed, 2 * index + 1, kGaussianSalt));
        const double z = std::sqrt(-2.0 * std::log(u1)) *
                         std::cos(2.0 * M_PI * u2);
        omega(q, j) = z * scale;
      }
    }
  } else {
    // CountSketch: row q carries a single ±1 in bucket h(q).
    for (int64_t q = 0; q < in_dim; ++q) {
      const uint64_t uq = static_cast<uint64_t>(q);
      const int64_t bucket = static_cast<int64_t>(
          EntryHash(seed, uq, kCountSketchBucketSalt) %
          static_cast<uint64_t>(sketch_size));
      const double sign =
          (EntryHash(seed, uq, kCountSketchSignSalt) & 1ULL) ? 1.0 : -1.0;
      omega(q, bucket) = sign;
    }
  }
  return omega;
}

Result<DenseMatrix> ApplySketch(const DenseMatrix& a, SketchKind kind,
                                int64_t sketch_size, uint64_t seed) {
  HATEN2_ASSIGN_OR_RETURN(
      DenseMatrix omega, SketchOperator(kind, a.cols(), sketch_size, seed));
  return MatMul(a, omega);
}

uint64_t SketchSeedForMode(uint64_t run_seed, int mode) {
  return Mix64(run_seed ^ Mix64(static_cast<uint64_t>(mode) * 1000003ULL +
                                kModeSeedSalt));
}

}  // namespace haten2
