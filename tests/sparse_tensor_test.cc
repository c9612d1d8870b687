// Unit tests for SparseTensor: construction, canonicalization, accessors,
// slicing-by-collapse, binarization, validation and the content version.

#include "tensor/sparse_tensor.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "tensor/delta_log.h"
#include "test_util.h"
#include "util/random.h"

namespace haten2 {
namespace {

TEST(SparseTensorCreate, ValidatesDims) {
  EXPECT_TRUE(SparseTensor::Create({}).status().IsInvalidArgument());
  EXPECT_TRUE(SparseTensor::Create({3, 0, 2}).status().IsInvalidArgument());
  EXPECT_TRUE(SparseTensor::Create({-1}).status().IsInvalidArgument());
  Result<SparseTensor> t = SparseTensor::Create({4, 5, 6});
  ASSERT_OK(t.status());
  EXPECT_EQ(t->order(), 3);
  EXPECT_EQ(t->dim(0), 4);
  EXPECT_EQ(t->dim(1), 5);
  EXPECT_EQ(t->dim(2), 6);
  EXPECT_EQ(t->nnz(), 0);
  EXPECT_TRUE(t->canonical());
}

TEST(SparseTensorAppend, BoundsChecked) {
  Result<SparseTensor> t = SparseTensor::Create3(3, 3, 3);
  ASSERT_OK(t.status());
  EXPECT_OK(t->Append({0, 1, 2}, 1.0));
  EXPECT_TRUE(t->Append({3, 0, 0}, 1.0).IsOutOfRange());
  EXPECT_TRUE(t->Append({0, -1, 0}, 1.0).IsOutOfRange());
  EXPECT_TRUE(t->Append({0, 0}, 1.0).IsInvalidArgument());
  EXPECT_EQ(t->nnz(), 1);
}

TEST(SparseTensorCanonicalize, SortsMergesAndDropsZeros) {
  Result<SparseTensor> t = SparseTensor::Create3(4, 4, 4);
  ASSERT_OK(t.status());
  ASSERT_OK(t->Append({2, 1, 0}, 3.0));
  ASSERT_OK(t->Append({0, 0, 0}, 1.0));
  ASSERT_OK(t->Append({2, 1, 0}, -1.0));
  ASSERT_OK(t->Append({1, 1, 1}, 2.0));
  ASSERT_OK(t->Append({1, 1, 1}, -2.0));  // cancels to zero
  ASSERT_OK(t->Append({3, 3, 3}, 0.0));   // explicit zero
  EXPECT_FALSE(t->canonical());
  t->Canonicalize();
  EXPECT_TRUE(t->canonical());
  ASSERT_EQ(t->nnz(), 2);
  // Sorted lexicographically.
  EXPECT_EQ(t->index(0, 0), 0);
  EXPECT_DOUBLE_EQ(t->value(0), 1.0);
  EXPECT_EQ(t->index(1, 0), 2);
  EXPECT_DOUBLE_EQ(t->value(1), 2.0);  // 3.0 + (-1.0)
}

TEST(SparseTensorGet, BinarySearchAfterCanonicalize) {
  Rng rng(3);
  SparseTensor t = testing::RandomSparseTensor({10, 10, 10}, 50, &rng);
  for (int64_t e = 0; e < t.nnz(); ++e) {
    std::vector<int64_t> idx = {t.index(e, 0), t.index(e, 1), t.index(e, 2)};
    EXPECT_DOUBLE_EQ(t.Get(idx), t.value(e));
  }
  EXPECT_DOUBLE_EQ(t.Get({9, 9, 9}) + 1.0,
                   t.Get({9, 9, 9}) + 1.0);  // no crash on any probe
}

TEST(SparseTensorGet, AbsentCoordinateIsZero) {
  Result<SparseTensor> t = SparseTensor::Create3(5, 5, 5);
  ASSERT_OK(t.status());
  ASSERT_OK(t->Append({1, 2, 3}, 7.0));
  t->Canonicalize();
  EXPECT_DOUBLE_EQ(t->Get({1, 2, 3}), 7.0);
  EXPECT_DOUBLE_EQ(t->Get({1, 2, 4}), 0.0);
  EXPECT_DOUBLE_EQ(t->Get({0, 0, 0}), 0.0);
}

TEST(SparseTensorStats, NormsSumsDensity) {
  Result<SparseTensor> t = SparseTensor::Create3(10, 10, 10);
  ASSERT_OK(t.status());
  ASSERT_OK(t->Append({0, 0, 0}, 3.0));
  ASSERT_OK(t->Append({1, 1, 1}, 4.0));
  t->Canonicalize();
  EXPECT_DOUBLE_EQ(t->SumSquares(), 25.0);
  EXPECT_DOUBLE_EQ(t->FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(t->Sum(), 7.0);
  EXPECT_DOUBLE_EQ(t->Density(), 2.0 / 1000.0);
  EXPECT_EQ(t->NumCells(), 1000);
}

TEST(SparseTensorBinarized, AllValuesBecomeOne) {
  Rng rng(4);
  SparseTensor t = testing::RandomSparseTensor({8, 8, 8}, 30, &rng);
  SparseTensor b = t.Binarized();
  ASSERT_EQ(b.nnz(), t.nnz());
  for (int64_t e = 0; e < b.nnz(); ++e) {
    EXPECT_DOUBLE_EQ(b.value(e), 1.0);
    for (int m = 0; m < 3; ++m) EXPECT_EQ(b.index(e, m), t.index(e, m));
  }
}

TEST(SparseTensorCollapse, SumsAcrossMode) {
  Result<SparseTensor> t = SparseTensor::Create3(3, 4, 5);
  ASSERT_OK(t.status());
  ASSERT_OK(t->Append({0, 1, 2}, 1.0));
  ASSERT_OK(t->Append({0, 3, 2}, 2.0));  // same (i, k) after collapsing j
  ASSERT_OK(t->Append({2, 0, 0}, 5.0));
  t->Canonicalize();
  Result<SparseTensor> c = t->CollapseMode(1);
  ASSERT_OK(c.status());
  EXPECT_EQ(c->order(), 2);
  EXPECT_EQ(c->dims(), (std::vector<int64_t>{3, 5}));
  EXPECT_DOUBLE_EQ(c->Get({0, 2}), 3.0);
  EXPECT_DOUBLE_EQ(c->Get({2, 0}), 5.0);
  EXPECT_EQ(c->nnz(), 2);
}

TEST(SparseTensorCollapse, RejectsBadMode) {
  Result<SparseTensor> t = SparseTensor::Create3(3, 3, 3);
  ASSERT_OK(t.status());
  EXPECT_TRUE(t->CollapseMode(3).status().IsInvalidArgument());
  EXPECT_TRUE(t->CollapseMode(-1).status().IsInvalidArgument());
  Result<SparseTensor> v = SparseTensor::Create({5});
  ASSERT_OK(v.status());
  EXPECT_TRUE(v->CollapseMode(0).status().IsFailedPrecondition());
}

TEST(SparseTensorMisc, DebugStringAndValidateAndIdentical) {
  Rng rng(5);
  SparseTensor t = testing::RandomSparseTensor({7, 6, 5}, 20, &rng);
  EXPECT_OK(t.Validate());
  EXPECT_NE(t.DebugString().find("3-way 7x6x5"), std::string::npos);
  SparseTensor copy = t;
  EXPECT_TRUE(copy.IdenticalTo(t));
  copy.set_value(0, copy.value(0) + 1.0);
  EXPECT_FALSE(copy.IdenticalTo(t));
  EXPECT_GT(t.ApproxBytes(), 0u);
}

TEST(SparseTensorContentVersion, CopiesShareEveryChangeRestamps) {
  Rng rng(6);
  const SparseTensor base = testing::RandomSparseTensor({7, 6, 5}, 20, &rng);
  ASSERT_NE(base.content_version(), 0u);
  SparseTensor copy = base;
  EXPECT_EQ(copy.content_version(), base.content_version());
  SparseTensor assigned;
  assigned = base;
  EXPECT_EQ(assigned.content_version(), base.content_version());

  Rng delta_rng(7);
  const SparseTensor delta =
      testing::RandomSparseTensor({7, 6, 5}, 3, &delta_rng);
  // Each case applies one content change to a copy of `base` and returns
  // the version of the tensor that change produced.
  struct Case {
    const char* name;
    std::function<uint64_t(SparseTensor*)> change;
  };
  const std::vector<Case> cases = {
      {"Canonicalize",
       [](SparseTensor* t) {
         t->Canonicalize();
         return t->content_version();
       }},
      {"Canonicalize of an empty tensor",
       [](SparseTensor*) {
         Result<SparseTensor> empty = SparseTensor::Create({3, 3});
         HATEN2_CHECK(empty.ok());
         const uint64_t created = empty->content_version();
         empty->Canonicalize();
         EXPECT_NE(empty->content_version(), created);
         return empty->content_version();
       }},
      {"set_value",
       [](SparseTensor* t) {
         t->set_value(0, t->value(0));
         return t->content_version();
       }},
      {"Binarized",
       [](SparseTensor* t) { return t->Binarized().content_version(); }},
      {"CollapseMode",
       [](SparseTensor* t) { return t->CollapseMode(1)->content_version(); }},
      {"MergeDelta",
       [&delta](SparseTensor* t) {
         EXPECT_OK(MergeDelta(t, delta));
         return t->content_version();
       }},
      {"move-construct source",
       [](SparseTensor* t) {
         const uint64_t before = t->content_version();
         SparseTensor moved = std::move(*t);
         EXPECT_EQ(moved.content_version(), before);
         EXPECT_EQ(t->order(), 0);
         EXPECT_EQ(t->nnz(), 0);
         return t->content_version();
       }},
      {"move-assign source",
       [](SparseTensor* t) {
         const uint64_t before = t->content_version();
         SparseTensor moved;
         moved = std::move(*t);
         EXPECT_EQ(moved.content_version(), before);
         EXPECT_EQ(t->nnz(), 0);
         return t->content_version();
       }},
  };
  std::set<uint64_t> seen = {base.content_version()};
  for (const Case& c : cases) {
    SparseTensor t = base;
    const uint64_t version = c.change(&t);
    EXPECT_NE(version, 0u) << c.name;
    EXPECT_TRUE(seen.insert(version).second)
        << c.name << " reused version " << version;
  }
}

TEST(SparseTensorContentVersion, AppendsLeaveTheTensorUnstamped) {
  Result<SparseTensor> t = SparseTensor::Create3(3, 3, 3);
  ASSERT_OK(t.status());
  EXPECT_NE(t->content_version(), 0u);
  ASSERT_OK(t->Append({2, 1, 0}, 1.5));
  EXPECT_EQ(t->content_version(), 0u);
  const int64_t idx[] = {0, 1, 2};
  t->AppendUnchecked(idx, 2.5);
  EXPECT_EQ(t->content_version(), 0u);
  SparseTensor copy = *t;
  EXPECT_EQ(copy.content_version(), 0u);
  t->Canonicalize();
  EXPECT_NE(t->content_version(), 0u);
}

TEST(SparseTensorNumCells, SaturatesInsteadOfOverflowing) {
  Result<SparseTensor> t =
      SparseTensor::Create({1000000000, 1000000000, 1000000000});
  ASSERT_OK(t.status());
  EXPECT_EQ(t->NumCells(), std::numeric_limits<int64_t>::max());
  EXPECT_GE(t->Density(), 0.0);
}

}  // namespace
}  // namespace haten2
