#include "htm/partition_map.h"

#include <gtest/gtest.h>

#include <numeric>

#include "htm_reference.h"
#include "util/rng.h"

namespace delta::htm {
namespace {

std::vector<double> uniform_weights(int level, double w = 1.0) {
  return std::vector<double>(
      static_cast<std::size_t>(trixel_count_at_level(level)), w);
}

/// Weights concentrated in one footprint region (like the SDSS survey
/// footprint), elsewhere zero.
std::vector<double> footprint_weights(int level, util::Rng& rng) {
  const auto count = trixel_count_at_level(level);
  std::vector<double> w(static_cast<std::size_t>(count), 0.0);
  const Cone footprint{from_ra_dec(180.0, 30.0), 1.0};
  for (std::int64_t i = 0; i < count; ++i) {
    const Trixel t = Trixel::from_id(id_from_index(level, i));
    if (footprint.contains(t.center())) {
      w[static_cast<std::size_t>(i)] = rng.pareto(1.0, 1.2);
    }
  }
  return w;
}

TEST(PartitionMapTest, UniformWeightsSplitEvenly) {
  const auto map = PartitionMap::build(4, uniform_weights(4), 32);
  EXPECT_GE(map.object_count(), 32u);
  // Uniform density: every partition is non-empty.
  EXPECT_EQ(map.object_count(), map.partition_count());
}

TEST(PartitionMapTest, EveryBaseTrixelOwned) {
  util::Rng rng{5};
  const auto weights = footprint_weights(4, rng);
  const auto map = PartitionMap::build(4, weights, 30);
  for (std::int64_t i = 0; i < map.base_trixel_count(); ++i) {
    const ObjectId o = map.object_for_base_index(i);
    ASSERT_TRUE(o.valid());
    const auto [lo, hi] = map.base_range(o);
    EXPECT_GE(i, lo);
    EXPECT_LT(i, hi);
  }
}

TEST(PartitionMapTest, WeightsAreConserved) {
  util::Rng rng{6};
  const auto weights = footprint_weights(4, rng);
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  const auto map = PartitionMap::build(4, weights, 40);
  double partition_total = 0.0;
  for (std::size_t i = 0; i < map.partition_count(); ++i) {
    partition_total += map.partition_weight(ObjectId{static_cast<std::int64_t>(i)});
  }
  EXPECT_NEAR(partition_total, total, total * 1e-12);
}

TEST(PartitionMapTest, TargetCountReached) {
  util::Rng rng{7};
  const auto weights = footprint_weights(5, rng);
  for (const std::size_t target : {10u, 20u, 68u, 91u, 134u}) {
    const auto map = PartitionMap::build(5, weights, target);
    EXPECT_GE(map.object_count(), target);
    // Overshoot per split is at most 3.
    EXPECT_LE(map.object_count(), target + 3);
  }
}

TEST(PartitionMapTest, GranularityLadderIsMonotone) {
  util::Rng rng{8};
  const auto weights = footprint_weights(5, rng);
  std::size_t prev = 0;
  for (const std::size_t target : {10u, 20u, 68u, 134u, 285u, 532u}) {
    const auto map = PartitionMap::build(5, weights, target);
    EXPECT_GT(map.object_count(), prev);
    prev = map.object_count();
  }
}

TEST(PartitionMapTest, HeaviestRegionsSplitFinest) {
  // Two hotspots of very different density: the dense one should be split
  // into more partitions than the sparse one.
  const int level = 4;
  const auto count = trixel_count_at_level(level);
  std::vector<double> w(static_cast<std::size_t>(count), 0.0);
  const Cone dense{from_ra_dec(90.0, 0.0), 0.4};
  const Cone sparse{from_ra_dec(270.0, 0.0), 0.4};
  for (std::int64_t i = 0; i < count; ++i) {
    const Vec3 c = Trixel::from_id(id_from_index(level, i)).center();
    if (dense.contains(c)) {
      w[static_cast<std::size_t>(i)] = 100.0;
    } else if (sparse.contains(c)) {
      w[static_cast<std::size_t>(i)] = 1.0;
    }
  }
  const auto map = PartitionMap::build(level, w, 40);
  int dense_parts = 0;
  int sparse_parts = 0;
  for (std::size_t i = 0; i < map.partition_count(); ++i) {
    const ObjectId oid{static_cast<std::int64_t>(i)};
    if (map.is_empty_partition(oid)) continue;
    const Vec3 c = Trixel::from_id(map.partition_trixel(oid)).center();
    if (dense.contains(c)) ++dense_parts;
    if (sparse.contains(c)) ++sparse_parts;
  }
  EXPECT_GT(dense_parts, sparse_parts);
}

TEST(PartitionMapTest, RegionLookupFindsOwningObjects) {
  util::Rng rng{9};
  const auto weights = footprint_weights(5, rng);
  const auto map = PartitionMap::build(5, weights, 68);
  const Cone probe{from_ra_dec(180.0, 30.0), 0.05};
  const auto objects = map.objects_for_region(Region{probe});
  ASSERT_FALSE(objects.empty());
  // The object owning the cone's center must be among them.
  const ObjectId center_owner = map.object_for_point(probe.center);
  EXPECT_TRUE(std::binary_search(objects.begin(), objects.end(),
                                 center_owner));
}

TEST(PartitionMapTest, PointLookupConsistentWithRanges) {
  util::Rng rng{10};
  const auto weights = footprint_weights(4, rng);
  const auto map = PartitionMap::build(4, weights, 25);
  for (int i = 0; i < 200; ++i) {
    const Vec3 p = normalized({rng.normal(0, 1), rng.normal(0, 1),
                               rng.normal(0, 1)});
    const ObjectId o = map.object_for_point(p);
    const HtmId base = reference::locate(p, 4);
    EXPECT_EQ(o, map.object_for_trixel(base));
  }
}

TEST(PartitionMapTest, DeterministicForSameInputs) {
  util::Rng rng1{11};
  util::Rng rng2{11};
  const auto w1 = footprint_weights(4, rng1);
  const auto w2 = footprint_weights(4, rng2);
  const auto m1 = PartitionMap::build(4, w1, 30);
  const auto m2 = PartitionMap::build(4, w2, 30);
  ASSERT_EQ(m1.partition_count(), m2.partition_count());
  for (std::size_t i = 0; i < m1.partition_count(); ++i) {
    const ObjectId oid{static_cast<std::int64_t>(i)};
    EXPECT_EQ(m1.partition_trixel(oid), m2.partition_trixel(oid));
  }
}

}  // namespace
}  // namespace delta::htm
