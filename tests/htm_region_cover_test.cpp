#include <gtest/gtest.h>

#include <numbers>

#include "htm/mesh.h"
#include "htm/region.h"
#include "util/rng.h"

namespace delta::htm {
namespace {

TEST(RegionTest, ConeContainsAndDistance) {
  const Cone cone{from_ra_dec(180.0, 0.0), degrees_to_radians(5.0)};
  EXPECT_TRUE(cone.contains(from_ra_dec(180.0, 0.0)));
  EXPECT_TRUE(cone.contains(from_ra_dec(183.0, 2.0)));
  EXPECT_FALSE(cone.contains(from_ra_dec(180.0, 10.0)));
  EXPECT_NEAR(cone.distance_to(from_ra_dec(180.0, 10.0)),
              degrees_to_radians(5.0), 1e-9);
  EXPECT_DOUBLE_EQ(cone.distance_to(from_ra_dec(180.0, 0.0)), 0.0);
}

TEST(RegionTest, RectContains) {
  const RaDecRect rect{100.0, 120.0, -10.0, 10.0};
  EXPECT_TRUE(rect.contains(from_ra_dec(110.0, 0.0)));
  EXPECT_TRUE(rect.contains(from_ra_dec(100.0, -10.0)));
  EXPECT_FALSE(rect.contains(from_ra_dec(99.0, 0.0)));
  EXPECT_FALSE(rect.contains(from_ra_dec(110.0, 11.0)));
}

TEST(RegionTest, RectWrapsRa) {
  const RaDecRect rect{350.0, 10.0, 0.0, 20.0};
  EXPECT_TRUE(rect.contains(from_ra_dec(355.0, 10.0)));
  EXPECT_TRUE(rect.contains(from_ra_dec(5.0, 10.0)));
  EXPECT_FALSE(rect.contains(from_ra_dec(180.0, 10.0)));
}

TEST(RegionTest, RectDistanceIsLowerBound) {
  const RaDecRect rect{100.0, 120.0, -10.0, 10.0};
  util::Rng rng{42};
  for (int i = 0; i < 500; ++i) {
    const double ra = rng.uniform(0.0, 360.0);
    const double dec = rng.uniform(-90.0, 90.0);
    const Vec3 p = from_ra_dec(ra, dec);
    const double bound = rect.distance_to(p);
    if (rect.contains(p)) {
      EXPECT_DOUBLE_EQ(bound, 0.0);
      continue;
    }
    // The bound must not exceed the true distance to any sampled interior
    // point (lower-bound property used by the cover's Outside test).
    for (int j = 0; j < 30; ++j) {
      const Vec3 q = from_ra_dec(rng.uniform(100.0, 120.0),
                                 rng.uniform(-10.0, 10.0));
      ASSERT_LE(bound, angular_distance(p, q) + 1e-9);
    }
  }
}

TEST(RegionTest, BandContainsGreatCircle) {
  const GreatCircleBand band{{0.0, 0.0, 1.0}, degrees_to_radians(2.0)};
  // Pole at z: the band is the +/-2 degree equator strip.
  EXPECT_TRUE(band.contains(from_ra_dec(123.0, 0.0)));
  EXPECT_TRUE(band.contains(from_ra_dec(45.0, 1.5)));
  EXPECT_FALSE(band.contains(from_ra_dec(45.0, 3.0)));
  EXPECT_NEAR(band.distance_to(from_ra_dec(45.0, 12.0)),
              degrees_to_radians(10.0), 1e-9);
}

TEST(RegionTest, AnchorInsideRegion) {
  const Region cone = Cone{from_ra_dec(30.0, 40.0), 0.05};
  const Region rect = RaDecRect{10.0, 20.0, 30.0, 40.0};
  const Region band = GreatCircleBand{normalized({0.3, 0.4, 0.8}), 0.02};
  EXPECT_TRUE(region_contains(cone, region_anchor(cone)));
  EXPECT_TRUE(region_contains(rect, region_anchor(rect)));
  EXPECT_TRUE(region_contains(band, region_anchor(band)));
}

TEST(CoverTest, ConeCoverContainsSampledPoints) {
  const Mesh mesh{4};
  util::Rng rng{77};
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 center = normalized(
        {rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)});
    const Cone cone{center, rng.uniform(0.01, 0.3)};
    const auto cover = mesh.cover(Region{cone});
    ASSERT_FALSE(cover.empty());
    // Every sampled point of the region must land in a covered trixel.
    for (int i = 0; i < 50; ++i) {
      // Rejection-sample a point inside the cone.
      Vec3 p;
      do {
        p = normalized({center.x + rng.normal(0, cone.radius_rad),
                        center.y + rng.normal(0, cone.radius_rad),
                        center.z + rng.normal(0, cone.radius_rad)});
      } while (!cone.contains(p));
      const auto idx = static_cast<std::int32_t>(mesh.locate(p));
      EXPECT_TRUE(std::binary_search(cover.begin(), cover.end(), idx))
          << "trial " << trial;
    }
  }
}

TEST(CoverTest, CoverIsSortedUnique) {
  const Cone cone{from_ra_dec(200.0, 30.0), 0.2};
  const auto cover = Mesh{5}.cover(Region{cone});
  EXPECT_TRUE(std::is_sorted(cover.begin(), cover.end()));
  EXPECT_EQ(std::adjacent_find(cover.begin(), cover.end()), cover.end());
  for (const std::int32_t idx : cover) {
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, trixel_count_at_level(5));
  }
}

TEST(CoverTest, TinyConeCoversFewTrixels) {
  const Cone cone{from_ra_dec(123.0, -45.0), 1e-4};
  const auto cover = Mesh{5}.cover(Region{cone});
  EXPECT_GE(cover.size(), 1u);
  EXPECT_LE(cover.size(), 8u);  // tiny cone touches at most a corner fan
}

TEST(CoverTest, FullSkyBandCoversManyTrixels) {
  const GreatCircleBand band{{0.0, 0.0, 1.0}, degrees_to_radians(5.0)};
  const auto cover = Mesh{4}.cover(Region{band});
  // The equator strip passes through all 8 roots.
  EXPECT_GT(cover.size(), 50u);
}

TEST(CoverTest, ConeAreaApproximatesCoverArea) {
  // The covered area should be within a small factor of the cone area for a
  // moderately fine level.
  const double radius = 0.15;
  const Cone cone{from_ra_dec(80.0, 20.0), radius};
  const Mesh mesh{6};
  const auto cover = mesh.cover(Region{cone});
  double covered = 0.0;
  for (const std::int32_t idx : cover) covered += mesh.area(idx);
  const double cone_area =
      2.0 * std::numbers::pi * (1.0 - std::cos(radius));
  EXPECT_GT(covered, cone_area);          // conservative inclusion
  EXPECT_LT(covered, cone_area * 2.0);    // but not wildly over
}

TEST(CoverTest, RectCoverMatchesContainedPoints) {
  const RaDecRect rect{140.0, 160.0, 20.0, 35.0};
  const Mesh mesh{5};
  const auto cover = mesh.cover(Region{rect});
  util::Rng rng{31};
  for (int i = 0; i < 300; ++i) {
    const Vec3 p = from_ra_dec(rng.uniform(140.0, 160.0),
                               rng.uniform(20.0, 35.0));
    const auto idx = static_cast<std::int32_t>(mesh.locate(p));
    EXPECT_TRUE(std::binary_search(cover.begin(), cover.end(), idx));
  }
}

}  // namespace
}  // namespace delta::htm
