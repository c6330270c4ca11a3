// Differential tests of htm::Mesh against the on-the-fly reference walk
// (htm_reference.h): the precomputed tables must give exactly the covers,
// point locations and areas the per-query geometry gave.
#include "htm/mesh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "htm_reference.h"
#include "util/rng.h"

namespace delta::htm {
namespace {

constexpr int kMaxTestLevel = 8;

/// One mesh per level, built on first use and shared by the tests.
const Mesh& mesh_at(int level) {
  static std::array<std::unique_ptr<Mesh>, kMaxTestLevel + 1> meshes;
  auto& m = meshes[static_cast<std::size_t>(level)];
  if (!m) m = std::make_unique<Mesh>(level);
  return *m;
}

Vec3 random_point(util::Rng& rng) {
  return normalized({rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)});
}

std::vector<HtmId> mesh_cover_ids(const Region& region, int level) {
  std::vector<HtmId> ids;
  for (const std::int32_t idx : mesh_at(level).cover(region)) {
    ids.push_back(id_from_index(level, idx));
  }
  return ids;
}

/// Log-uniform over [lo, hi], so sizes span regions that sit inside one
/// trixel and regions whose subtrees are enumerated whole.
double log_uniform(util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

Region random_cone(util::Rng& rng) {
  return Cone{random_point(rng), log_uniform(rng, 1e-4, 0.6)};
}

Region random_rect(util::Rng& rng) {
  const double w = log_uniform(rng, 0.05, 60.0);
  // Every third rect straddles ra = 0, so lo > hi after wrapping.
  const double ra_center =
      rng.uniform_int(0, 2) == 0 ? rng.uniform(-w / 2, w / 2)
                                 : rng.uniform(0.0, 360.0);
  const double ra_lo = std::fmod(ra_center - w / 2 + 720.0, 360.0);
  const double ra_hi = std::fmod(ra_center + w / 2 + 720.0, 360.0);
  const double h = log_uniform(rng, 0.05, 40.0);
  const double dec_lo = std::clamp(rng.uniform(-90.0, 90.0) - h / 2, -90.0,
                                   90.0);
  const double dec_hi = std::min(dec_lo + h, 90.0);
  return RaDecRect{ra_lo, ra_hi, dec_lo, dec_hi};
}

Region random_band(util::Rng& rng) {
  return GreatCircleBand{random_point(rng), log_uniform(rng, 1e-4, 0.05)};
}

void expect_covers_match(Region (*make)(util::Rng&), std::uint64_t seed) {
  util::Rng rng{seed};
  // 1,008 regions, 112 per level 0..8.
  for (int i = 0; i < 1008; ++i) {
    const int level = i % (kMaxTestLevel + 1);
    const Region region = make(rng);
    ASSERT_EQ(mesh_cover_ids(region, level),
              reference::cover_region(region, level))
        << "region " << i << " at level " << level;
  }
}

TEST(MeshTest, ConeCoversMatchReference) {
  expect_covers_match(random_cone, 101);
}

TEST(MeshTest, RectCoversMatchReference) {
  expect_covers_match(random_rect, 202);
}

TEST(MeshTest, BandCoversMatchReference) {
  expect_covers_match(random_band, 303);
}

TEST(MeshTest, EdgeCaseCoversMatchReference) {
  // Regions centred on mesh corners, touching the poles, wrapping all the
  // way round in ra, and covering the whole sky.
  const std::vector<Region> regions{
      Cone{{1.0, 0.0, 0.0}, 0.01},
      Cone{{0.0, 0.0, 1.0}, 0.3},
      Cone{normalized({1.0, 1.0, 0.0}), 1e-6},
      Cone{{0.0, 0.0, -1.0}, std::numbers::pi},
      RaDecRect{350.0, 10.0, -90.0, -80.0},
      RaDecRect{0.0, 360.0, -5.0, 5.0},
      RaDecRect{90.0, 90.0, 0.0, 0.0},
      GreatCircleBand{{0.0, 0.0, 1.0}, 0.0},
      GreatCircleBand{{1.0, 0.0, 0.0}, std::numbers::pi / 2},
  };
  for (int level = 0; level <= kMaxTestLevel; ++level) {
    for (std::size_t i = 0; i < regions.size(); ++i) {
      EXPECT_EQ(mesh_cover_ids(regions[i], level),
                reference::cover_region(regions[i], level))
          << "region " << i << " at level " << level;
    }
  }
}

TEST(MeshTest, LocateMatchesReferenceOnRandomPoints) {
  util::Rng rng{404};
  for (int i = 0; i < 4000; ++i) {
    const Vec3 p = random_point(rng);
    const int level = i % (kMaxTestLevel + 1);
    ASSERT_EQ(id_from_index(level, mesh_at(level).locate(p)),
              reference::locate(p, level))
        << "point " << i << " at level " << level;
  }
}

TEST(MeshTest, LocateMatchesReferenceOnVerticesAndEdgeMidpoints) {
  // Corners and edge midpoints lie on two or more trixels' sides: the
  // first-match tie-break must agree exactly.
  util::Rng rng{505};
  const Mesh& source = mesh_at(6);
  for (int i = 0; i < 600; ++i) {
    const int from_level = static_cast<int>(rng.uniform_int(0, 6));
    const auto count = trixel_count_at_level(from_level);
    const auto& v =
        source.node(from_level, rng.uniform_int(0, count - 1)).vertices;
    const std::array<Vec3, 6> probes{
        v[0], v[1], v[2], midpoint_on_sphere(v[0], v[1]),
        midpoint_on_sphere(v[1], v[2]), midpoint_on_sphere(v[2], v[0])};
    for (const Vec3& p : probes) {
      for (int level = 0; level <= kMaxTestLevel; ++level) {
        ASSERT_EQ(id_from_index(level, mesh_at(level).locate(p)),
                  reference::locate(p, level))
            << "probe of level-" << from_level << " trixel at level "
            << level;
      }
    }
  }
}

TEST(MeshTest, LocateFindsContainingTrixel) {
  util::Rng rng{123};
  for (int i = 0; i < 500; ++i) {
    const Vec3 p = random_point(rng);
    for (int level : {0, 2, 5}) {
      const auto idx = mesh_at(level).locate(p);
      EXPECT_TRUE(Trixel::from_id(id_from_index(level, idx)).contains(p));
    }
  }
}

TEST(MeshTest, LocateConsistentWithAncestors) {
  util::Rng rng{321};
  for (int i = 0; i < 200; ++i) {
    const Vec3 p = random_point(rng);
    const HtmId deep = id_from_index(6, mesh_at(6).locate(p));
    const HtmId shallow = id_from_index(2, mesh_at(2).locate(p));
    // Descent may differ on exact edges; ancestor containment must agree
    // for generic points.
    EXPECT_EQ(ancestor_at_level(deep, 2), shallow);
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(MeshTest, TablesEqualTrixelGeometryBitForBit) {
  const Mesh& mesh = mesh_at(kMaxTestLevel);
  for (int level = 0; level <= kMaxTestLevel; ++level) {
    const auto count = trixel_count_at_level(level);
    for (std::int64_t i = 0; i < count; ++i) {
      const Trixel t = Trixel::from_id(id_from_index(level, i));
      const Mesh::Node& n = mesh.node(level, i);
      ASSERT_EQ(bits(n.area), bits(t.area())) << level << "/" << i;
      ASSERT_EQ(bits(n.bounding_radius), bits(t.bounding_radius()));
      ASSERT_EQ(n.center, t.center());
      ASSERT_EQ(n.vertices, t.vertices());
    }
  }
}

TEST(MeshTest, RejectsLevelsOutsideItsRange) {
  EXPECT_THROW((void)Mesh{-1}, std::logic_error);
  EXPECT_THROW((void)Mesh{Mesh::kMaxLevel + 1}, std::logic_error);
  const Mesh& mesh = mesh_at(2);
  EXPECT_EQ(mesh.level(), 2);
  EXPECT_THROW((void)mesh.node(3, 0), std::logic_error);
  EXPECT_THROW((void)mesh.node(2, trixel_count_at_level(2)), std::logic_error);
}

}  // namespace
}  // namespace delta::htm
