#include "htm/trixel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/rng.h"

namespace delta::htm {
namespace {

TEST(HtmIdTest, LevelEncoding) {
  EXPECT_EQ(level_of(8), 0);
  EXPECT_EQ(level_of(15), 0);
  EXPECT_EQ(level_of(32), 1);
  EXPECT_EQ(level_of(63), 1);
  EXPECT_EQ(level_of(8 * 4 * 4), 2);
  EXPECT_EQ(trixel_count_at_level(0), 8);
  EXPECT_EQ(trixel_count_at_level(3), 512);
  EXPECT_EQ(first_id_at_level(2), 128);
}

TEST(HtmIdTest, IndexRoundTrip) {
  for (int level = 0; level <= 20; ++level) {
    const auto count = trixel_count_at_level(level);
    for (std::int64_t i :
         {std::int64_t{0}, std::int64_t{1}, count / 3, count / 2, count - 1}) {
      const HtmId id = id_from_index(level, i);
      EXPECT_EQ(level_of(id), level) << "level " << level << " index " << i;
      EXPECT_EQ(index_in_level(id), i) << "level " << level;
    }
    // Between a level's last id (16 * 4^L - 1) and the next level's first
    // (32 * 4^L) lie no ids.
    EXPECT_THROW((void)level_of(first_id_at_level(level) + count),
                 std::logic_error);
    EXPECT_THROW((void)level_of(first_id_at_level(level + 1) - 1),
                 std::logic_error);
  }
}

TEST(HtmIdTest, LevelOfRejectsInvalidIds) {
  // Valid ids lie in [8 * 4^L, 16 * 4^L); everything between two levels'
  // ranges, below 8 or negative is not an id.
  for (const HtmId bad : {HtmId{-1}, HtmId{0}, HtmId{7}, HtmId{16}, HtmId{31},
                          HtmId{64}, HtmId{127}, (HtmId{16} << 20) + 5}) {
    EXPECT_THROW((void)level_of(bad), std::logic_error) << bad;
  }
}

TEST(HtmIdTest, ParentChildRelation) {
  const HtmId id = 8;
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(parent_of(child_of(id, c)), id);
  }
  EXPECT_EQ(ancestor_at_level(child_of(child_of(9, 2), 3), 0), 9);
  EXPECT_EQ(ancestor_at_level(child_of(9, 2), 1), child_of(9, 2));
}

TEST(TrixelTest, RootsCoverTheSphere) {
  util::Rng rng{99};
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p = normalized({rng.normal(0, 1), rng.normal(0, 1),
                               rng.normal(0, 1)});
    int containers = 0;
    for (int r = 0; r < 8; ++r) {
      if (Trixel::root(r).contains(p)) ++containers;
    }
    EXPECT_GE(containers, 1) << "point not covered";
  }
}

TEST(TrixelTest, RootAreasSumToSphere) {
  double total = 0.0;
  for (int r = 0; r < 8; ++r) total += Trixel::root(r).area();
  EXPECT_NEAR(total, 4.0 * std::numbers::pi, 1e-9);
}

TEST(TrixelTest, ChildAreasSumToParent) {
  const Trixel parent = Trixel::root(3);
  double total = 0.0;
  for (int c = 0; c < 4; ++c) total += parent.child(c).area();
  EXPECT_NEAR(total, parent.area(), 1e-9);
}

TEST(TrixelTest, ChildrenContainedInParent) {
  util::Rng rng{7};
  Trixel t = Trixel::root(5);
  for (int level = 0; level < 5; ++level) {
    const Trixel child = t.child(static_cast<int>(rng.uniform_int(0, 3)));
    // The child's center and corners must lie in the parent.
    EXPECT_TRUE(t.contains(child.center()));
    for (const auto& v : child.vertices()) {
      EXPECT_TRUE(t.contains(v));
    }
    t = child;
  }
}

TEST(TrixelTest, FromIdReconstructsDescentPath) {
  const Trixel a = Trixel::root(2).child(1).child(3).child(0);
  const Trixel b = Trixel::from_id(a.id());
  EXPECT_EQ(a.id(), b.id());
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(angular_distance(a.vertices()[static_cast<std::size_t>(i)],
                                 b.vertices()[static_cast<std::size_t>(i)]),
                0.0, 1e-12);
  }
}

TEST(TrixelTest, BoundingCircleContainsTrixel) {
  util::Rng rng{55};
  Trixel t = Trixel::root(1);
  for (int level = 0; level < 6; ++level) {
    const Vec3 c = t.center();
    const double r = t.bounding_radius();
    // Corners are within the bounding radius by construction; sample some
    // interior points too.
    for (int i = 0; i < 20; ++i) {
      double w0 = rng.next_double();
      double w1 = rng.next_double() * (1.0 - w0);
      const double w2 = 1.0 - w0 - w1;
      const Vec3 p = normalized(t.vertices()[0] * w0 + t.vertices()[1] * w1 +
                                t.vertices()[2] * w2);
      EXPECT_LE(angular_distance(c, p), r + 1e-12);
    }
    t = t.child(3);
  }
}

TEST(Vec3Test, RaDecRoundTrip) {
  for (double ra : {0.0, 45.0, 180.0, 359.0}) {
    for (double dec : {-89.0, -30.0, 0.0, 60.0, 89.0}) {
      const RaDec rd = to_ra_dec(from_ra_dec(ra, dec));
      EXPECT_NEAR(rd.ra_deg, ra, 1e-9);
      EXPECT_NEAR(rd.dec_deg, dec, 1e-9);
    }
  }
}

TEST(Vec3Test, AngularDistanceKnownValues) {
  const Vec3 x{1, 0, 0};
  const Vec3 y{0, 1, 0};
  EXPECT_NEAR(angular_distance(x, y), std::numbers::pi / 2, 1e-12);
  EXPECT_NEAR(angular_distance(x, x), 0.0, 1e-12);
  EXPECT_NEAR(angular_distance(x, {-1, 0, 0}), std::numbers::pi, 1e-12);
}

TEST(Vec3Test, DistanceToArc) {
  const Vec3 a{1, 0, 0};
  const Vec3 b{0, 1, 0};
  // Point above the arc's midpoint.
  const Vec3 p = normalized({1, 1, 0.5});
  const double d = distance_to_arc(p, a, b);
  EXPECT_NEAR(d, angular_distance(p, normalized({1, 1, 0})), 1e-9);
  // Point past endpoint a: closest point is a itself.
  const Vec3 q = normalized({1, -0.3, 0});
  EXPECT_NEAR(distance_to_arc(q, a, b), angular_distance(q, a), 1e-9);
}

}  // namespace
}  // namespace delta::htm
