#include "htm/trixel.h"

#include <bit>
#include <cmath>

#include "util/check.h"

namespace delta::htm {

namespace {

// The six cardinal directions of the HTM octahedron.
constexpr Vec3 kV0{0.0, 0.0, 1.0};    // north pole
constexpr Vec3 kV1{1.0, 0.0, 0.0};
constexpr Vec3 kV2{0.0, 1.0, 0.0};
constexpr Vec3 kV3{-1.0, 0.0, 0.0};
constexpr Vec3 kV4{0.0, -1.0, 0.0};
constexpr Vec3 kV5{0.0, 0.0, -1.0};   // south pole

// Standard root-trixel corner table (S0..S3, N0..N3).
constexpr std::array<std::array<Vec3, 3>, 8> kRoots{{
    {{kV1, kV5, kV2}},  // S0, id 8
    {{kV2, kV5, kV3}},  // S1, id 9
    {{kV3, kV5, kV4}},  // S2, id 10
    {{kV4, kV5, kV1}},  // S3, id 11
    {{kV1, kV0, kV4}},  // N0, id 12
    {{kV4, kV0, kV3}},  // N1, id 13
    {{kV3, kV0, kV2}},  // N2, id 14
    {{kV2, kV0, kV1}},  // N3, id 15
}};

}  // namespace

int level_of(HtmId id) {
  // A level-L id lies in [8 * 4^L, 16 * 4^L): its highest set bit is bit
  // 3 + 2L, so valid ids have an even bit width of at least 4.
  const int width = std::bit_width(static_cast<std::uint64_t>(id));
  DELTA_CHECK_MSG(id >= 8 && width % 2 == 0, "invalid HTM id " << id);
  return (width - 4) / 2;
}

std::int64_t trixel_count_at_level(int level) {
  DELTA_CHECK(level >= 0 && level < 28);
  return 8LL << (2 * level);
}

HtmId first_id_at_level(int level) { return trixel_count_at_level(level); }

std::int64_t index_in_level(HtmId id) {
  return id - first_id_at_level(level_of(id));
}

HtmId id_from_index(int level, std::int64_t index) {
  DELTA_CHECK(index >= 0 && index < trixel_count_at_level(level));
  return first_id_at_level(level) + index;
}

HtmId ancestor_at_level(HtmId id, int ancestor_level) {
  const int level = level_of(id);
  DELTA_CHECK(ancestor_level >= 0 && ancestor_level <= level);
  for (int i = level; i > ancestor_level; --i) id /= 4;
  return id;
}

Trixel Trixel::root(int index) {
  DELTA_CHECK(index >= 0 && index < 8);
  return Trixel{static_cast<HtmId>(8 + index),
                kRoots[static_cast<std::size_t>(index)]};
}

Trixel Trixel::child(int i) const {
  DELTA_CHECK(i >= 0 && i < 4);
  const Vec3 w0 = midpoint_on_sphere(v_[1], v_[2]);
  const Vec3 w1 = midpoint_on_sphere(v_[0], v_[2]);
  const Vec3 w2 = midpoint_on_sphere(v_[0], v_[1]);
  switch (i) {
    case 0:
      return Trixel{child_of(id_, 0), {v_[0], w2, w1}};
    case 1:
      return Trixel{child_of(id_, 1), {v_[1], w0, w2}};
    case 2:
      return Trixel{child_of(id_, 2), {v_[2], w1, w0}};
    default:
      return Trixel{child_of(id_, 3), {w0, w1, w2}};
  }
}

Trixel Trixel::from_id(HtmId id) {
  const int level = level_of(id);
  // Decode the child-path digits from the top.
  std::array<int, 32> digits{};
  HtmId cursor = id;
  for (int i = level - 1; i >= 0; --i) {
    digits[static_cast<std::size_t>(i)] = static_cast<int>(cursor % 4);
    cursor /= 4;
  }
  Trixel t = root(static_cast<int>(cursor - 8));
  for (int i = 0; i < level; ++i) {
    t = t.child(digits[static_cast<std::size_t>(i)]);
  }
  return t;
}

Vec3 Trixel::center() const {
  return normalized(v_[0] + v_[1] + v_[2]);
}

double Trixel::bounding_radius() const {
  const Vec3 c = center();
  double r = 0.0;
  for (const auto& v : v_) r = std::max(r, angular_distance(c, v));
  return r;
}

double Trixel::area() const {
  // l'Huilier: tan(E/4) = sqrt(tan(s/2) tan((s-a)/2) tan((s-b)/2)
  // tan((s-c)/2)) with a,b,c the side arc lengths and s the semi-perimeter.
  const double a = angular_distance(v_[1], v_[2]);
  const double b = angular_distance(v_[0], v_[2]);
  const double c = angular_distance(v_[0], v_[1]);
  const double s = (a + b + c) / 2.0;
  const double t = std::tan(s / 2.0) * std::tan((s - a) / 2.0) *
                   std::tan((s - b) / 2.0) * std::tan((s - c) / 2.0);
  return 4.0 * std::atan(std::sqrt(std::max(t, 0.0)));
}

}  // namespace delta::htm
