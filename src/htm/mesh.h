// The HTM mesh down to one level, precomputed: the geometry every
// region -> trixel cover (§4 Discussion, §6.1: the pre-processing step that
// maps a query's spatial specification to the data objects it accesses,
// B(q)) and every point location reads.
//
// None of a trixel's geometry depends on the query, so a Mesh computes
// the corners, bounding circle and area of every trixel at levels
// 0..level() once, with the Trixel calls (root, child, center,
// bounding_radius, area): each table value is the double those calls
// return. A PartitionMap owns the mesh of its base level (about 1.2 MB at
// level 5).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "htm/region.h"
#include "htm/trixel.h"

namespace delta::htm {

class Mesh {
 public:
  /// Deepest level a mesh may hold: level 10 already takes ~1.2 GB.
  static constexpr int kMaxLevel = 10;

  struct Node {
    Vec3 center;
    double bounding_radius = 0.0;
    std::array<Vec3, 3> vertices;
    double area = 0.0;
  };

  /// Builds the tables for levels 0..level.
  explicit Mesh(int level);

  [[nodiscard]] int level() const {
    return static_cast<int>(levels_.size()) - 1;
  }

  /// Trixel `index` (index_in_level order) of `level` (<= level()).
  [[nodiscard]] const Node& node(int level, std::int64_t index) const;

  /// Solid angle (steradians) of base-level trixel `index`.
  [[nodiscard]] double area(std::int64_t index) const {
    return node(level(), index).area;
  }

  /// Indices at level() of the trixels that (conservatively) intersect the
  /// region, ascending. The cover errs toward inclusion: a trixel is
  /// included unless its bounding circle provably misses the region, so
  /// B(q) never silently drops an object the query touches.
  [[nodiscard]] std::vector<std::int32_t> cover(const Region& region) const;

  /// Index at level() of the trixel containing point p: the first root,
  /// then at each level the first child, whose inclusive side test accepts
  /// p (so a point on a shared edge goes to the lower-numbered trixel).
  [[nodiscard]] std::int64_t locate(const Vec3& p) const;

 private:
  std::vector<std::vector<Node>> levels_;
};

}  // namespace delta::htm
