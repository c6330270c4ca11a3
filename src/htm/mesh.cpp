#include "htm/mesh.h"

#include <algorithm>
#include <variant>

#include "util/check.h"

namespace delta::htm {

namespace {

/// Appends the level-`target` indices below trixel (`level`, `index`) that
/// the region does not provably miss. Templated on the region shape so the
/// variant is dispatched once per cover, not once per visited trixel.
template <typename Shape>
void descend(const std::vector<std::vector<Mesh::Node>>& levels, int level,
             std::int64_t index, const Shape& region,
             std::vector<std::int32_t>& out) {
  const Mesh::Node& n =
      levels[static_cast<std::size_t>(level)][static_cast<std::size_t>(index)];
  if (region.distance_to(n.center) > n.bounding_radius) return;
  const int depth = static_cast<int>(levels.size()) - 1 - level;
  if (depth == 0) {
    // Only the outside test decides at the target level.
    out.push_back(static_cast<std::int32_t>(index));
    return;
  }
  // Inside when all corners and the center are contained. (Approximate:
  // boundary bulges are caught by the recursion below, and at worst a
  // boundary trixel is treated as partial, which is conservative.)
  if (region.contains(n.center) &&
      std::all_of(n.vertices.begin(), n.vertices.end(),
                  [&](const Vec3& v) { return region.contains(v); })) {
    // Whole subtree is inside: enumerate descendants arithmetically.
    const std::int64_t first = index << (2 * depth);
    const std::int64_t count = std::int64_t{1} << (2 * depth);
    for (std::int64_t i = 0; i < count; ++i) {
      out.push_back(static_cast<std::int32_t>(first + i));
    }
    return;
  }
  for (int c = 0; c < 4; ++c) {
    descend(levels, level + 1, 4 * index + c, region, out);
  }
}

}  // namespace

Mesh::Mesh(int level) {
  DELTA_CHECK_MSG(level >= 0 && level <= kMaxLevel,
                  "mesh level " << level << " outside [0, " << kMaxLevel
                                << "]");
  std::vector<Trixel> trixels;
  for (int r = 0; r < 8; ++r) trixels.push_back(Trixel::root(r));
  levels_.reserve(static_cast<std::size_t>(level) + 1);
  for (int l = 0;; ++l) {
    std::vector<Node>& nodes = levels_.emplace_back();
    nodes.reserve(trixels.size());
    for (const Trixel& t : trixels) {
      nodes.push_back({t.center(), t.bounding_radius(), t.vertices(),
                       t.area()});
    }
    if (l == level) break;
    // Child c of index i is index 4i + c, so the next level stays in
    // index_in_level order.
    std::vector<Trixel> children;
    children.reserve(4 * trixels.size());
    for (const Trixel& t : trixels) {
      for (int c = 0; c < 4; ++c) children.push_back(t.child(c));
    }
    trixels = std::move(children);
  }
}

const Mesh::Node& Mesh::node(int level, std::int64_t index) const {
  DELTA_CHECK(level >= 0 && level <= this->level());
  const auto& nodes = levels_[static_cast<std::size_t>(level)];
  DELTA_CHECK(index >= 0 && index < static_cast<std::int64_t>(nodes.size()));
  return nodes[static_cast<std::size_t>(index)];
}

std::vector<std::int32_t> Mesh::cover(const Region& region) const {
  std::vector<std::int32_t> out;
  std::visit(
      [&](const auto& shape) {
        for (int r = 0; r < 8; ++r) descend(levels_, 0, r, shape, out);
      },
      region);
  // Depth-first over children in index order: already ascending and
  // unique.
  return out;
}

std::int64_t Mesh::locate(const Vec3& p) const {
  const Vec3 unit = normalized(p);
  for (std::int64_t r = 0; r < 8; ++r) {
    if (!triangle_contains(levels_[0][static_cast<std::size_t>(r)].vertices,
                           unit)) {
      continue;
    }
    std::int64_t index = r;
    for (std::size_t l = 1; l < levels_.size(); ++l) {
      const std::int64_t first_child = 4 * index;
      int c = 0;
      while (c < 4 &&
             !triangle_contains(
                 levels_[l][static_cast<std::size_t>(first_child + c)]
                     .vertices,
                 unit)) {
        ++c;
      }
      DELTA_CHECK_MSG(c < 4, "point escaped trixel during descent");
      index = first_child + c;
    }
    return index;
  }
  DELTA_CHECK_MSG(false, "point not located in any root trixel");
  return 0;  // unreachable
}

}  // namespace delta::htm
