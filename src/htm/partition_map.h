// Density-adaptive partitioning of the sky into data objects.
//
// The paper partitions the 1 TB PhotoObj table with the HTM index into
// "roughly equi-area data objects" whose data content varies 50 MB–90 GB,
// and sweeps the granularity from 10 to 532 objects (Fig. 8b). We reproduce
// that with target-count splitting: starting from the 8 root trixels, the
// heaviest partition (by data density) is recursively quartered until the
// requested number of non-empty partitions exists. Partitions are whole
// trixels, so every base-level trixel maps to exactly one data object.
#pragma once

#include <cstdint>
#include <vector>

#include "htm/mesh.h"
#include "htm/region.h"
#include "htm/trixel.h"
#include "util/types.h"

namespace delta::htm {

class PartitionMap {
 public:
  /// Builds a partition map over the `base_level` grid. `base_weights` holds
  /// one non-negative weight (data density) per base trixel, in
  /// index_in_level order. Splitting proceeds until at least `target_count`
  /// partitions carry positive weight (or no further split is possible).
  static PartitionMap build(int base_level,
                            const std::vector<double>& base_weights,
                            std::size_t target_count);

  [[nodiscard]] int base_level() const { return base_level_; }

  /// Precomputed geometry of levels 0..base_level(); its indices at the base
  /// level are this map's base indices.
  [[nodiscard]] const Mesh& mesh() const { return mesh_; }
  [[nodiscard]] std::int64_t base_trixel_count() const {
    return static_cast<std::int64_t>(base_to_object_.size());
  }

  /// Total number of partitions (including empty ones outside the survey
  /// footprint).
  [[nodiscard]] std::size_t partition_count() const {
    return partition_trixels_.size();
  }

  /// Number of partitions with positive weight — the paper's "object count"
  /// (it ignores partitions that are never queried).
  [[nodiscard]] std::size_t object_count() const { return object_count_; }

  [[nodiscard]] ObjectId object_for_base_index(std::int64_t base_index) const;
  [[nodiscard]] ObjectId object_for_trixel(HtmId base_trixel) const;

  /// Root trixel of a partition.
  [[nodiscard]] HtmId partition_trixel(ObjectId id) const;

  /// Sum of base weights within the partition.
  [[nodiscard]] double partition_weight(ObjectId id) const;

  [[nodiscard]] bool is_empty_partition(ObjectId id) const {
    return partition_weight(id) <= 0.0;
  }

  /// Range [lo, hi) of base-trixel indices belonging to the partition.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> base_range(
      ObjectId id) const;

  /// All partitions whose area intersects the region (sorted, unique).
  /// This is the semantic framework's q -> B(q) mapping.
  [[nodiscard]] std::vector<ObjectId> objects_for_region(
      const Region& region) const;

  /// Point -> owning partition.
  [[nodiscard]] ObjectId object_for_point(const Vec3& p) const;

 private:
  explicit PartitionMap(int base_level)
      : base_level_(base_level), mesh_(base_level) {}

  int base_level_ = 0;
  Mesh mesh_;
  std::size_t object_count_ = 0;
  std::vector<HtmId> partition_trixels_;   // indexed by ObjectId
  std::vector<double> partition_weights_;  // indexed by ObjectId
  std::vector<std::int32_t> base_to_object_;
};

}  // namespace delta::htm
