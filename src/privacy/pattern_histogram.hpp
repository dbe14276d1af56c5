// The two profile representations compared throughout the paper:
//   pattern 1: <region, visited times>            (prior work's profile)
//   pattern 2: <movement PoI_i -> PoI_j, times>   (this paper's profile)
// Both are sparse keyed histograms over 64-bit keys (region ids, or packed
// region transitions).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "poi/clustering.hpp"
#include "privacy/region.hpp"

namespace locpriv::privacy {

/// Sparse keyed histogram. Keys are RegionIds (pattern 1) or packed
/// transitions (pattern 2); values are visit / occurrence counts. Stored
/// flat: one (key, count) pair per distinct key, in ascending key order.
class PatternHistogram {
 public:
  PatternHistogram() = default;

  /// Adds `weight` to `key`'s count (weight > 0).
  void add(std::int64_t key, double weight = 1.0);

  /// Count for `key` (0 if absent). Binary search.
  double count(std::int64_t key) const;

  /// Number of distinct keys.
  std::size_t key_count() const { return counts_.size(); }

  /// Sum of all counts.
  double total() const { return total_; }

  bool empty() const { return counts_.empty(); }

  /// The (key, count) pairs in ascending key order, one per distinct key.
  const std::vector<std::pair<std::int64_t, double>>& counts() const { return counts_; }

 private:
  std::vector<std::pair<std::int64_t, double>> counts_;
  double total_ = 0.0;
};

/// Which profile representation a histogram encodes.
enum class Pattern {
  kVisits = 1,     ///< Pattern 1: <region, visited times>.
  kMovements = 2,  ///< Pattern 2: <region_i -> region_j, happen times>.
};

/// The chronological sequence of region ids visited, derived from extracted
/// PoIs (each visit contributes its PoI's region; consecutive repeats
/// collapse, since they mean the user never left the place).
std::vector<RegionId> region_sequence(const std::vector<poi::Poi>& pois,
                                      const RegionGrid& grid);

/// Pattern-1 histogram: one count per visit, keyed by the visited region.
PatternHistogram visit_histogram(const std::vector<poi::Poi>& pois,
                                 const RegionGrid& grid);

/// Pattern-2 histogram: one count per consecutive pair in the visit
/// sequence, keyed by the packed transition.
PatternHistogram movement_histogram(const std::vector<poi::Poi>& pois,
                                    const RegionGrid& grid);

/// Builds the histogram for the requested pattern.
PatternHistogram build_histogram(Pattern pattern, const std::vector<poi::Poi>& pois,
                                 const RegionGrid& grid);

}  // namespace locpriv::privacy
