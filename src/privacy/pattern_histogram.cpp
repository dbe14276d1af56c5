#include "privacy/pattern_histogram.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace locpriv::privacy {

namespace {

bool key_less(const std::pair<std::int64_t, double>& entry, std::int64_t key) {
  return entry.first < key;
}

}  // namespace

void PatternHistogram::add(std::int64_t key, double weight) {
  LOCPRIV_EXPECT(weight > 0.0);
  const auto it = std::lower_bound(counts_.begin(), counts_.end(), key, key_less);
  if (it != counts_.end() && it->first == key)
    it->second += weight;
  else
    counts_.emplace(it, key, weight);
  total_ += weight;
}

double PatternHistogram::count(std::int64_t key) const {
  const auto it = std::lower_bound(counts_.begin(), counts_.end(), key, key_less);
  return it != counts_.end() && it->first == key ? it->second : 0.0;
}

std::vector<RegionId> region_sequence(const std::vector<poi::Poi>& pois,
                                      const RegionGrid& grid) {
  // Chronological (enter time, region) events across all PoIs.
  std::vector<std::pair<std::int64_t, RegionId>> events;
  for (const auto& poi : pois) {
    const RegionId region = grid.region_of(poi.centroid);
    for (const auto& visit : poi.visits) events.emplace_back(visit.enter_s, region);
  }
  std::sort(events.begin(), events.end());
  std::vector<RegionId> sequence;
  for (const auto& [time, region] : events) {
    (void)time;
    if (sequence.empty() || sequence.back() != region) sequence.push_back(region);
  }
  return sequence;
}

PatternHistogram visit_histogram(const std::vector<poi::Poi>& pois,
                                 const RegionGrid& grid) {
  PatternHistogram histogram;
  for (const auto& poi : pois) {
    const RegionId region = grid.region_of(poi.centroid);
    for (std::size_t i = 0; i < poi.visit_count(); ++i) histogram.add(region);
  }
  return histogram;
}

PatternHistogram movement_histogram(const std::vector<poi::Poi>& pois,
                                    const RegionGrid& grid) {
  PatternHistogram histogram;
  const auto sequence = region_sequence(pois, grid);
  for (std::size_t i = 1; i < sequence.size(); ++i)
    histogram.add(pack_transition(sequence[i - 1], sequence[i]));
  return histogram;
}

PatternHistogram build_histogram(Pattern pattern, const std::vector<poi::Poi>& pois,
                                 const RegionGrid& grid) {
  return pattern == Pattern::kVisits ? visit_histogram(pois, grid)
                                     : movement_histogram(pois, grid);
}

}  // namespace locpriv::privacy
