#include "privacy/detection.hpp"

#include <algorithm>

#include "poi/clustering.hpp"
#include "trace/sampling.hpp"
#include "util/expect.hpp"

namespace locpriv::privacy {

std::vector<double> DetectionConfig::make_default_fractions() {
  std::vector<double> fractions;
  for (int percent = 2; percent <= 100; percent += 2)
    fractions.push_back(static_cast<double>(percent) / 100.0);
  return fractions;
}

CollectedStays collected_stays(const std::vector<trace::TracePoint>& points,
                               std::int64_t interval_s,
                               const poi::ExtractionParams& extraction) {
  CollectedStays collected;
  if (interval_s <= 1 || points.empty()) {
    collected.stays = poi::extract_stay_points(points, extraction);
    collected.fixes = points.size();
    return collected;
  }
  poi::StayPointExtractor extractor(extraction);
  trace::for_each_decimated(points, interval_s, points.front().timestamp_s,
                            [&](const trace::TracePoint& point) {
                              extractor.push(point);
                              ++collected.fixes;
                            });
  collected.stays = extractor.finish();
  return collected;
}

PatternHistogram observed_histogram(const std::vector<trace::TracePoint>& points,
                                    Pattern pattern,
                                    const poi::ExtractionParams& extraction,
                                    const RegionGrid& grid, std::int64_t interval_s) {
  const auto pois = poi::cluster_stay_points(
      collected_stays(points, interval_s, extraction).stays, extraction.radius_m);
  return build_histogram(pattern, pois, grid);
}

DetectionOutcome earliest_detection(const std::vector<trace::TracePoint>& points,
                                    const PatternHistogram& profile, Pattern pattern,
                                    const DetectionConfig& config) {
  LOCPRIV_EXPECT(std::is_sorted(config.fractions.begin(), config.fractions.end()));
  DetectionOutcome outcome;
  for (const double fraction : config.fractions) {
    const auto prefix = trace::take_prefix_fraction(points, fraction);
    if (prefix.empty()) continue;
    const PatternHistogram observed = observed_histogram(
        prefix, pattern, config.extraction, config.grid, config.interval_s);
    const MatchResult match = match_histograms(observed, profile, config.match);
    if (match.attempted && match.matches) {
      outcome.detected = true;
      outcome.fraction = fraction;
      return outcome;
    }
  }
  return outcome;
}

DetectionOutcome earliest_identification(const std::vector<trace::TracePoint>& points,
                                         const Adversary& adversary,
                                         std::size_t true_user, Pattern pattern,
                                         const DetectionConfig& config) {
  LOCPRIV_EXPECT(true_user < adversary.profile_count());
  LOCPRIV_EXPECT(std::is_sorted(config.fractions.begin(), config.fractions.end()));
  DetectionOutcome outcome;
  for (const double fraction : config.fractions) {
    const auto prefix = trace::take_prefix_fraction(points, fraction);
    if (prefix.empty()) continue;
    const PatternHistogram observed = observed_histogram(
        prefix, pattern, config.extraction, config.grid, config.interval_s);
    if (observed.empty()) continue;
    const IdentificationResult result =
        adversary.identify(observed, pattern, config.match);
    if (result.matched.size() == 1 && result.matched.front() == true_user) {
      outcome.detected = true;
      outcome.fraction = fraction;
      return outcome;
    }
  }
  return outcome;
}

DetectionOutcome combined_detection(const std::vector<trace::TracePoint>& points,
                                    const PatternHistogram& visit_profile,
                                    const PatternHistogram& movement_profile,
                                    const DetectionConfig& config) {
  const DetectionOutcome visits =
      earliest_detection(points, visit_profile, Pattern::kVisits, config);
  const DetectionOutcome movements =
      earliest_detection(points, movement_profile, Pattern::kMovements, config);
  if (!visits.detected) return movements;
  if (!movements.detected) return visits;
  return visits.fraction <= movements.fraction ? visits : movements;
}

}  // namespace locpriv::privacy
