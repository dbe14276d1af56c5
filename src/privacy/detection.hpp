// Detection-time analysis (paper Figure 4): how much of a user's profile an
// app must observe before His_bin fires, and which pattern fires first.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "poi/staypoint.hpp"
#include "privacy/adversary.hpp"
#include "privacy/matching.hpp"
#include "privacy/pattern_histogram.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::privacy {

/// Parameters of a detection-time sweep.
struct DetectionConfig {
  poi::ExtractionParams extraction;  ///< Paper uses Table III set 1.
  MatchParams match;
  RegionGrid grid;                   ///< Shared key space.
  std::int64_t interval_s = 1;       ///< App access interval to simulate.
  /// Prefix fractions to probe, ascending; defaults to 2 %..100 % in 2 %
  /// steps (set by make_default_fractions).
  std::vector<double> fractions;

  DetectionConfig(const RegionGrid& grid_in) : grid(grid_in) {
    fractions = make_default_fractions();
  }

  static std::vector<double> make_default_fractions();
};

/// Earliest-detection outcome for one user and one pattern.
struct DetectionOutcome {
  bool detected = false;
  double fraction = 1.0;  ///< Smallest probed prefix fraction that matched.
};

/// The stay points an app polling `points` every `interval_s` seconds from
/// the first fix extracts, and how many fixes it collected. The decimated
/// fixes stream straight into a poi::StayPointExtractor in one pass and are
/// never materialized. At interval_s <= 1 the app sees every fix.
struct CollectedStays {
  std::vector<poi::StayPoint> stays;
  std::size_t fixes = 0;
};
CollectedStays collected_stays(const std::vector<trace::TracePoint>& points,
                               std::int64_t interval_s,
                               const poi::ExtractionParams& extraction);

/// Builds the pattern histogram an app observing `points` at
/// `interval_s` would obtain: decimate, extract stay points, cluster, build.
PatternHistogram observed_histogram(const std::vector<trace::TracePoint>& points,
                                    Pattern pattern,
                                    const poi::ExtractionParams& extraction,
                                    const RegionGrid& grid, std::int64_t interval_s);

/// Sweeps prefix fractions of `points` (the app starts collecting at the
/// trace start) and reports the earliest fraction whose observed histogram
/// matches `profile`.
DetectionOutcome earliest_detection(const std::vector<trace::TracePoint>& points,
                                    const PatternHistogram& profile, Pattern pattern,
                                    const DetectionConfig& config);

/// Earliest prefix fraction at which the adversary *uniquely identifies*
/// the true user: the chi-square match set over all stored profiles is
/// exactly {true_user}. This is Figure 4's notion of risk detection — the
/// histogram acting as a quasi-identifier that "can be used to identify a
/// small anonymity set"; identification is the moment that set collapses
/// to one. Precondition: true_user < adversary.profile_count().
DetectionOutcome earliest_identification(const std::vector<trace::TracePoint>& points,
                                         const Adversary& adversary,
                                         std::size_t true_user, Pattern pattern,
                                         const DetectionConfig& config);

/// Combined detector per the paper's conclusion: alert as soon as *either*
/// pattern matches; returns the smaller detection fraction.
DetectionOutcome combined_detection(const std::vector<trace::TracePoint>& points,
                                    const PatternHistogram& visit_profile,
                                    const PatternHistogram& movement_profile,
                                    const DetectionConfig& config);

}  // namespace locpriv::privacy
