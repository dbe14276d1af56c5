// PrivacyAnalyzer: the library's public façade.
//
// Wraps the full paper pipeline — ground-truth traces, reference PoI
// extraction, profile histograms, His_bin matching, adversary
// identification — behind one object, so applications can ask questions
// like "what does an app polling location every N seconds in background
// learn about user U?" in a few lines (see examples/quickstart.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mobility/synthesis.hpp"
#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "privacy/adversary.hpp"
#include "privacy/detection.hpp"
#include "privacy/matching.hpp"
#include "privacy/metrics.hpp"
#include "privacy/region.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::core {

/// Analyzer configuration.
struct AnalyzerConfig {
  poi::ExtractionParams extraction{};   ///< Paper's parameter set 1 by default.
  double region_cell_m = 250.0;         ///< Key space for pattern histograms.
  privacy::MatchParams match{};         ///< His_bin parameters (alpha = 0.05).
};

/// Everything derived from one user's full-rate trace.
struct UserReference {
  std::string user_id;
  std::vector<trace::TracePoint> points;  ///< Flattened full-rate trace.
  std::vector<poi::Poi> pois;             ///< Reference PoIs.
  privacy::PatternHistogram visits;       ///< Pattern-1 profile.
  privacy::PatternHistogram movements;    ///< Pattern-2 profile.
};

/// What an app observing one user at a fixed interval learns.
struct ExposureReport {
  std::int64_t interval_s = 0;
  std::size_t collected_fixes = 0;
  std::size_t extracted_pois = 0;
  privacy::PoiRecovery poi_total;        ///< vs the reference PoIs.
  privacy::PoiRecovery poi_sensitive;    ///< visits <= 3 (paper's headline).
  bool hisbin_visits = false;            ///< Pattern 1 His_bin.
  bool hisbin_movements = false;         ///< Pattern 2 His_bin.
  double anonymity_visits = 1.0;         ///< Deg_anonymity via pattern 1.
  double anonymity_movements = 1.0;      ///< Deg_anonymity via pattern 2.

  /// The paper's combined detector: breach if either pattern matched.
  bool breach_detected() const { return hisbin_visits || hisbin_movements; }
};

/// The analyzer. Construction precomputes every user's reference PoIs and
/// profile histograms; queries are then read-only and cheap to parallelise.
class PrivacyAnalyzer {
 public:
  /// Builds from arbitrary user traces (e.g. a real Geolife load). The
  /// region grid is anchored at the dataset's bounding-box centre.
  /// Precondition: users non-empty, each with at least one fix.
  PrivacyAnalyzer(AnalyzerConfig config, std::vector<trace::UserTrace> users);

  /// Convenience: generates the synthetic Geolife-like dataset and builds
  /// the analyzer over it.
  static PrivacyAnalyzer from_synthetic(const AnalyzerConfig& config,
                                        const mobility::DatasetConfig& dataset);

  std::size_t user_count() const { return references_.size(); }
  const UserReference& reference(std::size_t user) const;
  const privacy::RegionGrid& grid() const { return *grid_; }
  const AnalyzerConfig& config() const { return config_; }

  /// The adversary holding every user's profile (both patterns).
  const privacy::Adversary& adversary() const { return *adversary_; }

  /// Evaluates the exposure of user `user` to an app polling every
  /// `interval_s` seconds from the start of the trace.
  ExposureReport evaluate_exposure(std::size_t user, std::int64_t interval_s) const;

  /// Evaluates exposure from an externally collected observation of `user`
  /// (e.g. fixes delivered through the simulated framework under fault
  /// injection) instead of the analytical decimation model. `collected` may
  /// be sparse, gappy, or empty — an unreliable substrate can deliver
  /// nothing at all, which scores as zero exposure rather than erroring.
  /// Precondition: `collected` in non-decreasing time order.
  ExposureReport evaluate_collected(std::size_t user, std::int64_t interval_s,
                                    const std::vector<trace::TracePoint>& collected) const;

  /// Earliest prefix fraction at which His_bin fires against the user's own
  /// profile (paper Figure 4(a)); `pattern` selects the representation.
  privacy::DetectionOutcome earliest_detection(std::size_t user,
                                               privacy::Pattern pattern,
                                               std::int64_t interval_s) const;

  /// Earliest prefix fraction at which the adversary uniquely identifies
  /// `user` among all stored profiles (paper Figure 4's risk detection).
  privacy::DetectionOutcome earliest_identification(std::size_t user,
                                                    privacy::Pattern pattern,
                                                    std::int64_t interval_s) const;

  /// The PoIs an app collecting at `interval_s` extracts for `user`.
  std::vector<poi::Poi> collected_pois(std::size_t user, std::int64_t interval_s) const;

 private:
  /// Everything an exposure report holds, scored from the stays an app
  /// extracted out of `collected_fixes` collected fixes.
  ExposureReport score(const UserReference& reference, std::int64_t interval_s,
                       const std::vector<poi::StayPoint>& stays,
                       std::size_t collected_fixes) const;

  AnalyzerConfig config_;
  std::vector<UserReference> references_;
  std::unique_ptr<privacy::RegionGrid> grid_;
  std::unique_ptr<privacy::Adversary> adversary_;
};

}  // namespace locpriv::core
