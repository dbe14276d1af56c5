#include "core/analyzer.hpp"

#include "util/expect.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace locpriv::core {

PrivacyAnalyzer::PrivacyAnalyzer(AnalyzerConfig config,
                                 std::vector<trace::UserTrace> users)
    : config_(config) {
  LOCPRIV_EXPECT(!users.empty());

  // Anchor the shared region grid at the dataset's bounding-box centre so
  // cell ids are small and identical for every user.
  geo::GeoBounds bounds;
  for (const auto& user : users)
    for (const auto& trajectory : user.trajectories)
      for (const auto& point : trajectory) bounds.extend(point.position);
  LOCPRIV_EXPECT(!bounds.empty());
  grid_ = std::make_unique<privacy::RegionGrid>(bounds.center(), config_.region_cell_m);

  // Per-user reference extraction is independent; run it data-parallel
  // into index-keyed slots (deterministic regardless of thread count).
  references_.resize(users.size());
  util::parallel_for(users.size(), [&](std::size_t u) {
    UserReference reference;
    reference.user_id = users[u].user_id;
    reference.points = users[u].flattened();
    // The flattened copy is all the analyzer keeps; free the per-trajectory
    // vectors now rather than hold every trace twice until the ctor returns.
    std::vector<trace::Trajectory>().swap(users[u].trajectories);
    LOCPRIV_EXPECT(!reference.points.empty());
    const auto stays = poi::extract_stay_points(reference.points, config_.extraction);
    reference.pois = poi::cluster_stay_points(stays, config_.extraction.radius_m);
    reference.visits = privacy::visit_histogram(reference.pois, *grid_);
    reference.movements = privacy::movement_histogram(reference.pois, *grid_);
    references_[u] = std::move(reference);
  });

  std::vector<privacy::UserProfileHistograms> profiles;
  profiles.reserve(users.size());
  for (const UserReference& reference : references_) {
    privacy::UserProfileHistograms profile;
    profile.user_id = reference.user_id;
    profile.visits = reference.visits;
    profile.movements = reference.movements;
    profiles.push_back(std::move(profile));
  }
  adversary_ = std::make_unique<privacy::Adversary>(std::move(profiles));
  LOCPRIV_LOG(kInfo, "core") << "analyzer ready: " << references_.size() << " users";
}

PrivacyAnalyzer PrivacyAnalyzer::from_synthetic(const AnalyzerConfig& config,
                                                const mobility::DatasetConfig& dataset) {
  mobility::SyntheticDataset synthetic = mobility::generate_dataset(dataset);
  return PrivacyAnalyzer(config, std::move(synthetic.users));
}

const UserReference& PrivacyAnalyzer::reference(std::size_t user) const {
  LOCPRIV_EXPECT(user < references_.size());
  return references_[user];
}

std::vector<poi::Poi> PrivacyAnalyzer::collected_pois(std::size_t user,
                                                      std::int64_t interval_s) const {
  return poi::cluster_stay_points(
      privacy::collected_stays(reference(user).points, interval_s, config_.extraction)
          .stays,
      config_.extraction.radius_m);
}

ExposureReport PrivacyAnalyzer::evaluate_exposure(std::size_t user,
                                                  std::int64_t interval_s) const {
  const UserReference& reference = this->reference(user);
  const privacy::CollectedStays collected =
      privacy::collected_stays(reference.points, interval_s, config_.extraction);
  return score(reference, interval_s, collected.stays, collected.fixes);
}

ExposureReport PrivacyAnalyzer::evaluate_collected(
    std::size_t user, std::int64_t interval_s,
    const std::vector<trace::TracePoint>& collected) const {
  return score(reference(user), interval_s,
               poi::extract_stay_points(collected, config_.extraction), collected.size());
}

ExposureReport PrivacyAnalyzer::score(const UserReference& reference,
                                      std::int64_t interval_s,
                                      const std::vector<poi::StayPoint>& stays,
                                      std::size_t collected_fixes) const {
  ExposureReport report;
  report.interval_s = interval_s;
  report.collected_fixes = collected_fixes;
  if (collected_fixes == 0) {
    // A fully degraded substrate observed nothing: every recovery metric is
    // zero and no histogram test is attempted.
    report.poi_total.reference_count = reference.pois.size();
    for (const auto& poi : reference.pois)
      if (poi.visit_count() <= 3) ++report.poi_sensitive.reference_count;
    return report;
  }
  const auto pois = poi::cluster_stay_points(stays, config_.extraction.radius_m);
  report.extracted_pois = pois.size();

  report.poi_total =
      privacy::poi_recovery(reference.pois, pois, config_.extraction.radius_m);
  report.poi_sensitive = privacy::sensitive_poi_recovery(
      reference.pois, pois, config_.extraction.radius_m, /*max_visits=*/3);

  const privacy::PatternHistogram observed_visits =
      privacy::visit_histogram(pois, *grid_);
  const privacy::PatternHistogram observed_movements =
      privacy::movement_histogram(pois, *grid_);

  const privacy::MatchResult visits_match =
      privacy::match_histograms(observed_visits, reference.visits, config_.match);
  const privacy::MatchResult movements_match =
      privacy::match_histograms(observed_movements, reference.movements, config_.match);
  report.hisbin_visits = visits_match.attempted && visits_match.matches;
  report.hisbin_movements = movements_match.attempted && movements_match.matches;

  if (!observed_visits.empty()) {
    report.anonymity_visits =
        adversary_
            ->identify(observed_visits, privacy::Pattern::kVisits, config_.match)
            .degree_of_anonymity;
  }
  if (!observed_movements.empty()) {
    report.anonymity_movements =
        adversary_
            ->identify(observed_movements, privacy::Pattern::kMovements, config_.match)
            .degree_of_anonymity;
  }
  return report;
}

privacy::DetectionOutcome PrivacyAnalyzer::earliest_detection(
    std::size_t user, privacy::Pattern pattern, std::int64_t interval_s) const {
  const UserReference& reference = this->reference(user);
  privacy::DetectionConfig detection(*grid_);
  detection.extraction = config_.extraction;
  detection.match = config_.match;
  detection.interval_s = interval_s;
  const privacy::PatternHistogram& profile =
      pattern == privacy::Pattern::kVisits ? reference.visits : reference.movements;
  return privacy::earliest_detection(reference.points, profile, pattern, detection);
}

privacy::DetectionOutcome PrivacyAnalyzer::earliest_identification(
    std::size_t user, privacy::Pattern pattern, std::int64_t interval_s) const {
  const UserReference& reference = this->reference(user);
  privacy::DetectionConfig detection(*grid_);
  detection.extraction = config_.extraction;
  detection.match = config_.match;
  detection.interval_s = interval_s;
  return privacy::earliest_identification(reference.points, *adversary_, user, pattern,
                                          detection);
}

}  // namespace locpriv::core
