#include "privacy/matching.hpp"

#include <vector>

#include "util/expect.hpp"

namespace locpriv::privacy {

namespace {

using KeyCounts = std::vector<std::pair<std::int64_t, double>>;

// True when the two ascending key lists have a key in common.
bool shares_a_key(const KeyCounts& a, const KeyCounts& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->first < j->first) ++i;
    else if (j->first < i->first) ++j;
    else return true;
  }
  return false;
}

}  // namespace

MatchResult match_histograms(const PatternHistogram& observed,
                             const PatternHistogram& profile,
                             const MatchParams& params) {
  LOCPRIV_EXPECT(params.alpha > 0.0 && params.alpha < 1.0);
  LOCPRIV_EXPECT(params.unseen_key_pseudo_count >= 0.0);

  MatchResult result;
  if (observed.total() < params.min_observed_total) return result;
  if (profile.empty()) return result;

  const auto& profile_by_key = profile.counts();
  const auto& observed_by_key = observed.counts();

  // With no pseudo-counts an observed histogram fully disjoint from the
  // profile's key space is a definitive non-match, not a test. Most of the
  // profiles an adversary tries are; settle them before allocating.
  if (params.unseen_key_pseudo_count <= 0.0 &&
      !shares_a_key(profile_by_key, observed_by_key))
    return result;

  // Category space: union of profile keys and observed keys. Profile keys
  // carry their profile counts as expected mass; observed-only keys carry a
  // small pseudo-count so unexpected places/movements penalise the fit.
  // Both key lists are ascending, so one merge-join walks each once.
  std::vector<double> observed_counts;
  std::vector<double> expected_counts;
  observed_counts.reserve(profile_by_key.size() + observed_by_key.size());
  expected_counts.reserve(observed_counts.capacity());

  auto seen = observed_by_key.begin();
  for (const auto& [key, expected] : profile_by_key) {
    while (seen != observed_by_key.end() && seen->first < key) ++seen;
    const bool hit = seen != observed_by_key.end() && seen->first == key;
    observed_counts.push_back(hit ? seen->second : 0.0);
    expected_counts.push_back(expected);
  }
  if (params.unseen_key_pseudo_count > 0.0) {
    auto known = profile_by_key.begin();
    for (const auto& [key, count] : observed_by_key) {
      while (known != profile_by_key.end() && known->first < key) ++known;
      if (known != profile_by_key.end() && known->first == key) continue;
      observed_counts.push_back(count);
      expected_counts.push_back(params.unseen_key_pseudo_count);
    }
  }
  if (observed_counts.size() < 2) return result;

  // An observation with no mass in the category space (an empty one, where
  // min_observed_total allows it) is no test either.
  double observed_overlap = 0.0;
  for (const double count : observed_counts) observed_overlap += count;
  if (observed_overlap <= 0.0) return result;

  if (params.test == MatchTest::kKolmogorovSmirnov) {
    result.ks = stats::ks_two_sample(observed_counts, expected_counts);
    result.attempted = true;
    result.matches = result.ks.p_value >= params.alpha;
    return result;
  }

  result.chi = stats::pearson_goodness_of_fit(observed_counts, expected_counts);
  result.attempted = true;
  // His_bin = 1 when the fit cannot be rejected (upper tail) / when the
  // paper-literal lower-tail p-value clears alpha. See header for why the
  // upper tail is the default.
  result.matches = result.chi.p_value(params.tail) >= params.alpha;
  return result;
}

}  // namespace locpriv::privacy
