#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <string>

#include "geo/geodesy.hpp"
#include "poi/clustering.hpp"
#include "poi/staypoint.hpp"
#include "stats/rng.hpp"
#include "util/expect.hpp"

namespace locpriv::poi {
namespace {

const geo::LatLon kAnchor{39.9042, 116.4074};

// Builds a synthetic fix stream: travel to a place, dwell, travel away.
// Returns the stream and (via out-params) the dwell bounds.
std::vector<trace::TracePoint> make_stay_trace(double dwell_minutes,
                                               double travel_speed_mps = 1.5,
                                               double noise_m = 0.0,
                                               std::uint64_t seed = 1) {
  stats::Rng rng(seed);
  std::vector<trace::TracePoint> points;
  std::int64_t t = 0;
  // Approach leg: 600 m walk toward the anchor from the west.
  for (double travelled = 0.0; travelled < 600.0; travelled += travel_speed_mps * 3) {
    geo::LatLon p = geo::destination(kAnchor, 270.0, 600.0 - travelled);
    if (noise_m > 0.0) p = geo::destination(p, rng.uniform(0.0, 360.0),
                                            std::abs(rng.normal(0.0, noise_m)));
    points.push_back({p, t});
    t += 3;
  }
  // Dwell at the anchor.
  const auto dwell_end = t + static_cast<std::int64_t>(dwell_minutes * 60.0);
  while (t < dwell_end) {
    geo::LatLon p = kAnchor;
    if (noise_m > 0.0) p = geo::destination(p, rng.uniform(0.0, 360.0),
                                            std::abs(rng.normal(0.0, noise_m)));
    points.push_back({p, t});
    t += 3;
  }
  // Departure leg: 600 m walk east.
  for (double travelled = 0.0; travelled < 600.0; travelled += travel_speed_mps * 3) {
    geo::LatLon p = geo::destination(kAnchor, 90.0, travelled);
    if (noise_m > 0.0) p = geo::destination(p, rng.uniform(0.0, 360.0),
                                            std::abs(rng.normal(0.0, noise_m)));
    points.push_back({p, t});
    t += 3;
  }
  return points;
}

TEST(StayPointExtraction, FindsSingleStay) {
  const auto points = make_stay_trace(/*dwell_minutes=*/20.0);
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_LT(geo::haversine_m(stays[0].centroid, kAnchor), 25.0);
  EXPECT_GE(stays[0].duration_s(), 18 * 60);
  EXPECT_LE(stays[0].duration_s(), 22 * 60);
}

TEST(StayPointExtraction, RobustToGpsNoise) {
  const auto points = make_stay_trace(20.0, 1.5, /*noise_m=*/5.0);
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_LT(geo::haversine_m(stays[0].centroid, kAnchor), 30.0);
}

TEST(StayPointExtraction, ShortStayBelowVisitingTimeIsDropped) {
  const auto points = make_stay_trace(/*dwell_minutes=*/5.0);
  EXPECT_TRUE(extract_stay_points(points, ExtractionParams{}).empty());
}

TEST(StayPointExtraction, ContinuousMovementYieldsNoStay) {
  // A long steady drive: no stay should survive the visiting-time filter.
  std::vector<trace::TracePoint> points;
  std::int64_t t = 0;
  for (double travelled = 0.0; travelled < 20000.0; travelled += 9.0 * 3) {
    points.push_back({geo::destination(kAnchor, 45.0, travelled), t});
    t += 3;
  }
  EXPECT_TRUE(extract_stay_points(points, ExtractionParams{}).empty());
}

TEST(StayPointExtraction, EmptyAndTinyInputs) {
  EXPECT_TRUE(extract_stay_points({}, ExtractionParams{}).empty());
  std::vector<trace::TracePoint> two{{kAnchor, 0}, {kAnchor, 10}};
  EXPECT_TRUE(extract_stay_points(two, ExtractionParams{}).empty());
}

TEST(StayPointExtraction, StayOpenAtEndOfStreamIsClosed) {
  // Approach then dwell until the stream ends (no departure).
  auto points = make_stay_trace(20.0);
  // Chop off the departure leg: keep points within 60 m of the anchor tail.
  while (!points.empty() &&
         geo::haversine_m(points.back().position, kAnchor) > 60.0)
    points.pop_back();
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_GE(stays[0].duration_s(), 15 * 60);
}

TEST(StayPointExtraction, BackToBackStaysBothFound) {
  // Two dwells 700 m apart joined by a walk.
  auto points = make_stay_trace(15.0);
  const std::int64_t t0 = points.back().timestamp_s + 3;
  const geo::LatLon second = geo::destination(kAnchor, 90.0, 700.0);
  std::int64_t t = t0;
  for (double travelled = 600.0; travelled < 700.0; travelled += 4.5) {
    points.push_back({geo::destination(kAnchor, 90.0, travelled), t});
    t += 3;
  }
  const std::int64_t dwell_end = t + 15 * 60;
  while (t < dwell_end) {
    points.push_back({second, t});
    t += 3;
  }
  for (double travelled = 0.0; travelled < 400.0; travelled += 4.5) {
    points.push_back({geo::destination(second, 0.0, travelled), t});
    t += 3;
  }
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 2u);
  EXPECT_LT(geo::haversine_m(stays[0].centroid, kAnchor), 30.0);
  EXPECT_LT(geo::haversine_m(stays[1].centroid, second), 30.0);
  EXPECT_LT(stays[0].exit_s, stays[1].enter_s);
}

TEST(StayPointExtraction, SparseDecimatedStayStillFound) {
  // Fixes every 240 s during a 4 h stay (heavy decimation): the 4-fix
  // window must still detect it.
  std::vector<trace::TracePoint> points;
  std::int64_t t = 0;
  // Two travel fixes far away (approaching).
  points.push_back({geo::destination(kAnchor, 270.0, 5000.0), t});
  t += 240;
  points.push_back({geo::destination(kAnchor, 270.0, 2500.0), t});
  t += 240;
  for (int i = 0; i < 60; ++i) {
    points.push_back({kAnchor, t});
    t += 240;
  }
  points.push_back({geo::destination(kAnchor, 90.0, 2500.0), t});
  const auto stays = extract_stay_points(points, ExtractionParams{});
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_GT(stays[0].duration_s(), 3 * 3600);
}

TEST(StayPointExtraction, Preconditions) {
  std::vector<trace::TracePoint> points{{kAnchor, 0}};
  ExtractionParams params;
  params.radius_m = 0.0;
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
  params = {};
  params.min_visit_s = 0;
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
  params = {};
  params.window_fixes = 5;  // Odd.
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
  params.window_fixes = 2;  // Too small.
  EXPECT_THROW(extract_stay_points(points, params), util::ContractViolation);
}

TEST(StayPointExtraction, Table3ParameterSets) {
  const auto sets = table3_parameter_sets();
  ASSERT_EQ(sets.size(), 6u);
  EXPECT_DOUBLE_EQ(sets[0].radius_m, 50.0);
  EXPECT_EQ(sets[0].min_visit_s, 600);
  EXPECT_EQ(sets[2].min_visit_s, 1800);
  EXPECT_DOUBLE_EQ(sets[3].radius_m, 100.0);
  EXPECT_EQ(sets[5].min_visit_s, 1800);
}

class VisitingTimeSweep : public ::testing::TestWithParam<int> {};

TEST_P(VisitingTimeSweep, LongerVisitingTimeNeverFindsMore) {
  // Property (paper Figure 2): the number of extracted stays is
  // non-increasing in the visiting-time threshold.
  const auto points = make_stay_trace(25.0, 1.5, 3.0, 7);
  ExtractionParams strict;
  strict.min_visit_s = GetParam() * 60;
  ExtractionParams loose;
  loose.min_visit_s = std::max<std::int64_t>(60, strict.min_visit_s / 2);
  EXPECT_LE(extract_stay_points(points, strict).size(),
            extract_stay_points(points, loose).size());
}

INSTANTIATE_TEST_SUITE_P(Minutes, VisitingTimeSweep, ::testing::Values(10, 20, 30, 60));

// The deque-window extractor as it stood before StayPointExtractor, frozen
// here as the oracle the push-driven state machine must reproduce bit for
// bit (same centroid summation order, same `<` / `>` decisions).
std::vector<StayPoint> deque_extractor_oracle(const std::vector<trace::TracePoint>& points,
                                              const ExtractionParams& params) {
  struct Accumulator {
    double lat = 0.0;
    double lon = 0.0;
    std::size_t count = 0;
    void add(const geo::LatLon& p) {
      lat += p.lat_deg;
      lon += p.lon_deg;
      ++count;
    }
    geo::LatLon centroid() const {
      const auto n = static_cast<double>(count);
      return {lat / n, lon / n};
    }
  };
  const auto centroid_of = [](const std::deque<trace::TracePoint>& window,
                              std::size_t begin) {
    Accumulator acc;
    for (std::size_t i = begin; i < window.size(); ++i) acc.add(window[i].position);
    return acc.centroid();
  };
  const std::size_t window_size = params.window_fixes;
  const std::size_t half = window_size / 2;
  std::vector<StayPoint> stays;
  std::deque<trace::TracePoint> window;
  bool inside = false;
  Accumulator stay;
  std::int64_t enter_s = 0;
  std::int64_t last_s = 0;
  const auto attribute = [&](const trace::TracePoint& point) {
    stay.add(point.position);
    last_s = point.timestamp_s;
  };
  const auto close_stay = [&](bool consume_overlap) {
    const std::size_t overlap =
        consume_overlap ? std::min(half, window.size()) : window.size();
    for (std::size_t i = 0; i < overlap; ++i) {
      attribute(window.front());
      window.pop_front();
    }
    if (last_s - enter_s >= params.min_visit_s && stay.count > 0)
      stays.push_back({stay.centroid(), enter_s, last_s, stay.count});
    stay = Accumulator();
    inside = false;
  };
  for (const auto& point : points) {
    window.push_back(point);
    if (!inside) {
      if (window.size() > window_size) window.pop_front();
      if (window.size() < window_size) continue;
      if (geo::equirectangular_m(centroid_of(window, 0), centroid_of(window, half)) <
          params.radius_m) {
        inside = true;
        enter_s = window[half].timestamp_s;
        for (std::size_t i = half; i < window.size(); ++i) attribute(window[i]);
        window.clear();
      }
    } else {
      while (window.size() > window_size) {
        attribute(window.front());
        window.pop_front();
      }
      if (window.size() < window_size) continue;
      if (geo::equirectangular_m(stay.centroid(), centroid_of(window, 0)) > params.radius_m)
        close_stay(true);
    }
  }
  if (inside) close_stay(false);
  return stays;
}

// Dwells (jittered fixes around a centre, some jitter near the radius) and
// legs of travel in random order, with time steps of 0..30 s so duplicate
// timestamps occur. `end_in_dwell` makes the last segment a long dwell.
std::vector<trace::TracePoint> random_trace(stats::Rng& rng, std::size_t segments,
                                            bool end_in_dwell) {
  std::vector<trace::TracePoint> points;
  geo::LatLon at = geo::destination(kAnchor, rng.uniform(0.0, 360.0), rng.uniform(0.0, 5e3));
  std::int64_t t = rng.uniform_int(0, 1'000'000);
  for (std::size_t s = 0; s < segments; ++s) {
    const bool last = s + 1 == segments;
    if ((last && end_in_dwell) || rng.bernoulli(0.5)) {
      const double jitter_m = rng.uniform(1.0, 60.0);
      const auto fixes = rng.uniform_int(1, last && end_in_dwell ? 300 : 150);
      for (std::int64_t k = 0; k < fixes; ++k) {
        points.push_back({geo::destination(at, rng.uniform(0.0, 360.0),
                                           std::abs(rng.normal(0.0, jitter_m))),
                          t});
        t += rng.uniform_int(0, 30);
      }
    } else {
      const double bearing = rng.uniform(0.0, 360.0);
      const double speed_mps = rng.uniform(0.5, 15.0);
      const auto fixes = rng.uniform_int(1, 80);
      for (std::int64_t k = 0; k < fixes; ++k) {
        const std::int64_t dt = rng.uniform_int(0, 20);
        at = geo::destination(at, bearing, speed_mps * static_cast<double>(dt));
        t += dt;
        points.push_back({at, t});
      }
    }
  }
  return points;
}

void expect_same_stays(const std::vector<StayPoint>& actual,
                       const std::vector<StayPoint>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].centroid.lat_deg, expected[i].centroid.lat_deg) << i;
    EXPECT_EQ(actual[i].centroid.lon_deg, expected[i].centroid.lon_deg) << i;
    EXPECT_EQ(actual[i].enter_s, expected[i].enter_s) << i;
    EXPECT_EQ(actual[i].exit_s, expected[i].exit_s) << i;
    EXPECT_EQ(actual[i].fix_count, expected[i].fix_count) << i;
  }
}

TEST(StayPointExtractor, MatchesTheDequeOracleOnRandomTraces) {
  stats::Rng rng(20170605);
  std::size_t stays_seen = 0;
  std::size_t open_at_end = 0;
  for (int trial = 0; trial < 240; ++trial) {
    ExtractionParams params;
    params.window_fixes = static_cast<std::size_t>(2 * rng.uniform_int(2, 5));  // 4..10
    params.radius_m = rng.uniform(20.0, 120.0);
    params.min_visit_s = rng.uniform_int(30, 900);
    // Every tenth trial is shorter than the window (including empty).
    const auto points =
        trial % 10 == 0
            ? random_trace(rng, 1, false)
            : random_trace(rng, static_cast<std::size_t>(rng.uniform_int(1, 12)),
                           trial % 3 == 0);
    std::vector<trace::TracePoint> stream = points;
    if (trial % 10 == 0)
      stream.resize(std::min(stream.size(), static_cast<std::size_t>(trial / 10) %
                                                params.window_fixes));
    SCOPED_TRACE("trial " + std::to_string(trial));

    const auto oracle = deque_extractor_oracle(stream, params);
    expect_same_stays(extract_stay_points(stream, params), oracle);

    StayPointExtractor extractor(params);
    for (const auto& point : stream) extractor.push(point);
    const auto pushed = extractor.finish();
    expect_same_stays(pushed, oracle);
    // finish() leaves the extractor ready for a new stream.
    for (const auto& point : stream) extractor.push(point);
    expect_same_stays(extractor.finish(), oracle);

    stays_seen += oracle.size();
    if (!oracle.empty() && !stream.empty() &&
        oracle.back().exit_s == stream.back().timestamp_s)
      ++open_at_end;
  }
  // The corpus exercised real stays, including ones closed by end of stream.
  EXPECT_GT(stays_seen, 100u);
  EXPECT_GT(open_at_end, 5u);
}

TEST(StayPointExtractor, MatchesTheOracleOnBackToBackStays) {
  // Two dwells 700 m apart joined by a short walk, then a departure: the
  // departure half of the first exit window seeds the second entry window.
  auto points = make_stay_trace(15.0, 1.5, /*noise_m=*/4.0, /*seed=*/7);
  const geo::LatLon second = geo::destination(kAnchor, 90.0, 700.0);
  std::int64_t t = points.back().timestamp_s + 3;
  for (int k = 0; k < 300; ++k, t += 3) points.push_back({second, t});
  for (const std::size_t window : {4u, 6u, 8u, 10u}) {
    ExtractionParams params;
    params.window_fixes = window;
    const auto oracle = deque_extractor_oracle(points, params);
    ASSERT_EQ(oracle.size(), 2u) << window;
    expect_same_stays(extract_stay_points(points, params), oracle);
  }
}

TEST(StayPointExtractor, EmptyStreamAndPreconditions) {
  StayPointExtractor extractor{ExtractionParams{}};
  EXPECT_TRUE(extractor.finish().empty());
  ExtractionParams odd;
  odd.window_fixes = 5;
  EXPECT_THROW(StayPointExtractor{odd}, util::ContractViolation);
}

TEST(AnchorExtraction, AgreesOnCleanStay) {
  const auto points = make_stay_trace(20.0);
  const auto buffered = extract_stay_points(points, ExtractionParams{});
  const auto anchored = extract_stay_points_anchor(points, ExtractionParams{});
  ASSERT_EQ(buffered.size(), 1u);
  ASSERT_EQ(anchored.size(), 1u);
  EXPECT_LT(geo::haversine_m(buffered[0].centroid, anchored[0].centroid), 40.0);
}

TEST(AnchorExtraction, EmptyInput) {
  EXPECT_TRUE(extract_stay_points_anchor({}, ExtractionParams{}).empty());
}

TEST(Clustering, MergesNearbyStaysAcrossDays) {
  std::vector<StayPoint> stays;
  for (int day = 0; day < 3; ++day) {
    StayPoint stay;
    stay.centroid = geo::destination(kAnchor, 90.0, day * 10.0);  // Within 50 m.
    stay.enter_s = day * 86400;
    stay.exit_s = day * 86400 + 1200;
    stays.push_back(stay);
  }
  StayPoint far;
  far.centroid = geo::destination(kAnchor, 90.0, 900.0);
  far.enter_s = 3 * 86400;
  far.exit_s = 3 * 86400 + 1200;
  stays.push_back(far);

  const auto pois = cluster_stay_points(stays, 50.0);
  ASSERT_EQ(pois.size(), 2u);
  EXPECT_EQ(pois[0].visit_count(), 3u);
  EXPECT_EQ(pois[1].visit_count(), 1u);
  EXPECT_EQ(pois[0].id, 0);
  EXPECT_EQ(pois[1].id, 1);
}

TEST(Clustering, CentroidIsVisitWeightedMean) {
  std::vector<StayPoint> stays;
  StayPoint a;
  a.centroid = kAnchor;
  a.enter_s = 0;
  a.exit_s = 600;
  StayPoint b;
  b.centroid = geo::destination(kAnchor, 90.0, 30.0);
  b.enter_s = 1000;
  b.exit_s = 1600;
  stays = {a, b};
  const auto pois = cluster_stay_points(stays, 50.0);
  ASSERT_EQ(pois.size(), 1u);
  EXPECT_NEAR(geo::haversine_m(pois[0].centroid, kAnchor), 15.0, 1.0);
}

TEST(Clustering, EmptyInputAndPreconditions) {
  EXPECT_TRUE(cluster_stay_points({}, 50.0).empty());
  EXPECT_THROW(cluster_stay_points({}, 0.0), util::ContractViolation);
}

TEST(SensitivePois, FiltersByVisitCount) {
  std::vector<StayPoint> stays;
  // Five visits to one place, one visit to another.
  for (int i = 0; i < 5; ++i) {
    StayPoint stay;
    stay.centroid = kAnchor;
    stay.enter_s = i * 10000;
    stay.exit_s = i * 10000 + 1200;
    stays.push_back(stay);
  }
  StayPoint rare;
  rare.centroid = geo::destination(kAnchor, 0.0, 1000.0);
  rare.enter_s = 90000;
  rare.exit_s = 91200;
  stays.push_back(rare);

  const auto pois = cluster_stay_points(stays, 50.0);
  const auto sensitive = sensitive_pois(pois, 3);
  ASSERT_EQ(sensitive.size(), 1u);
  EXPECT_EQ(sensitive[0].visit_count(), 1u);
  EXPECT_THROW(sensitive_pois(pois, 0), util::ContractViolation);
}

TEST(VisitSequence, ChronologicalWithCollapsedRepeats) {
  std::vector<StayPoint> stays;
  const geo::LatLon home = kAnchor;
  const geo::LatLon work = geo::destination(kAnchor, 90.0, 2000.0);
  // home(0) -> work(1) -> work(again, two stays same place) -> home.
  const geo::LatLon places[] = {home, work, work, home};
  std::int64_t t = 0;
  for (const auto& place : places) {
    StayPoint stay;
    stay.centroid = place;
    stay.enter_s = t;
    stay.exit_s = t + 1200;
    stays.push_back(stay);
    t += 10000;
  }
  const auto pois = cluster_stay_points(stays, 50.0);
  const auto sequence = visit_sequence(pois);
  // Consecutive repeats collapse: home, work, home.
  ASSERT_EQ(sequence.size(), 3u);
  EXPECT_EQ(sequence[0], sequence[2]);
  EXPECT_NE(sequence[0], sequence[1]);
}

}  // namespace
}  // namespace locpriv::poi
