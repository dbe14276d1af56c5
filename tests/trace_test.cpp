#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "geo/geodesy.hpp"
#include "stats/rng.hpp"
#include "trace/geolife.hpp"
#include "trace/sampling.hpp"
#include "trace/trace_stats.hpp"
#include "trace/trajectory.hpp"
#include "util/expect.hpp"

namespace locpriv::trace {
namespace {

TracePoint point_at(std::int64_t t, double lat = 39.9, double lon = 116.4) {
  return {{lat, lon}, t};
}

TEST(Trajectory, AppendEnforcesTimeOrder) {
  Trajectory trajectory;
  trajectory.append(point_at(10));
  trajectory.append(point_at(10));  // Equal timestamps allowed.
  trajectory.append(point_at(11));
  EXPECT_EQ(trajectory.size(), 3u);
  EXPECT_THROW(trajectory.append(point_at(5)), util::ContractViolation);
}

TEST(Trajectory, ConstructorValidatesOrder) {
  EXPECT_THROW(Trajectory({point_at(5), point_at(3)}), util::ContractViolation);
  EXPECT_NO_THROW(Trajectory({point_at(1), point_at(2)}));
}

TEST(Trajectory, DurationAndLength) {
  Trajectory trajectory;
  EXPECT_EQ(trajectory.duration_s(), 0);
  trajectory.append(point_at(100, 39.9, 116.4));
  trajectory.append(point_at(200, 39.9, 116.41));
  EXPECT_EQ(trajectory.duration_s(), 100);
  EXPECT_NEAR(trajectory.length_m(),
              geo::haversine_m({39.9, 116.4}, {39.9, 116.41}), 1e-9);
}

TEST(Trajectory, SplitOnGaps) {
  Trajectory trajectory({point_at(0), point_at(5), point_at(100), point_at(104),
                         point_at(300)});
  const auto segments = trajectory.split_on_gaps(30);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].size(), 2u);
  EXPECT_EQ(segments[1].size(), 2u);
  EXPECT_EQ(segments[2].size(), 1u);
  EXPECT_THROW(trajectory.split_on_gaps(0), util::ContractViolation);
}

TEST(UserTrace, FlattenAndCount) {
  UserTrace user;
  user.user_id = "007";
  user.trajectories.push_back(Trajectory({point_at(0), point_at(10)}));
  user.trajectories.push_back(Trajectory({point_at(20), point_at(30)}));
  EXPECT_EQ(user.total_points(), 4u);
  const auto flat = user.flattened();
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat.front().timestamp_s, 0);
  EXPECT_EQ(flat.back().timestamp_s, 30);
}

TEST(Geolife, TimestampConversionsRoundTrip) {
  // 2008-10-24 02:09:59 UTC from the Geolife user guide example.
  const std::int64_t unix_s = plt_days_to_unix_s(39745.0902662037);
  EXPECT_NEAR(static_cast<double>(unix_s), 1224814199.0, 1.0);
  EXPECT_NEAR(unix_s_to_plt_days(unix_s), 39745.0902662037, 1e-7);
}

TEST(Geolife, ParsesCanonicalPlt) {
  const std::string text =
      "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
      "0,2,255,My Track,0,0,2,8421376\n2\n"
      "39.906631,116.385564,0,492,39745.0902662037,2008-10-24,02:09:59\n"
      "39.906554,116.385625,0,492,39745.0903240741,2008-10-24,02:10:04\n";
  const Trajectory trajectory = parse_plt(text);
  ASSERT_EQ(trajectory.size(), 2u);
  EXPECT_NEAR(trajectory[0].position.lat_deg, 39.906631, 1e-9);
  EXPECT_NEAR(trajectory[0].position.lon_deg, 116.385564, 1e-9);
  EXPECT_EQ(trajectory[1].timestamp_s - trajectory[0].timestamp_s, 5);
}

TEST(Geolife, RejectsMalformedRecords) {
  const std::string header =
      "h1\nh2\nh3\nh4\nh5\nh6\n";
  EXPECT_THROW(parse_plt(header + "not,enough\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "abc,116.4,0,0,39745.0\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "95.0,116.4,0,0,39745.0\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "39.9,200.0,0,0,39745.0\n"), std::runtime_error);
  EXPECT_THROW(parse_plt(header + "39.9,116.4,0,0,xyz\n"), std::runtime_error);
}

TEST(Geolife, WriteParseRoundTrip) {
  Trajectory original;
  original.append({{39.906631, 116.385564}, 1224814199});
  original.append({{39.984702, 116.318417}, 1224814210});
  const Trajectory parsed = parse_plt(write_plt(original));
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_NEAR(parsed[i].position.lat_deg, original[i].position.lat_deg, 1e-6);
    EXPECT_NEAR(parsed[i].position.lon_deg, original[i].position.lon_deg, 1e-6);
    EXPECT_EQ(parsed[i].timestamp_s, original[i].timestamp_s);
  }
}

TEST(Geolife, DatasetRoundTripThroughFilesystem) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "locpriv_geolife_test";
  std::filesystem::remove_all(root);

  std::vector<UserTrace> users(2);
  users[0].user_id = "000";
  users[0].trajectories.push_back(
      Trajectory({{{39.90, 116.40}, 1224814000}, {{39.91, 116.41}, 1224814060}}));
  users[0].trajectories.push_back(
      Trajectory({{{39.92, 116.42}, 1224900000}, {{39.93, 116.43}, 1224900060}}));
  users[1].user_id = "001";
  users[1].trajectories.push_back(
      Trajectory({{{40.00, 116.30}, 1224814000}}));

  write_geolife_dataset(root, users);
  const auto loaded = read_geolife_dataset(root);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].user_id, "000");
  EXPECT_EQ(loaded[0].trajectories.size(), 2u);
  EXPECT_EQ(loaded[1].trajectories.size(), 1u);
  EXPECT_EQ(loaded[0].total_points(), 4u);
  EXPECT_NEAR(loaded[0].trajectories[0][0].position.lat_deg, 39.90, 1e-6);

  std::filesystem::remove_all(root);
}

TEST(Geolife, ReadMissingRootThrows) {
  EXPECT_THROW(read_geolife_dataset("/nonexistent/geolife/root"),
               std::runtime_error);
}

TEST(Decimate, KeepsFirstThenRespectsInterval) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t <= 100; ++t) points.push_back(point_at(t));
  const auto sampled = decimate(points, 10);
  ASSERT_EQ(sampled.size(), 11u);
  for (std::size_t i = 1; i < sampled.size(); ++i)
    EXPECT_GE(sampled[i].timestamp_s - sampled[i - 1].timestamp_s, 10);
  EXPECT_EQ(sampled.front().timestamp_s, 0);
}

TEST(Decimate, IntervalOneKeepsOneHertzTrace) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t < 50; ++t) points.push_back(point_at(t));
  EXPECT_EQ(decimate(points, 1).size(), 50u);
}

TEST(Decimate, SparseInputPassesThrough) {
  // If the trace is already sparser than the interval, every fix is kept.
  std::vector<TracePoint> points{point_at(0), point_at(500), point_at(1200)};
  EXPECT_EQ(decimate(points, 100).size(), 3u);
}

TEST(Decimate, EmptyAndPreconditions) {
  EXPECT_TRUE(decimate({}, 10).empty());
  std::vector<TracePoint> points{point_at(0)};
  EXPECT_THROW(decimate(points, 0), util::ContractViolation);
}

TEST(ForEachDecimated, MatchesTheLinearRuleOnNonMonotonicInput) {
  // The decimation rule as it stood before for_each_decimated, frozen here:
  // a linear pass that skips any fix earlier than the next due time.
  const auto oracle = [](const std::vector<TracePoint>& points, std::int64_t interval_s,
                         std::int64_t start_s) {
    std::vector<TracePoint> out;
    std::int64_t next_due = start_s;
    for (const auto& point : points) {
      if (point.timestamp_s < next_due) continue;
      out.push_back(point);
      next_due = point.timestamp_s + interval_s;
    }
    return out;
  };
  stats::Rng rng(1812);
  for (int trial = 0; trial < 200; ++trial) {
    // Time jumps backwards as well as forwards, and repeats.
    std::vector<TracePoint> points;
    std::int64_t t = rng.uniform_int(-1000, 1000);
    const auto n = rng.uniform_int(0, 400);
    for (std::int64_t i = 0; i < n; ++i) {
      t += rng.uniform_int(-40, 60);
      points.push_back(point_at(t, 39.9 + 1e-4 * static_cast<double>(i)));
    }
    const std::int64_t interval = rng.uniform_int(1, 120);
    const std::int64_t start = rng.uniform_int(-1500, 1500);
    std::vector<TracePoint> visited;
    for_each_decimated(points, interval, start,
                       [&](const TracePoint& point) { visited.push_back(point); });
    const auto expected = oracle(points, interval, start);
    EXPECT_EQ(visited, expected) << "trial " << trial;
    EXPECT_EQ(decimate(points, interval, start), expected) << "trial " << trial;
  }
  EXPECT_THROW(for_each_decimated({point_at(0)}, 0, 0, [](const TracePoint&) {}),
               util::ContractViolation);
}

class DecimateIntervalTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DecimateIntervalTest, CountShrinksMonotonically) {
  // Property: a longer interval never yields more fixes.
  std::vector<TracePoint> points;
  stats::Rng rng(99);
  std::int64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.uniform_int(1, 5);
    points.push_back(point_at(t));
  }
  const std::int64_t interval = GetParam();
  const auto coarse = decimate(points, interval);
  const auto fine = decimate(points, std::max<std::int64_t>(1, interval / 2));
  EXPECT_LE(coarse.size(), fine.size());
  // And the decimated trace is a subsequence: strictly increasing times.
  for (std::size_t i = 1; i < coarse.size(); ++i)
    EXPECT_GT(coarse[i].timestamp_s, coarse[i - 1].timestamp_s);
}

INSTANTIATE_TEST_SUITE_P(Ladder, DecimateIntervalTest,
                         ::testing::Values(2, 10, 60, 600, 3600, 7200));

TEST(TakePrefixFraction, BoundaryBehaviour) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t < 10; ++t) points.push_back(point_at(t));
  EXPECT_TRUE(take_prefix_fraction(points, 0.0).empty());
  EXPECT_EQ(take_prefix_fraction(points, 1.0).size(), 10u);
  EXPECT_EQ(take_prefix_fraction(points, 0.35).size(), 4u);  // Rounded.
  EXPECT_THROW(take_prefix_fraction(points, 1.5), util::ContractViolation);
}

TEST(FromRandomOffset, SuffixOfOriginal) {
  std::vector<TracePoint> points;
  for (std::int64_t t = 0; t < 100; ++t) points.push_back(point_at(t));
  stats::Rng rng(4);
  const auto suffix = from_random_offset(points, rng);
  ASSERT_FALSE(suffix.empty());
  EXPECT_EQ(suffix.back().timestamp_s, 99);
  EXPECT_EQ(suffix.front().timestamp_s,
            static_cast<std::int64_t>(100 - suffix.size()));
}

TEST(AddGaussianNoise, PerturbsWithinExpectedScale) {
  std::vector<TracePoint> points(200, point_at(0));
  stats::Rng rng(8);
  const auto noisy = add_gaussian_noise(points, 5.0, rng);
  double total = 0.0;
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    const double d = geo::haversine_m(points[i].position, noisy[i].position);
    total += d;
    EXPECT_LT(d, 50.0);  // ~10 sigma.
    EXPECT_EQ(noisy[i].timestamp_s, points[i].timestamp_s);
  }
  // Mean Rayleigh distance = sigma * sqrt(pi/2) ~ 6.27 m.
  EXPECT_NEAR(total / 200.0, 6.27, 1.5);
  // Zero sigma is the identity.
  const auto clean = add_gaussian_noise(points, 0.0, rng);
  EXPECT_EQ(clean[0].position, points[0].position);
}

TEST(DropRandom, RateZeroAndOne) {
  std::vector<TracePoint> points(100, point_at(0));
  stats::Rng rng(3);
  EXPECT_EQ(drop_random(points, 0.0, rng).size(), 100u);
  EXPECT_TRUE(drop_random(points, 1.0, rng).empty());
  const auto half = drop_random(points, 0.5, rng);
  EXPECT_GT(half.size(), 25u);
  EXPECT_LT(half.size(), 75u);
}

TEST(DatasetStats, ComputesAggregates) {
  UserTrace user;
  user.user_id = "x";
  Trajectory trajectory;
  for (std::int64_t t = 0; t < 100; t += 2)
    trajectory.append({{39.9 + 1e-5 * static_cast<double>(t), 116.4}, t});
  user.trajectories.push_back(std::move(trajectory));
  const auto stats = compute_dataset_stats({user});
  EXPECT_EQ(stats.user_count, 1u);
  EXPECT_EQ(stats.trajectory_count, 1u);
  EXPECT_EQ(stats.point_count, 50u);
  EXPECT_DOUBLE_EQ(stats.high_frequency_fraction, 1.0);  // All 2 s gaps.
  EXPECT_DOUBLE_EQ(stats.median_interval_s, 2.0);
  EXPECT_GT(stats.total_length_km, 0.0);
}

}  // namespace
}  // namespace locpriv::trace
