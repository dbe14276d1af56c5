#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "geo/geodesy.hpp"
#include "geo/latlon.hpp"
#include "geo/projection.hpp"
#include "stats/rng.hpp"
#include "util/expect.hpp"

namespace locpriv::geo {
namespace {

// Beijing city center, the synthetic city's anchor.
const LatLon kBeijing{39.9042, 116.4074};

TEST(Geodesy, DegRadRoundTrip) {
  EXPECT_NEAR(deg_to_rad(180.0), std::acos(-1.0), 1e-12);
  EXPECT_NEAR(rad_to_deg(deg_to_rad(73.25)), 73.25, 1e-12);
}

TEST(Geodesy, HaversineZeroForSamePoint) {
  EXPECT_DOUBLE_EQ(haversine_m(kBeijing, kBeijing), 0.0);
}

TEST(Geodesy, HaversineKnownDistance) {
  // Beijing <-> Shanghai is ~1,067 km.
  const LatLon shanghai{31.2304, 121.4737};
  EXPECT_NEAR(haversine_m(kBeijing, shanghai), 1.067e6, 8e3);
}

TEST(Geodesy, HaversineOneDegreeLatitude) {
  const LatLon north{kBeijing.lat_deg + 1.0, kBeijing.lon_deg};
  EXPECT_NEAR(haversine_m(kBeijing, north), 111195.0, 100.0);
}

TEST(Geodesy, EquirectangularMatchesHaversineAtPoiScale) {
  // Within a few hundred meters the fast approximation must agree to << 1 m
  // (it is used inside the stay-point inner loop with 50 m thresholds).
  const LatLon near = destination(kBeijing, 37.0, 320.0);
  const double exact = haversine_m(kBeijing, near);
  const double approx = equirectangular_m(kBeijing, near);
  EXPECT_NEAR(approx, exact, 0.05);
}

TEST(Geodesy, CosFreeComparisonsEqualTheExactOnes) {
  // Seeded pairs whose distance straddles the threshold, near the
  // antimeridian, near and at the poles, and identical points: the
  // bound-decided comparison must equal the comparison of the exact value.
  stats::Rng rng(50);
  const auto check = [](const LatLon& a, const LatLon& b, double threshold) {
    const double exact = equirectangular_m(a, b);
    EXPECT_EQ(equirectangular_less(a, b, threshold), exact < threshold)
        << a.lat_deg << "," << a.lon_deg << " " << b.lat_deg << "," << b.lon_deg
        << " t=" << threshold;
    EXPECT_EQ(equirectangular_greater(a, b, threshold), exact > threshold)
        << a.lat_deg << "," << a.lon_deg << " " << b.lat_deg << "," << b.lon_deg
        << " t=" << threshold;
  };
  const std::vector<LatLon> origins = {
      kBeijing, {0.0, 179.9999}, {-12.0, -179.99995}, {89.9999, 30.0}, {-90.0, 0.0},
      {90.0, 180.0}, {0.0, 0.0}, {64.1, -21.9}};
  for (int trial = 0; trial < 20000; ++trial) {
    LatLon a = trial % 4 == 0
                         ? origins[static_cast<std::size_t>(trial / 4) % origins.size()]
                         : LatLon{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
    const double radius = rng.uniform(1.0, 200.0);
    // A partner at about the radius, in any direction (so across ±180° and
    // over the poles for origins there), with a jittered offset. Every
    // third pair shares a meridian (the lower bound is then the exact
    // value) or a parallel near the equator (the upper bound nearly is).
    LatLon b = destination(a, rng.uniform(0.0, 360.0), radius * rng.uniform(0.2, 1.8));
    if (trial % 9 == 0) b = a;
    if (trial % 3 == 1) b.lon_deg = a.lon_deg;
    if (trial % 6 == 2) a.lat_deg = b.lat_deg = rng.uniform(-1e-3, 1e-3);
    check(a, b, radius);
    check(b, a, radius);
    // Thresholds at the exact value and one ulp either side.
    const double exact = equirectangular_m(a, b);
    if (exact > 0.0) {
      check(a, b, exact);
      check(a, b, std::nextafter(exact, 0.0));
      check(a, b, std::nextafter(exact, 1e300));
    }
  }
  // Inputs the bounds cannot vouch for fall back to the exact value.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  check({nan, 0.0}, {0.0, 0.0}, 50.0);
  check({0.0, nan}, {0.0, 0.0}, 50.0);
  check({inf, 0.0}, {inf, 0.0}, 50.0);
  check({1e308, 0.0}, {1e308, 1e-3}, 50.0);
  check({0.0, inf}, {0.0, 0.0}, 50.0);
  check({0.0, 0.0}, {0.0, 0.0}, 0.0);
  check(kBeijing, kBeijing, nan);
  check(kBeijing, {0.0, 0.0}, inf);
  check({nan, 0.0}, {0.0, 0.0}, inf);
}

TEST(Geodesy, SymmetricDistances) {
  const LatLon other{40.1, 116.9};
  EXPECT_DOUBLE_EQ(haversine_m(kBeijing, other), haversine_m(other, kBeijing));
  EXPECT_NEAR(equirectangular_m(kBeijing, other), equirectangular_m(other, kBeijing),
              1e-9);
}

TEST(Geodesy, BearingCardinalDirections) {
  EXPECT_NEAR(bearing_deg(kBeijing, {kBeijing.lat_deg + 0.1, kBeijing.lon_deg}), 0.0,
              0.1);
  EXPECT_NEAR(bearing_deg(kBeijing, {kBeijing.lat_deg, kBeijing.lon_deg + 0.1}), 90.0,
              0.1);
  EXPECT_NEAR(bearing_deg(kBeijing, {kBeijing.lat_deg - 0.1, kBeijing.lon_deg}), 180.0,
              0.1);
  EXPECT_NEAR(bearing_deg(kBeijing, {kBeijing.lat_deg, kBeijing.lon_deg - 0.1}), 270.0,
              0.1);
}

class DestinationRoundTrip
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(DestinationRoundTrip, DistanceAndBearingRecovered) {
  const auto [bearing, distance] = GetParam();
  const LatLon target = destination(kBeijing, bearing, distance);
  EXPECT_NEAR(haversine_m(kBeijing, target), distance, distance * 1e-9 + 1e-6);
  if (distance > 1.0) {
    EXPECT_NEAR(bearing_deg(kBeijing, target), bearing, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DestinationRoundTrip,
    ::testing::Values(std::pair{0.0, 500.0}, std::pair{45.0, 1234.5},
                      std::pair{90.0, 50.0}, std::pair{137.0, 10000.0},
                      std::pair{225.0, 3.0}, std::pair{359.0, 800.0}));

TEST(Geodesy, CentroidOfSymmetricPoints) {
  const std::vector<LatLon> points{{39.9, 116.4}, {40.1, 116.6}};
  const LatLon c = centroid(points);
  EXPECT_NEAR(c.lat_deg, 40.0, 1e-12);
  EXPECT_NEAR(c.lon_deg, 116.5, 1e-12);
  EXPECT_THROW(centroid({}), util::ContractViolation);
}

TEST(Geodesy, PolylineLength) {
  const LatLon a = kBeijing;
  const LatLon b = destination(a, 90.0, 1000.0);
  const LatLon c = destination(b, 0.0, 500.0);
  EXPECT_NEAR(polyline_length_m({a, b, c}), 1500.0, 0.01);
  EXPECT_DOUBLE_EQ(polyline_length_m({a}), 0.0);
  EXPECT_DOUBLE_EQ(polyline_length_m({}), 0.0);
}

TEST(GeoBounds, ExtendContainsCenter) {
  GeoBounds bounds;
  EXPECT_TRUE(bounds.empty());
  bounds.extend({39.9, 116.4});
  bounds.extend({40.1, 116.8});
  EXPECT_FALSE(bounds.empty());
  EXPECT_TRUE(bounds.contains({40.0, 116.6}));
  EXPECT_FALSE(bounds.contains({41.0, 116.6}));
  EXPECT_NEAR(bounds.center().lat_deg, 40.0, 1e-12);
  EXPECT_NEAR(bounds.center().lon_deg, 116.6, 1e-12);
}

TEST(LocalProjection, RoundTripsNearOrigin) {
  const LocalProjection projection(kBeijing);
  for (const auto& offset : {EastNorth{0.0, 0.0}, EastNorth{150.0, -90.0},
                             EastNorth{-12000.0, 8000.0}}) {
    const LatLon geo = projection.to_geo(offset);
    const EastNorth back = projection.to_plane(geo);
    EXPECT_NEAR(back.east_m, offset.east_m, 1e-6);
    EXPECT_NEAR(back.north_m, offset.north_m, 1e-6);
  }
}

TEST(LocalProjection, AgreesWithHaversine) {
  const LocalProjection projection(kBeijing);
  const LatLon p = projection.to_geo({3000.0, 4000.0});
  EXPECT_NEAR(haversine_m(kBeijing, p), 5000.0, 5.0);
}

TEST(SnapToGrid, SnapsToCellCenters) {
  const LocalProjection projection(kBeijing);
  // A point 130 m east, 270 m north snaps to the (100..200, 200..300) cell
  // center = (150, 250) with 100 m cells.
  const LatLon p = projection.to_geo({130.0, 270.0});
  const LatLon snapped = snap_to_grid(p, 100.0, projection);
  const EastNorth plane = projection.to_plane(snapped);
  EXPECT_NEAR(plane.east_m, 150.0, 1e-6);
  EXPECT_NEAR(plane.north_m, 250.0, 1e-6);
}

TEST(SnapToGrid, IdempotentAndBounded) {
  const LocalProjection projection(kBeijing);
  const LatLon p = projection.to_geo({-437.0, 12.5});
  const LatLon once = snap_to_grid(p, 250.0, projection);
  const LatLon twice = snap_to_grid(once, 250.0, projection);
  EXPECT_NEAR(once.lat_deg, twice.lat_deg, 1e-12);
  EXPECT_NEAR(once.lon_deg, twice.lon_deg, 1e-12);
  // Snapping moves a point at most half the cell diagonal.
  EXPECT_LE(haversine_m(p, once), 250.0 * std::sqrt(2.0) / 2.0 + 0.01);
  EXPECT_THROW(snap_to_grid(p, 0.0, projection), util::ContractViolation);
}

}  // namespace
}  // namespace locpriv::geo
