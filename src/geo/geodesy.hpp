// Distance and bearing computations on the sphere.
#pragma once

#include <span>
#include <vector>

#include "geo/latlon.hpp"

namespace locpriv::geo {

/// Degrees -> radians.
double deg_to_rad(double degrees);
/// Radians -> degrees.
double rad_to_deg(double radians);

/// Great-circle distance in meters (haversine). Exact on the sphere; used
/// wherever traces may span many kilometers.
double haversine_m(const LatLon& a, const LatLon& b);

/// Equirectangular approximation of distance in meters. Within the ~100 m
/// scales of PoI extraction it differs from haversine by < 0.01 % and is
/// several times cheaper, so the stay-point inner loop uses it.
double equirectangular_m(const LatLon& a, const LatLon& b);

/// Exactly `equirectangular_m(a, b) < threshold` and `> threshold`, most
/// pairs decided without the cosine. The distance is R·sqrt(x² + y²) with
/// x = Δλ·cos(mean φ) and |cos| <= 1. Every rounding step is monotone, so
/// the value computed with the cosine taken as 0 bounds it from below and
/// the value with the cosine taken as 1 from above; the exact distance is
/// computed only when the threshold falls between the bounds (or an input
/// is not finite).
bool equirectangular_less(const LatLon& a, const LatLon& b, double threshold);
bool equirectangular_greater(const LatLon& a, const LatLon& b, double threshold);

/// Batched haversine from one origin to many points: out[i] =
/// haversine_m(origin, points[i]), with the origin's latitude conversion and
/// cosine hoisted out of the loop. Shares its per-point core with
/// haversine_m, so results are identical to the per-pair calls.
/// Precondition: out.size() == points.size().
void haversine_from(const LatLon& origin, std::span<const LatLon> points,
                    std::span<double> out);

/// Batched equirectangular distances from one origin: out[i] =
/// equirectangular_m(origin, points[i]). The mean-latitude cosine depends on
/// both endpoints, so only the origin conversion hoists; the per-point core
/// is shared with equirectangular_m for identical results.
/// Precondition: out.size() == points.size().
void equirectangular_from(const LatLon& origin, std::span<const LatLon> points,
                          std::span<double> out);

/// Initial great-circle bearing from `a` to `b` in degrees [0, 360).
double bearing_deg(const LatLon& a, const LatLon& b);

/// Destination reached from `origin` after traveling `distance_m` meters on
/// the given initial bearing (spherical direct problem).
LatLon destination(const LatLon& origin, double bearing_degrees, double distance_m);

/// Arithmetic centroid of points (valid for clusters far from the poles and
/// the antimeridian, which holds for all workloads here).
/// Precondition: points non-empty.
LatLon centroid(const std::vector<LatLon>& points);

/// Total haversine length of a polyline in meters (0 for < 2 points).
double polyline_length_m(const std::vector<LatLon>& points);

}  // namespace locpriv::geo
