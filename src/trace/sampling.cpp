#include "trace/sampling.hpp"

#include <cmath>

#include "geo/geodesy.hpp"
#include "util/expect.hpp"

namespace locpriv::trace {

std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s, std::int64_t start_s) {
  std::vector<TracePoint> out;
  for_each_decimated(points, interval_s, start_s,
                     [&](const TracePoint& point) { out.push_back(point); });
  return out;
}

std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s) {
  if (points.empty()) return {};
  return decimate(points, interval_s, points.front().timestamp_s);
}

std::vector<TracePoint> take_prefix_fraction(const std::vector<TracePoint>& points,
                                             double fraction) {
  LOCPRIV_EXPECT(fraction >= 0.0 && fraction <= 1.0);
  const auto keep = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(points.size())));
  return {points.begin(), points.begin() + static_cast<std::ptrdiff_t>(keep)};
}

std::vector<TracePoint> from_random_offset(const std::vector<TracePoint>& points,
                                           stats::Rng& rng) {
  if (points.empty()) return {};
  const auto start = static_cast<std::size_t>(rng.next_below(points.size()));
  return {points.begin() + static_cast<std::ptrdiff_t>(start), points.end()};
}

std::vector<TracePoint> add_gaussian_noise(const std::vector<TracePoint>& points,
                                           double sigma_m, stats::Rng& rng) {
  LOCPRIV_EXPECT(sigma_m >= 0.0);
  std::vector<TracePoint> out;
  out.reserve(points.size());
  for (const auto& point : points) {
    const double east = rng.normal(0.0, sigma_m);
    const double north = rng.normal(0.0, sigma_m);
    const double distance = std::sqrt(east * east + north * north);
    const double bearing = geo::rad_to_deg(std::atan2(east, north));
    TracePoint noisy = point;
    if (distance > 0.0)
      noisy.position = geo::destination(point.position, bearing, distance);
    out.push_back(noisy);
  }
  return out;
}

std::vector<TracePoint> drop_random(const std::vector<TracePoint>& points,
                                    double loss_rate, stats::Rng& rng) {
  LOCPRIV_EXPECT(loss_rate >= 0.0 && loss_rate <= 1.0);
  std::vector<TracePoint> out;
  out.reserve(points.size());
  for (const auto& point : points)
    if (!rng.bernoulli(loss_rate)) out.push_back(point);
  return out;
}

}  // namespace locpriv::trace
