// Access-frequency simulation and measurement-noise models.
//
// The paper's central experimental knob is the interval at which a
// background app refreshes location (1 s ... 7,200 s). Decimating the
// full-rate ground-truth trace at a fixed interval models exactly what such
// an app collects; prefix/offset selection models Figure 4's "from the
// start" vs "from a random position" conditions.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
#include "trace/trajectory.hpp"
#include "util/expect.hpp"

namespace locpriv::trace {

/// Calls `fn(point)` for each fix an app polling every `interval_s` seconds
/// would observe: the first fix at or after `start_s`, then greedily the
/// next fix at least `interval_s` later, and so on. One linear pass that
/// materializes nothing; the rule holds for any input order (a fix earlier
/// than the next due time is skipped, whatever came before it).
/// Preconditions: interval_s > 0.
template <typename Fn>
void for_each_decimated(const std::vector<TracePoint>& points, std::int64_t interval_s,
                        std::int64_t start_s, Fn&& fn) {
  LOCPRIV_EXPECT(interval_s > 0);
  std::int64_t next_due = start_s;
  for (const auto& point : points) {
    if (point.timestamp_s < next_due) continue;
    fn(point);
    next_due = point.timestamp_s + interval_s;
  }
}

/// The fixes for_each_decimated visits, collected. Interval 1 with start at
/// the first fix reproduces the full trace for 1 Hz ground truth.
/// Preconditions: interval_s > 0.
std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s, std::int64_t start_s);

/// Convenience overload starting at the first fix.
std::vector<TracePoint> decimate(const std::vector<TracePoint>& points,
                                 std::int64_t interval_s);

/// First `fraction` of the points (by count). fraction in [0, 1].
std::vector<TracePoint> take_prefix_fraction(const std::vector<TracePoint>& points,
                                             double fraction);

/// Points from a random starting index to the end; models an app installed
/// partway through the observation period (Figure 4(b)).
std::vector<TracePoint> from_random_offset(const std::vector<TracePoint>& points,
                                           stats::Rng& rng);

/// Adds zero-mean Gaussian position noise of `sigma_m` meters per axis to
/// every fix (GPS measurement error). sigma_m >= 0.
std::vector<TracePoint> add_gaussian_noise(const std::vector<TracePoint>& points,
                                           double sigma_m, stats::Rng& rng);

/// Drops each fix independently with probability `loss_rate` (urban-canyon
/// style outages). loss_rate in [0, 1].
std::vector<TracePoint> drop_random(const std::vector<TracePoint>& points,
                                    double loss_rate, stats::Rng& rng);

}  // namespace locpriv::trace
