#include "poi/staypoint.hpp"

#include <utility>

#include "geo/geodesy.hpp"
#include "util/expect.hpp"

namespace locpriv::poi {

std::vector<ExtractionParams> table3_parameter_sets() {
  // Set ids 1..6: visiting time {10,20,30} min crossed with radius {50,100} m
  // in the paper's column order.
  return {
      {50.0, 10 * 60, 4}, {50.0, 20 * 60, 4}, {50.0, 30 * 60, 4},
      {100.0, 10 * 60, 4}, {100.0, 20 * 60, 4}, {100.0, 30 * 60, 4},
  };
}

namespace {

/// Running centroid over a set of fixes (positions are far from
/// poles/antimeridian so arithmetic means are valid, matching geo::centroid).
class CentroidAccumulator {
 public:
  void add(const geo::LatLon& p) {
    lat_sum_ += p.lat_deg;
    lon_sum_ += p.lon_deg;
    ++count_;
  }
  geo::LatLon centroid() const {
    LOCPRIV_EXPECT(count_ > 0);
    const auto n = static_cast<double>(count_);
    return {lat_sum_ / n, lon_sum_ / n};
  }

 private:
  double lat_sum_ = 0.0;
  double lon_sum_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace

StayPointExtractor::StayPointExtractor(const ExtractionParams& params)
    : params_(params) {
  LOCPRIV_EXPECT(params.radius_m > 0.0);
  LOCPRIV_EXPECT(params.min_visit_s > 0);
  LOCPRIV_EXPECT(params.window_fixes >= 4 && params.window_fixes % 2 == 0);
  // One slot past the window: a push lands before the window is trimmed.
  ring_.resize(params.window_fixes + 1);
}

std::size_t StayPointExtractor::slot(std::size_t i) const {
  const std::size_t s = head_ + i;
  return s < ring_.size() ? s : s - ring_.size();
}

const trace::TracePoint& StayPointExtractor::at(std::size_t i) const {
  return ring_[slot(i)];
}

void StayPointExtractor::pop_front() {
  if (++head_ == ring_.size()) head_ = 0;
  --size_;
}

geo::LatLon StayPointExtractor::window_centroid(std::size_t begin) const {
  CentroidAccumulator acc;
  for (std::size_t i = begin; i < size_; ++i) acc.add(at(i).position);
  return acc.centroid();
}

geo::LatLon StayPointExtractor::stay_centroid() const {
  const auto n = static_cast<double>(stay_count_);
  return {stay_lat_sum_ / n, stay_lon_sum_ / n};
}

void StayPointExtractor::attribute(const trace::TracePoint& point) {
  stay_lat_sum_ += point.position.lat_deg;
  stay_lon_sum_ += point.position.lon_deg;
  ++stay_count_;
  last_attributed_s_ = point.timestamp_s;
}

void StayPointExtractor::close_stay(std::size_t overlap) {
  // The leading `overlap` fixes of the exit window belong to the stay
  // (paper: buf_PoI and buf_Exit share an overlapped area).
  for (std::size_t i = 0; i < overlap; ++i) {
    attribute(at(0));
    pop_front();
  }
  const std::int64_t duration = last_attributed_s_ - enter_s_;
  if (duration >= params_.min_visit_s && stay_count_ > 0)
    stays_.push_back({stay_centroid(), enter_s_, last_attributed_s_, stay_count_});
  stay_lat_sum_ = 0.0;
  stay_lon_sum_ = 0.0;
  stay_count_ = 0;
  inside_ = false;
  // Remaining exit-window points (the user's departure) seed the next
  // entry window so back-to-back stays are both detected.
}

void StayPointExtractor::push(const trace::TracePoint& point) {
  const std::size_t window_size = params_.window_fixes;
  const std::size_t half = window_size / 2;
  ring_[slot(size_)] = point;
  ++size_;
  if (!inside_) {
    if (size_ > window_size) pop_front();
    if (size_ < window_size) return;
    // buf_Entry = the full window; the nascent buf_PoI = its trailing half
    // (the two buffers overlap by half of buf_Entry).
    const geo::LatLon entry_centroid = window_centroid(0);
    const geo::LatLon poi_centroid = window_centroid(half);
    if (geo::equirectangular_less(entry_centroid, poi_centroid, params_.radius_m)) {
      // Entered a stay: the trailing half becomes the stay's first fixes.
      inside_ = true;
      enter_s_ = at(half).timestamp_s;
      for (std::size_t i = half; i < size_; ++i) attribute(at(i));
      size_ = 0;
    }
  } else {
    // A fix older than the exit window belongs to the stay.
    if (size_ > window_size) {
      attribute(at(0));
      pop_front();
    }
    if (size_ < window_size) return;
    if (geo::equirectangular_greater(stay_centroid(), window_centroid(0), params_.radius_m))
      close_stay(half);
  }
}

std::vector<StayPoint> StayPointExtractor::finish() {
  // End of stream: an open stay absorbs the whole residual window.
  if (inside_) close_stay(size_);
  head_ = 0;
  size_ = 0;
  return std::exchange(stays_, {});
}

std::vector<StayPoint> extract_stay_points(const std::vector<trace::TracePoint>& points,
                                           const ExtractionParams& params) {
  StayPointExtractor extractor(params);
  for (const auto& point : points) extractor.push(point);
  return extractor.finish();
}

std::vector<StayPoint> extract_stay_points_anchor(
    const std::vector<trace::TracePoint>& points, const ExtractionParams& params) {
  LOCPRIV_EXPECT(params.radius_m > 0.0);
  LOCPRIV_EXPECT(params.min_visit_s > 0);

  std::vector<StayPoint> stays;
  std::size_t i = 0;
  while (i < points.size()) {
    std::size_t j = i + 1;
    while (j < points.size() &&
           // locpriv-lint: allow(linear-spatial-scan) ablation baseline
           geo::equirectangular_m(points[i].position, points[j].position) <=
               params.radius_m)
      ++j;
    const std::int64_t span = points[j - 1].timestamp_s - points[i].timestamp_s;
    if (span >= params.min_visit_s) {
      CentroidAccumulator acc;
      for (std::size_t k = i; k < j; ++k) acc.add(points[k].position);
      stays.push_back({acc.centroid(), points[i].timestamp_s, points[j - 1].timestamp_s,
                       j - i});
      i = j;
    } else {
      ++i;
    }
  }
  return stays;
}

}  // namespace locpriv::poi
