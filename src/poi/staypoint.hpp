// Spatio-Temporal stay-point extraction (the paper's Section IV.B algorithm,
// after Bamis & Savvides, RTSS'10).
//
// Three buffers slide over the fix stream: buf_Entry (the window where the
// user may be entering a place), buf_PoI (all fixes attributed to the stay)
// and buf_Exit (the window where the user may be leaving). Each buffer's
// centroid is the average of its fixes. The user has *entered* a stay when
// the centroid of buf_Entry and the centroid of its trailing half (the
// nascent buf_PoI — the two buffers overlap by half of buf_Entry, as in the
// paper) come closer than the distance threshold; the user has *exited*
// when the centroid of buf_Exit drifts farther than the threshold from the
// centroid of buf_PoI. A completed stay is kept only if it lasted at least
// the visiting-time threshold.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/latlon.hpp"
#include "trace/trajectory.hpp"

namespace locpriv::poi {

/// One extracted stay.
struct StayPoint {
  geo::LatLon centroid;       ///< Mean position of the stay's fixes.
  std::int64_t enter_s = 0;   ///< Time of the first attributed fix.
  std::int64_t exit_s = 0;    ///< Time of the last attributed fix.
  std::size_t fix_count = 0;  ///< Number of fixes attributed to the stay.

  std::int64_t duration_s() const { return exit_s - enter_s; }
};

/// Extraction parameters (paper Table III uses radius 50/100 m and visiting
/// time 10/20/30 min; parameter set 1 — 50 m / 10 min — is the paper's
/// choice for all later experiments).
struct ExtractionParams {
  double radius_m = 50.0;           ///< Centroid distance threshold.
  std::int64_t min_visit_s = 600;   ///< Minimum stay duration to keep.
  /// Entry/exit buffer length in fixes. Four (the minimum) keeps stays
  /// detectable from sparse, heavily decimated traces; the ablation bench
  /// sweeps larger windows.
  std::size_t window_fixes = 4;
};

/// The paper's Table III parameter grid, in order (set ids 1..6).
std::vector<ExtractionParams> table3_parameter_sets();

/// The three-buffer Spatio-Temporal algorithm described above as a push-driven
/// state machine: feed fixes in time order with push(), then call finish()
/// to close a stay still open at the end of the stream and take every stay
/// extracted so far. Memory is O(window_fixes) plus the stays: the window
/// is a fixed ring of window_fixes + 1 slots and the open stay is a set of
/// running sums, so push() never allocates except to append a closed stay.
/// finish() leaves the extractor empty, ready for a new stream.
/// Preconditions: params.radius_m > 0, params.min_visit_s > 0,
/// params.window_fixes >= 4 and even; fixes pushed in time order.
class StayPointExtractor {
 public:
  explicit StayPointExtractor(const ExtractionParams& params);

  void push(const trace::TracePoint& point);
  std::vector<StayPoint> finish();

 private:
  std::size_t slot(std::size_t i) const;  // Ring slot of window index i.
  const trace::TracePoint& at(std::size_t i) const;
  void pop_front();
  geo::LatLon window_centroid(std::size_t begin) const;
  geo::LatLon stay_centroid() const;
  void attribute(const trace::TracePoint& point);
  void close_stay(std::size_t overlap);

  ExtractionParams params_;
  std::vector<trace::TracePoint> ring_;  // Entry window (outside) or exit window (inside).
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool inside_ = false;
  // The open stay: running sums of its fixes' coordinates.
  double stay_lat_sum_ = 0.0;
  double stay_lon_sum_ = 0.0;
  std::size_t stay_count_ = 0;
  std::int64_t enter_s_ = 0;
  std::int64_t last_attributed_s_ = 0;
  std::vector<StayPoint> stays_;
};

/// Extracts stay points from a time-ordered fix stream: every fix through
/// one StayPointExtractor, then finish().
std::vector<StayPoint> extract_stay_points(const std::vector<trace::TracePoint>& points,
                                           const ExtractionParams& params);

/// Baseline extractor (Zheng et al.'s anchor algorithm): anchor a fix,
/// extend while subsequent fixes stay within `radius_m` of the anchor, keep
/// the span if it lasts `min_visit_s`. Used by the ablation bench to compare
/// against the buffered algorithm (which tolerates centroid drift and GPS
/// noise better).
std::vector<StayPoint> extract_stay_points_anchor(
    const std::vector<trace::TracePoint>& points, const ExtractionParams& params);

}  // namespace locpriv::poi
