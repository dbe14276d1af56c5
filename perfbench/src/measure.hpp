// The benchmark's own arithmetic: percentile summaries, open-loop timing,
// and offer accounting. Kept free of library types so the self-tests can
// pin every rule down on synthetic numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A timing distribution as the benchmark reports it: the median plus the
/// highest percentile that still has at least kTailBeyond samples above it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  /// Percentile `tail` was taken at (99, 90, 75 or 50), or 100 when too
  /// few samples exist for any of them and `tail` is the maximum.
  double tail_pct = 100.0;
};

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Nearest-rank percentile of ascending `sorted` (pct in (0, 100]).
double nearest_rank(const std::vector<double>& sorted, double pct);

/// Median and tail of `samples` by the rule above. Empty input gives n = 0.
Summary summarize(std::vector<double> samples);

/// Median of `samples` (0 for an empty vector).
double median(std::vector<double> samples);

/// A pass of `cells` calls composed from each call's own distribution.
/// `samples` holds one time per call per pass, pass-major (pass i, call c
/// at i * cells + c). p50 is the sum of every call's median, tail the sum
/// of every call's tail by the rule above; n is the number of passes. A
/// call rarely spans a preemption, so time the thread spent off the CPU
/// between calls stays out, while a change to any call's cost moves the sum
/// by that change.
Summary composed_pass(const std::vector<double>& samples, std::size_t cells);

/// An open-loop schedule: request j is due at start + j * period, however
/// the system under test behaves. Latency is measured from the due time,
/// so a stall also charges the requests queued behind it.
struct OpenLoopSchedule {
  double start_s = 0.0;
  double period_s = 0.0;

  double due(std::uint64_t j) const {
    return start_s + static_cast<double>(j) * period_s;
  }
  /// Latency of request j acknowledged at `ack_s`.
  double latency(std::uint64_t j, double ack_s) const { return ack_s - due(j); }
  /// How late the generator sent request j (0 when on time).
  double lateness(std::uint64_t j, double sent_s) const {
    const double late = sent_s - due(j);
    return late > 0.0 ? late : 0.0;
  }
};

/// Fate of every batch offered to the service, for fail_ratio and the
/// reconciliation identity `offered == submitted + dropped + shed`.
struct OfferTally {
  std::uint64_t offered = 0;
  std::uint64_t submitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;     ///< Includes offers to a quarantined shard.
  std::uint64_t blocked = 0;  ///< kBlocked offers: never entered the service.

  /// Offers that did not make it into a shard stream, over every offer
  /// made (blocked offers are attempts too, though the service does not
  /// count them as offered).
  std::uint64_t failed() const { return shed + blocked; }
  std::uint64_t attempted() const { return offered + blocked; }
  double fail_ratio() const;
  bool reconciles() const { return offered == submitted + dropped + shed; }
};

}  // namespace perfbench
