// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into one of the library's layers; spans nest
// through a parent index and carry the id of the request (cell, batch or
// report round) they serve. Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< Relative to the tracer's epoch.
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< Index into the span list, -1 for a root.
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// child time outside the parent's interval is ignored).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-name totals of self time and call counts.
struct NameTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t calls = 0;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when disabled. Spans must close in LIFO order.
  std::int64_t open(const char* name, std::uint64_t request);
  void close(std::int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span (name, start_ns, end_ns, parent,
  /// request, self_ns) to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), index_(tracer.open(name, request)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace perfbench
