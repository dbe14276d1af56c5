// The four benchmark workloads. Each runs for a fixed wall-clock budget
// against the library's public API, checks its outputs, and returns every
// end-to-end metric (untraced run) or every per-layer metric (traced run).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out_dir;       ///< Run output: corpora, run dirs, spans.
  std::filesystem::path digest_table;  ///< Recorded batch-row digests per seed.
  bool digest_only = false;            ///< One pass, print the digest, no timing.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  ///< Which user or row differed, and how.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;   ///< Human-readable lines printed before the JSON.
  /// Batch workloads: the rows' digest, then one 8-digit digest per user.
  std::string digest;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Metric names and units, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Runs one workload. Throws on a set-up failure; correctness failures are
/// reported in the result.
RunResult run_workload(const RunConfig& config);

/// FNV-1a 64 of the rows (fields joined by ',', rows by '\n'), as 16 hex digits.
std::string rows_digest(const std::vector<std::vector<std::string>>& rows);

}  // namespace perfbench
