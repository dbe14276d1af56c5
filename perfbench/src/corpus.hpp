// Benchmark inputs: a synthetic Geolife-like corpus generated from the run
// seed and written as a PLT tree, which the library then reads back through
// trace::read_geolife_dataset exactly as `locpriv audit-all --root` and
// `locpriv serve --root` do.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "trace/trajectory.hpp"

namespace perfbench {

/// Shape of a generated corpus.
struct CorpusSpec {
  int users = 40;
  int days = 14;
  /// 0 keeps the full-rate trace; > 0 writes each trajectory decimated to
  /// this many seconds between fixes (the coarse uploads of a background
  /// app polling at that interval).
  std::int64_t upload_interval_s = 0;
  /// 0 keeps every fix; > 0 keeps only each user's first this-many fixes,
  /// so the corpus volume does not depend on the seed.
  std::size_t max_fixes_per_user = 0;
};

/// Generates the corpus for `seed` and writes it as a fresh PLT tree
/// `root/<user>/Trajectory/NNNNNN.plt` (replacing whatever was at `root`).
void write_corpus(const CorpusSpec& spec, std::uint64_t seed,
                  const std::filesystem::path& root);

/// One timed set-up: PLT parse plus analyzer build.
struct Loaded {
  std::unique_ptr<locpriv::core::PrivacyAnalyzer> analyzer;
  double parse_s = 0.0;
  double build_s = 0.0;
  std::size_t fixes = 0;  ///< Full-rate fixes over all users.
};

Loaded load_corpus(const std::filesystem::path& root);

/// Total size of the regular files under `dir` (0 if it does not exist).
std::uint64_t tree_bytes(const std::filesystem::path& dir);

}  // namespace perfbench
