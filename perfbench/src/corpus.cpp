#include "corpus.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "core/experiment.hpp"
#include "mobility/synthesis.hpp"
#include "trace/geolife.hpp"
#include "trace/sampling.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace locpriv;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("perfbench: cannot write " + path.string());
}

}  // namespace

void write_corpus(const CorpusSpec& spec, std::uint64_t seed, const fs::path& root) {
  mobility::DatasetConfig config;
  config.seed = seed;
  config.user_count = spec.users;
  config.synthesis.days = spec.days;
  const mobility::SyntheticDataset dataset = mobility::generate_dataset(config);

  fs::remove_all(root);
  for (const trace::UserTrace& user : dataset.users) {
    const fs::path dir = root / user.user_id / "Trajectory";
    fs::create_directories(dir);
    std::size_t index = 0;
    std::size_t budget = spec.max_fixes_per_user;
    for (const trace::Trajectory& trajectory : user.trajectories) {
      std::vector<trace::TracePoint> points =
          spec.upload_interval_s > 0
              ? trace::decimate(trajectory.points(), spec.upload_interval_s)
              : trajectory.points();
      if (spec.max_fixes_per_user > 0) {
        if (budget == 0) break;
        if (points.size() > budget) points.resize(budget);
        budget -= points.size();
      }
      const trace::Trajectory written(std::move(points));
      char name[32];
      std::snprintf(name, sizeof(name), "%06zu.plt", index++);
      write_text(dir / name, trace::write_plt(written));
    }
  }
}

Loaded load_corpus(const fs::path& root) {
  Loaded loaded;
  auto start = Clock::now();
  std::vector<trace::UserTrace> users = trace::read_geolife_dataset(root);
  loaded.parse_s = seconds_since(start);
  for (const trace::UserTrace& user : users) loaded.fixes += user.total_points();
  start = Clock::now();
  loaded.analyzer = std::make_unique<core::PrivacyAnalyzer>(
      core::experiment_analyzer_config(), std::move(users));
  loaded.build_s = seconds_since(start);
  return loaded;
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  return bytes;
}

}  // namespace perfbench
