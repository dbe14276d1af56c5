// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--digests FILE] [--digest-only]
//
// Human-readable lines first, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check fails, 2 on a usage or set-up error.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "util/args.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Metric;

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// End-to-end results of a run, kept so a traced run of the same workload
/// and seed can report its overhead against the untraced one.
fs::path results_path(const perfbench::RunConfig& config, bool traced) {
  return config.out_dir / (config.workload + "-seed" + std::to_string(config.seed) +
                           (traced ? "-traced" : "-untraced") + ".txt");
}

void save_results(const fs::path& path, const std::map<std::string, Metric>& metrics) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [name, metric] : metrics)
    out << name << ' ' << number(metric.value) << ' ' << metric.unit << '\n';
}

std::map<std::string, double> load_results(const fs::path& path) {
  std::map<std::string, double> values;
  std::ifstream in(path);
  std::string name;
  double value = 0.0;
  std::string unit;
  while (in >> name >> value >> unit) values[name] = value;
  return values;
}

int run(int argc, const char* const* argv) {
  locpriv::util::Args args;
  args.declare("--workload", "");
  args.declare("--seed", "1");
  args.declare("--seconds", "10");
  args.declare("--trace", "0");
  args.declare("--out-dir", ".bench_out");
  args.declare("--digests", "perfbench/digests.tsv");
  args.declare_bool("--digest-only");
  args.parse(argc, argv, 1);

  perfbench::RunConfig config;
  config.workload = args.get("--workload");
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed"));
  config.seconds = args.get_double("--seconds");
  config.trace = args.get_int("--trace") != 0;
  config.out_dir = args.get("--out-dir");
  config.digest_table = args.get("--digests");
  config.digest_only = args.get_bool("--digest-only");
  bool known = false;
  for (const std::string& name : perfbench::workload_names())
    known = known || name == config.workload;
  if (!known || config.seconds <= 0.0) {
    std::cerr << "perfbench: --workload must be one of audit-ladder, detect-prefix, "
                 "serve-ingest, serve-live and --seconds positive\n";
    return 2;
  }
  fs::create_directories(config.out_dir);

  const perfbench::RunResult result = perfbench::run_workload(config);
  if (config.digest_only) {
    std::cout << config.workload << ' ' << config.seed << ' ' << result.digest << '\n';
    return result.correct ? 0 : 1;
  }

  std::cout << "workload " << config.workload << " seed " << config.seed
            << (config.trace ? " (traced)" : " (untraced)") << '\n';
  for (const std::string& note : result.notes) std::cout << "  " << note << '\n';
  bool finite = true;
  std::cout << "end-to-end" << (config.trace ? " (with tracing on)" : "") << ":\n";
  for (const auto& [name, unit] : perfbench::end_to_end_metrics()) {
    const Metric& metric = result.end_to_end.at(name);
    finite = finite && std::isfinite(metric.value);
    std::cout << "  " << name << " = " << number(metric.value) << ' ' << unit << '\n';
  }
  save_results(results_path(config, config.trace), result.end_to_end);
  if (config.trace) {
    std::cout << "per-layer:\n";
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      const Metric& metric = result.per_layer.at(name);
      finite = finite && std::isfinite(metric.value);
      std::cout << "  " << name << " = " << number(metric.value) << ' ' << unit << '\n';
    }
    const auto untraced = load_results(results_path(config, false));
    if (untraced.empty()) {
      std::cout << "tracing overhead: run --trace 0 with this seed first to compare\n";
    } else {
      std::cout << "tracing overhead (traced - untraced, same seed):\n";
      for (const auto& [name, unit] : perfbench::end_to_end_metrics()) {
        const auto it = untraced.find(name);
        if (it == untraced.end()) continue;
        const double traced = result.end_to_end.at(name).value;
        const double delta = traced - it->second;
        std::cout << "  " << name << ": " << number(traced) << " - " << number(it->second)
                  << " = " << number(delta) << ' ' << unit;
        if (it->second != 0.0)
          std::cout << " (" << number(100.0 * delta / it->second) << " %)";
        std::cout << '\n';
      }
    }
  }
  if (!finite) std::cerr << "perfbench: a metric is not a finite number\n";
  for (const std::string& error : result.errors)
    std::cerr << "perfbench: CHECK FAILED: " << error << '\n';
  const bool correct = result.correct && finite;

  const auto& metrics = config.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
            number(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  std::cout << json << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process instead of returning it to the kernel
  // (no mmap per large vector, no heap trimming). The pipeline allocates and
  // frees trace-sized vectors in every call, and on a shared host the page
  // faults that re-acquire them vary run to run by more than the code
  // under test does. Forked shards inherit the setting.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  locpriv::util::set_log_level(locpriv::util::LogLevel::kWarn);
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
}
