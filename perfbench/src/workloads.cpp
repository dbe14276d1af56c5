#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "corpus.hpp"
#include "measure.hpp"
#include "privacy/detection.hpp"
#include "service/driver.hpp"
#include "service/locprivd.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "spans.hpp"
#include "trace/sampling.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace locpriv;

namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<std::string>>;

// ---- Workload sizing (see perfbench/README.md for how these were chosen) --

/// Corpus of audit-ladder: 40 users, each the first 20,000 full-rate fixes
/// of 10 days (about 4 to 8 days of trace), so a corpus holds 800,000 fixes
/// whatever the seed (unless a user has fewer) and a pass's work varies
/// little with the seed.
const CorpusSpec kLadderCorpus{40, 10, 0, 20000};
/// Corpus of detect-prefix: 40 users x 7 days at full rate, about 1.0M fixes.
const CorpusSpec kBatchCorpus{40, 7, 0};
/// Corpus of serve-ingest: 40 users, each the first 10,000 full-rate fixes
/// of 5 days, so every seed sends the same 400,000 fixes (unless a user has
/// fewer), a shard's report stays well inside collect_reports()'s first
/// 20 ms tick (see README.md), and a run fits several whole passes.
const CorpusSpec kIngestCorpus{40, 5, 0, 10000};
/// Corpus of serve-live: 100 users, each the first 40 fixes of a day of
/// 60 s background polling. 2,000 batches of 2 fixes per round whatever
/// the seed, so the offered volume is fixed.
const CorpusSpec kLiveCorpus{100, 1, 60, 40};

/// Set-up repetitions per run. A fixed count, not a time budget, so the
/// allocations before the timed window (and with them peak_rss_mb) do not
/// depend on how fast the host ran.
constexpr int kSetupReps = 9;
/// Times a batch pass's audit table is written after the pass (drain_s is
/// the median write): one 0.3 ms write per pass is a small sample.
constexpr int kTableWrites = 8;
/// Batch passes whose cell timings are reserved before the timed window
/// (about 4 minutes of audit-ladder; later passes still fit, by growing).
constexpr std::size_t kReservedPasses = 2048;
const std::vector<std::int64_t> kDetectIntervals = {1, 60, 600, 3600};

/// Shards of both serve workloads: with the single-threaded parent, three
/// busy processes on a 4-core host, leaving one core for everything else.
constexpr unsigned kShards = 2;
constexpr int kSpawnReps = 11;
/// Longest the benchmark waits for the service to make progress.
constexpr double kWaitLimitS = 60.0;
constexpr std::int64_t kServeInterval = 60;
constexpr std::size_t kIngestBatch = 64;
/// snapshot_now() rounds per pass, evenly spaced over the schedule's
/// batches, so snapshot work per run is fixed rather than tied to
/// wall-clock time; the last lands a quarter pass before the end.
constexpr std::size_t kSnapshotRounds = 3;
/// Closed-loop callers per shard: each waits for its batch's ack before
/// sending the next, so at most this many batches per shard are in flight
/// (below the service's 64-batch credit window).
constexpr std::size_t kCallersPerShard = 32;
/// collect_reports() calls after a closed-loop pass's last ack.
constexpr int kIngestReports = 4;

constexpr std::size_t kLiveBatch = 2;
/// Offered rate of serve-live, in upload batches per second (fixed; the
/// generator does not slow down when the service does).
constexpr double kLiveRate = 2000.0;
/// collect_reports() cadence of serve-live, in seconds.
constexpr double kLiveReportEvery = 0.25;
/// Length of one serve-live pass (one service, spawn to drain). Several
/// short passes give several drains, whose time moves in 20 ms ticks and
/// with fsync latency, so one sample per run would be mostly noise.
constexpr double kLivePassS = 2.0;

// ---- Small helpers ---------------------------------------------------------

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

void fail(RunResult& result, const std::string& message) {
  result.correct = false;
  if (result.errors.size() < 20) result.errors.push_back(message);
}

/// First differing row between two row sets, for the error message.
std::string first_difference(const Rows& expected, const Rows& actual) {
  const std::size_t n = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i)
    if (expected[i] != actual[i])
      return "row " + std::to_string(i) + ": expected [" +
             util::join(expected[i], ",") + "] got [" + util::join(actual[i], ",") +
             "]";
  return "row count " + std::to_string(expected.size()) + " vs " +
         std::to_string(actual.size());
}

/// Accumulates per-layer metrics by name; finish() returns every listed
/// metric, 0 where the workload has none.
class Layers {
 public:
  void add(const std::string& name, double value) { values_[name] += value; }
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  std::map<std::string, Metric> finish() const {
    std::map<std::string, Metric> out;
    for (const auto& [name, unit] : per_layer_metrics())
      out[name] = Metric{get(name), unit};
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Adds each span name's self time (seconds per pass) to the layer metric
/// of the same name with an `_s` suffix, and the top three spans by self
/// time to the notes.
void fold_spans(const Tracer& tracer, double passes, Layers& layers,
                RunResult& result) {
  const auto totals = totals_by_name(tracer.spans());
  std::vector<std::pair<std::string, NameTotals>> ranked;
  for (const auto& [name, total] : totals) {
    layers.set(name + "_s", static_cast<double>(total.self_ns) / 1e9 / passes);
    // The benchmark's own spans (cells, passes) are context, not stages.
    if (!util::starts_with(name, "bench.")) ranked.emplace_back(name, total);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::int64_t all_self = 0;
  for (const auto& [name, total] : ranked) all_self += total.self_ns;
  for (std::size_t i = 0; i < ranked.size() && i < 3; ++i) {
    const auto& [name, total] = ranked[i];
    std::ostringstream line;
    line.setf(std::ios::fixed);
    line.precision(4);
    line << "top span " << (i + 1) << ": " << name << " self "
         << static_cast<double>(total.self_ns) / 1e9 / passes << " s/pass ("
         << (all_self > 0 ? 100.0 * static_cast<double>(total.self_ns) /
                                static_cast<double>(all_self)
                          : 0.0)
         << "% of layer self time, " << total.calls << " calls)";
    result.notes.push_back(line.str());
  }
  layers.set("trace.spans", static_cast<double>(tracer.spans().size()));
}

// ---- Set-up ----------------------------------------------------------------

struct Setup {
  Loaded loaded;
  double parse_s = 0.0;  ///< Medians over the repetitions.
  double build_s = 0.0;
};

/// Writes the run's corpus as a PLT tree, then parses it and builds the
/// analyzer kSetupReps times, keeping the last analyzer; set-up time is the
/// median repetition. The tree is deleted afterwards.
Setup set_up(const CorpusSpec& spec, const RunConfig& config, RunResult& result) {
  const fs::path root = config.out_dir / (config.workload + ".corpus");
  const auto written = Clock::now();
  write_corpus(spec, config.seed, root);
  const double write_s = seconds_since(written);
  Setup setup;
  std::vector<double> parse;
  std::vector<double> build;
  const int reps = config.digest_only ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    setup.loaded = Loaded{};  // Free the previous analyzer first.
    setup.loaded = load_corpus(root);
    parse.push_back(setup.loaded.parse_s);
    build.push_back(setup.loaded.build_s);
  }
  setup.parse_s = median(parse);
  setup.build_s = median(build);
  fs::remove_all(root);
  result.notes.push_back(
      "corpus: " + std::to_string(setup.loaded.analyzer->user_count()) + " users, " +
      std::to_string(setup.loaded.fixes) + " fixes, written in " +
      util::format_fixed(write_s, 2) + " s; set-up repeated " +
      std::to_string(parse.size()) + " times");
  return setup;
}

// ---- Batch workloads -------------------------------------------------------

/// One unit of batch work: a user at an interval (and, for detect-prefix,
/// a pattern).
struct Cell {
  std::size_t user = 0;
  std::int64_t interval_s = 0;
  privacy::Pattern pattern = privacy::Pattern::kVisits;
};

using CellFn = std::function<std::vector<std::string>(const Cell&, std::uint64_t)>;

/// The layer calls of PrivacyAnalyzer::evaluate_exposure, made one by one so
/// each gets a span. Must produce exactly the untraced row.
std::vector<std::string> traced_exposure(const core::PrivacyAnalyzer& analyzer,
                                         const Cell& cell, std::uint64_t request,
                                         Tracer& tracer, Layers& layers) {
  const core::UserReference& reference = analyzer.reference(cell.user);
  const core::AnalyzerConfig& config = analyzer.config();
  std::vector<trace::TracePoint> collected;
  {
    ScopedSpan span(tracer, "trace.decimate", request);
    collected = cell.interval_s <= 1 ? reference.points
                                     : trace::decimate(reference.points, cell.interval_s);
  }
  if (collected.empty())  // Not reachable for a non-empty reference trace.
    return service::exposure_fields(
        reference.user_id, cell.interval_s,
        analyzer.evaluate_collected(cell.user, cell.interval_s, collected));

  core::ExposureReport report;
  report.interval_s = cell.interval_s;
  report.collected_fixes = collected.size();
  std::vector<poi::StayPoint> stays;
  {
    ScopedSpan span(tracer, "poi.staypoint", request);
    stays = poi::extract_stay_points(collected, config.extraction);
  }
  layers.add("poi.staypoint_calls", 1);
  layers.add("poi.fixes_scanned", static_cast<double>(collected.size()));
  layers.add("poi.stays", static_cast<double>(stays.size()));
  std::vector<poi::Poi> pois;
  {
    ScopedSpan span(tracer, "poi.cluster", request);
    pois = poi::cluster_stay_points(stays, config.extraction.radius_m);
  }
  report.extracted_pois = pois.size();
  {
    ScopedSpan span(tracer, "privacy.recovery", request);
    report.poi_total =
        privacy::poi_recovery(reference.pois, pois, config.extraction.radius_m);
    report.poi_sensitive = privacy::sensitive_poi_recovery(
        reference.pois, pois, config.extraction.radius_m, /*max_visits=*/3);
  }
  privacy::PatternHistogram visits;
  privacy::PatternHistogram movements;
  {
    ScopedSpan span(tracer, "privacy.histogram", request);
    visits = privacy::visit_histogram(pois, analyzer.grid());
    movements = privacy::movement_histogram(pois, analyzer.grid());
  }
  {
    ScopedSpan span(tracer, "privacy.match", request);
    const auto visits_match =
        privacy::match_histograms(visits, reference.visits, config.match);
    const auto movements_match =
        privacy::match_histograms(movements, reference.movements, config.match);
    report.hisbin_visits = visits_match.attempted && visits_match.matches;
    report.hisbin_movements = movements_match.attempted && movements_match.matches;
  }
  {
    ScopedSpan span(tracer, "privacy.identify", request);
    if (!visits.empty()) {
      report.anonymity_visits =
          analyzer.adversary()
              .identify(visits, privacy::Pattern::kVisits, config.match)
              .degree_of_anonymity;
      layers.add("privacy.identify_calls", 1);
    }
    if (!movements.empty()) {
      report.anonymity_movements =
          analyzer.adversary()
              .identify(movements, privacy::Pattern::kMovements, config.match)
              .degree_of_anonymity;
      layers.add("privacy.identify_calls", 1);
    }
  }
  return service::exposure_fields(reference.user_id, cell.interval_s, report);
}

std::vector<std::string> detection_row(const core::PrivacyAnalyzer& analyzer,
                                       const Cell& cell,
                                       const privacy::DetectionOutcome& detection,
                                       const privacy::DetectionOutcome& identification) {
  return {analyzer.reference(cell.user).user_id,
          std::to_string(static_cast<int>(cell.pattern)),
          std::to_string(cell.interval_s),
          detection.detected ? "1" : "0",
          util::format_fixed(detection.fraction, 2),
          identification.detected ? "1" : "0",
          util::format_fixed(identification.fraction, 2)};
}

/// The layer calls of earliest_detection + earliest_identification, prefix
/// by prefix, each with a span. Must produce exactly the untraced row.
std::vector<std::string> traced_detection(const core::PrivacyAnalyzer& analyzer,
                                          const Cell& cell, std::uint64_t request,
                                          Tracer& tracer, Layers& layers) {
  const core::UserReference& reference = analyzer.reference(cell.user);
  const core::AnalyzerConfig& config = analyzer.config();
  const privacy::PatternHistogram& profile =
      cell.pattern == privacy::Pattern::kVisits ? reference.visits
                                                : reference.movements;
  const std::vector<double> fractions =
      privacy::DetectionConfig::make_default_fractions();

  // observed(prefix) for one probed fraction; empty optional when the
  // prefix is empty and the library would skip the fraction.
  const auto observe = [&](double fraction, privacy::PatternHistogram& out) {
    std::vector<trace::TracePoint> prefix;
    {
      ScopedSpan span(tracer, "trace.prefix", request);
      prefix = trace::take_prefix_fraction(reference.points, fraction);
    }
    if (prefix.empty()) return false;
    layers.add("privacy.prefixes_probed", 1);
    std::vector<trace::TracePoint> collected;
    {
      ScopedSpan span(tracer, "trace.decimate", request);
      collected = cell.interval_s <= 1 ? prefix
                                       : trace::decimate(prefix, cell.interval_s);
    }
    std::vector<poi::StayPoint> stays;
    {
      ScopedSpan span(tracer, "poi.staypoint", request);
      stays = poi::extract_stay_points(collected, config.extraction);
    }
    layers.add("poi.staypoint_calls", 1);
    layers.add("poi.fixes_scanned", static_cast<double>(collected.size()));
    layers.add("poi.stays", static_cast<double>(stays.size()));
    std::vector<poi::Poi> pois;
    {
      ScopedSpan span(tracer, "poi.cluster", request);
      pois = poi::cluster_stay_points(stays, config.extraction.radius_m);
    }
    ScopedSpan span(tracer, "privacy.histogram", request);
    out = privacy::build_histogram(cell.pattern, pois, analyzer.grid());
    return true;
  };

  privacy::DetectionOutcome detection;
  for (const double fraction : fractions) {
    privacy::PatternHistogram observed;
    if (!observe(fraction, observed)) continue;
    ScopedSpan span(tracer, "privacy.match", request);
    const privacy::MatchResult match =
        privacy::match_histograms(observed, profile, config.match);
    if (match.attempted && match.matches) {
      detection.detected = true;
      detection.fraction = fraction;
      break;
    }
  }
  privacy::DetectionOutcome identification;
  for (const double fraction : fractions) {
    privacy::PatternHistogram observed;
    if (!observe(fraction, observed) || observed.empty()) continue;
    ScopedSpan span(tracer, "privacy.identify", request);
    layers.add("privacy.identify_calls", 1);
    const privacy::IdentificationResult identified =
        analyzer.adversary().identify(observed, cell.pattern, config.match);
    if (identified.matched.size() == 1 && identified.matched.front() == cell.user) {
      identification.detected = true;
      identification.fraction = fraction;
      break;
    }
  }
  layers.add("bench.sweeps", 2);
  layers.add("bench.sweep_hits",
             (detection.detected ? 1 : 0) + (identification.detected ? 1 : 0));
  return detection_row(analyzer, cell, detection, identification);
}

/// Looks `workload`/`seed` up in a table of "workload seed digest..." lines
/// and returns the rest of the line; empty when the seed was never recorded.
std::string recorded_digest(const fs::path& table, const std::string& workload,
                            std::uint64_t seed) {
  std::ifstream in(table);
  const std::string key = workload + ' ' + std::to_string(seed) + ' ';
  std::string line;
  while (std::getline(in, line))
    if (util::starts_with(line, key)) return line.substr(key.size());
  return "";
}

/// The rows' digest, then an 8-digit digest of each user's rows in
/// analyzer order: one line of the digest table.
std::string fingerprint(const core::PrivacyAnalyzer& analyzer, const Rows& rows) {
  std::map<std::string, Rows> by_user;
  for (const auto& row : rows) by_user[row.front()].push_back(row);
  std::string line = rows_digest(rows);
  for (std::size_t u = 0; u < analyzer.user_count(); ++u)
    line += ' ' + rows_digest(by_user[analyzer.reference(u).user_id]).substr(8);
  return line;
}

/// Fails the run when `rows` do not match the `expected` fingerprint
/// (empty: nothing to compare), naming the users whose rows differ.
void check_fingerprint(const core::PrivacyAnalyzer& analyzer, const Rows& rows,
                       const std::string& expected, const std::string& what,
                       RunResult& result) {
  const std::string actual = fingerprint(analyzer, rows);
  if (expected.empty() || actual == expected) return;
  const std::vector<std::string_view> want = util::split(expected, ' ');
  const std::vector<std::string_view> got = util::split(actual, ' ');
  std::vector<std::string> users;
  for (std::size_t u = 0; u < analyzer.user_count(); ++u)
    if (u + 1 >= want.size() || want[u + 1] != got[u + 1])
      users.push_back(analyzer.reference(u).user_id);
  std::string message = "rows differ from " + what + " for users [" +
                        util::join(users, " ") + "]";
  for (const auto& row : rows)
    if (!users.empty() && row.front() == users.front()) {
      message += "; first row of " + users.front() + ": [" + util::join(row, ",") + "]";
      break;
    }
  fail(result, message);
}

/// Cheap oracle rows of audit-ladder at interval 1: the app sees the whole
/// trace, so it must extract exactly the reference PoIs and recover all.
void check_full_rate_rows(const core::PrivacyAnalyzer& analyzer, const Rows& rows,
                          RunResult& result) {
  for (const auto& row : rows) {
    if (row[1] != "1") continue;
    for (std::size_t u = 0; u < analyzer.user_count(); ++u) {
      const core::UserReference& reference = analyzer.reference(u);
      if (reference.user_id != row[0]) continue;
      if (row[2] != std::to_string(reference.points.size()) ||
          row[3] != std::to_string(reference.pois.size()) || row[4] != "1.0000")
        fail(result, "user " + row[0] +
                         " at interval 1 does not reproduce its reference: [" +
                         util::join(row, ",") + "]");
    }
  }
}

RunResult run_batch(const RunConfig& config) {
  RunResult result;
  const bool ladder = config.workload == "audit-ladder";
  const Setup setup = set_up(ladder ? kLadderCorpus : kBatchCorpus, config, result);
  const core::PrivacyAnalyzer& analyzer = *setup.loaded.analyzer;

  std::vector<Cell> cells;
  if (ladder) {
    for (const std::int64_t interval : core::access_interval_ladder())
      for (std::size_t u = 0; u < analyzer.user_count(); ++u)
        cells.push_back({u, interval, privacy::Pattern::kVisits});
  } else {
    for (const std::int64_t interval : kDetectIntervals)
      for (std::size_t u = 0; u < analyzer.user_count(); ++u)
        for (const auto pattern : {privacy::Pattern::kVisits, privacy::Pattern::kMovements})
          cells.push_back({u, interval, pattern});
  }
  // Full-rate fixes each cell's calls start from (the user's whole trace).
  double fixes_per_pass = 0.0;
  for (const Cell& cell : cells)
    fixes_per_pass += static_cast<double>(analyzer.reference(cell.user).points.size());

  const CellFn untraced = [&](const Cell& cell, std::uint64_t) {
    if (ladder)
      return service::exposure_fields(analyzer.reference(cell.user).user_id,
                                      cell.interval_s,
                                      analyzer.evaluate_exposure(cell.user, cell.interval_s));
    return detection_row(analyzer, cell,
                         analyzer.earliest_detection(cell.user, cell.pattern, cell.interval_s),
                         analyzer.earliest_identification(cell.user, cell.pattern,
                                                          cell.interval_s));
  };
  Tracer tracer(config.trace);
  Layers layers;
  const CellFn traced = [&](const Cell& cell, std::uint64_t request) {
    ScopedSpan span(tracer, "bench.cell", request);
    return ladder ? traced_exposure(analyzer, cell, request, tracer, layers)
                  : traced_detection(analyzer, cell, request, tracer, layers);
  };

  const auto run_pass = [&](const CellFn& fn, std::uint64_t first_request,
                            std::vector<double>* latencies_ms) {
    Rows rows;
    rows.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto start = Clock::now();
      rows.push_back(fn(cells[i], first_request + i));
      if (latencies_ms != nullptr) latencies_ms->push_back(seconds_since(start) * 1e3);
    }
    return rows;
  };

  // The fingerprint recorded for the seed is the reference; a traced run
  // also checks its decomposed calls against one untraced pass of its own.
  const std::string recorded =
      recorded_digest(config.digest_table, config.workload, config.seed);
  std::string reference = recorded;
  double untraced_pass_s = 0.0;
  if (config.trace || config.digest_only) {
    const auto start = Clock::now();
    const Rows rows = run_pass(untraced, 0, nullptr);
    untraced_pass_s = seconds_since(start);
    if (ladder) check_full_rate_rows(analyzer, rows, result);
    result.digest = fingerprint(analyzer, rows);
    if (config.digest_only) return result;
    check_fingerprint(analyzer, rows, recorded, "the digest recorded for this seed", result);
    reference = result.digest;
  }

  // Reserved up front: were the vector to double as passes accumulate,
  // peak_rss_mb would step by its size at a pass count that depends on the
  // host's speed.
  std::vector<double> cell_ms;
  cell_ms.reserve(cells.size() * kReservedPasses);
  std::vector<double> pass_s;
  std::vector<double> serialize_s;
  double table_bytes = 0.0;
  Rows first_rows;
  const auto window = Clock::now();
  std::uint64_t passes = 0;
  while (passes == 0 || seconds_since(window) < config.seconds) {
    const auto start = Clock::now();
    Rows rows = run_pass(config.trace ? traced : untraced, passes * cells.size(), &cell_ms);
    pass_s.push_back(seconds_since(start));
    // The end of an `audit-all --csv` run: the table through CsvWriter.
    // (Its atomic publish is left out: on a shared disk the fsync alone
    // varied run to run by more than the bounds allow.)
    for (int write = 0; write < kTableWrites; ++write) {
      const auto serialize = Clock::now();
      std::ostringstream table;
      util::CsvWriter csv(table);
      for (const auto& row : rows) csv.write_row(row);
      serialize_s.push_back(seconds_since(serialize));
      table_bytes = static_cast<double>(table.str().size());
    }

    if (passes == 0) {
      if (ladder) check_full_rate_rows(analyzer, rows, result);
      result.digest = fingerprint(analyzer, rows);
      check_fingerprint(analyzer, rows, reference,
                        recorded.empty() ? "the untraced pass"
                                         : "the digest recorded for this seed",
                        result);
      first_rows = std::move(rows);
    } else if (rows != first_rows) {
      fail(result, "pass " + std::to_string(passes) + " differs from pass 0: " +
                       first_difference(first_rows, rows));
    }
    ++passes;
  }
  if (recorded.empty())
    result.notes.push_back("no recorded digest for seed " + std::to_string(config.seed) +
                           "; checked pass-to-pass agreement" +
                           (ladder ? " and the interval-1 oracle" : ""));

  const Summary ack = summarize(cell_ms);
  // A pass is timed as the sum of its cells' own medians (and tails), not
  // by the clock around it: on a shared host the clock around a pass also
  // counts the time other tenants held the CPU between cells.
  const Summary report = composed_pass(cell_ms, cells.size());
  const double typical_pass_s = report.p50 / 1e3;
  result.attempted = passes * cells.size();
  result.failed = 0;
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {setup.parse_s + setup.build_s, "s"};
  e2e["cells_per_s"] = {static_cast<double>(cells.size()) / typical_pass_s, "1/s"};
  e2e["fixes_per_s"] = {fixes_per_pass / typical_pass_s, "1/s"};
  e2e["ack_p50_ms"] = {ack.p50, "ms"};
  e2e["ack_p99_ms"] = {ack.tail, "ms"};
  e2e["report_p50_ms"] = {report.p50, "ms"};
  e2e["report_tail_ms"] = {report.tail, "ms"};
  e2e["drain_s"] = {median(serialize_s), "s"};
  e2e["snapshot_bytes_per_fix"] = {table_bytes / fixes_per_pass, "B"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  result.notes.push_back(std::to_string(passes) + " passes of " +
                         std::to_string(cells.size()) + " cells; ack = one cell's calls (p" +
                         util::format_fixed(ack.tail_pct, 0) + " of n=" +
                         std::to_string(ack.n) + "), report = one pass composed of its "
                         "cells' medians and tails (tail p" +
                         util::format_fixed(report.tail_pct, 0) + " of n=" +
                         std::to_string(report.n) + "); pass clock median " +
                         util::format_fixed(median(pass_s) * 1e3, 1) + " ms, composed " +
                         util::format_fixed(report.p50, 1) + " ms");

  layers.set("trace.parse_s", setup.parse_s);
  layers.set("core.analyzer_build_s", setup.build_s);
  if (config.trace) {
    const double n = static_cast<double>(passes);
    for (const char* name : {"poi.staypoint_calls", "poi.fixes_scanned", "poi.stays",
                             "privacy.identify_calls", "privacy.prefixes_probed"})
      layers.set(name, layers.get(name) / n);
    if (layers.get("bench.sweeps") > 0)
      layers.set("privacy.detect_hit_ratio",
                 layers.get("bench.sweep_hits") / layers.get("bench.sweeps"));
    fold_spans(tracer, n, layers, result);
    result.notes.push_back("tracing overhead (same run): traced pass median " +
                           util::format_fixed(median(pass_s), 4) + " s vs untraced " +
                           util::format_fixed(untraced_pass_s, 4) + " s");
    tracer.write_jsonl((config.out_dir / (config.workload + ".spans.jsonl")).string());
  }
  result.per_layer = layers.finish();
  return result;
}

// ---- Serve workloads -------------------------------------------------------

/// One schedule entry: fixes [begin, begin + count) of a user's reference
/// trace, shifted by the round offset.
struct Upload {
  std::size_t user = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
  std::int64_t offset_s = 0;
};

/// service::drive_traffic's canonical schedule: each round interleaves the
/// users round-robin in `batch`-fix chunks, with the corpus time-shifted by
/// (span + round_gap) per round so every user's stream keeps increasing.
std::vector<Upload> canonical_schedule(const core::PrivacyAnalyzer& analyzer,
                                       const service::TrafficOptions& traffic) {
  std::int64_t min_ts = 0;
  std::int64_t max_ts = 0;
  bool first = true;
  for (std::size_t i = 0; i < analyzer.user_count(); ++i) {
    const auto& points = analyzer.reference(i).points;
    if (points.empty()) continue;
    min_ts = first ? points.front().timestamp_s
                   : std::min(min_ts, points.front().timestamp_s);
    max_ts = first ? points.back().timestamp_s
                   : std::max(max_ts, points.back().timestamp_s);
    first = false;
  }
  const std::int64_t span = (max_ts - min_ts) + traffic.round_gap_s;
  std::vector<Upload> schedule;
  for (int round = 0; round < traffic.rounds; ++round) {
    std::vector<std::size_t> cursor(analyzer.user_count(), 0);
    bool pending = true;
    while (pending) {
      pending = false;
      for (std::size_t i = 0; i < analyzer.user_count(); ++i) {
        const std::size_t size = analyzer.reference(i).points.size();
        if (cursor[i] >= size) continue;
        pending = true;
        const std::size_t take = std::min(traffic.batch_size, size - cursor[i]);
        schedule.push_back({i, cursor[i], take, static_cast<std::int64_t>(round) * span});
        cursor[i] += take;
      }
    }
  }
  return schedule;
}

std::vector<trace::TracePoint> upload_fixes(const core::PrivacyAnalyzer& analyzer,
                                            const Upload& upload) {
  const auto& points = analyzer.reference(upload.user).points;
  std::vector<trace::TracePoint> fixes(
      points.begin() + static_cast<std::ptrdiff_t>(upload.begin),
      points.begin() + static_cast<std::ptrdiff_t>(upload.begin + upload.count));
  for (trace::TracePoint& fix : fixes) fix.timestamp_s += upload.offset_s;
  return fixes;
}

/// Observes acks from outside the service: after each tick the benchmark
/// reads every shard's acked_seq watermark and retires the batches it
/// covers. The resolution is the gap since the previous poll, recorded for
/// every poll that retires a batch.
class AckTracker {
 public:
  explicit AckTracker(unsigned shards) : pending_(shards) {}

  /// `t0_s` is when the batch's latency starts: its submit call (closed
  /// loop) or its due time (open loop).
  void sent(unsigned shard, std::uint64_t seq, double t0_s, std::size_t fixes) {
    pending_[shard].push_back({seq, t0_s, fixes});
    ++outstanding_;
  }

  void poll(const service::LocprivService& service, double now_s) {
    const std::size_t before = outstanding_;
    for (unsigned k = 0; k < pending_.size(); ++k) {
      auto& queue = pending_[k];
      if (queue.empty()) continue;
      const std::uint64_t acked = service.shard_load(k).acked_seq;
      while (!queue.empty() && queue.front().seq <= acked) {
        latencies_ms_.push_back((now_s - queue.front().t0_s) * 1e3);
        fixes_acked_ += queue.front().fixes;
        last_ack_s_ = now_s;
        queue.pop_front();
        --outstanding_;
      }
    }
    if (outstanding_ != before && last_poll_s_ >= 0.0)
      poll_gaps_ms_.push_back((now_s - last_poll_s_) * 1e3);
    last_poll_s_ = now_s;
  }

  std::size_t outstanding() const { return outstanding_; }
  std::size_t outstanding(unsigned shard) const { return pending_[shard].size(); }
  std::uint64_t fixes_acked() const { return fixes_acked_; }
  double last_ack_s() const { return last_ack_s_; }
  std::vector<double>& latencies_ms() { return latencies_ms_; }
  std::vector<double>& poll_gaps_ms() { return poll_gaps_ms_; }

 private:
  struct InFlight {
    std::uint64_t seq = 0;
    double t0_s = 0.0;
    std::size_t fixes = 0;
  };
  std::vector<std::deque<InFlight>> pending_;
  std::size_t outstanding_ = 0;
  std::uint64_t fixes_acked_ = 0;
  double last_poll_s_ = -1.0;
  double last_ack_s_ = 0.0;
  std::vector<double> latencies_ms_;
  std::vector<double> poll_gaps_ms_;
};

/// Snapshot rounds started by snapshot_now(), retired when the service's
/// snapshot count shows every shard published; their latency is the
/// parent-observed snapshot time.
class SnapshotRounds {
 public:
  void started(double now_s, std::uint64_t snapshots_now) {
    rounds_.push_back({now_s, snapshots_now + kShards});
  }
  void poll(std::uint64_t snapshots_now, double now_s) {
    while (!rounds_.empty() && snapshots_now >= rounds_.front().target) {
      total_s_ += now_s - rounds_.front().start_s;
      rounds_.pop_front();
    }
  }
  double total_s() const { return total_s_; }

 private:
  struct Round {
    double start_s = 0.0;
    std::uint64_t target = 0;
  };
  std::deque<Round> rounds_;
  double total_s_ = 0.0;
};

service::ServiceOptions serve_options(std::uint64_t seed,
                                      const core::PrivacyAnalyzer& analyzer) {
  service::ServiceOptions options;
  options.shards = kShards;
  options.interval_s = kServeInterval;
  options.seed = seed;
  options.scale = std::to_string(analyzer.user_count()) + "u_t" +
                  std::to_string(kServeInterval);
  options.heartbeat = std::chrono::milliseconds(200);
  options.snapshot_interval = std::chrono::milliseconds(0);
  options.max_inflight_batches = 64;
  options.max_retained_bytes = std::size_t{64} << 20;
  options.backoff_seed = seed;
  return options;
}

/// Everything one serve pass observed.
struct ServePass {
  double ingest_s = 0.0;
  std::uint64_t fixes_acked = 0;
  Summary ack_ms;  ///< Submit (or due time) to observed ack.
  std::vector<double> report_s;
  double drain_s = 0.0;
  double snapshot_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t ledger_bytes = 0;
  std::uint64_t run_dir_bytes = 0;
  std::uint64_t report_rows = 0;
  double late_p99_ms = 0.0;
  std::uint64_t backlog_end = 0;
  double ewma_max_ms = 0.0;
  double shard_skew = 0.0;
  service::ServiceStats stats;
};

/// Checks a finished pass: byte-identical parity with the batch pipeline
/// over the same schedule, the offer reconciliation identity, and no shard
/// failures (this workload injects none).
void check_serve(const core::PrivacyAnalyzer& analyzer,
                 const service::TrafficOptions& traffic, const Rows& rows,
                 const service::ServiceStats& stats,
                 const std::vector<std::string>& quarantined, OfferTally& tally,
                 RunResult& result) {
  OfferTally pass;
  pass.offered = stats.batches_offered;
  pass.submitted = stats.batches_submitted;
  pass.dropped = stats.batches_dropped;
  pass.shed = stats.batches_shed;
  if (!pass.reconciles())
    fail(result, "offered " + std::to_string(pass.offered) + " != submitted " +
                     std::to_string(pass.submitted) + " + dropped " +
                     std::to_string(pass.dropped) + " + shed " + std::to_string(pass.shed));
  tally.offered += pass.offered;
  tally.submitted += pass.submitted;
  tally.dropped += pass.dropped;
  tally.shed += pass.shed;
  if (stats.shard_deaths != 0 || !quarantined.empty())
    fail(result, std::to_string(stats.shard_deaths) + " shard deaths, " +
                     std::to_string(quarantined.size()) + " quarantined shards");
  const std::vector<std::string> mismatched =
      service::parity_mismatches(analyzer, kServeInterval, traffic, rows);
  if (!mismatched.empty()) {
    const Rows expected =
        service::batch_reference_rows(analyzer, kServeInterval, traffic);
    fail(result, std::to_string(mismatched.size()) +
                     " users differ from batch_reference_rows, first " +
                     mismatched.front() + ": " + first_difference(expected, rows));
  }
}

/// Wire and snapshot codec costs on the workload's own data, measured
/// outside the pass: every scheduled batch encoded as the service frames
/// it and decoded back through a FrameDecoder fed in pipe-sized chunks,
/// and the final per-shard state encoded as one snapshot round.
void measure_codecs(const core::PrivacyAnalyzer& analyzer,
                    const service::LocprivService& service,
                    const std::vector<Upload>& schedule, Layers& layers) {
  std::string stream;
  double fixes = 0.0;
  auto start = Clock::now();
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    const std::vector<trace::TracePoint> batch = upload_fixes(analyzer, schedule[j]);
    std::vector<std::string> fields;
    fields.reserve(4 + batch.size() * 3);
    fields.push_back(service::wire::kCmdSubmit);
    fields.push_back(std::to_string(j + 1));
    fields.push_back(analyzer.reference(schedule[j].user).user_id);
    fields.push_back(std::to_string(batch.size()));
    for (const trace::TracePoint& fix : batch) {
      fields.push_back(service::format_coord(fix.position.lat_deg));
      fields.push_back(service::format_coord(fix.position.lon_deg));
      fields.push_back(std::to_string(fix.timestamp_s));
    }
    stream += service::wire::encode_message(fields);
    fixes += static_cast<double>(batch.size());
  }
  const double encode_s = seconds_since(start);

  start = Clock::now();
  service::wire::FrameDecoder decoder;
  std::vector<std::string> fields;
  std::size_t decoded = 0;
  constexpr std::size_t kChunk = 64 * 1024;
  for (std::size_t at = 0; at < stream.size(); at += kChunk) {
    decoder.feed(stream.data() + at, std::min(kChunk, stream.size() - at));
    while (decoder.next(fields)) ++decoded;
  }
  const double decode_s = seconds_since(start);
  if (decoded != schedule.size() || decoder.corrupt())
    throw std::runtime_error("perfbench: wire round trip lost frames");
  layers.set("service.wire_encode_ns_per_fix", encode_s * 1e9 / fixes);
  layers.set("service.wire_decode_ns_per_fix", decode_s * 1e9 / fixes);
  layers.set("service.frame_bytes_per_fix", static_cast<double>(stream.size()) / fixes);

  // Equal state: each shard's users with every fix the schedule sent them.
  std::vector<service::ShardSnapshot> shards(kShards);
  for (unsigned k = 0; k < kShards; ++k) shards[k].shard = k;
  for (const Upload& upload : schedule) {
    const std::string& user = analyzer.reference(upload.user).user_id;
    auto& fixes_of_user = shards[service.shard_of(user)].users[user];
    const auto batch = upload_fixes(analyzer, upload);
    fixes_of_user.insert(fixes_of_user.end(), batch.begin(), batch.end());
  }
  start = Clock::now();
  std::size_t bytes = 0;
  for (const auto& shard : shards) bytes += service::encode_snapshot(shard).size();
  layers.set("service.snapshot_encode_s", seconds_since(start));
  if (bytes == 0) throw std::runtime_error("perfbench: empty snapshot encode");
}

/// Median time to construct the service (run directory, ledger, shard
/// forks) over kSpawnReps constructions; each is torn down unused.
double measure_spawn(const core::PrivacyAnalyzer& analyzer, const RunConfig& config) {
  const fs::path run_dir = config.out_dir / (config.workload + ".spawn");
  std::vector<double> samples;
  for (int rep = 0; rep < kSpawnReps; ++rep) {
    fs::remove_all(run_dir);
    const auto start = Clock::now();
    const service::LocprivService service(serve_options(config.seed, analyzer), analyzer,
                                          run_dir, /*resume=*/false);
    samples.push_back(seconds_since(start));
  }  // The destructor kills and reaps the idle shards.
  fs::remove_all(run_dir);
  return median(samples);
}

/// Runs one service pass over `schedule`. Closed loop (rate 0): each batch
/// is submitted as soon as the previous submit returns, and its latency
/// starts at the submit call. Open loop (rate > 0): batch j is due at
/// start + j / rate, latency starts at the due time, and collect_reports()
/// runs every kLiveReportEvery seconds beside the writes.
ServePass serve_pass(const core::PrivacyAnalyzer& analyzer,
                     const std::vector<Upload>& schedule,
                     const service::TrafficOptions& traffic, double rate,
                     const RunConfig& config, Tracer& tracer,
                     std::vector<double>& poll_gap_ms,
                     OfferTally& tally, RunResult& result, Layers* codecs) {
  ServePass pass;
  const fs::path run_dir = config.out_dir / (config.workload + ".run");
  fs::remove_all(run_dir);
  const auto epoch = Clock::now();
  const auto now_s = [&] { return seconds_since(epoch); };

  std::unique_ptr<service::LocprivService> service;
  {
    ScopedSpan span(tracer, "service.spawn", 0);
    service = std::make_unique<service::LocprivService>(
        serve_options(config.seed, analyzer), analyzer, run_dir, /*resume=*/false);
  }

  AckTracker acks(kShards);
  SnapshotRounds snapshots;
  std::vector<double> fixes_per_shard(kShards, 0.0);
  std::vector<double> late_ms;
  const auto poll = [&] {
    const double t = now_s();
    acks.poll(*service, t);
    snapshots.poll(service->stats().snapshots, t);
  };
  // One event-loop turn after each submit, as drive_traffic does.
  const auto tick = [&](std::uint64_t request) {
    {
      ScopedSpan span(tracer, "service.tick", request);
      service->tick(std::chrono::milliseconds(0));
    }
    poll();
  };
  // Spins the event loop (polling acks after every turn) until `done`.
  // Waiting is the benchmark's, so the turns get no service span.
  const auto wait_until = [&](std::uint64_t request, const auto& done) {
    ScopedSpan span(tracer, "bench.wait", request);
    const double deadline = now_s() + kWaitLimitS;
    while (!done()) {
      if (now_s() > deadline)
        throw std::runtime_error("perfbench: no progress from the service in " +
                                 util::format_fixed(kWaitLimitS, 0) + " s");
      service->tick(std::chrono::milliseconds(0));
      poll();
    }
  };
  const auto report = [&](std::uint64_t request) {
    const double start = now_s();
    Rows rows;
    {
      ScopedSpan span(tracer, "service.report", request);
      rows = service->collect_reports();
    }
    pass.report_s.push_back(now_s() - start);
    pass.report_rows += rows.size();
    poll();
    return rows;
  };

  const double start_s = now_s();
  const OpenLoopSchedule clock{start_s, rate > 0.0 ? 1.0 / rate : 0.0};
  double next_report_s = start_s + kLiveReportEvery;
  std::uint64_t reports = 0;
  std::size_t snapshot_rounds = 0;
  for (std::size_t j = 0; j < schedule.size(); ++j) {
    if (rate > 0.0) {
      // Open loop: wait until batch j is due, reading on the report cadence
      // (a report that overruns the cadence delays the next one).
      wait_until(j, [&] {
        if (now_s() >= next_report_s) {
          report(reports++);
          next_report_s = std::max(next_report_s + kLiveReportEvery, now_s());
        }
        return now_s() >= clock.due(j);
      });
    }
    const Upload& upload = schedule[j];
    const std::string& user = analyzer.reference(upload.user).user_id;
    const std::vector<trace::TracePoint> fixes = upload_fixes(analyzer, upload);
    if (rate == 0.0) {
      // Closed loop: the owning shard's callers wait for their acks.
      const unsigned shard = service->shard_of(user);
      if (acks.outstanding(shard) >= kCallersPerShard)
        wait_until(j, [&] { return acks.outstanding(shard) < kCallersPerShard; });
    }
    const double sent_s = now_s();
    service::Admission admission;
    {
      ScopedSpan span(tracer, "service.submit", j);
      admission = service->submit(user, fixes, /*may_shed=*/false);
    }
    if (admission == service::Admission::kBlocked) ++tally.blocked;
    const unsigned shard = service->shard_of(user);
    fixes_per_shard[shard] += static_cast<double>(fixes.size());
    if (admission == service::Admission::kAccepted)
      acks.sent(shard, service->shard_load(shard).submit_seq,
                rate > 0.0 ? clock.due(j) : sent_s, fixes.size());
    if (rate > 0.0) late_ms.push_back(clock.lateness(j, sent_s) * 1e3);
    if (snapshot_rounds < kSnapshotRounds &&
        j + 1 == schedule.size() * (snapshot_rounds + 1) / (kSnapshotRounds + 1)) {
      ++snapshot_rounds;
      ScopedSpan span(tracer, "service.snapshot_now", j);
      snapshots.started(now_s(), service->stats().snapshots);
      service->snapshot_now();
    }
    tick(j);
  }
  pass.backlog_end = acks.outstanding();
  wait_until(schedule.size(), [&] { return acks.outstanding() == 0; });
  pass.ingest_s = acks.last_ack_s() - start_s;
  pass.fixes_acked = acks.fixes_acked();
  for (unsigned k = 0; k < kShards; ++k)
    pass.ewma_max_ms = std::max(pass.ewma_max_ms, service->shard_load(k).ewma_ms);
  const auto [lo, hi] = std::minmax_element(fixes_per_shard.begin(), fixes_per_shard.end());
  pass.shard_skew = *lo > 0.0 ? *hi / *lo : 0.0;
  pass.late_p99_ms = summarize(late_ms).tail;

  Rows rows = report(reports++);
  // The closed loop reads its final state a few times; reports after the
  // first must not change it.
  for (int extra = 1; rate == 0.0 && extra < kIngestReports; ++extra)
    if (report(reports++) != rows)
      fail(result, "collect_reports() changed on an idle service");
  {
    const double start = now_s();
    ScopedSpan span(tracer, "service.drain", 0);
    service->drain();
    pass.drain_s = now_s() - start;
  }
  pass.snapshot_s = snapshots.total_s();
  pass.stats = service->stats();
  for (const auto& entry : fs::directory_iterator(run_dir)) {
    const auto bytes = static_cast<std::uint64_t>(entry.file_size());
    const std::string name = entry.path().filename().string();
    if (name == "ledger.jsonl") pass.ledger_bytes += bytes;
    if (util::ends_with(name, ".dat")) pass.snapshot_bytes += bytes;
  }
  pass.run_dir_bytes = tree_bytes(run_dir);

  check_serve(analyzer, traffic, rows, pass.stats, service->quarantined_shards(), tally,
              result);
  if (codecs != nullptr) measure_codecs(analyzer, *service, schedule, *codecs);
  service.reset();
  fs::remove_all(run_dir);

  auto& gaps = acks.poll_gaps_ms();
  poll_gap_ms.insert(poll_gap_ms.end(), gaps.begin(), gaps.end());
  pass.ack_ms = summarize(acks.latencies_ms());
  return pass;
}

RunResult run_serve(const RunConfig& config) {
  RunResult result;
  const bool live = config.workload == "serve-live";
  const CorpusSpec& spec = live ? kLiveCorpus : kIngestCorpus;
  const Setup setup = set_up(spec, config, result);
  const core::PrivacyAnalyzer& analyzer = *setup.loaded.analyzer;

  service::TrafficOptions traffic;
  traffic.batch_size = live ? kLiveBatch : kIngestBatch;
  if (live) {
    // Whole rounds that keep the offered rate up for kLivePassS.
    const double per_round =
        static_cast<double>(canonical_schedule(analyzer, traffic).size());
    traffic.rounds =
        std::max(1, static_cast<int>(std::lround(kLiveRate * kLivePassS / per_round)));
  }
  const std::vector<Upload> schedule = canonical_schedule(analyzer, traffic);

  const double spawn_s = measure_spawn(analyzer, config);
  Tracer tracer(config.trace);
  Layers layers;
  OfferTally tally;
  std::vector<ServePass> passes;
  std::vector<double> poll_gap_ms;
  const auto window = Clock::now();
  // Whole passes, each with its own service, until the window is spent.
  while (passes.empty() || seconds_since(window) < config.seconds) {
    ScopedSpan span(tracer, "bench.pass", passes.size());
    passes.push_back(serve_pass(analyzer, schedule, traffic, live ? kLiveRate : 0.0,
                                config, tracer, poll_gap_ms, tally, result,
                                config.trace && passes.empty() ? &layers : nullptr));
  }

  const auto collect = [&](auto field) {
    std::vector<double> values;
    for (const ServePass& pass : passes) values.push_back(field(pass));
    return values;
  };
  // Timings are summarized per pass (one service, spawn to drain) and the
  // run reports the median over its passes: a stretch in which the host
  // held the shards off the CPU then spoils the passes it covers instead of
  // shifting every percentile of the pooled samples.
  const auto per_pass = [&](auto field) { return median(collect(field)); };
  const auto report_of = [](const ServePass& p) { return summarize(p.report_s); };
  const Summary first_ack = passes.front().ack_ms;
  const Summary first_report = report_of(passes.front());
  const double report_p50_s = per_pass([&](const ServePass& p) { return report_of(p).p50; });
  const Summary gaps = summarize(poll_gap_ms);
  const double rows_per_report =
      static_cast<double>(passes.front().report_rows) /
      static_cast<double>(passes.front().report_s.size());

  result.attempted = tally.attempted();
  result.failed = tally.failed();
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {setup.parse_s + setup.build_s + spawn_s, "s"};
  e2e["cells_per_s"] = {rows_per_report / report_p50_s, "1/s"};
  e2e["fixes_per_s"] = {per_pass([](const ServePass& p) {
                          return static_cast<double>(p.fixes_acked) / p.ingest_s;
                        }),
                        "1/s"};
  e2e["ack_p50_ms"] = {per_pass([](const ServePass& p) { return p.ack_ms.p50; }), "ms"};
  e2e["ack_p99_ms"] = {per_pass([](const ServePass& p) { return p.ack_ms.tail; }), "ms"};
  e2e["report_p50_ms"] = {report_p50_s * 1e3, "ms"};
  e2e["report_tail_ms"] = {
      per_pass([&](const ServePass& p) { return report_of(p).tail; }) * 1e3, "ms"};
  e2e["drain_s"] = {per_pass([](const ServePass& p) { return p.drain_s; }), "s"};
  e2e["snapshot_bytes_per_fix"] = {
      per_pass([](const ServePass& p) {
        return static_cast<double>(p.snapshot_bytes) / static_cast<double>(p.fixes_acked);
      }),
      "B"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  result.notes.push_back(
      std::to_string(passes.size()) + (live ? " open-loop passes at " : " closed-loop passes, ") +
      (live ? util::format_fixed(kLiveRate, 0) + " batches/s offered, " : std::string()) +
      std::to_string(schedule.size()) + " batches of " + std::to_string(traffic.batch_size) +
      " fixes per pass (" + std::to_string(traffic.rounds) +
      " rounds); timings are medians over passes of each pass's own: ack p50 and p" +
      util::format_fixed(first_ack.tail_pct, 0) + " of n=" + std::to_string(first_ack.n) +
      " per pass, acks seen by polling after every tick (gap before an observing poll p50 " +
      util::format_fixed(gaps.p50, 4) +
      " ms, p" + util::format_fixed(gaps.tail_pct, 0) + " " +
      util::format_fixed(gaps.tail, 3) + " ms); report tail p" +
      util::format_fixed(first_report.tail_pct, 0) + " of n=" +
      std::to_string(first_report.n) + " per pass");
  result.notes.push_back("fail_ratio " + util::format_fixed(tally.fail_ratio(), 6) +
                         " (" + std::to_string(tally.failed()) + " shed/blocked/quarantined of " +
                         std::to_string(tally.attempted()) + " offers)");

  const double n = static_cast<double>(passes.size());
  const auto mean = [&](auto field) {
    double sum = 0.0;
    for (const ServePass& pass : passes) sum += field(pass);
    return sum / n;
  };
  layers.set("trace.parse_s", setup.parse_s);
  layers.set("core.analyzer_build_s", setup.build_s);
  layers.set("service.blocked_waits",
             mean([](const ServePass& p) { return double(p.stats.blocked_waits); }));
  layers.set("service.turnaround_ewma_ms", mean([](const ServePass& p) { return p.ewma_max_ms; }));
  layers.set("service.shard_skew", mean([](const ServePass& p) { return p.shard_skew; }));
  layers.set("service.snapshot_s", mean([](const ServePass& p) { return p.snapshot_s; }));
  layers.set("service.snapshots",
             mean([](const ServePass& p) { return double(p.stats.snapshots); }));
  layers.set("service.forced_snapshots",
             mean([](const ServePass& p) { return double(p.stats.forced_snapshots); }));
  layers.set("service.state_bytes",
             mean([](const ServePass& p) { return double(p.stats.state_bytes); }));
  layers.set("service.retained_bytes_peak",
             mean([](const ServePass& p) { return double(p.stats.retained_bytes_peak); }));
  layers.set("service.pending_ops_peak",
             mean([](const ServePass& p) { return double(p.stats.pending_ops_peak); }));
  layers.set("harness.ledger_bytes", mean([](const ServePass& p) { return double(p.ledger_bytes); }));
  layers.set("harness.run_dir_bytes",
             mean([](const ServePass& p) { return double(p.run_dir_bytes); }));
  layers.set("driver.late_p99_ms", mean([](const ServePass& p) { return p.late_p99_ms; }));
  layers.set("driver.backlog_end", mean([](const ServePass& p) { return double(p.backlog_end); }));
  layers.set("driver.poll_gap_p99_ms", gaps.tail);
  layers.set("driver.fail_ratio", tally.fail_ratio());
  if (config.trace) {
    fold_spans(tracer, n, layers, result);
    tracer.write_jsonl((config.out_dir / (config.workload + ".spans.jsonl")).string());
  }
  result.per_layer = layers.finish();
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"audit-ladder", "detect-prefix",
                                                 "serve-ingest", "serve-live"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup_s", "s"},          {"cells_per_s", "1/s"},
      {"fixes_per_s", "1/s"},    {"ack_p50_ms", "ms"},
      {"ack_p99_ms", "ms"},      {"report_p50_ms", "ms"},
      {"report_tail_ms", "ms"},  {"drain_s", "s"},
      {"snapshot_bytes_per_fix", "B"}, {"peak_rss_mb", "MB"}};
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"trace.parse_s", "s"},
      {"core.analyzer_build_s", "s"},
      {"trace.decimate_s", "s"},
      {"trace.prefix_s", "s"},
      {"poi.staypoint_s", "s"},
      {"poi.staypoint_calls", "count"},
      {"poi.fixes_scanned", "count"},
      {"poi.cluster_s", "s"},
      {"poi.stays", "count"},
      {"privacy.recovery_s", "s"},
      {"privacy.histogram_s", "s"},
      {"privacy.match_s", "s"},
      {"privacy.identify_s", "s"},
      {"privacy.identify_calls", "count"},
      {"privacy.prefixes_probed", "count"},
      {"privacy.detect_hit_ratio", "ratio"},
      {"service.spawn_s", "s"},
      {"service.submit_s", "s"},
      {"service.blocked_waits", "count"},
      {"service.tick_s", "s"},
      {"service.wire_encode_ns_per_fix", "ns"},
      {"service.wire_decode_ns_per_fix", "ns"},
      {"service.frame_bytes_per_fix", "B"},
      {"service.turnaround_ewma_ms", "ms"},
      {"service.shard_skew", "ratio"},
      {"service.snapshot_now_s", "s"},
      {"service.snapshot_s", "s"},
      {"service.snapshots", "count"},
      {"service.forced_snapshots", "count"},
      {"service.snapshot_encode_s", "s"},
      {"service.state_bytes", "B"},
      {"service.retained_bytes_peak", "B"},
      {"service.pending_ops_peak", "count"},
      {"service.report_s", "s"},
      {"service.drain_s", "s"},
      {"harness.ledger_bytes", "B"},
      {"harness.run_dir_bytes", "B"},
      {"driver.late_p99_ms", "ms"},
      {"driver.backlog_end", "count"},
      {"driver.poll_gap_p99_ms", "ms"},
      {"driver.fail_ratio", "ratio"},
      {"bench.cell_s", "s"},
      {"bench.wait_s", "s"},
      {"bench.pass_s", "s"},
      {"trace.spans", "count"}};
  return metrics;
}

std::string rows_digest(const std::vector<std::vector<std::string>>& rows) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&](char c) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  };
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) mix(',');
      for (const char c : row[i]) mix(c);
    }
    mix('\n');
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash));
  return text;
}

RunResult run_workload(const RunConfig& config) {
  if (config.workload == "audit-ladder" || config.workload == "detect-prefix")
    return run_batch(config);
  if (config.workload == "serve-ingest" || config.workload == "serve-live")
    return run_serve(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
