// Resilient Geolife ingestion: quarantining lenient mode, strict-mode
// errors with file context, line-ending tolerance in parse_plt, and the
// one-pass scanner checked against the split-based parser it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "stats/rng.hpp"
#include "trace/geolife.hpp"
#include "util/strings.hpp"

namespace locpriv::trace {
namespace {

namespace fs = std::filesystem;

/// A three-user dataset on disk; returns its root. The caller owns cleanup.
/// The directory is keyed by the running test's name: ctest -j runs each
/// TEST as its own process, and a shared path would let concurrent Ingest
/// tests remove_all each other's fixtures mid-read.
fs::path write_fixture_dataset() {
  const fs::path root =
      fs::temp_directory_path() /
      (std::string("locpriv_ingest_test_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(root);

  std::vector<UserTrace> users(3);
  users[0].user_id = "000";
  users[0].trajectories.push_back(
      Trajectory({{{39.90, 116.40}, 1224814000}, {{39.91, 116.41}, 1224814060}}));
  users[0].trajectories.push_back(
      Trajectory({{{39.92, 116.42}, 1224900000}, {{39.93, 116.43}, 1224900060}}));
  users[1].user_id = "001";
  users[1].trajectories.push_back(Trajectory({{{40.00, 116.30}, 1224814000}}));
  users[2].user_id = "002";
  users[2].trajectories.push_back(
      Trajectory({{{40.10, 116.20}, 1224814000}, {{40.11, 116.21}, 1224814030}}));
  write_geolife_dataset(root, users);
  return root;
}

void overwrite(const fs::path& path, const std::string& content) {
  // Fixture corruption on purpose: this test plants exactly the torn and
  // corrupt files the atomic writer prevents. locpriv-lint: allow(raw-write)
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << content;
}

const std::string kPltHeader = "h1\nh2\nh3\nh4\nh5\nh6\n";

TEST(Ingest, LenientQuarantinesCorruptFileAndLoadsTheRest) {
  const fs::path root = write_fixture_dataset();
  const fs::path corrupt = root / "001" / "Trajectory" / "000000.plt";
  overwrite(corrupt, kPltHeader + "garbage,record\n");
  // An empty file is not an error: it parses to zero records.
  overwrite(root / "002" / "Trajectory" / "000001.plt", "");

  IngestReport report;
  const auto users =
      read_geolife_dataset(root, ReadOptions{.lenient = true}, &report);

  // Users 000 and 002 load in full; 001's only file was quarantined.
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0].user_id, "000");
  EXPECT_EQ(users[0].total_points(), 4u);
  EXPECT_EQ(users[1].user_id, "002");
  EXPECT_EQ(users[1].total_points(), 2u);

  EXPECT_EQ(report.files_scanned, 5u);
  EXPECT_EQ(report.files_loaded, 3u);
  EXPECT_EQ(report.empty_files, 1u);
  EXPECT_EQ(report.points_loaded, 6u);
  EXPECT_EQ(report.users_loaded, 2u);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.quarantined.size(), 1u);  // Exactly the corrupt file.
  EXPECT_EQ(report.quarantined[0].path, corrupt);
  EXPECT_NE(report.quarantined[0].error.find("line 7"), std::string::npos)
      << report.quarantined[0].error;

  fs::remove_all(root);
}

TEST(Ingest, StrictModeThrowsWithFileAndLineContext) {
  const fs::path root = write_fixture_dataset();
  const fs::path corrupt = root / "001" / "Trajectory" / "000000.plt";
  overwrite(corrupt, kPltHeader + "39.9,116.4,0,0,39745.0\nabc,1,2,3,4\n");

  try {
    read_geolife_dataset(root);
    FAIL() << "expected strict mode to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(corrupt.string()), std::string::npos) << what;
    EXPECT_NE(what.find("line 8"), std::string::npos) << what;
  }
  fs::remove_all(root);
}

TEST(Ingest, StrictModeStillFillsTheReportWhenClean) {
  const fs::path root = write_fixture_dataset();
  IngestReport report;
  const auto users = read_geolife_dataset(root, ReadOptions{}, &report);
  ASSERT_EQ(users.size(), 3u);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.files_scanned, 4u);
  EXPECT_EQ(report.files_loaded, 4u);
  EXPECT_EQ(report.points_loaded, 7u);
  EXPECT_EQ(report.users_loaded, 3u);
  fs::remove_all(root);
}

TEST(Ingest, LenientAndStrictAgreeOnCleanData) {
  const fs::path root = write_fixture_dataset();
  const auto strict = read_geolife_dataset(root);
  const auto lenient = read_geolife_dataset(root, ReadOptions{.lenient = true});
  ASSERT_EQ(strict.size(), lenient.size());
  for (std::size_t u = 0; u < strict.size(); ++u) {
    EXPECT_EQ(strict[u].user_id, lenient[u].user_id);
    EXPECT_EQ(strict[u].total_points(), lenient[u].total_points());
  }
  fs::remove_all(root);
}

TEST(ParsePlt, ToleratesCrlfLoneCrAndTrailingBlankLines) {
  const std::string record1 = "39.906631,116.385564,0,492,39745.0902662037";
  const std::string record2 = "39.906554,116.385625,0,492,39745.0903240741";
  const std::string lf =
      "h1\nh2\nh3\nh4\nh5\nh6\n" + record1 + "\n" + record2 + "\n";
  const std::string crlf = "h1\r\nh2\r\nh3\r\nh4\r\nh5\r\nh6\r\n" + record1 +
                           "\r\n" + record2 + "\r\n\r\n\r\n";
  const std::string lone_cr =
      "h1\rh2\rh3\rh4\rh5\rh6\r" + record1 + "\r" + record2 + "\r\r";

  const Trajectory baseline = parse_plt(lf);
  ASSERT_EQ(baseline.size(), 2u);
  for (const std::string& variant : {crlf, lone_cr}) {
    const Trajectory parsed = parse_plt(variant);
    ASSERT_EQ(parsed.size(), baseline.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_EQ(parsed[i].position, baseline[i].position);
      EXPECT_EQ(parsed[i].timestamp_s, baseline[i].timestamp_s);
    }
  }
}

TEST(ParsePlt, MalformedRecordStillThrowsWithLineNumber) {
  const std::string text =
      "h1\r\nh2\r\nh3\r\nh4\r\nh5\r\nh6\r\n"
      "39.9,116.4,0,0,39745.0\r\n"
      "39.9,not-a-longitude,0,0,39745.0\r\n";
  try {
    parse_plt(text);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 8"), std::string::npos)
        << error.what();
  }
}

// ---- One-pass scanner vs the split-based oracle ---------------------------

/// The split-based parse_plt the scanner replaced, frozen as the oracle:
/// find_first_of for line ends, util::split per line, unconditional
/// stable sort.
Trajectory oracle_parse_plt(std::string_view text) {
  const auto fail = [](std::size_t line_number, const std::string& detail) {
    throw std::runtime_error("PLT parse error at line " + std::to_string(line_number) +
                             ": " + detail);
  };
  std::vector<TracePoint> points;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find_first_of("\r\n", pos);
    std::size_t next;
    if (end == std::string_view::npos) {
      end = text.size();
      next = end;
    } else {
      next = end + 1;
      if (text[end] == '\r' && next < text.size() && text[next] == '\n') ++next;
    }
    std::string_view line = util::trim(text.substr(pos, end - pos));
    pos = next;
    ++line_number;
    if (line_number <= 6) continue;
    if (line.empty()) continue;
    const auto fields = util::split(line, ',');
    if (fields.size() < 5) fail(line_number, "expected >= 5 fields");
    double lat = 0.0;
    double lon = 0.0;
    double days = 0.0;
    if (!util::parse_double(fields[0], lat)) fail(line_number, "bad latitude");
    if (!util::parse_double(fields[1], lon)) fail(line_number, "bad longitude");
    if (!util::parse_double(fields[4], days)) fail(line_number, "bad timestamp");
    if (lat < -90.0 || lat > 90.0) fail(line_number, "latitude out of range");
    if (lon < -180.0 || lon > 180.0) fail(line_number, "longitude out of range");
    points.push_back(TracePoint{{lat, lon}, plt_days_to_unix_s(days)});
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const TracePoint& a, const TracePoint& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  return Trajectory(std::move(points));
}

/// Points or the thrown message, whichever a parser produced.
struct ParseOutcome {
  std::vector<TracePoint> points;
  std::string error;
};

template <typename Parser>
ParseOutcome outcome_of(Parser parse, std::string_view text) {
  ParseOutcome outcome;
  try {
    outcome.points = parse(text).points();
  } catch (const std::runtime_error& error) {
    outcome.error = error.what();
  }
  return outcome;
}

/// Bitwise equality: identical doubles, not merely == (so -0.0 != 0.0).
bool same_bits(const ParseOutcome& a, const ParseOutcome& b) {
  if (a.error != b.error || a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const TracePoint& p = a.points[i];
    const TracePoint& q = b.points[i];
    if (std::bit_cast<std::uint64_t>(p.position.lat_deg) !=
            std::bit_cast<std::uint64_t>(q.position.lat_deg) ||
        std::bit_cast<std::uint64_t>(p.position.lon_deg) !=
            std::bit_cast<std::uint64_t>(q.position.lon_deg) ||
        p.timestamp_s != q.timestamp_s)
      return false;
  }
  return true;
}

/// Escapes CR/LF/tab so a failing document prints on one line.
std::string visible(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\r') {
      out += "\\r";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out += c;
    }
  }
  return out;
}

std::string pick(stats::Rng& rng, const std::vector<std::string>& options) {
  return options[rng.next_below(options.size())];
}

/// A random PLT document: mixed LF / CRLF / lone-CR terminators, blank and
/// whitespace-only lines, padding around fields, 5 / 7 / 9 fields per
/// record, ordered / duplicated / shuffled timestamps and, in about half
/// the documents, one kind of corrupt line somewhere after the header.
std::string random_plt(stats::Rng& rng) {
  const std::vector<std::string> terminators = {"\n", "\r\n", "\r"};
  const std::vector<std::string> pads = {"", "", "", " ", "\t", "  ", " \t"};
  // Mostly one terminator per document, as real files are; sometimes mixed.
  const bool mixed = rng.bernoulli(0.4);
  const std::string main_terminator = pick(rng, terminators);
  const auto terminator = [&] {
    return mixed ? pick(rng, terminators) : main_terminator;
  };

  std::string text;
  const std::vector<std::string> header = {
      "Geolife trajectory", "WGS 84", "Altitude is in Feet", "Reserved 3",
      "0,2,255,My Track,0,0,2,8421376", "0", "", "  ", "1,2,3,4,5,6"};
  for (int i = 0; i < 6; ++i) text += pick(rng, header) + terminator();

  const std::size_t records = rng.next_below(30);
  const std::size_t corrupt_at = rng.bernoulli(0.5) ? rng.next_below(records + 1) : records + 1;
  const int order = static_cast<int>(rng.next_below(3));  // ordered, duplicates, jitter
  double days = 39745.0 + rng.uniform(0.0, 1000.0);
  for (std::size_t r = 0; r <= records; ++r) {
    if (rng.bernoulli(0.1)) text += pick(rng, {"", " ", "\t", " \t "}) + terminator();
    if (r == records && corrupt_at != records) break;
    const double lat = rng.uniform(-90.0, 90.0);
    const double lon = rng.uniform(-180.0, 180.0);
    if (order == 0 || (order == 1 && rng.bernoulli(0.6))) days += rng.uniform(0.0, 0.001);
    if (order == 2) days += rng.uniform(-0.001, 0.001);
    const auto digits = [&] { return static_cast<int>(rng.uniform_int(0, 8)); };
    std::vector<std::string> fields = {util::format_fixed(lat, digits()),
                                       util::format_fixed(lon, digits()), "0",
                                       std::to_string(rng.uniform_int(-100, 3000)),
                                       util::format_fixed(days, 10)};
    const std::size_t extra = rng.next_below(3) * 2;  // 5, 7 or 9 fields.
    for (std::size_t e = 0; e < extra; ++e)
      fields.push_back(e % 2 == 0 ? "2008-10-24" : "02:09:59");
    if (r == corrupt_at) {
      switch (rng.next_below(7)) {
        case 0: fields[0] = pick(rng, {"abc", "", "1.2.3", "39.9x", "--1"}); break;
        case 1: fields[1] = pick(rng, {"east", "", "116..3", "1e", "+"}); break;
        case 2: fields[4] = pick(rng, {"day", "", "39745,5", "0x10", "1e400"}); break;
        case 3: fields[0] = pick(rng, {"90.000001", "-90.5", "inf", "-inf", "1e3"}); break;
        case 4: fields[1] = pick(rng, {"180.0000001", "-181", "inf", "720"}); break;
        case 5: fields.resize(4); break;
        default: fields.resize(rng.next_below(4) + 1); break;
      }
    }
    std::string line = pick(rng, pads);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f != 0) line += pick(rng, pads) + "," + pick(rng, pads);
      line += fields[f];
    }
    text += line + pick(rng, pads);
    // The last record is sometimes left unterminated.
    if (r + 1 < records || rng.bernoulli(0.7)) text += terminator();
  }
  const std::size_t trailing_blanks = rng.next_below(3);
  for (std::size_t i = 0; i < trailing_blanks; ++i) text += terminator();
  return text;
}

TEST(ParsePlt, ScannerMatchesTheSplitOracleOnRandomDocuments) {
  std::size_t parsed = 0;
  std::set<std::string> details;  // What follows "line N: " in each error.
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    stats::Rng rng(seed);
    const std::string text = random_plt(rng);
    const ParseOutcome expected = outcome_of(oracle_parse_plt, text);
    const ParseOutcome actual = outcome_of(parse_plt, text);
    ASSERT_TRUE(same_bits(expected, actual))
        << "seed " << seed << ": " << visible(text) << "\noracle: "
        << (expected.error.empty() ? std::to_string(expected.points.size()) + " points"
                                   : expected.error)
        << "\nscanner: "
        << (actual.error.empty() ? std::to_string(actual.points.size()) + " points"
                                 : actual.error);
    if (expected.error.empty()) {
      ++parsed;
    } else {
      details.insert(expected.error.substr(expected.error.find(": ") + 2));
    }
  }
  // Both outcomes, and every kind of rejection, must actually occur.
  EXPECT_GT(parsed, 1000u);
  EXPECT_EQ(details, (std::set<std::string>{"bad latitude", "bad longitude", "bad timestamp",
                                            "expected >= 5 fields", "latitude out of range",
                                            "longitude out of range"}));
}

TEST(ParsePlt, ScannerMatchesTheOracleOnEdgeDocuments) {
  const std::string record = "39.9,116.4,0,0,39745.5";
  const std::vector<std::string> documents = {
      "",
      "h1\nh2\nh3\nh4\nh5\n",
      "h1\nh2\nh3\nh4\nh5\nh6",
      "h1\nh2\nh3\nh4\nh5\nh6\n" + record,
      "h1\rh2\rh3\rh4\rh5\rh6\r\n" + record + "\r",
      "h1\r\rh3\r\n\nh5\n\rh6\r\n" + record,  // "\r\r" is two lines, "\n\r" too.
      "h1\nh2\nh3\nh4\nh5\nh6\n" + record + "\r\r\n\n",
      "h1\nh2\nh3\nh4\nh5\nh6\n\v\f \t\n" + record + "\n",
      "h1\nh2\nh3\nh4\nh5\nh6\n" + record + ",,,,,,\n",
      "h1\nh2\nh3\nh4\nh5\nh6\n,,,,\n",
      "h1\nh2\nh3\nh4\nh5\nh6\n\t39.9 , 116.4 ,x,y, 39745.5 \t\n",
      "h1\nh2\nh3\nh4\nh5\nh6\n39.9,116.4,0,0\n",
      "h1\nh2\nh3\nh4\nh5\nh6\n-0.0,-0.0,0,0,39745.5\n",
  };
  for (const std::string& text : documents) {
    const ParseOutcome expected = outcome_of(oracle_parse_plt, text);
    const ParseOutcome actual = outcome_of(parse_plt, text);
    EXPECT_TRUE(same_bits(expected, actual))
        << visible(text) << "\noracle: " << expected.error << " / "
        << expected.points.size() << "\nscanner: " << actual.error << " / "
        << actual.points.size();
  }
}

TEST(ParsePlt, OutOfOrderRowsWithEqualTimestampsKeepTheirFileOrder) {
  // Rows a..f: timestamps (days) 2,1,2,1,3,1 — out of order, with ties.
  const std::string text =
      "h1\nh2\nh3\nh4\nh5\nh6\n"
      "10.0,20.0,0,0,39745.2\n"    // a
      "11.0,21.0,0,0,39745.1\r\n"  // b
      "12.0,22.0,0,0,39745.2\r"    // c
      "13.0,23.0,0,0,39745.1\n"    // d
      "14.0,24.0,0,0,39745.3\n"    // e
      "15.0,25.0,0,0,39745.1\n";   // f
  const Trajectory parsed = parse_plt(text);
  std::vector<double> lat_order;
  for (const TracePoint& point : parsed) lat_order.push_back(point.position.lat_deg);
  // Stable: ties stay in file order (b, d, f), then (a, c), then e.
  EXPECT_EQ(lat_order, (std::vector<double>{11.0, 13.0, 15.0, 10.0, 12.0, 14.0}));
  EXPECT_TRUE(same_bits(outcome_of(oracle_parse_plt, text), outcome_of(parse_plt, text)));

  // Already ordered with ties: the sort is skipped and the file order kept.
  const std::string ordered =
      "h1\nh2\nh3\nh4\nh5\nh6\n"
      "10.0,20.0,0,0,39745.1\n"
      "11.0,21.0,0,0,39745.1\n"
      "12.0,22.0,0,0,39745.2\n"
      "13.0,23.0,0,0,39745.2\n";
  lat_order.clear();
  for (const TracePoint& point : parse_plt(ordered)) lat_order.push_back(point.position.lat_deg);
  EXPECT_EQ(lat_order, (std::vector<double>{10.0, 11.0, 12.0, 13.0}));
}

TEST(ParsePlt, SizesThePointsOfAWrittenFileExactly) {
  std::vector<TracePoint> points;
  for (std::int64_t i = 0; i < 100; ++i)
    points.push_back({{39.9 + 1e-4 * static_cast<double>(i), 116.4}, 1224814000 + 5 * i});
  const std::string lf = write_plt(Trajectory(points));
  std::string crlf;
  for (const char c : lf) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  std::string lone_cr = lf;
  std::replace(lone_cr.begin(), lone_cr.end(), '\n', '\r');
  const std::string unterminated = lf.substr(0, lf.size() - 1);
  for (const std::string& text : {lf, crlf, lone_cr, unterminated}) {
    const Trajectory parsed = parse_plt(text);
    EXPECT_EQ(parsed.size(), points.size()) << visible(text.substr(0, 80));
    EXPECT_EQ(parsed.points().capacity(), points.size()) << visible(text.substr(0, 80));
  }
}

}  // namespace
}  // namespace locpriv::trace
