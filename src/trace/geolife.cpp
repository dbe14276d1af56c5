#include "trace/geolife.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/harness/atomic_file.hpp"
#include "core/harness/fd_guard.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace locpriv::trace {

namespace fs = std::filesystem;

std::int64_t plt_days_to_unix_s(double days_since_1899) {
  return static_cast<std::int64_t>(
      std::llround((days_since_1899 - kPltEpochToUnixDays) * 86400.0));
}

double unix_s_to_plt_days(std::int64_t unix_s) {
  return static_cast<double>(unix_s) / 86400.0 + kPltEpochToUnixDays;
}

namespace {

[[noreturn]] void parse_error(std::size_t line_number, const std::string& detail) {
  std::ostringstream os;
  os << "PLT parse error at line " << line_number << ": " << detail;
  throw std::runtime_error(os.str());
}

// Formats Unix seconds as the "YYYY-MM-DD" and "HH:MM:SS" columns.
void format_date_time(std::int64_t unix_s, std::string& date, std::string& time) {
  const auto t = static_cast<std::time_t>(unix_s);
  std::tm tm_utc{};
  gmtime_r(&t, &tm_utc);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02d", tm_utc.tm_year + 1900,
                tm_utc.tm_mon + 1, tm_utc.tm_mday);
  date = buffer;
  std::snprintf(buffer, sizeof(buffer), "%02d:%02d:%02d", tm_utc.tm_hour, tm_utc.tm_min,
                tm_utc.tm_sec);
  time = buffer;
}

constexpr std::size_t kHeaderLines = 6;   // Fixed-size prose header.
constexpr std::size_t kRecordFields = 5;  // lat, lon, 0, altitude, days.

bool is_line_end(char c) { return c == '\n' || c == '\r'; }

/// A per-thread file buffer that only ever grows, so reading a corpus costs
/// one heap block per worker rather than one (or two) per file.
struct ReadBuffer {
  std::unique_ptr<char[]> bytes;
  std::size_t capacity = 0;
};

thread_local ReadBuffer t_read_buffer;

/// Reads the whole file at `path` with one read of the size fstat reports
/// (retried while short). The view lives in this thread's buffer until the
/// thread's next call.
std::string_view read_whole_file(const fs::path& path) {
  ReadBuffer& buffer = t_read_buffer;
  harness::FdGuard fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd) throw std::runtime_error("cannot open " + path.string());
  struct stat info {};
  if (::fstat(fd.get(), &info) != 0)
    throw std::runtime_error("cannot stat " + path.string() + ": " + std::strerror(errno));
  const auto size = static_cast<std::size_t>(info.st_size);
  if (size > buffer.capacity) {
    buffer.bytes = std::make_unique_for_overwrite<char[]>(size);
    buffer.capacity = size;
  }
  std::size_t filled = 0;
  while (filled < size) {
    const ::ssize_t n = ::read(fd.get(), buffer.bytes.get() + filled, size - filled);
    if (n > 0) {
      filled += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) break;  // Shrank since fstat: parse what is there.
    if (errno == EINTR) continue;
    throw std::runtime_error("cannot read " + path.string() + ": " + std::strerror(errno));
  }
  return {buffer.bytes.get(), filled};
}

}  // namespace

Trajectory parse_plt(std::string_view text) {
  const char* cursor = text.data();
  const char* const end = cursor + text.size();

  // Size the vector from the line count: every line after the header holds
  // at most one record. A lone-CR file has no '\n', so count '\r' there.
  std::size_t lines = static_cast<std::size_t>(std::count(cursor, end, '\n'));
  if (lines == 0) lines = static_cast<std::size_t>(std::count(cursor, end, '\r'));
  if (!text.empty() && !is_line_end(text.back())) ++lines;
  std::vector<TracePoint> points;
  points.reserve(lines > kHeaderLines ? lines - kHeaderLines : 0);

  std::size_t line_number = 0;
  while (cursor < end) {
    // One scan per line finds its terminator and cuts the first five
    // comma-separated fields in place; later fields are never split.
    const char* const line = cursor;
    std::string_view fields[kRecordFields];
    std::size_t field_count = 0;
    const char* field = cursor;
    for (; cursor < end; ++cursor) {
      const char c = *cursor;
      // Digits, '.', '-' and letters all sort above ','.
      if (static_cast<unsigned char>(c) > ',') continue;
      if (is_line_end(c)) break;
      if (c == ',' && field_count < kRecordFields) {
        fields[field_count++] = std::string_view(field, static_cast<std::size_t>(cursor - field));
        field = cursor + 1;
      }
    }
    if (field_count < kRecordFields)
      fields[field_count++] = std::string_view(field, static_cast<std::size_t>(cursor - field));
    const std::string_view whole(line, static_cast<std::size_t>(cursor - line));
    // Accept LF, CRLF, and lone-CR terminators: real Geolife downloads mix
    // them, and a lone-CR file would otherwise parse as one giant "header"
    // line and silently yield an empty trajectory.
    if (cursor < end) {
      const bool crlf = *cursor == '\r' && cursor + 1 < end && cursor[1] == '\n';
      cursor += crlf ? 2 : 1;
    }
    ++line_number;
    if (line_number <= kHeaderLines) continue;  // Fixed-size prose header.
    if (field_count < kRecordFields) {
      if (util::trim(whole).empty()) continue;  // Blank line.
      parse_error(line_number, "expected >= 5 fields");
    }
    // parse_double trims each field, so whitespace around the line or its
    // fields parses as it would after trimming the whole line.
    double lat = 0.0;
    double lon = 0.0;
    double days = 0.0;
    if (!util::parse_double(fields[0], lat)) parse_error(line_number, "bad latitude");
    if (!util::parse_double(fields[1], lon)) parse_error(line_number, "bad longitude");
    if (!util::parse_double(fields[4], days)) parse_error(line_number, "bad timestamp");
    if (lat < -90.0 || lat > 90.0) parse_error(line_number, "latitude out of range");
    if (lon < -180.0 || lon > 180.0) parse_error(line_number, "longitude out of range");
    points.push_back(TracePoint{{lat, lon}, plt_days_to_unix_s(days)});
  }
  // Geolife files are chronological, but tolerate duplicated timestamps and
  // occasional clock jitter by stable-sorting before constructing. A stable
  // sort of ordered input is the identity, so ordered files skip it.
  const auto by_time = [](const TracePoint& a, const TracePoint& b) {
    return a.timestamp_s < b.timestamp_s;
  };
  if (!std::is_sorted(points.begin(), points.end(), by_time))
    std::stable_sort(points.begin(), points.end(), by_time);
  return Trajectory(std::move(points));
}

std::string write_plt(const Trajectory& trajectory) {
  std::ostringstream os;
  os << "Geolife trajectory\n"
        "WGS 84\n"
        "Altitude is in Feet\n"
        "Reserved 3\n"
        "0,2,255,My Track,0,0,2,8421376\n"
     << trajectory.size() << '\n';
  for (const auto& point : trajectory) {
    std::string date;
    std::string time;
    format_date_time(point.timestamp_s, date, time);
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "%.6f,%.6f,0,0,%.10f,%s,%s\n",
                  point.position.lat_deg, point.position.lon_deg,
                  unix_s_to_plt_days(point.timestamp_s), date.c_str(), time.c_str());
    os << buffer;
  }
  return os.str();
}

std::vector<UserTrace> read_geolife_dataset(const fs::path& root,
                                            const ReadOptions& options,
                                            IngestReport* report) {
  if (!fs::exists(root))
    throw std::runtime_error("Geolife root does not exist: " + root.string());

  // Enumerate first (sorted, sequential) so the parse fan-out below writes
  // into index-keyed slots and the result is identical at any thread count.
  struct FileSlot {
    std::size_t user_index = 0;
    fs::path path;
    Trajectory trajectory;
    std::string error;
    bool failed = false;
  };
  std::vector<fs::path> user_dirs;
  for (const auto& entry : fs::directory_iterator(root))
    if (entry.is_directory()) user_dirs.push_back(entry.path());
  std::sort(user_dirs.begin(), user_dirs.end());

  std::vector<UserTrace> staged(user_dirs.size());
  std::vector<FileSlot> slots;
  for (std::size_t u = 0; u < user_dirs.size(); ++u) {
    staged[u].user_id = user_dirs[u].filename().string();
    const fs::path trajectory_dir = user_dirs[u] / "Trajectory";
    if (!fs::exists(trajectory_dir)) continue;
    std::vector<fs::path> plt_files;
    for (const auto& entry : fs::directory_iterator(trajectory_dir))
      if (entry.is_regular_file() && entry.path().extension() == ".plt")
        plt_files.push_back(entry.path());
    std::sort(plt_files.begin(), plt_files.end());
    for (auto& file : plt_files) slots.push_back({u, std::move(file), {}, {}, false});
  }

  IngestReport ingest;
  ingest.files_scanned = slots.size();

  util::parallel_for(
      slots.size(),
      [&](std::size_t i) {
        FileSlot& slot = slots[i];
        try {
          slot.trajectory = parse_plt(read_whole_file(slot.path));
        } catch (const std::exception& error) {
          if (!options.lenient)
            throw std::runtime_error(slot.path.string() + ": " + error.what());
          slot.failed = true;
          slot.error = error.what();
        }
      },
      options.max_threads);
  // A sequential run used this thread's buffer; workers' died with them.
  t_read_buffer = ReadBuffer{};

  for (FileSlot& slot : slots) {
    if (slot.failed) {
      ingest.quarantined.push_back({std::move(slot.path), std::move(slot.error)});
      continue;
    }
    if (slot.trajectory.empty()) {
      ++ingest.empty_files;
      continue;
    }
    ++ingest.files_loaded;
    ingest.points_loaded += slot.trajectory.size();
    staged[slot.user_index].trajectories.push_back(std::move(slot.trajectory));
  }

  std::vector<UserTrace> users;
  for (UserTrace& user : staged) {
    if (user.trajectories.empty()) continue;
    std::sort(user.trajectories.begin(), user.trajectories.end(),
              [](const Trajectory& a, const Trajectory& b) {
                return a.front().timestamp_s < b.front().timestamp_s;
              });
    users.push_back(std::move(user));
  }
  ingest.users_loaded = users.size();
  if (report != nullptr) *report = std::move(ingest);
  return users;
}

std::vector<UserTrace> read_geolife_dataset(const fs::path& root) {
  return read_geolife_dataset(root, ReadOptions{});
}

void write_geolife_dataset(const fs::path& root, const std::vector<UserTrace>& users) {
  for (const auto& user : users) {
    const fs::path trajectory_dir = root / user.user_id / "Trajectory";
    fs::create_directories(trajectory_dir);
    std::size_t index = 0;
    for (const auto& trajectory : user.trajectories) {
      char name[32];
      std::snprintf(name, sizeof(name), "%06zu.plt", index++);
      // Atomic publish: a full disk or kill mid-write must not leave a
      // truncated .plt that a later ingest would parse as a short (but
      // plausible) trajectory.
      harness::write_file_atomic(trajectory_dir / name, write_plt(trajectory));
    }
  }
}

}  // namespace locpriv::trace
