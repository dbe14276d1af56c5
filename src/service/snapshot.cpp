#include "service/snapshot.hpp"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/harness/crc32c.hpp"
#include "core/harness/error.hpp"
#include "core/harness/file_ops.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

// A packed record is a TracePoint's own little-endian bytes. The layout is
// pinned here so a field added to TracePoint breaks the build, not the format.
static_assert(std::endian::native == std::endian::little,
              "packed fix records are little-endian");
static_assert(std::is_trivially_copyable_v<trace::TracePoint> &&
                  sizeof(trace::TracePoint) == kPackedFixBytes &&
                  offsetof(geo::LatLon, lon_deg) == 8 &&
                  offsetof(trace::TracePoint, timestamp_s) == 16,
              "TracePoint must be (double lat, double lon, int64 ts)");

namespace {

constexpr std::string_view kMagic = "locprivd-snapshot v2 checksum ";
constexpr std::size_t kChecksumHexDigits = 8;

[[noreturn]] void corrupt(const std::string& why) {
  throw Error(ErrorCode::kResume, "corrupt shard snapshot: " + why);
}

std::string_view record_bytes(const std::vector<trace::TracePoint>& fixes) {
  return {reinterpret_cast<const char*>(fixes.data()),
          fixes.size() * kPackedFixBytes};
}

/// Splits off the text before the next `delim`, consuming the delimiter.
/// A line must be terminated; a line's last token need not be.
std::string_view take(std::string_view& rest, char delim) {
  const std::size_t end = rest.find(delim);
  if (end == std::string_view::npos && delim == '\n') corrupt("unterminated line");
  const std::string_view head = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
  return head;
}

std::uint64_t parse_u64(std::string_view token, std::string_view what) {
  std::uint64_t value = 0;
  if (!util::parse_uint64(token, value))
    corrupt("bad " + std::string(what) + " '" + std::string(token) + "'");
  return value;
}

/// Consumes "<key> <u64>" from the front of a text line.
std::uint64_t take_field(std::string_view& line, std::string_view key) {
  if (take(line, ' ') != key) corrupt("missing " + std::string(key) + " field");
  return parse_u64(take(line, ' '), key);
}

}  // namespace

std::size_t ShardSnapshot::fix_count() const {
  std::size_t count = 0;
  for (const auto& [user, fixes] : users) count += fixes.size();
  return count;
}

std::string format_coord(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string pack_fixes(const std::vector<trace::TracePoint>& fixes) {
  return std::string(record_bytes(fixes));
}

bool unpack_fixes(std::string_view packed,
                  std::vector<trace::TracePoint>& out) {
  if (packed.size() % kPackedFixBytes != 0) return false;
  const std::size_t old_size = out.size();
  out.resize(old_size + packed.size() / kPackedFixBytes);
  if (!packed.empty())
    std::memcpy(out.data() + old_size, packed.data(), packed.size());
  return true;
}

std::string encode_snapshot(const ShardSnapshot& snapshot) {
  const std::size_t fixes = snapshot.fix_count();
  std::string out;
  out.reserve(128 + fixes * kPackedFixBytes + snapshot.users.size() * 48);
  // The checksum slot is filled last, in place, so the body is built once.
  out.append(kMagic).append(kChecksumHexDigits, '0').push_back('\n');
  const std::size_t body = out.size();
  out += "shard " + std::to_string(snapshot.shard) + " seq " +
         std::to_string(snapshot.seq) + " last_seq " +
         std::to_string(snapshot.last_seq) + " users " +
         std::to_string(snapshot.users.size()) + " fixes " +
         std::to_string(fixes) + "\n";
  for (const auto& [user, records] : snapshot.users) {
    out += "user " + user + " " + std::to_string(records.size()) + "\n";
    out += record_bytes(records);
  }
  out.replace(kMagic.size(), kChecksumHexDigits,
              harness::crc32c_hex(std::string_view(out).substr(body)));
  return out;
}

std::string snapshot_checksum(const std::string& encoded) {
  const std::size_t eol = encoded.find('\n');
  if (eol == std::string::npos) corrupt("no header line");
  return harness::crc32c_hex(std::string_view(encoded).substr(eol + 1));
}

ShardSnapshot parse_snapshot(const std::string& encoded) {
  std::string_view rest = encoded;
  const std::string_view magic = take(rest, '\n');
  if (magic.substr(0, kMagic.size()) != kMagic)
    corrupt("header '" + std::string(magic.substr(0, kMagic.size())) +
            "' is not format v2 (v1 text snapshots are no longer readable)");
  if (magic.substr(kMagic.size()) != harness::crc32c_hex(rest))
    corrupt("checksum mismatch");

  ShardSnapshot snapshot;
  std::string_view header = take(rest, '\n');
  const std::uint64_t shard = take_field(header, "shard");
  if (shard > std::numeric_limits<unsigned>::max()) corrupt("bad shard");
  snapshot.shard = static_cast<unsigned>(shard);
  snapshot.seq = take_field(header, "seq");
  snapshot.last_seq = take_field(header, "last_seq");
  const std::uint64_t user_count = take_field(header, "users");
  const std::uint64_t fix_total = take_field(header, "fixes");
  if (!header.empty()) corrupt("trailing header fields");

  std::uint64_t fixes_seen = 0;
  for (std::uint64_t u = 0; u < user_count; ++u) {
    std::string_view line = take(rest, '\n');
    if (take(line, ' ') != "user") corrupt("bad user record");
    const std::string user_id(take(line, ' '));
    if (user_id.empty()) corrupt("empty user id");
    const std::uint64_t count = parse_u64(line, "fix count");
    // Bound the claimed count by the bytes actually present before any
    // allocation sized from it.
    if (count > rest.size() / kPackedFixBytes)
      corrupt("user " + user_id + " claims " + std::to_string(count) +
              " fixes past the end of the body");
    const std::size_t bytes = static_cast<std::size_t>(count) * kPackedFixBytes;
    std::vector<trace::TracePoint> fixes;
    if (!unpack_fixes(rest.substr(0, bytes), fixes)) corrupt("ragged records");
    rest.remove_prefix(bytes);
    fixes_seen += count;
    if (!snapshot.users.emplace(user_id, std::move(fixes)).second)
      corrupt("duplicate user " + user_id);
  }
  if (fixes_seen != fix_total) corrupt("fix count mismatch");
  if (!rest.empty()) corrupt("trailing data");
  return snapshot;
}

ShardSnapshot load_snapshot(const std::string& path) {
  // Through the injectable FileOps layer, so a read-path fault plan
  // (bit-flips, EIO) exercises the checksum rejection below.
  std::string encoded;
  if (!harness::read_file_through_ops(path, encoded))
    throw Error(ErrorCode::kResume, "cannot open shard snapshot " + path);
  try {
    return parse_snapshot(encoded);
  } catch (Error& e) {
    throw e.add_context("loading " + path);
  }
}

}  // namespace locpriv::service
