// Shard snapshot codec, plus the packed fix records it shares with the
// submit wire frame: 24 bytes per fix (double lat, double lon, int64 ts,
// host little-endian), so a restored shard holds bit-identical state and
// its metrics match an uninterrupted one's byte for byte. Layout (v2):
//   locprivd-snapshot v2 checksum <crc32c of the rest, %08x>\n
//   shard <k> seq <n> last_seq <n> users <n> fixes <n>\n
//   per user: user <id> <count>\n, then count packed records
// Snapshots are published through AtomicFileWriter, so a crash mid-write
// leaves the previous version; the CRC-32C catches stale or edited files,
// and every parse failure surfaces as Error(kResume) so the caller falls
// back or refuses loudly instead of diverging silently.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trajectory.hpp"

namespace locpriv::service {

/// Bytes per packed fix record.
inline constexpr std::size_t kPackedFixBytes = 24;

struct ShardSnapshot {
  unsigned shard = 0;          ///< Owning shard index.
  std::uint64_t seq = 0;       ///< Snapshot sequence number (1-based).
  std::uint64_t last_seq = 0;  ///< Highest applied submit-batch sequence.
  /// Collected fixes per user, keyed by user id (std::map: serialization
  /// order must be deterministic).
  std::map<std::string, std::vector<trace::TracePoint>> users;

  std::size_t fix_count() const;
};

/// Exact-round-trip text for a coordinate ("%a" hexfloat).
std::string format_coord(double value);

/// Packs fixes as consecutive 24-byte records.
std::string pack_fixes(const std::vector<trace::TracePoint>& fixes);

/// Appends the records of `packed` to `out`. Returns false, leaving `out`
/// untouched, when the size is not a multiple of kPackedFixBytes.
[[nodiscard]] bool unpack_fixes(std::string_view packed,
                                std::vector<trace::TracePoint>& out);

/// Serializes a snapshot, checksum header included.
std::string encode_snapshot(const ShardSnapshot& snapshot);

/// Checksum of an encoded snapshot's body, as recorded in the run ledger.
std::string snapshot_checksum(const std::string& encoded);

/// Parses an encoded snapshot. Throws Error(kResume) on a bad or v1 header,
/// checksum mismatch, a record count past the bytes left, or trailing
/// bytes — a snapshot either loads exactly or not at all.
ShardSnapshot parse_snapshot(const std::string& encoded);

/// Reads and parses a snapshot file. Throws Error(kResume) when the file is
/// missing, unreadable, or fails parse_snapshot().
ShardSnapshot load_snapshot(const std::string& path);

}  // namespace locpriv::service
