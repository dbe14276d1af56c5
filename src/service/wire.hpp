// Wire format for the locprivd shard pipes. Messages are framed as
// u32 payload length, then a payload of u32 field count followed by
// (u32 length, bytes) per field — the supervisor's one-shot result-frame
// layout generalized to a *stream*: a pipe carries many messages, partial
// reads are the norm, and the decoder reassembles them incrementally.
// Everything is process-local (parent and its forked shards share byte
// order), so fields travel verbatim with no escaping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace locpriv::service::wire {

// Command verbs (parent -> shard). Fields after the verb are positional.
inline constexpr char kCmdRestore[] = "restore";   ///< file, expect_seq
/// seq, user, records: one field of n packed 24-byte (double lat, double
/// lon, int64 ts) records, the layout of service/snapshot.hpp pack_fixes().
inline constexpr char kCmdSubmit[] = "submit";
inline constexpr char kCmdPing[] = "ping";         ///< token
inline constexpr char kCmdSnapshot[] = "snapshot"; ///< snap_seq, file
inline constexpr char kCmdReport[] = "report";     ///< token
inline constexpr char kCmdDrain[] = "drain";       ///< snap_seq, file

// Response verbs (shard -> parent).
inline constexpr char kRspRestored[] = "restored"; ///< last_seq, fixes, status
inline constexpr char kRspAck[] = "ack";           ///< seq, applied (1) / deduped (0)
inline constexpr char kRspPong[] = "pong";         ///< token, ingested, state_bytes
inline constexpr char kRspSnapped[] = "snapped";   ///< snap_seq, last_seq, users, fixes, checksum
inline constexpr char kRspReports[] = "reports";   ///< token, rows, cols, fields...
inline constexpr char kRspDrained[] = "drained";   ///< snap_seq, last_seq, users, fixes, checksum
/// A snapshot/drain publish failed in the child (ENOSPC, EIO). The shard
/// stays alive and authoritative in memory; the parent sheds the snapshot
/// and enters storage-degraded mode for that shard.
inline constexpr char kRspSnapfail[] = "snapfail"; ///< snap_seq, error

// Stream sanity caps: a single message past 64 MiB or 1M fields is
// corruption, not data (a whole-dataset shard report stays far below both).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
inline constexpr std::uint32_t kMaxFieldCount = 1u << 20;

/// Serializes one message: outer u32 payload length, inner field frame.
std::string encode_message(const std::vector<std::string>& fields);

/// Incremental decoder over a pipe byte stream. Feed whatever arrived;
/// next() pops complete messages in order. A malformed length or field
/// structure latches corrupt() — the stream cannot be trusted past that.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);

  /// Extracts the next complete message into `fields`; false when the
  /// buffer holds no complete message (or the stream is corrupt).
  bool next(std::vector<std::string>& fields);

  bool corrupt() const { return corrupt_; }
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

}  // namespace locpriv::service::wire
