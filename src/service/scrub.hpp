// Offline integrity scrubber for a locprivd run directory. Verifies the
// run ledger record by record (per-line CRC-32C + syntax) and every
// journaled shard snapshot (CRC-32C content checksum against the ledger
// record, shard/seq identity), and reports whether the directory would
// resume without divergence — each shard must have at least one loadable
// snapshot within its newest-two retention window, mirroring the service's
// own resume fallback.
//
// With `repair`, the scrubber truncates a torn or corrupt ledger back to
// its longest intact prefix, unlinks snapshot files that are corrupt or no
// longer referenced by the (possibly truncated) journal, and — when a
// shard's entire retention window failed verification — drops that shard's
// snapshot records so it legitimately resumes fresh instead of tripping the
// resume refusal. The result is a directory `locpriv serve --resume`
// accepts. Repair never invents data: it only discards what cannot be
// trusted.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/harness/run_ledger.hpp"

namespace locpriv::service {

/// Verdict on one journaled snapshot record.
struct SnapshotCheck {
  std::string cell;    ///< Ledger key, e.g. "shard0/snap/3".
  std::string file;    ///< Snapshot path the record points at.
  bool ok = false;
  std::string detail;  ///< "ok", or why the snapshot cannot be trusted.
};

struct ScrubReport {
  harness::LedgerScan ledger_status = harness::LedgerScan::kClean;
  std::uint64_t ledger_valid_bytes = 0;
  std::size_t ledger_bad_line = 0;     ///< When ledger_status is kCorrupt.
  std::size_t ledger_records = 0;      ///< Intact cell records replayed.
  std::vector<SnapshotCheck> snapshots;
  std::vector<std::string> repairs;    ///< Actions taken (repair mode only).
  /// Every shard with journaled snapshots has a loadable one inside the
  /// newest-two retention window (after repairs, when repair ran).
  bool resumable = false;

  /// Nothing wrong anywhere: ledger clean and every snapshot verified.
  bool clean() const {
    if (ledger_status != harness::LedgerScan::kClean) return false;
    for (const SnapshotCheck& check : snapshots)
      if (!check.ok) return false;
    return true;
  }
};

/// Scrubs `run_dir` (which must hold a ledger.jsonl). All I/O flows through
/// the injectable harness::FileOps layer. Throws Error(kUsage) when the
/// directory holds no ledger and Error(kIo) on filesystem failures.
ScrubReport scrub_run_dir(const std::filesystem::path& run_dir, bool repair);

}  // namespace locpriv::service
