// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the tree's one
// integrity checksum: the run ledger appends it to every JSONL record so
// replay can tell bit-rot from a torn tail, and each locprivd shard
// snapshot carries it over its whole body (megabytes per round). Portable
// slice-by-8 software tables: eight lookups per 8-byte word keep snapshot
// checksumming well under a nanosecond per byte without SSE4.2 intrinsics,
// so the build stays dependency-free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace locpriv::harness {

/// CRC-32C of `data` (initial value 0, standard final xor).
std::uint32_t crc32c(std::string_view data);

/// The CRC as fixed-width lowercase hex ("%08x") — the on-disk form.
std::string crc32c_hex(std::string_view data);

}  // namespace locpriv::harness
