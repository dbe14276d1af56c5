// libFuzzer harness for the shard snapshot parser. Snapshots are the
// failover path's source of truth: a resumed or respawned shard trusts
// parse_snapshot() to either load exact state or throw Error(kResume) — the
// one non-crash rejection channel. The harness feeds arbitrary bytes and
// enforces:
//   - no crash/UB on any input (the fuzzer's own check);
//   - rejection only ever surfaces as locpriv::Error (anything else would
//     bypass the resume fallback in locprivd);
//   - accepted input round-trips: re-encoding the parsed snapshot yields
//     bytes the parser accepts again with identical topline state and
//     bit-identical fixes (NaN payloads and signed zeros included).
// Build with -DLOCPRIV_FUZZ=ON (clang); see tools/fuzz/CMakeLists.txt.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/harness/error.hpp"
#include "service/snapshot.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace service = locpriv::service;
  const std::string encoded(reinterpret_cast<const char*>(data), size);
  try {
    const service::ShardSnapshot snapshot = service::parse_snapshot(encoded);
    const std::string reencoded = service::encode_snapshot(snapshot);
    const service::ShardSnapshot again = service::parse_snapshot(reencoded);
    if (again.shard != snapshot.shard || again.seq != snapshot.seq ||
        again.last_seq != snapshot.last_seq ||
        again.users.size() != snapshot.users.size() ||
        again.fix_count() != snapshot.fix_count())
      __builtin_trap();
    auto user = snapshot.users.begin();
    for (const auto& [id, fixes] : again.users) {
      if (id != user->first || fixes.size() != user->second.size() ||
          (!fixes.empty() &&
           std::memcmp(fixes.data(), user->second.data(),
                       fixes.size() * sizeof(fixes[0])) != 0))
        __builtin_trap();
      ++user;
    }
  } catch (const locpriv::Error&) {
    // Corrupt bytes must land here — the resume fallback's contract.
  }
  return 0;
}
