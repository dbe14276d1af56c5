#include "service/shard_child.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <map>
#include <string>
#include <vector>

#include "core/harness/atomic_file.hpp"
#include "core/harness/error.hpp"
#include "service/driver.hpp"
#include "service/snapshot.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace locpriv::service {

namespace {

void write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::_exit(1);  // Parent gone; nothing left to report to.
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

void respond(int fd, const std::vector<std::string>& fields) {
  const std::string message = wire::encode_message(fields);
  write_all(fd, message.data(), message.size());
}

void note(const std::string& text) {
  const std::string line = text + "\n";
  write_all(STDERR_FILENO, line.data(), line.size());
}

std::uint64_t parse_u64(const std::string& token) {
  std::uint64_t value = 0;
  if (!util::parse_uint64(token, value))
    throw Error(ErrorCode::kInternal, "bad integer on command: " + token);
  return value;
}

/// The shard's in-memory state plus the handlers the command loop calls.
struct ShardState {
  const ShardChildConfig& config;
  const core::PrivacyAnalyzer& analyzer;
  const ServiceOptions& options;

  /// The live per-user fixes and applied-seq watermark, kept in snapshot
  /// form so write_snapshot() encodes it in place, with no copy.
  ShardSnapshot state;
  std::map<std::string, std::size_t> index_of;  ///< user id -> analyzer index.
  std::uint64_t ingested = 0;   ///< Fixes applied this lifetime of state.
  int batches_this_incarnation = 0;

  ShardState(const ShardChildConfig& config,
             const core::PrivacyAnalyzer& analyzer,
             const ServiceOptions& options)
      : config(config), analyzer(analyzer), options(options) {
    state.shard = config.shard;
    for (std::size_t i = 0; i < analyzer.user_count(); ++i)
      index_of.emplace(analyzer.reference(i).user_id, i);
  }

  std::size_t state_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [user, fixes] : state.users)
      bytes += user.size() + 64 + fixes.capacity() * sizeof(trace::TracePoint);
    return bytes;
  }

  void handle_restore(const std::vector<std::string>& cmd) {
    try {
      ShardSnapshot snapshot = load_snapshot(cmd[1]);
      const auto expect_seq = parse_u64(cmd[2]);
      if (snapshot.shard != config.shard || snapshot.seq != expect_seq)
        throw Error(ErrorCode::kResume,
                    "snapshot identity mismatch: file is shard " +
                        std::to_string(snapshot.shard) + " seq " +
                        std::to_string(snapshot.seq));
      state = std::move(snapshot);
      ingested = state.fix_count();
      respond(config.resp_fd,
              {wire::kRspRestored, std::to_string(state.last_seq),
               std::to_string(ingested), "ok"});
    } catch (const Error& e) {
      respond(config.resp_fd, {wire::kRspRestored, "0", "0", e.what()});
    }
  }

  void handle_submit(const std::vector<std::string>& cmd) {
    if (cmd.size() != 4) throw Error(ErrorCode::kInternal, "bad submit frame");
    const auto seq = parse_u64(cmd[1]);
    if (seq <= state.last_seq) {
      // Replayed batch already in a snapshot. Still acked: the parent's
      // credit window counts every consumed frame, applied or deduped.
      respond(config.resp_fd, {wire::kRspAck, cmd[1], "0"});
      return;
    }
    ++batches_this_incarnation;
    if (options.fault_plan.fault_for(config.name, config.incarnation) !=
            nullptr &&
        batches_this_incarnation == options.fault_after_batches) {
      // Fires *before* the batch is applied: the parent retains it, so the
      // respawned incarnation replays it and no fix is lost.
      options.fault_plan.trigger(config.name, config.incarnation);
    }
    if (!unpack_fixes(cmd[3], state.users[cmd[2]]))
      throw Error(ErrorCode::kInternal, "ragged submit records");
    state.last_seq = seq;
    ingested += cmd[3].size() / kPackedFixBytes;
    // The ack is the flow-control credit: it is sent only after the batch
    // is applied, so a crash loses at most the unacked in-flight window and
    // the parent's retained replay covers exactly that suffix.
    respond(config.resp_fd, {wire::kRspAck, cmd[1], "1"});
  }

  bool write_snapshot(const std::vector<std::string>& cmd, const char* verb) {
    const auto snap_seq = parse_u64(cmd[1]);
    const std::string& path = cmd[2];
    state.seq = snap_seq;
    const std::string encoded = encode_snapshot(state);
    try {
      harness::AtomicFileWriter writer(path);
      writer.stream() << encoded;
      writer.commit();
    } catch (const Error& e) {
      // Report the failure instead of dying: the in-memory state is still
      // authoritative and AtomicFileWriter left the previous snapshot
      // intact. The parent sheds the snapshot, keeps the retained suffix,
      // and retries later (disk-full degraded mode).
      respond(config.resp_fd,
              {wire::kRspSnapfail, std::to_string(snap_seq), e.what()});
      return false;
    }
    respond(config.resp_fd,
            {verb, std::to_string(snap_seq), std::to_string(state.last_seq),
             std::to_string(state.users.size()),
             std::to_string(state.fix_count()),
             snapshot_checksum(encoded)});
    return true;
  }

  void handle_report(const std::vector<std::string>& cmd) {
    std::vector<std::string> out = {wire::kRspReports, cmd[1], "", ""};
    std::size_t rows = 0;
    std::size_t cols = 0;
    for (std::size_t i = 0; i < analyzer.user_count(); ++i) {
      const std::string& user_id = analyzer.reference(i).user_id;
      const auto it = state.users.find(user_id);
      if (it == state.users.end()) continue;
      const core::ExposureReport report =
          analyzer.evaluate_collected(i, options.interval_s, it->second);
      const std::vector<std::string> fields =
          exposure_fields(user_id, options.interval_s, report);
      cols = fields.size();
      out.insert(out.end(), fields.begin(), fields.end());
      ++rows;
    }
    out[2] = std::to_string(rows);
    out[3] = std::to_string(cols);
    respond(config.resp_fd, out);
  }
};

void apply_shard_rlimits(const ServiceOptions& options) {
  if (options.shard_rlimit_mb > 0) {
    struct rlimit limit {};
    limit.rlim_cur = limit.rlim_max =
        static_cast<rlim_t>(options.shard_rlimit_mb) * 1024 * 1024;
    ::setrlimit(RLIMIT_AS, &limit);
  }
  if (options.shard_cpu_s > 0) {
    struct rlimit limit {};
    limit.rlim_cur = limit.rlim_max = options.shard_cpu_s;
    ::setrlimit(RLIMIT_CPU, &limit);
  }
}

}  // namespace

void shard_child_main(const ShardChildConfig& config,
                      const core::PrivacyAnalyzer& analyzer,
                      const ServiceOptions& options) {
  // Same fork discipline as the supervisor children: silence the cloned
  // logger before anything can log, route stderr into the capture pipe,
  // restore default signal dispositions so SIGTERM terminates us, then cap
  // the process. The parent holds LogForkGuard across the fork itself.
  util::set_log_level(util::LogLevel::kOff);
  ::dup2(config.err_fd, STDERR_FILENO);
  if (config.err_fd != STDERR_FILENO) ::close(config.err_fd);
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  ::sigaction(SIGINT, &dfl, nullptr);
  ::sigaction(SIGTERM, &dfl, nullptr);
  apply_shard_rlimits(options);

  try {
    ShardState state(config, analyzer, options);
    wire::FrameDecoder decoder;
    std::vector<std::string> cmd;
    char chunk[4096];
    for (;;) {
      while (decoder.next(cmd)) {
        if (cmd.empty()) continue;
        const std::string& verb = cmd[0];
        if (verb == wire::kCmdSubmit) {
          state.handle_submit(cmd);
        } else if (verb == wire::kCmdPing) {
          respond(config.resp_fd,
                  {wire::kRspPong, cmd[1], std::to_string(state.ingested),
                   std::to_string(state.state_bytes())});
        } else if (verb == wire::kCmdRestore) {
          state.handle_restore(cmd);
        } else if (verb == wire::kCmdSnapshot) {
          state.write_snapshot(cmd, wire::kRspSnapped);
        } else if (verb == wire::kCmdReport) {
          state.handle_report(cmd);
        } else if (verb == wire::kCmdDrain) {
          // Only exit once the final snapshot actually published; a failed
          // drain keeps the shard alive so the parent can retry (or give up
          // with a taxonomy exit) without losing the in-memory state.
          if (state.write_snapshot(cmd, wire::kRspDrained)) ::_exit(0);
        } else {
          note("shard " + config.name + ": unknown command " + verb);
          ::_exit(exit_code(ErrorCode::kInternal));
        }
      }
      if (decoder.corrupt()) {
        note("shard " + config.name + ": corrupt command stream");
        ::_exit(exit_code(ErrorCode::kInternal));
      }
      const ssize_t n = ::read(config.cmd_fd, chunk, sizeof(chunk));
      if (n > 0) {
        decoder.feed(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      ::_exit(0);  // EOF: the parent closed the pipe (or died); clean stop.
    }
  } catch (const Error& e) {
    note(e.what());
    ::_exit(e.exit_code());
  } catch (const std::exception& e) {
    note(e.what());
    ::_exit(exit_code(ErrorCode::kInternal));
    // The child must never unwind into the cloned parent stack; the
    // non-zero _exit IS the report. locpriv-lint: allow(swallowed-catch)
  } catch (...) {
    note("non-std exception in shard worker");
    ::_exit(exit_code(ErrorCode::kInternal));
  }
}

}  // namespace locpriv::service
