#include "core/harness/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/sync.hpp"

namespace locpriv::harness {

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Shutdown flag. A plain lock-free atomic written from the signal handler;
// cleared at the top of every run() so a stale ^C from a previous stage
// cannot abort a fresh one.
// ---------------------------------------------------------------------------

std::atomic<int> g_shutdown_signal{0};

extern "C" void locpriv_supervisor_on_signal(int signal) {
  Supervisor::request_shutdown(signal);
}

/// Installs the shutdown handler for SIGINT/SIGTERM and restores whatever
/// was there before on destruction, so a Supervisor::run() nested inside a
/// larger program does not permanently hijack its signal disposition.
class ScopedSignalHandlers {
 public:
  ScopedSignalHandlers() {
    struct sigaction action {};
    action.sa_handler = &locpriv_supervisor_on_signal;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedSignalHandlers() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

// ---------------------------------------------------------------------------
// Deterministic backoff jitter. splitmix64 over (seed ^ cell-hash ^ attempt)
// — pure arithmetic, no clock or hardware entropy, so two executions of the
// same run schedule byte-identical retries.
// ---------------------------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Child-side plumbing. Everything after fork() runs with logging off and
// reports only through the result pipe / inherited stderr; errors are
// written with raw ::write because stdio buffers were cloned from the
// parent and must not be flushed twice.
// ---------------------------------------------------------------------------

void write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Nothing sane left to do in a dying child.
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

void append_u32(std::string& out, std::uint32_t value) {
  char bytes[4];
  std::memcpy(bytes, &value, sizeof(value));
  out.append(bytes, sizeof(bytes));
}

/// Serializes result fields as: u32 count, then per field u32 length + bytes.
std::string encode_frame(const std::vector<std::string>& fields) {
  std::string frame;
  append_u32(frame, static_cast<std::uint32_t>(fields.size()));
  for (const std::string& field : fields) {
    append_u32(frame, static_cast<std::uint32_t>(field.size()));
    frame += field;
  }
  return frame;
}

/// Parses a complete frame; false on truncation, trailing bytes, or an
/// implausible field length (corrupt stream).
bool decode_frame(const std::string& frame, std::vector<std::string>& fields) {
  constexpr std::uint32_t kMaxField = 1u << 24;
  std::size_t offset = 0;
  auto read_u32 = [&](std::uint32_t& value) {
    if (frame.size() - offset < sizeof(value)) return false;
    std::memcpy(&value, frame.data() + offset, sizeof(value));
    offset += sizeof(value);
    return true;
  };
  std::uint32_t count = 0;
  if (!read_u32(count) || count > kMaxField) return false;
  fields.clear();
  fields.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t size = 0;
    if (!read_u32(size) || size > kMaxField || frame.size() - offset < size)
      return false;
    fields.emplace_back(frame, offset, size);
    offset += size;
  }
  return offset == frame.size();
}

void apply_rlimits(const SupervisorOptions& options) {
  if (options.cell_rlimit_mb > 0) {
    struct rlimit limit {};
    limit.rlim_cur = limit.rlim_max =
        static_cast<rlim_t>(options.cell_rlimit_mb) * 1024 * 1024;
    ::setrlimit(RLIMIT_AS, &limit);
  }
  if (options.cell_cpu_s > 0) {
    struct rlimit limit {};
    limit.rlim_cur = limit.rlim_max = options.cell_cpu_s;
    ::setrlimit(RLIMIT_CPU, &limit);
  }
}

[[noreturn]] void run_child_and_exit(const CellFn& fn, std::size_t index,
                                     const std::string& key, int attempt,
                                     int result_fd, int err_fd,
                                     const SupervisorOptions& options) {
  // Order matters: silence the logger before anything can log (the parent's
  // sink mutex state was cloned by fork; kOff short-circuits log_line before
  // it would touch the mutex), then route stderr into the capture pipe, then
  // drop the parent's shutdown handlers so SIGTERM actually terminates us.
  util::set_log_level(util::LogLevel::kOff);
  ::dup2(err_fd, STDERR_FILENO);
  if (err_fd != STDERR_FILENO) ::close(err_fd);
  struct sigaction dfl {};
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  ::sigaction(SIGINT, &dfl, nullptr);
  ::sigaction(SIGTERM, &dfl, nullptr);
  apply_rlimits(options);
  try {
    const std::vector<std::string> fields = fn(index, key, attempt);
    const std::string frame = encode_frame(fields);
    write_all(result_fd, frame.data(), frame.size());
    ::_exit(0);
  } catch (const Error& e) {
    const std::string what = std::string(e.what()) + "\n";
    write_all(STDERR_FILENO, what.data(), what.size());
    ::_exit(e.exit_code());
  } catch (const std::exception& e) {
    const std::string what = std::string(e.what()) + "\n";
    write_all(STDERR_FILENO, what.data(), what.size());
    ::_exit(exit_code(ErrorCode::kInternal));
    // A child must never unwind back into the cloned parent stack; the
    // non-zero _exit IS the report. locpriv-lint: allow(swallowed-catch)
  } catch (...) {
    constexpr char kMessage[] = "non-std exception in supervised cell\n";
    write_all(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
    ::_exit(exit_code(ErrorCode::kInternal));
  }
}

// ---------------------------------------------------------------------------
// Parent-side bookkeeping.
// ---------------------------------------------------------------------------

struct PendingCell {
  std::size_t index = 0;
  std::string key;
  int attempt = 1;
  Clock::time_point eligible;  ///< Earliest dispatch time (backoff).
};

struct ChildProc {
  pid_t pid = -1;
  std::size_t index = 0;
  std::string key;
  int attempt = 1;
  bool has_deadline = false;
  bool term_sent = false;
  bool kill_sent = false;
  bool deadline_hit = false;
  Clock::time_point deadline;
  Clock::time_point kill_at;
  int result_fd = -1;
  int err_fd = -1;
  std::string result_buf;
  std::string err_buf;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Drains whatever is ready on `fd` into `buf`; returns false once the pipe
/// reports EOF (write end closed — the child exited or closed it).
bool read_available(int fd, std::string& buf) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return true;  // EAGAIN: drained for now.
  }
}

void close_child_fds(ChildProc& child) {
  if (child.result_fd >= 0) {
    read_available(child.result_fd, child.result_buf);
    ::close(child.result_fd);
    child.result_fd = -1;
  }
  if (child.err_fd >= 0) {
    read_available(child.err_fd, child.err_buf);
    ::close(child.err_fd);
    child.err_fd = -1;
  }
}

std::string signal_name(int signal) {
  switch (signal) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGXCPU: return "SIGXCPU";
    default: return "signal " + std::to_string(signal);
  }
}

/// Last `limit` bytes of the child's captured stderr, newlines flattened so
/// the ledger record stays a readable one-liner.
std::string stderr_tail(const std::string& captured, std::size_t limit) {
  std::string tail = captured.size() > limit
                         ? captured.substr(captured.size() - limit)
                         : captured;
  std::replace(tail.begin(), tail.end(), '\n', ' ');
  while (!tail.empty() && tail.back() == ' ') tail.pop_back();
  return tail;
}

/// One structured line describing a failed attempt: what killed the child
/// (signal / exit code / deadline / rlimit) plus its final stderr bytes.
std::string describe_failure(const ChildProc& child, int status,
                             bool frame_ok, const SupervisorOptions& options) {
  std::string detail = "attempt " + std::to_string(child.attempt) + ": ";
  if (child.deadline_hit) {
    detail += "deadline " + std::to_string(options.cell_deadline.count()) +
              "ms exceeded (SIGTERM" +
              (child.kill_sent ? std::string(", escalated to SIGKILL)")
                               : std::string(")"));
  } else if (WIFSIGNALED(status)) {
    const int signal = WTERMSIG(status);
    detail += "killed by " + signal_name(signal);
    if (signal == SIGXCPU || signal == SIGKILL)
      detail += " (rlimit candidate: cpu=" + std::to_string(options.cell_cpu_s) +
                "s as=" + std::to_string(options.cell_rlimit_mb) + "MiB)";
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    detail += "exit " + std::to_string(WEXITSTATUS(status));
  } else if (!frame_ok) {
    detail += "exit 0 but the result frame was truncated or corrupt";
  } else {
    detail += "unknown wait status " + std::to_string(status);
  }
  const std::string tail = stderr_tail(child.err_buf, options.stderr_tail);
  if (!tail.empty()) detail += "; stderr: " + tail;
  return detail;
}

void kill_and_reap(std::vector<ChildProc>& running, int signal) {
  for (ChildProc& child : running)
    if (child.pid > 0) ::kill(child.pid, signal);
  for (ChildProc& child : running) {
    if (child.pid > 0) {
      int status = 0;
      while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {}
      child.pid = -1;
    }
    close_child_fds(child);
  }
  running.clear();
}

std::chrono::milliseconds clamp_to_ms(Clock::duration d) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(d);
  return ms.count() < 0 ? std::chrono::milliseconds(0) : ms;
}

}  // namespace

std::chrono::milliseconds backoff_delay(const SupervisorOptions& options,
                                        const std::string& cell, int attempt) {
  if (attempt <= 1 || options.backoff_base.count() <= 0)
    return std::chrono::milliseconds(0);
  // Exponential in the retry number, capped so the shift cannot overflow.
  const int exponent = std::min(attempt - 2, 20);
  const std::int64_t base = options.backoff_base.count();
  const std::int64_t scaled = base << exponent;
  const std::uint64_t jitter =
      splitmix64(options.backoff_seed ^ util::fnv1a64(cell) ^
                 static_cast<std::uint64_t>(attempt)) %
      static_cast<std::uint64_t>(base);
  return std::chrono::milliseconds(scaled + static_cast<std::int64_t>(jitter));
}

Supervisor::Supervisor(SupervisorOptions options) : options_(options) {
  if (options_.workers < 1)
    throw Error(ErrorCode::kUsage, "supervisor requires at least one worker");
  if (options_.max_attempts < 1)
    throw Error(ErrorCode::kUsage,
                "supervisor requires at least one attempt per cell");
}

void Supervisor::request_shutdown(int signal) {
  g_shutdown_signal.store(signal == 0 ? SIGTERM : signal,
                          std::memory_order_relaxed);
}

bool Supervisor::shutdown_requested() {
  return g_shutdown_signal.load(std::memory_order_relaxed) != 0;
}

SupervisorOutcome Supervisor::run(const std::vector<std::string>& cells,
                                  const CellFn& fn, RunLedger& ledger,
                                  StageWatchdog* watchdog) {
  g_shutdown_signal.store(0, std::memory_order_relaxed);
  const ScopedSignalHandlers handlers;
  return options_.isolate ? run_isolated(cells, fn, ledger, watchdog)
                          : run_in_process(cells, fn, ledger, watchdog);
}

SupervisorOutcome Supervisor::run_isolated(const std::vector<std::string>& cells,
                                           const CellFn& fn, RunLedger& ledger,
                                           StageWatchdog* watchdog) {
  SupervisorOutcome outcome;
  std::deque<PendingCell> queue;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (!ledger.completed(cells[i]))
      queue.push_back({i, cells[i], 1, start});

  // Per-cell log of every failed attempt; becomes the quarantine record.
  std::map<std::string, std::vector<std::string>> failure_log;
  std::vector<std::pair<std::size_t, std::string>> quarantined;
  std::vector<ChildProc> running;
  bool interrupted = false;

  auto spawn = [&](PendingCell cell) {
    int result_pipe[2];
    int err_pipe[2];
    if (::pipe(result_pipe) != 0)
      throw Error(ErrorCode::kIo, "cannot create result pipe" + errno_detail());
    if (::pipe(err_pipe) != 0) {
      ::close(result_pipe[0]);
      ::close(result_pipe[1]);
      throw Error(ErrorCode::kIo, "cannot create stderr pipe" + errno_detail());
    }
    pid_t pid = -1;
    {
      // Hold the logging sink across fork(2) so the child cannot inherit it
      // mid-emission from some other thread (e.g. the watchdog heartbeat).
      const util::LogForkGuard guard;
      pid = ::fork();
      if (pid == 0) {
        ::close(result_pipe[0]);
        ::close(err_pipe[0]);
        run_child_and_exit(fn, cell.index, cell.key, cell.attempt,
                           result_pipe[1], err_pipe[1], options_);
      }
    }
    ::close(result_pipe[1]);
    ::close(err_pipe[1]);
    if (pid < 0) {
      ::close(result_pipe[0]);
      ::close(err_pipe[0]);
      throw Error(ErrorCode::kIo, "fork failed" + errno_detail());
    }
    set_nonblocking(result_pipe[0]);
    set_nonblocking(err_pipe[0]);
    ChildProc child;
    child.pid = pid;
    child.index = cell.index;
    child.key = std::move(cell.key);
    child.attempt = cell.attempt;
    child.result_fd = result_pipe[0];
    child.err_fd = err_pipe[0];
    if (options_.cell_deadline.count() > 0) {
      child.has_deadline = true;
      child.deadline = Clock::now() + options_.cell_deadline;
    }
    running.push_back(std::move(child));
  };

  try {
    while (!queue.empty() || !running.empty()) {
      if (shutdown_requested()) {
        interrupted = true;
        break;
      }
      if (watchdog != nullptr && watchdog->expired()) {
        // Children may be non-cooperative (that is the point of isolation);
        // the stage deadline is enforced on them from out here.
        kill_and_reap(running, SIGKILL);
        watchdog->checkpoint();  // Throws Error(kDeadline).
      }

      auto now = Clock::now();
      // Dispatch every eligible pending cell into free worker slots, in
      // queue order (original sweep order, retries at the back).
      while (running.size() < options_.workers) {
        auto eligible = std::find_if(
            queue.begin(), queue.end(),
            [&](const PendingCell& cell) { return cell.eligible <= now; });
        if (eligible == queue.end()) break;
        PendingCell cell = std::move(*eligible);
        queue.erase(eligible);
        spawn(std::move(cell));
      }

      if (running.empty()) {
        // Everything pending is backing off; nap until the earliest retry.
        auto earliest = Clock::time_point::max();
        for (const PendingCell& cell : queue)
          earliest = std::min(earliest, cell.eligible);
        const auto nap =
            std::min(clamp_to_ms(earliest - now), std::chrono::milliseconds(50));
        std::this_thread::sleep_for(std::max(nap, std::chrono::milliseconds(1)));
        continue;
      }

      // Poll the children's pipes; wake early for the nearest deadline so a
      // SIGTERM/SIGKILL escalation never waits on quiet pipes.
      std::vector<pollfd> fds;
      auto timeout = std::chrono::milliseconds(50);
      for (const ChildProc& child : running) {
        if (child.result_fd >= 0)
          fds.push_back({child.result_fd, POLLIN, 0});
        if (child.err_fd >= 0) fds.push_back({child.err_fd, POLLIN, 0});
        if (child.has_deadline && !child.term_sent)
          timeout = std::min(timeout, clamp_to_ms(child.deadline - now));
        if (child.term_sent && !child.kill_sent)
          timeout = std::min(timeout, clamp_to_ms(child.kill_at - now));
      }
      while (::poll(fds.empty() ? nullptr : fds.data(),
                    static_cast<nfds_t>(fds.size()),
                    static_cast<int>(std::max<std::int64_t>(
                        timeout.count(), 1))) < 0 &&
             errno == EINTR) {}

      for (ChildProc& child : running) {
        if (child.result_fd >= 0 &&
            !read_available(child.result_fd, child.result_buf)) {
          ::close(child.result_fd);
          child.result_fd = -1;
        }
        if (child.err_fd >= 0 && !read_available(child.err_fd, child.err_buf)) {
          ::close(child.err_fd);
          child.err_fd = -1;
        }
      }

      // Preemptive per-cell deadline: SIGTERM, a grace period, SIGKILL.
      now = Clock::now();
      for (ChildProc& child : running) {
        if (!child.has_deadline) continue;
        if (!child.term_sent && now >= child.deadline) {
          child.term_sent = true;
          child.deadline_hit = true;
          child.kill_at = now + options_.term_grace;
          ::kill(child.pid, SIGTERM);
          LOCPRIV_LOG(kWarn, "supervisor")
              << "cell " << child.key << " attempt " << child.attempt
              << " blew its " << options_.cell_deadline.count()
              << "ms deadline; SIGTERM sent";
        } else if (child.term_sent && !child.kill_sent && now >= child.kill_at) {
          child.kill_sent = true;
          ::kill(child.pid, SIGKILL);
          LOCPRIV_LOG(kWarn, "supervisor")
              << "cell " << child.key << " ignored SIGTERM for "
              << options_.term_grace.count() << "ms; SIGKILL sent";
        }
      }

      // Reap exited children and classify each outcome.
      for (std::size_t i = 0; i < running.size();) {
        ChildProc& child = running[i];
        int status = 0;
        const pid_t reaped = ::waitpid(child.pid, &status, WNOHANG);
        if (reaped != child.pid) {
          ++i;
          continue;
        }
        child.pid = -1;
        close_child_fds(child);

        std::vector<std::string> fields;
        const bool frame_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                              !child.deadline_hit &&
                              decode_frame(child.result_buf, fields);
        if (frame_ok) {
          ledger.record(child.key, fields);
          ++outcome.computed;
          if (watchdog != nullptr) watchdog->add_progress();
        } else {
          const std::string detail =
              describe_failure(child, status, WIFEXITED(status) &&
                                                  WEXITSTATUS(status) == 0,
                               options_);
          failure_log[child.key].push_back(detail);
          if (child.attempt < options_.max_attempts) {
            const auto delay =
                backoff_delay(options_, child.key, child.attempt + 1);
            LOCPRIV_LOG(kWarn, "supervisor")
                << "cell " << child.key << " failed (" << detail
                << "); retrying in " << delay.count() << "ms";
            queue.push_back({child.index, child.key, child.attempt + 1,
                             Clock::now() + delay});
          } else {
            ledger.record_quarantine(child.key, failure_log[child.key]);
            quarantined.emplace_back(child.index, child.key);
            LOCPRIV_LOG(kError, "supervisor")
                << "cell " << child.key << " quarantined after "
                << options_.max_attempts << " attempts (" << detail << ")";
          }
        }
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  } catch (...) {
    kill_and_reap(running, SIGKILL);
    throw;
  }

  if (interrupted) {
    // Graceful shutdown: stop dispatching, give children the TERM+grace
    // treatment, make the journal durable, and report exit 7. The run
    // directory stays resumable.
    for (const ChildProc& child : running)
      if (child.pid > 0) ::kill(child.pid, SIGTERM);
    const auto deadline = Clock::now() + options_.term_grace;
    while (Clock::now() < deadline) {
      bool alive = false;
      for (ChildProc& child : running) {
        if (child.pid <= 0) continue;
        int status = 0;
        if (::waitpid(child.pid, &status, WNOHANG) == child.pid)
          child.pid = -1;
        else
          alive = true;
      }
      if (!alive) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill_and_reap(running, SIGKILL);
    ledger.sync();
    throw Error(ErrorCode::kInterrupted,
                "run interrupted by signal after " +
                    std::to_string(outcome.computed) +
                    " cells; ledger is durable, resume with the same "
                    "--run-dir");
  }

  std::sort(quarantined.begin(), quarantined.end());
  for (auto& [index, key] : quarantined)
    // One entry per quarantined cell, bounded by the sweep plan.
    // locpriv-lint: allow(unbounded-growth)
    outcome.quarantined.push_back(std::move(key));
  return outcome;
}

SupervisorOutcome Supervisor::run_in_process(
    const std::vector<std::string>& cells, const CellFn& fn, RunLedger& ledger,
    StageWatchdog* watchdog) {
  std::vector<std::pair<std::size_t, std::string>> todo;
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (!ledger.completed(cells[i])) todo.emplace_back(i, cells[i]);

  SupervisorOutcome outcome;
  std::vector<std::pair<std::size_t, std::string>> quarantined;
  util::Mutex mutex;  // Guards ledger appends and the outcome counters.

  util::parallel_for_dynamic(
      todo.size(),
      [&](std::size_t i) {
        // A requested shutdown skips cells rather than aborting mid-cell;
        // skipped cells stay uncomputed in the ledger, i.e. resumable.
        if (shutdown_requested()) return;
        const std::size_t index = todo[i].first;
        const std::string& key = todo[i].second;
        std::vector<std::string> details;
        for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
          if (watchdog != nullptr) watchdog->checkpoint();
          if (attempt > 1)
            std::this_thread::sleep_for(backoff_delay(options_, key, attempt));
          if (shutdown_requested()) return;
          try {
            const std::vector<std::string> fields = fn(index, key, attempt);
            const util::MutexLock lock(mutex);
            ledger.record(key, fields);
            ++outcome.computed;
            if (watchdog != nullptr) watchdog->add_progress();
            return;
          } catch (const Error&) {
            // Harness-level failures (deadline, I/O, resume) are run
            // failures, not cell failures: no retry, no quarantine.
            throw;
          } catch (const std::exception& e) {
            details.push_back("attempt " + std::to_string(attempt) +
                              ": exception: " + e.what());
            LOCPRIV_LOG(kWarn, "supervisor")
                << "cell " << key << " attempt " << attempt
                << " failed in-process: " << e.what();
          }
        }
        const util::MutexLock lock(mutex);
        ledger.record_quarantine(key, details);
        quarantined.emplace_back(index, key);
        LOCPRIV_LOG(kError, "supervisor")
            << "cell " << key << " quarantined after " << options_.max_attempts
            << " attempts";
      },
      options_.workers);

  if (shutdown_requested()) {
    ledger.sync();
    throw Error(ErrorCode::kInterrupted,
                "run interrupted by signal after " +
                    std::to_string(outcome.computed) +
                    " cells; ledger is durable, resume with the same "
                    "--run-dir");
  }

  std::sort(quarantined.begin(), quarantined.end());
  for (auto& [index, key] : quarantined)
    // One entry per quarantined cell, bounded by the sweep plan.
    // locpriv-lint: allow(unbounded-growth)
    outcome.quarantined.push_back(std::move(key));
  return outcome;
}

}  // namespace locpriv::harness
