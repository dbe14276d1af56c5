// Self-tests for the benchmark's own arithmetic: the tail-percentile rule,
// the composed batch pass, open-loop due-time latency and lateness on a
// synthetic clock, span self time, and offer accounting. Run:
// perfbench/run.py --self-test (or the perfbench_selftest binary in the
// benchmark's build tree). Exit 0 = pass.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Unsorted on purpose.
  return values;
}

void percentile_rule() {
  using perfbench::summarize;
  // 1000 samples: p99 is rank 990 and leaves exactly 10 beyond it.
  auto s = summarize(one_to(1000));
  check(s.n == 1000 && near(s.p50, 500.5), "median of 1..1000");
  check(near(s.tail_pct, 99) && near(s.tail, 990), "p99 with exactly 10 beyond");
  // 999 samples: p99 would leave 9 beyond, so the rule falls back to p90.
  s = summarize(one_to(999));
  check(near(s.tail_pct, 90) && near(s.tail, 900), "p90 when p99 has 9 beyond");
  // 100 samples: p90 leaves 10 beyond.
  s = summarize(one_to(100));
  check(near(s.tail_pct, 90) && near(s.tail, 90), "p90 of 100 samples");
  // 40 samples: p75 is rank 30, 10 beyond.
  s = summarize(one_to(40));
  check(near(s.tail_pct, 75) && near(s.tail, 30), "p75 of 40 samples");
  // 20 samples: only p50 keeps 10 beyond.
  s = summarize(one_to(20));
  check(near(s.tail_pct, 50) && near(s.tail, 10), "p50 of 20 samples");
  // 15 samples: no listed percentile keeps 10 beyond; report the maximum.
  s = summarize(one_to(15));
  check(near(s.tail_pct, 100) && near(s.tail, 15) && near(s.p50, 8),
        "maximum when too few samples");
  s = summarize({});
  check(s.n == 0 && near(s.p50, 0), "empty input");
  check(near(perfbench::median({4, 1, 3, 2}), 2.5), "even-count median");
  check(near(perfbench::nearest_rank({1, 2, 3, 4, 5}, 50), 3), "nearest rank");
}

void composed_pass() {
  // 20 passes of 2 calls. Call 0 takes 1.0 ms, call 1 takes 3.0 ms; in
  // pass 7 the thread is preempted during call 0 (+50 ms), and passes
  // 12..19 run call 1 slower (3.0 + pass index / 100).
  std::vector<double> samples;
  for (int pass = 0; pass < 20; ++pass) {
    samples.push_back(pass == 7 ? 51.0 : 1.0);
    samples.push_back(pass >= 12 ? 3.0 + pass / 100.0 : 3.0);
  }
  const auto composed = perfbench::composed_pass(samples, 2);
  check(composed.n == 20, "one composed sample per pass");
  check(near(composed.p50, 1.0 + 3.0), "p50 = sum of call medians, preemption left out");
  // 20 samples per call: the tail rule picks p50 (10 beyond it).
  check(near(composed.tail_pct, 50) && near(composed.tail, 1.0 + 3.0),
        "tail = sum of call tails at the shared percentile");
  samples.push_back(1.0);  // A partial pass is ignored.
  check(perfbench::composed_pass(samples, 2).n == 20, "partial pass ignored");
  // 40 passes, call 1 slower in the last 15: its p75 (rank 30) is slowed.
  samples.clear();
  for (int pass = 0; pass < 40; ++pass) {
    samples.push_back(1.0);
    samples.push_back(pass >= 25 ? 5.0 : 3.0);
  }
  const auto slowed = perfbench::composed_pass(samples, 2);
  check(near(slowed.tail_pct, 75) && near(slowed.tail, 1.0 + 5.0) &&
            near(slowed.p50, 1.0 + 3.0),
        "tail follows a call's slow quarter, the median does not");
  check(perfbench::composed_pass({}, 2).n == 0 && perfbench::composed_pass({1.0}, 0).n == 0,
        "no passes");
}

void open_loop_timing() {
  // 1000 requests/s starting at t = 10 s. The service stalls for 50 ms
  // after request 0, so requests 1..50 are sent late, all at t = 10.050.
  const perfbench::OpenLoopSchedule schedule{10.0, 0.001};
  check(near(schedule.due(0), 10.0) && near(schedule.due(50), 10.05), "due times");
  const double stall_end = 10.050;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  for (std::uint64_t j = 0; j <= 100; ++j) {
    const double sent = j == 0 ? 10.0 : std::max(schedule.due(j), stall_end);
    const double acked = sent + 0.002;  // 2 ms service time once sent.
    late_ms.push_back(schedule.lateness(j, sent) * 1e3);
    latency_ms.push_back(schedule.latency(j, acked) * 1e3);
  }
  // Request 1 was due at 10.001 and waited 49 ms for the stall to clear.
  check(std::fabs(late_ms[1] - 49.0) < 1e-6, "lateness of the first stalled request");
  check(std::fabs(latency_ms[1] - 51.0) < 1e-6,
        "latency counts the stall from the due time");
  check(std::fabs(latency_ms[0] - 2.0) < 1e-6 && late_ms[0] == 0.0,
        "on-time request: service time only");
  check(std::fabs(latency_ms[80] - 2.0) < 1e-6 && late_ms[80] == 0.0,
        "after the stall clears latency returns to the service time");
  // A closed loop would have timed request 1 from its send: 2 ms. The
  // open-loop median over the 101 requests still sees the stall's victims.
  const auto summary = perfbench::summarize(latency_ms);
  check(summary.tail > 40.0, "tail shows the stall");
  check(schedule.lateness(5, schedule.due(5) - 0.1) == 0.0, "early send is not late");
}

void span_self_time() {
  using perfbench::Span;
  // root [0, 100) with children [10, 30) and [20, 50) (overlapping: cover
  // 40) and a grandchild [12, 18) inside the first child.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},
      {"c", 12, 18, 1, 1},
      {"d", 90, 130, 0, 1},  // Runs past its parent: only [90, 100) counts.
  };
  const auto self = perfbench::self_times_ns(spans);
  check(self[0] == 100 - 40 - 10, "root self = duration - union of children");
  check(self[1] == 20 - 6, "child self excludes grandchild");
  check(self[2] == 30 && self[3] == 6 && self[4] == 40, "leaf self = duration");
  const auto totals = perfbench::totals_by_name(spans);
  check(totals.at("a").calls == 1 && totals.at("root").self_ns == 50, "totals by name");

  perfbench::Tracer tracer(true);
  {
    perfbench::ScopedSpan outer(tracer, "outer", 7);
    perfbench::ScopedSpan inner(tracer, "inner", 7);
  }
  check(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
            tracer.spans()[0].parent == -1 && tracer.spans()[1].request == 7,
        "tracer nests spans and keeps the request id");
  check(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns, "outer closes last");
  perfbench::Tracer off(false);
  { perfbench::ScopedSpan span(off, "x", 1); }
  check(off.spans().empty(), "disabled tracer records nothing");
}

void offer_accounting() {
  perfbench::OfferTally tally;
  tally.offered = 100;
  tally.submitted = 90;
  tally.dropped = 2;
  tally.shed = 8;  // Offers to a quarantined shard included.
  tally.blocked = 4;
  check(tally.reconciles(), "offered == submitted + dropped + shed");
  check(tally.attempted() == 104 && tally.failed() == 12, "failed = shed + blocked");
  check(near(tally.fail_ratio(), 12.0 / 104.0), "fail_ratio");
  tally.submitted = 91;
  check(!tally.reconciles(), "an extra submit breaks reconciliation");
  check(near(perfbench::OfferTally{}.fail_ratio(), 0.0), "no offers, no failures");
}

void digests() {
  const std::vector<std::vector<std::string>> rows = {{"a", "1"}, {"b", "2"}};
  check(perfbench::rows_digest(rows) == perfbench::rows_digest(rows), "digest is stable");
  check(perfbench::rows_digest(rows) != perfbench::rows_digest({{"a", "1"}, {"b", "3"}}),
        "digest sees a changed field");
  check(perfbench::rows_digest({{"a,b"}}) == perfbench::rows_digest({{"a", "b"}}),
        "digest hashes the CSV text");
  check(perfbench::rows_digest(rows).size() == 16, "digest is 16 hex digits");
}

}  // namespace

int main() {
  percentile_rule();
  composed_pass();
  open_loop_timing();
  span_self_time();
  offer_accounting();
  digests();
  if (g_failures == 0) std::cout << "perfbench self-tests passed\n";
  return g_failures == 0 ? 0 : 1;
}
