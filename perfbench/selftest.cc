// Self-tests of the perfbench harness: the arithmetic the benchmark's
// numbers rest on. Run with `python3 perfbench/run.py --selftest`.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void PercentileAtKnownRank() {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  std::shuffle(samples.begin(), samples.end(), std::mt19937(7));
  const PercentilePick p50 = PickPercentile(samples, 0.5);
  Expect(p50.value == 50 && p50.rank == 50 && p50.beyond == 50,
         "p50 of 1..100 is rank 50");
  const PercentilePick p90 = PickPercentile(samples, 0.9);
  Expect(p90.value == 90 && p90.beyond == 10,
         "p90 of 1..100 is 90 with 10 samples beyond");
  const PercentilePick p99 = PickPercentile(samples, 0.99);
  Expect(p99.value == 99 && p99.beyond < kMinBeyondTail,
         "p99 of 100 samples has too few samples beyond it");
  Expect(PickPercentile({3.0}, 0.99).value == 3.0, "one sample is every rank");
  Expect(PickPercentile({}, 0.5).rank == 0, "no samples, no rank");
}

void SpanSelfTimeWithNestedChildren() {
  SpanLog log(true);
  const int root = log.Add("root", 1, -1, 0, 100);
  const int a = log.Add("a", 1, root, 10, 40);
  log.Add("a.child", 1, a, 15, 20);
  log.Add("b", 1, root, 30, 60);   // overlaps a: the union counts once
  log.Add("c", 1, root, 90, 120);  // runs past root: clipped to root
  const auto totals = log.Totals();
  Expect(totals.at("root").self_ns == 40.0,
         "root self = 100 - union(10..60, 90..100)");
  Expect(totals.at("a").self_ns == 25.0, "a self = 30 - its child's 5");
  Expect(totals.at("b").self_ns == 30.0, "a leaf's self time is its span");
  Expect(totals.at("root").total_ns == 100.0, "duration is end - start");

  SpanLog merged(true);
  merged.Add("other", 2, -1, 0, 1);
  merged.Append(log);
  Expect(merged.Totals().at("root").self_ns == 40.0,
         "appending re-bases parent indexes");

  SpanLog off(false);
  Expect(off.Begin("x", 1) == -1 && off.spans().empty(),
         "a disabled log records nothing");
}

void CpuAccountingSubtractsGenerator() {
  Expect(CpuUsPerOp(3.0, 1.0, 4) == 500000.0,
         "(process - harness) CPU seconds over ops, in us");
  Expect(CpuUsPerOp(3.0, 1.0, 0) == 0.0, "no ops, no cost");

  // A "server" thread burns ~60 ms of CPU while this "generator" thread
  // burns ~30 ms; subtracting the generator's own clock leaves the server's.
  auto spin = [](double cpu_seconds) {
    const double start = ThreadCpuSeconds();
    volatile double x = 0;
    while (ThreadCpuSeconds() - start < cpu_seconds) x = x + 1;
  };
  std::atomic<double> server_cpu{0.0};
  const double process0 = ProcessCpuSeconds();
  const double generator0 = ThreadCpuSeconds();
  std::thread server([&] {
    const double t0 = ThreadCpuSeconds();
    spin(0.06);
    server_cpu = ThreadCpuSeconds() - t0;
  });
  spin(0.03);
  server.join();
  const double generator = ThreadCpuSeconds() - generator0;
  const double charged_us =
      CpuUsPerOp(ProcessCpuSeconds() - process0, generator, 1);
  Expect(Near(charged_us, 1e6 * server_cpu.load(), 5000.0),
         "process CPU minus the generator's thread CPU is the server's CPU");
}

void TracingOverheadDifference() {
  Expect(Near(TracingOverhead(100.0, 110.0, true), 0.10, 1e-12),
         "lower-is-better metric 10% higher when traced: +0.10");
  Expect(Near(TracingOverhead(200.0, 150.0, false), 0.25, 1e-12),
         "higher-is-better metric 25% lower when traced: +0.25");
  Expect(TracingOverhead(5.0, 5.0, true) == 0.0, "no difference, no overhead");
  Expect(TracingOverhead(0.0, 1.0, true) == 0.0, "no base, no ratio");
}

void ResultLineShape() {
  MetricSet m;
  m.Set("latency_ms", 1.25, "ms");
  m.Set("latency_ms", 1.5, "ms");
  Expect(ResultJson(true, 3, 0, m) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": "
             "\"ms\"}}}",
         "result line carries exactly correct/attempted/failed/metrics");
  Expect(JsonNumber(0.1) == "0.10000000000000001",
         "values keep every digit");
}

}  // namespace

int main() {
  PercentileAtKnownRank();
  SpanSelfTimeWithNestedChildren();
  CpuAccountingSubtractsGenerator();
  TracingOverheadDifference();
  ResultLineShape();
  std::printf("%s\n", failures == 0 ? "all harness self-tests passed"
                                    : "harness self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
