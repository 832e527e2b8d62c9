// Measurement primitives of the perfbench harness: fixed-rank percentiles,
// in-memory spans with self time, CPU-clock accounting, host steal, heap
// and machine description, and the one-line JSON result. Everything here is
// independent of the MSCM library so perfbench_selftest can check it alone.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// ---- Percentiles -------------------------------------------------------------

// Nearest-rank percentile: the value at 1-based rank ceil(p * n) of the
// sorted samples, and how many samples lie beyond that rank. A tail
// percentile is only reported when `beyond` reaches kMinBeyondTail.
struct PercentilePick {
  double value = 0.0;
  size_t rank = 0;    // 1-based
  size_t beyond = 0;  // n - rank
};
inline constexpr size_t kMinBeyondTail = 10;

PercentilePick PickPercentile(std::vector<double> samples, double p);

// ---- Spans -------------------------------------------------------------------

// One timed call into a layer. Spans of one benchmark op share `op`;
// `parent` indexes the enclosing span in the same SpanLog (-1 = root).
struct Span {
  const char* name = "";
  uint64_t op = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-name totals over a span log.
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;  // sum of durations
  double self_ns = 0.0;   // sum of (duration - time covered by children)
};

// A single-threaded, in-memory span recorder. Each benchmark thread owns
// one; logs are merged after the threads join. A disabled log records
// nothing and reads no clock, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, uint64_t op, int parent = -1);
  void End(int index);
  void EndAt(int index, int64_t end_ns);
  // Records an already-timed span (used where a span's clock reads are
  // taken anyway, e.g. a wire round trip).
  int Add(const char* name, uint64_t op, int parent, int64_t start_ns,
          int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);  // re-bases the other log's parents

  // Duration and self time per span name. Self time subtracts the union of
  // the span's direct children's intervals, clipped to the span.
  std::map<std::string, SpanTotals> Totals() const;

  // One JSON object per line: name, op, parent, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// Ops that run at 10^5/s and more record spans for one op in this many, so
// a traced run's log stays in memory comfortably; means over the sampled ops
// estimate the means over all of them.
inline constexpr uint64_t kSpanSampleEvery = 16;

// RAII span over a scope; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t op, int parent = -1)
      : log_(log), index_(log.Begin(name, op, parent)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

// ---- CPU clocks ----------------------------------------------------------------

// CPU seconds consumed by the whole process / the calling thread. Thread
// and process CPU clocks do not advance while the host steals the vCPU, so
// work per CPU second holds when work per wall second does not.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

// CPU microseconds per op charged to the system under test: the process's
// CPU over the window minus the CPU of harness threads that only generate
// load (e.g. the wire generator thread).
double CpuUsPerOp(double process_cpu_s, double harness_cpu_s, uint64_t ops);

// ---- Tracing overhead ------------------------------------------------------------

// How much worse `traced` reads than `untraced`, as a share of `untraced`:
// positive = tracing cost something, whichever direction is better.
double TracingOverhead(double untraced, double traced, bool lower_is_better);

// ---- Host and process --------------------------------------------------------------

// Cumulative /proc/stat CPU ticks; steal share of a window is the steal
// delta over the total delta. Zeroes when /proc/stat is unreadable.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealFraction(const CpuTicks& before, const CpuTicks& after);

// Heap bytes in use (malloc arenas + mmapped chunks), in MiB.
double HeapInUseMb();

struct Machine {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};
Machine DescribeMachine();

// ---- Result line ---------------------------------------------------------------------

// Metrics in insertion order, printed with every significant digit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

// JSON string literal with escapes.
std::string JsonString(const std::string& s);
// Shortest round-tripping decimal form of a double (non-finite -> null).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
