#include "harness.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

PercentilePick PickPercentile(std::vector<double> samples, double p) {
  PercentilePick pick;
  if (samples.empty()) return pick;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  pick.value = samples[rank - 1];
  pick.rank = rank;
  pick.beyond = n - rank;
  return pick;
}

int SpanLog::Begin(const char* name, uint64_t op, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, op, parent, NowNs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

void SpanLog::EndAt(int index, int64_t end_ns) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

int SpanLog::Add(const char* name, uint64_t op, int parent, int64_t start_ns,
                 int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, op, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Append(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanTotals> SpanLog::Totals() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - static_cast<double>(covered);
  }
  return totals;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"op\": %llu, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name, static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double CpuUsPerOp(double process_cpu_s, double harness_cpu_s, uint64_t ops) {
  if (ops == 0) return 0.0;
  return 1e6 * (process_cpu_s - harness_cpu_s) / static_cast<double>(ops);
}

double TracingOverhead(double untraced, double traced, bool lower_is_better) {
  if (untraced == 0.0) return 0.0;
  const double worse = lower_is_better ? traced - untraced : untraced - traced;
  return worse / untraced;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t field[8] = {};
  for (uint64_t& v : field) {
    if (!(in >> v)) return CpuTicks{};
  }
  for (uint64_t v : field) ticks.total += v;
  ticks.steal = field[7];
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

Machine DescribeMachine() {
  Machine m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu_model = line.substr(colon + 1);
        m.cpu_model.erase(0, m.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
#ifdef __VERSION__
  m.compiler = __VERSION__;
#endif
#ifdef PERFBENCH_BUILD_TYPE
  m.build_type = PERFBENCH_BUILD_TYPE;
#endif
  return m;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

bool MetricSet::Has(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return entry.second.first;
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics.entries()) {
    if (!first) out << ", ";
    first = false;
    out << JsonString(name) << ": {\"value\": "
        << JsonNumber(value_unit.first)
        << ", \"unit\": " << JsonString(value_unit.second) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
