// Closed-loop wire load from ONE non-blocking generator thread over several
// loopback connections, one frame outstanding per connection. One thread
// keeps the harness's own CPU on one clock that can be subtracted, and
// several connections let the server batch wakeups: one closed-loop
// connection costs the server roughly twice the CPU per frame, all of it
// wakeups (see BENCHMARK.md).

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <vector>

#include "core/compiled_equations.h"
#include "harness.h"
#include "runtime/estimate_types.h"

namespace perfbench {

namespace core = mscm::core;
namespace runtime = mscm::runtime;

// A request and the compiled kernel its answer must match bit for bit,
// evaluated at the probing cost the response reports.
struct CheckedRequest {
  const runtime::EstimateRequest* request = nullptr;
  const core::CompiledEquations* kernel = nullptr;
};

// True when `response` is an ok answer equal to the kernel's, and (for an
// explicit probing cost) priced at that probing cost.
bool AnswerMatchesKernel(const CheckedRequest& request,
                         const runtime::EstimateResponse& response);

struct WireTally {
  uint64_t sent = 0;
  uint64_t answered_ok = 0;     // estimate responses that passed the check
  uint64_t failed = 0;          // error frames, undecodable or failed checks
  uint64_t error_frames = 0;
  uint64_t overloaded = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t wakeups = 0;         // epoll_wait returns with events
  uint64_t responses = 0;
  std::vector<double> round_trip_us;
  // Per 250 ms slice: the process's CPU minus the generator thread's, per
  // frame answered in the slice (µs). CPU clocks exclude host steal.
  std::vector<double> slice_server_cpu_us;
  double wall_s = 0.0;
  double generator_cpu_s = 0.0;
};

class WireGenerator {
 public:
  // Connects `connections` sockets to 127.0.0.1:port. Aborts on failure.
  WireGenerator(uint16_t port, int connections);
  ~WireGenerator();

  WireGenerator(const WireGenerator&) = delete;
  WireGenerator& operator=(const WireGenerator&) = delete;

  // Sends `requests` in order (cycling) until `seconds` have passed, or —
  // with seconds <= 0 — until each request has been answered once. Stops
  // sending at the deadline and waits for every outstanding answer.
  // `log` (when enabled) gets net.round_trip / net.encode / net.decode
  // spans. With `answers` set, answers[i] receives request i's response.
  WireTally Run(const std::vector<CheckedRequest>& requests, double seconds,
                SpanLog& log,
                std::vector<runtime::EstimateResponse>* answers = nullptr);

 private:
  struct Conn;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
