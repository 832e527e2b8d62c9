#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "net/wire_format.h"

namespace perfbench {

namespace net = mscm::net;

bool AnswerMatchesKernel(const CheckedRequest& request,
                         const runtime::EstimateResponse& response) {
  if (!response.ok() || !std::isfinite(response.estimate_seconds)) {
    return false;
  }
  if (request.request->probing_cost >= 0.0 &&
      response.probing_cost != request.request->probing_cost) {
    return false;
  }
  const core::CompiledEquations& kernel = *request.kernel;
  return response.estimate_seconds ==
             kernel.Evaluate(request.request->features,
                             response.probing_cost) &&
         response.state == kernel.StateOf(response.probing_cost);
}

struct WireGenerator::Conn {
  int fd = -1;
  net::FrameAssembler assembler;
  bool busy = false;
  size_t index = 0;  // request answered by the outstanding frame
  int64_t sent_ns = 0;
  int round_trip_span = -1;
};

WireGenerator::WireGenerator(uint16_t port, int connections)
    : conns_(static_cast<size_t>(connections)) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  MSCM_CHECK(epoll_fd_ >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    MSCM_CHECK(c.fd >= 0);
    MSCM_CHECK_MSG(connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0,
                   "connect to the loopback server failed");
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    MSCM_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev) == 0);
  }
}

WireGenerator::~WireGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

namespace {

// Writes the whole frame; loopback frames are small, so a full socket
// buffer is waited out in place.
bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

WireTally WireGenerator::Run(const std::vector<CheckedRequest>& requests,
                             double seconds, SpanLog& log,
                             std::vector<runtime::EstimateResponse>* answers) {
  WireTally tally;
  if (requests.empty()) return tally;
  const bool one_pass = seconds <= 0.0;
  if (answers != nullptr) answers->assign(requests.size(), {});
  const double cpu_start = ThreadCpuSeconds();
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(std::max(seconds, 0.0) * 1e9);
  size_t next = 0;
  size_t outstanding = 0;
  uint32_t request_id = 0;
  SpanLog unsampled;

  auto send_next = [&](Conn& c) {
    const size_t index = next % requests.size();
    ++next;
    c.busy = true;
    c.index = index;
    SpanLog& sampled = request_id % kSpanSampleEvery == 0 ? log : unsampled;
    std::vector<uint8_t> frame;
    {
      ScopedSpan encode(sampled, "net.encode", request_id);
      net::WireWriter w;
      net::EncodeEstimateRequest(*requests[index].request, w);
      frame = net::EncodeFrame(net::MessageType::kEstimateRequest, request_id,
                               w.bytes());
    }
    c.sent_ns = NowNs();
    c.round_trip_span =
        sampled.Add("net.round_trip", request_id, -1, c.sent_ns, 0);
    ++request_id;
    MSCM_CHECK_MSG(WriteAll(c.fd, frame), "loopback write failed");
    tally.bytes_sent += frame.size();
    ++tally.sent;
    ++outstanding;
  };
  auto may_send = [&] {
    return one_pass ? next < requests.size() : NowNs() < deadline_ns;
  };

  for (Conn& c : conns_) {
    if (may_send()) send_next(c);
  }
  constexpr int64_t kSliceNs = 250'000'000;
  int64_t slice_end_ns = start_ns + kSliceNs;
  uint64_t slice_frames = 0;
  double slice_process_cpu = ProcessCpuSeconds();
  double slice_generator_cpu = cpu_start;
  auto close_slice = [&] {
    const double process_cpu = ProcessCpuSeconds();
    const double generator_cpu = ThreadCpuSeconds();
    if (slice_frames > 0) {
      tally.slice_server_cpu_us.push_back(
          CpuUsPerOp(process_cpu - slice_process_cpu,
                     generator_cpu - slice_generator_cpu, slice_frames));
    }
    slice_frames = 0;
    slice_process_cpu = process_cpu;
    slice_generator_cpu = generator_cpu;
  };

  epoll_event events[16];
  uint8_t buf[65536];
  while (outstanding > 0) {
    if (NowNs() >= slice_end_ns) {
      close_slice();
      slice_end_ns += kSliceNs;
    }
    const int n = epoll_wait(epoll_fd_, events, 16, 1000);
    MSCM_CHECK_MSG(n >= 0 || errno == EINTR, "epoll_wait failed");
    if (n <= 0) continue;
    ++tally.wakeups;
    for (int e = 0; e < n; ++e) {
      Conn& c = conns_[events[e].data.u64];
      for (;;) {
        const ssize_t got = read(c.fd, buf, sizeof buf);
        if (got > 0) {
          tally.bytes_received += static_cast<size_t>(got);
          MSCM_CHECK_MSG(c.assembler.Feed(buf, static_cast<size_t>(got)),
                         "server sent a malformed frame");
          continue;
        }
        MSCM_CHECK_MSG(got < 0 && (errno == EAGAIN || errno == EINTR),
                       "server closed a connection");
        if (errno == EAGAIN) break;
      }
      while (std::optional<net::Frame> frame = c.assembler.Next()) {
        const int64_t now = NowNs();
        MSCM_CHECK_MSG(c.busy, "response without an outstanding request");
        ++tally.responses;
        const CheckedRequest& request = requests[c.index];
        bool ok = false;
        {
          ScopedSpan decode(
              frame->request_id % kSpanSampleEvery == 0 ? log : unsampled,
              "net.decode", frame->request_id);
          if (frame->type ==
              static_cast<uint8_t>(net::MessageType::kEstimateResponse)) {
            std::optional<runtime::EstimateResponse> response =
                net::DecodeEstimateResponsePayload(frame->payload);
            if (response.has_value()) {
              ok = AnswerMatchesKernel(request, *response);
              if (answers != nullptr) (*answers)[c.index] = *response;
            }
          } else if (frame->type ==
                     static_cast<uint8_t>(net::MessageType::kError)) {
            ++tally.error_frames;
            std::optional<net::ErrorBody> body =
                net::DecodeErrorBodyPayload(frame->payload);
            if (body.has_value() && body->code == net::WireError::kOverloaded) {
              ++tally.overloaded;
            }
          }
        }
        log.EndAt(c.round_trip_span, now);
        tally.round_trip_us.push_back(1e-3 *
                                      static_cast<double>(now - c.sent_ns));
        ++slice_frames;
        if (ok) {
          ++tally.answered_ok;
        } else {
          ++tally.failed;
        }
        c.busy = false;
        --outstanding;
        if (may_send()) send_next(c);
      }
    }
  }
  close_slice();
  tally.wall_s = 1e-9 * static_cast<double>(NowNs() - start_ns);
  tally.generator_cpu_s = ThreadCpuSeconds() - cpu_start;
  return tally;
}

}  // namespace perfbench
