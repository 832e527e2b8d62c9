#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/str_util.h"
#include "net/stats_codec.h"

namespace mscm::net {

// ---- Internal structures ----------------------------------------------------

struct EstimateServer::Counters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> malformed_frames{0};
  std::atomic<uint64_t> unknown_type_frames{0};
  std::atomic<uint64_t> requests_dispatched{0};
  std::atomic<uint64_t> requests_completed{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> error_frames_sent{0};
  std::atomic<uint64_t> invalid_requests{0};
  std::atomic<uint64_t> overload_shed{0};
  std::atomic<uint64_t> shutdown_shed{0};
  std::atomic<uint64_t> internal_errors{0};
  std::atomic<uint64_t> read_limit_closes{0};
  std::atomic<uint64_t> write_limit_closes{0};
  std::atomic<uint64_t> dropped_responses{0};
  std::atomic<uint64_t> estimates{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batch_items{0};
  std::atomic<uint64_t> placements{0};
  std::atomic<uint64_t> stats_requests{0};
  std::atomic<uint64_t> feedback_reports{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> bytes_sent{0};
};

namespace {
void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

bool IsRequestType(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kEstimateRequest:
    case MessageType::kEstimateBatchRequest:
    case MessageType::kPlacementRequest:
    case MessageType::kStatsRequest:
    case MessageType::kReportActual:
      return true;
    default:
      return false;
  }
}

// Response frames in `buf` that end past `sent`: computed, but the peer
// never received them whole.
uint64_t UnsentFrames(const std::vector<uint8_t>& buf, size_t sent) {
  uint64_t n = 0;
  for (size_t end = 0; end + kHeaderSize <= buf.size();) {
    WireReader length(buf.data() + end + kHeaderSize - 4, 4);
    end += kHeaderSize + length.TakeU32();
    if (end > sent) ++n;
  }
  return n;
}

}  // namespace

// Touched only by the owning IO loop (and by Stop() once the loops joined).
struct EstimateServer::Connection {
  explicit Connection(uint32_t max_payload) : assembler(max_payload) {}

  int fd = -1;
  FrameAssembler assembler;
  bool reading = true;
  uint32_t armed = EPOLLIN;  // the events epoll watches for this socket
  bool close_after_flush = false;
  bool closed = false;

  // Encoded responses in frame order. The buffer starts at a frame
  // boundary (it is cleared only once fully sent); write_pos is how far
  // the socket has taken it.
  std::vector<uint8_t> write_buf;
  size_t write_pos = 0;
};

struct EstimateServer::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;  // Stop() wakes the loop to drain
  std::thread thread;
  bool reads_disabled = false;  // draining applied (loop thread)
  std::vector<Frame> frames;    // one read's decoded frames (loop thread)

  // Loop 0 inserts accepted connections into every loop's map.
  std::mutex conns_mutex;
  std::map<int, std::shared_ptr<Connection>> conns;
};

// ---- Stats ------------------------------------------------------------------

std::string NetServerStatsSnapshot::ToString() const {
  return Format(
      "conns{accepted=%llu rejected=%llu closed=%llu} frames=%llu "
      "dispatched=%llu completed=%llu responses=%llu errors=%llu "
      "shed{overload=%llu shutdown=%llu} invalid=%llu malformed=%llu "
      "unknown_type=%llu internal=%llu limit_closes{read=%llu write=%llu} "
      "dropped=%llu served{est=%llu batch=%llu items=%llu place=%llu "
      "stats=%llu feedback=%llu} bytes{in=%llu out=%llu}",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(connections_rejected),
      static_cast<unsigned long long>(connections_closed),
      static_cast<unsigned long long>(frames_received),
      static_cast<unsigned long long>(requests_dispatched),
      static_cast<unsigned long long>(requests_completed),
      static_cast<unsigned long long>(responses_sent),
      static_cast<unsigned long long>(error_frames_sent),
      static_cast<unsigned long long>(overload_shed),
      static_cast<unsigned long long>(shutdown_shed),
      static_cast<unsigned long long>(invalid_requests),
      static_cast<unsigned long long>(malformed_frames),
      static_cast<unsigned long long>(unknown_type_frames),
      static_cast<unsigned long long>(internal_errors),
      static_cast<unsigned long long>(read_limit_closes),
      static_cast<unsigned long long>(write_limit_closes),
      static_cast<unsigned long long>(dropped_responses),
      static_cast<unsigned long long>(estimates),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(batch_items),
      static_cast<unsigned long long>(placements),
      static_cast<unsigned long long>(stats_requests),
      static_cast<unsigned long long>(feedback_reports),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(bytes_sent));
}

NetServerStatsSnapshot EstimateServer::Stats() const {
  const Counters& c = *counters_;
  NetServerStatsSnapshot s;
  s.connections_accepted = c.connections_accepted.load();
  s.connections_rejected = c.connections_rejected.load();
  s.connections_closed = c.connections_closed.load();
  s.frames_received = c.frames_received.load();
  s.malformed_frames = c.malformed_frames.load();
  s.unknown_type_frames = c.unknown_type_frames.load();
  s.requests_dispatched = c.requests_dispatched.load();
  s.requests_completed = c.requests_completed.load();
  s.responses_sent = c.responses_sent.load();
  s.error_frames_sent = c.error_frames_sent.load();
  s.invalid_requests = c.invalid_requests.load();
  s.overload_shed = c.overload_shed.load();
  s.shutdown_shed = c.shutdown_shed.load();
  s.internal_errors = c.internal_errors.load();
  s.read_limit_closes = c.read_limit_closes.load();
  s.write_limit_closes = c.write_limit_closes.load();
  s.dropped_responses = c.dropped_responses.load();
  s.estimates = c.estimates.load();
  s.batches = c.batches.load();
  s.batch_items = c.batch_items.load();
  s.placements = c.placements.load();
  s.stats_requests = c.stats_requests.load();
  s.feedback_reports = c.feedback_reports.load();
  s.bytes_received = c.bytes_received.load();
  s.bytes_sent = c.bytes_sent.load();
  return s;
}

// ---- Lifecycle --------------------------------------------------------------

EstimateServer::EstimateServer(runtime::EstimationService* service,
                               EstimateServerConfig config)
    : service_(service),
      config_(std::move(config)),
      counters_(std::make_unique<Counters>()) {}

EstimateServer::~EstimateServer() { Stop(); }

bool EstimateServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& loop : loops_) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    }
    loops_.clear();
    return false;
  };

  if (started_.load()) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + config_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  const int n_loops = std::max(1, config_.io_threads);
  for (int i = 0; i < n_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      loops_.push_back(std::move(loop));
      return fail("epoll_create1");
    }
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->wake_fd < 0) {
      loops_.push_back(std::move(loop));
      return fail("eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listener)");
  }

  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { LoopThread(i); });
  }
  started_.store(true);
  return true;
}

void EstimateServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!started_.load() || stopped_.load()) return;

  // Stop admitting: accepts are refused, and each loop disables reads at
  // its next wake, so no new frame can decode. A loop answers every frame
  // it decodes before it waits again, so once its reads are off nothing is
  // in flight on it. It then flushes its write buffers (bounded: a peer
  // that stopped reading forfeits its tail) and exits.
  flush_deadline_ = std::chrono::steady_clock::now() + config_.flush_timeout;
  draining_.store(true, std::memory_order_release);
  for (auto& loop : loops_) WakeLoop(*loop);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->conns_mutex);
    for (auto& [fd, conn] : loop->conns) CloseSocket(*conn);
    loop->conns.clear();
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  stopped_.store(true);
}

// ---- Event loop -------------------------------------------------------------

void EstimateServer::WakeLoop(Loop& loop) {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(loop.wake_fd, &one, sizeof(one));
}

void EstimateServer::LoopThread(size_t index) {
  Loop& loop = *loops_[index];
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(loop.epoll_fd, events, 64, 100);
    if (n < 0 && errno != EINTR) break;
    if (!loop.reads_disabled && draining_.load(std::memory_order_acquire)) {
      DisableReads(loop);
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        uint64_t drained;
        while (::read(loop.wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(loop.conns_mutex);
        auto it = loop.conns.find(fd);
        if (it != loop.conns.end()) conn = it->second;
      }
      if (conn == nullptr) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(loop, *conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && conn->reading) {
        OnReadable(loop, *conn);
      }
      if ((events[i].events & EPOLLOUT) != 0 && !conn->closed) {
        Flush(loop, *conn);
      }
    }
    if (loop.reads_disabled &&
        (!HasUnsentResponses(loop) ||
         std::chrono::steady_clock::now() >= flush_deadline_)) {
      break;
    }
  }
}

// The admission gate slams shut once per loop.
void EstimateServer::DisableReads(Loop& loop) {
  loop.reads_disabled = true;
  std::lock_guard<std::mutex> lock(loop.conns_mutex);
  for (auto& [fd, conn] : loop.conns) {
    conn->reading = false;
    UpdateInterest(loop, *conn);
  }
}

bool EstimateServer::HasUnsentResponses(Loop& loop) {
  std::lock_guard<std::mutex> lock(loop.conns_mutex);
  for (const auto& [fd, conn] : loop.conns) {
    if (conn->write_pos < conn->write_buf.size()) return true;
  }
  return false;
}

void EstimateServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or transient accept failure: try later
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    if (num_connections_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      Bump(counters_->connections_rejected);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>(config_.max_frame_payload);
    conn->fd = fd;
    const size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    Loop& loop = *loops_[target];
    {
      std::lock_guard<std::mutex> lock(loop.conns_mutex);
      loop.conns[fd] = conn;
    }
    num_connections_.fetch_add(1, std::memory_order_relaxed);
    Bump(counters_->connections_accepted);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseConnection(loop, *conn);
    }
  }
}

// One read per readiness pass: level-triggered epoll reports the socket
// again if more is queued, and skipping the read that would only say
// EAGAIN saves a syscall per frame.
void EstimateServer::OnReadable(Loop& loop, Connection& conn) {
  uint8_t buf[65536];
  ssize_t n;
  do {
    n = ::read(conn.fd, buf, sizeof(buf));
  } while (n < 0 && errno == EINTR);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  if (n <= 0) {
    CloseConnection(loop, conn);
    return;
  }
  Bump(counters_->bytes_received, static_cast<uint64_t>(n));
  if (!conn.assembler.Feed(buf, static_cast<size_t>(n))) {
    // Stream poisoned: one typed error, flush it, close. Reading stops now
    // so a garbage firehose cannot keep the connection busy.
    Bump(counters_->malformed_frames);
    QueueError(conn, 0, conn.assembler.error(), "unframeable bytes");
    conn.reading = false;
    conn.close_after_flush = true;
  } else {
    ServeFrames(loop, conn);
    if (conn.assembler.buffered_bytes() > config_.max_read_buffer) {
      Bump(counters_->read_limit_closes);
      CloseConnection(loop, conn);
      return;
    }
  }
  Flush(loop, conn);
}

// Writes queued responses until the socket would block (EPOLLOUT is armed
// only then). Closes the connection on a write error, when more than
// max_write_buffer is left unsent, or once a close_after_flush buffer is
// sent.
void EstimateServer::Flush(Loop& loop, Connection& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_pos,
               conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      Bump(counters_->bytes_sent, static_cast<uint64_t>(n));
      conn.write_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(loop, conn);
    return;
  }
  const size_t unsent = conn.write_buf.size() - conn.write_pos;
  if (unsent == 0) {
    conn.write_buf.clear();
    conn.write_pos = 0;
    if (conn.close_after_flush) {
      CloseConnection(loop, conn);
      return;
    }
  } else if (unsent > config_.max_write_buffer) {
    // A peer that will not read its responses is disconnected, not
    // buffered without bound.
    Bump(counters_->write_limit_closes);
    CloseConnection(loop, conn);
    return;
  }
  UpdateInterest(loop, conn);
}

// Watches EPOLLIN while reading and EPOLLOUT while responses wait on a
// full socket; a syscall only when that set changes.
void EstimateServer::UpdateInterest(Loop& loop, Connection& conn) {
  const uint32_t want =
      (conn.reading ? uint32_t{EPOLLIN} : 0u) |
      (conn.write_pos < conn.write_buf.size() ? uint32_t{EPOLLOUT} : 0u);
  if (want == conn.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.armed = want;
  }
}

void EstimateServer::CloseConnection(Loop& loop, Connection& conn) {
  if (conn.closed) return;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  {
    // Before the close: once the fd number is free, loop 0 may accept a
    // new connection onto it.
    std::lock_guard<std::mutex> lock(loop.conns_mutex);
    loop.conns.erase(conn.fd);
  }
  CloseSocket(conn);
}

// Closes the socket; responses it has not sent are forfeited and counted.
void EstimateServer::CloseSocket(Connection& conn) {
  conn.closed = true;
  Bump(counters_->dropped_responses,
       UnsentFrames(conn.write_buf, conn.write_pos));
  ::close(conn.fd);
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
  Bump(counters_->connections_closed);
}

// ---- Frame handling ---------------------------------------------------------

void EstimateServer::ServeFrames(Loop& loop, Connection& conn) {
  // Decode every complete frame of this read before serving any, so
  // admission sees a pipelined burst whole: a frame counts against
  // max_inflight from decode time until its response is queued.
  std::vector<Frame>& frames = loop.frames;
  frames.clear();
  while (auto frame = conn.assembler.Next()) {
    frames.push_back(std::move(*frame));
  }
  if (frames.empty()) return;
  Bump(counters_->frames_received, frames.size());

  const bool draining = draining_.load(std::memory_order_acquire);
  size_t requests = 0;
  if (!draining) {
    for (const Frame& frame : frames) requests += IsRequestType(frame.type);
  }
  size_t admitted = 0;
  if (requests > 0) {
    const size_t before =
        inflight_.fetch_add(requests, std::memory_order_relaxed);
    admitted = before >= config_.max_inflight
                   ? 0
                   : std::min(requests, config_.max_inflight - before);
    if (admitted < requests) {
      inflight_.fetch_sub(requests - admitted, std::memory_order_relaxed);
    }
    if (admitted > 0) Bump(counters_->requests_dispatched, admitted);
  }

  // Answer in frame order.
  for (const Frame& frame : frames) {
    const uint32_t id = frame.request_id;
    if (draining) {
      Bump(counters_->shutdown_shed);
      QueueError(conn, id, WireError::kShuttingDown, "server draining");
    } else if (!IsKnownMessageType(frame.type)) {
      Bump(counters_->unknown_type_frames);
      QueueError(conn, id, WireError::kUnknownType,
                 Format("unknown message type %u", frame.type));
    } else if (!IsRequestType(frame.type)) {
      Bump(counters_->invalid_requests);
      QueueError(conn, id, WireError::kInvalidRequest,
                 std::string(ToString(static_cast<MessageType>(frame.type))) +
                     " is not a request");
    } else if (admitted == 0) {
      // Admission control: shed rather than queue without bound.
      Bump(counters_->overload_shed);
      QueueError(conn, id, WireError::kOverloaded, "server overloaded");
    } else {
      --admitted;
      ServeFrame(conn, frame);
      Bump(counters_->requests_completed);
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void EstimateServer::ServeFrame(Connection& conn, const Frame& frame) {
  const uint32_t id = frame.request_id;
  const MessageType type = static_cast<MessageType>(frame.type);
  try {
    switch (type) {
      case MessageType::kEstimateRequest: {
        WireError err = WireError::kMalformedFrame;
        auto request = DecodeEstimateRequestPayload(frame.payload, &err);
        if (!request.has_value()) {
          CountBoundaryReject(err);
          QueueError(conn, id, err, "bad EstimateRequest");
          return;
        }
        const runtime::EstimateResponse response =
            service_->Estimate(*request);
        Bump(counters_->estimates);
        QueueResponse(conn,
                      EncodeFrame(MessageType::kEstimateResponse, id,
                                  EncodeEstimateResponsePayload(response)));
        return;
      }
      case MessageType::kEstimateBatchRequest: {
        WireError err = WireError::kMalformedFrame;
        auto requests = DecodeEstimateBatchRequestPayload(frame.payload, &err);
        if (!requests.has_value()) {
          CountBoundaryReject(err);
          QueueError(conn, id, err, "bad EstimateBatchRequest");
          return;
        }
        const std::vector<runtime::EstimateResponse> responses =
            service_->EstimateBatch(*requests);
        Bump(counters_->batches);
        Bump(counters_->batch_items, responses.size());
        QueueResponse(conn,
                      EncodeFrame(MessageType::kEstimateBatchResponse, id,
                                  EncodeEstimateBatchResponse(responses)));
        return;
      }
      case MessageType::kPlacementRequest: {
        WireError err = WireError::kMalformedFrame;
        runtime::PlacementOptions options;
        auto candidates =
            DecodePlacementRequestPayload(frame.payload, &err, &options);
        if (!candidates.has_value()) {
          CountBoundaryReject(err);
          QueueError(conn, id, err, "bad PlacementRequest");
          return;
        }
        const runtime::PlacementResult result =
            service_->ChoosePlacement(*candidates, options);
        Bump(counters_->placements);
        QueueResponse(conn, EncodeFrame(MessageType::kPlacementResponse, id,
                                        EncodePlacementResponse(result)));
        return;
      }
      case MessageType::kStatsRequest: {
        if (!frame.payload.empty()) {
          CountBoundaryReject(WireError::kMalformedFrame);
          QueueError(conn, id, WireError::kMalformedFrame,
                     "StatsRequest carries no payload");
          return;
        }
        Bump(counters_->stats_requests);
        QueueResponse(conn, EncodeFrame(MessageType::kStatsResponse, id,
                                        EncodeStats(service_->Stats(),
                                                    NetCounterEntries())));
        return;
      }
      case MessageType::kReportActual: {
        WireError err = WireError::kMalformedFrame;
        auto report = DecodeReportActualPayload(frame.payload, &err);
        if (!report.has_value()) {
          CountBoundaryReject(err);
          QueueError(conn, id, err, "bad ReportActual");
          return;
        }
        Bump(counters_->feedback_reports);
        // Feedback is advisory: an absent handler or a full buffer is an
        // accepted=false ack, never an error frame.
        const bool accepted = config_.feedback_handler != nullptr &&
                              config_.feedback_handler(*report);
        QueueResponse(conn, EncodeFrame(MessageType::kReportActualAck, id,
                                        EncodeReportActualAck(accepted)));
        return;
      }
      default:
        // Unreachable: ServeFrames admits only the five request types.
        QueueError(conn, id, WireError::kInternal, "bad dispatch");
        return;
    }
  } catch (...) {
    // The wire boundary contract: a request may fail, the server may not.
    Bump(counters_->internal_errors);
    QueueError(conn, id, WireError::kInternal, "exception serving request");
  }
}

void EstimateServer::CountBoundaryReject(WireError code) {
  if (code == WireError::kInvalidRequest) {
    Bump(counters_->invalid_requests);
  } else {
    Bump(counters_->malformed_frames);
  }
}

std::map<std::string, uint64_t> EstimateServer::NetCounterEntries() const {
  const NetServerStatsSnapshot s = Stats();
  return {
      {"net.connections_accepted", s.connections_accepted},
      {"net.connections_closed", s.connections_closed},
      {"net.frames_received", s.frames_received},
      {"net.requests_dispatched", s.requests_dispatched},
      {"net.requests_completed", s.requests_completed},
      {"net.responses_sent", s.responses_sent},
      {"net.error_frames_sent", s.error_frames_sent},
      {"net.invalid_requests", s.invalid_requests},
      {"net.malformed_frames", s.malformed_frames},
      {"net.overload_shed", s.overload_shed},
      {"net.shutdown_shed", s.shutdown_shed},
      {"net.dropped_responses", s.dropped_responses},
      {"net.estimates", s.estimates},
      {"net.batches", s.batches},
      {"net.batch_items", s.batch_items},
      {"net.placements", s.placements},
      {"net.stats_requests", s.stats_requests},
      {"net.feedback_reports", s.feedback_reports},
      {"net.bytes_received", s.bytes_received},
      {"net.bytes_sent", s.bytes_sent},
  };
}

// ---- Write path -------------------------------------------------------------

void EstimateServer::QueueResponse(Connection& conn,
                                   const std::vector<uint8_t>& bytes) {
  Bump(counters_->responses_sent);
  QueueBytes(conn, bytes);
}

void EstimateServer::QueueError(Connection& conn, uint32_t request_id,
                                WireError code, const std::string& message) {
  Bump(counters_->error_frames_sent);
  QueueBytes(conn, EncodeErrorFrame(request_id, code, message));
}

void EstimateServer::QueueBytes(Connection& conn,
                                const std::vector<uint8_t>& bytes) {
  conn.write_buf.insert(conn.write_buf.end(), bytes.begin(), bytes.end());
}

}  // namespace mscm::net
