// Multi-threaded epoll serving front end for the EstimationService: the
// MDBS agent finally answers cost questions over a socket, the way the
// paper's remote global query optimizers would ask them.
//
// Architecture (one process, no RPC framework): run to completion.
//
//   listener ──▶ accept (loop 0) ──▶ connection assigned round-robin to an
//   IO event loop (epoll, level-triggered). The loop owns the connection
//   outright. Each readiness pass reads once, decodes every complete frame
//   of that read, serves each one through the service on the loop thread
//   (decoding the payload at the wire boundary, see wire_format.h), appends
//   the encoded responses to the connection's write buffer in frame order,
//   and writes them once when the read's frames are done. EPOLLOUT is armed
//   only when that write would block. No frame ever leaves its loop, so no
//   lock or wakeup sits between a request and its response. The service's
//   ThreadPool only fans out EstimateBatch items and runs refresh work.
//
// Admission control — the server prefers shedding to buffering:
//   * max_inflight bounds requests taken off the socket and not yet
//     answered, server-wide. A frame counts from decode time, and a read's
//     frames are all decoded before any is served, so a pipelined burst
//     past the bound gets immediate kOverloaded error frames for its excess
//     (the client retries elsewhere / later — that is the load-shed
//     contract, see DESIGN.md §8).
//   * max_read_buffer bounds unparsed inbound bytes per connection; a peer
//     that streams frames faster than it drains responses is disconnected,
//     not buffered without bound.
//   * max_write_buffer bounds unsent outbound bytes per connection after a
//     write; a peer that stops reading its responses is disconnected. It is
//     the only backpressure on a peer that pipelines without reading.
//   * max_connections bounds accepted sockets; past it, accepts are closed
//     immediately.
//
// Graceful shutdown (Stop): stop accepting → each loop disables reads at
// its next wake (no new frame decodes; the frames of the pass it was in are
// already answered, so nothing is in flight) → each loop flushes its write
// buffers (bounded by flush_timeout) and exits → close. A request that was
// admitted is therefore always answered before its connection closes —
// never dropped silently. Full-stack teardown order is
//   server.Stop() → ModelRefreshDaemon dtor → service.StopProbing() →
//   EstimationService dtor (ThreadPool join)
// so no component's background threads can touch a component destroyed
// before it.

#ifndef MSCM_NET_SERVER_H_
#define MSCM_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire_format.h"
#include "runtime/estimation_service.h"

namespace mscm::net {

struct EstimateServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; EstimateServer::port() after Start
  int io_threads = 1;
  int listen_backlog = 128;
  // Frames with a larger payload length are rejected as malformed before
  // any buffering toward them (capped at wire_format's kMaxPayloadBytes).
  uint32_t max_frame_payload = kMaxPayloadBytes;
  size_t max_connections = 1024;
  // Server-wide bound on requests taken off the socket and not yet
  // answered; 0 sheds everything (useful to force the overload path in
  // tests).
  size_t max_inflight = 256;
  size_t max_read_buffer = 1u << 20;
  size_t max_write_buffer = 1u << 22;
  // Stop(): how long to keep flushing queued responses to slow readers
  // once reads are disabled.
  std::chrono::milliseconds flush_timeout{2000};
  // Sink for kReportActual frames (typically AdaptationController::Record).
  // Returns whether the report was buffered; the ack echoes that. Null =
  // feedback unsupported: reports are decoded, counted, and acked
  // accepted=false — never an error frame (feedback is advisory).
  std::function<bool(const runtime::FeedbackReport&)> feedback_handler;
};

// Monotonic serving-boundary counters (the runtime's own counters stay in
// RuntimeStatsSnapshot; these cover what happens on the wire).
struct NetServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t malformed_frames = 0;     // stream poisoned; connection closed
  uint64_t unknown_type_frames = 0;  // answered kUnknownType, kept open
  uint64_t requests_dispatched = 0;  // admitted past max_inflight
  uint64_t requests_completed = 0;   // admitted requests answered
  uint64_t responses_sent = 0;       // data responses enqueued
  uint64_t error_frames_sent = 0;    // error frames enqueued
  uint64_t invalid_requests = 0;     // kInvalidRequest at the wire boundary
  uint64_t overload_shed = 0;        // kOverloaded by admission control
  uint64_t shutdown_shed = 0;        // kShuttingDown while draining
  uint64_t internal_errors = 0;      // handler threw; answered kInternal
  uint64_t read_limit_closes = 0;
  uint64_t write_limit_closes = 0;
  uint64_t dropped_responses = 0;  // computed, but closed before sent
  uint64_t estimates = 0;
  uint64_t batches = 0;
  uint64_t batch_items = 0;
  uint64_t placements = 0;
  uint64_t stats_requests = 0;
  uint64_t feedback_reports = 0;  // kReportActual frames decoded and routed
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;

  std::string ToString() const;
};

class EstimateServer {
 public:
  // `service` must outlive the server; requests are served on the IO
  // loops (see the header comment).
  explicit EstimateServer(runtime::EstimationService* service,
                          EstimateServerConfig config = {});
  ~EstimateServer();  // calls Stop()

  EstimateServer(const EstimateServer&) = delete;
  EstimateServer& operator=(const EstimateServer&) = delete;

  // Binds, listens, and starts the IO loops. False (with *error set) on any
  // socket failure. Start-once: a stopped server is not restartable.
  bool Start(std::string* error = nullptr);

  // The bound port (after a successful Start).
  uint16_t port() const { return port_; }

  // Graceful shutdown; see the header comment for the ordering contract.
  // Idempotent, safe from any non-IO thread.
  void Stop();

  bool running() const { return started_.load() && !stopped_.load(); }

  NetServerStatsSnapshot Stats() const;

  // Admitted-but-unanswered requests right now (admission gauge).
  size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

 private:
  struct Connection;
  struct Loop;

  // Loop-thread members take Connection& from a caller that holds the
  // connection's shared_ptr, so a close cannot free it under them.
  void LoopThread(size_t index);
  void AcceptReady();
  void DisableReads(Loop& loop);
  bool HasUnsentResponses(Loop& loop);
  void OnReadable(Loop& loop, Connection& conn);
  void ServeFrames(Loop& loop, Connection& conn);
  // Decodes one admitted request, computes it, and queues the response.
  void ServeFrame(Connection& conn, const Frame& frame);
  void CountBoundaryReject(WireError code);
  std::map<std::string, uint64_t> NetCounterEntries() const;
  void QueueBytes(Connection& conn, const std::vector<uint8_t>& bytes);
  void QueueResponse(Connection& conn, const std::vector<uint8_t>& bytes);
  void QueueError(Connection& conn, uint32_t request_id, WireError code,
                  const std::string& message);
  void Flush(Loop& loop, Connection& conn);
  void UpdateInterest(Loop& loop, Connection& conn);
  void CloseConnection(Loop& loop, Connection& conn);
  void CloseSocket(Connection& conn);
  void WakeLoop(Loop& loop);

  runtime::EstimationService* const service_;
  const EstimateServerConfig config_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<size_t> next_loop_{0};
  std::atomic<size_t> num_connections_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;  // serializes Stop()
  // Written by Stop() before draining_ is set; loops read it after.
  std::chrono::steady_clock::time_point flush_deadline_;

  std::atomic<size_t> inflight_{0};

  // Counters (relaxed; the serving boundary is not the hot path the sharded
  // runtime counters protect).
  struct Counters;
  std::unique_ptr<Counters> counters_;
};

}  // namespace mscm::net

#endif  // MSCM_NET_SERVER_H_
