// The wfmsd socket server: accepts newline-delimited-JSON protocol
// connections on one TCP port, answers `GET /metrics` HTTP scrapes on the
// same port, and executes admitted requests on a bounded worker pool
// behind the admission controller (see DESIGN.md "Service architecture").
//
// Threading model:
//  - one accept thread (poll on the listen socket + an internal self-pipe
//    used for shutdown wakeup),
//  - one reader thread per connection (blocking line reads; responses are
//    written under a per-connection mutex, so pipelined requests answer
//    out of order by design — the protocol's `id` matches them up),
//  - a ThreadPool of worker lanes with a bounded Submit queue executing
//    Backend::Handle. The admission ladder reads the pool's queue depth;
//    the pool bound is the backstop behind it (a Submit rejection also
//    answers `rejected-overloaded`).
//
// Graceful shutdown (SIGTERM semantics): RequestStop() is async-signal-
// safe (one write to the self-pipe). The accept thread stops accepting,
// every connection is shut down for reading, in-flight and queued
// requests run to completion and their responses are written, a final
// cache snapshot is persisted, and Wait() returns OK — no admitted
// request is ever dropped by a drain.
#ifndef WFMS_SERVICE_SERVER_H_
#define WFMS_SERVICE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "service/admission.h"
#include "service/backend.h"
#include "service/flight_recorder.h"

namespace wfms::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; the bound port is reported by port().
  int port = 0;
  /// Worker lanes executing requests. Clamped to >= 2 so requests never
  /// run inline on a connection's reader thread.
  size_t num_workers = 4;
  /// Submit-queue bound of the worker pool; also the base of the
  /// admission ladder (AdmissionOptions::max_queue is overwritten with
  /// this value unless it is 0, which disables the ladder — tests only).
  size_t max_queue = 64;
  AdmissionOptions admission;
  BackendOptions backend;
  /// Cache-snapshot policy: < 0 never persists, 0 persists after every
  /// cache-changing request (chaos-test mode: a SIGKILL at any instant
  /// loses at most the requests still in flight), > 0 persists at most
  /// that often (seconds).
  double snapshot_interval_seconds = -1.0;
  /// A request line longer than this answers `error` and closes the
  /// connection (a line that long cannot be resynchronized reliably).
  size_t max_line_bytes = 1u << 20;
  /// Lame-duck window after a stop request: readers keep consuming
  /// request lines the client already sent for this long, so a drain
  /// races with neither the network nor the kernel's receive buffer.
  double drain_grace_seconds = 0.5;
  /// Flight recorder (DESIGN.md §13): retained per-request records,
  /// served at `GET /debug/requests`.
  size_t flight_recorder_capacity = 1024;
  /// Non-empty: the recorder is dumped here (best-effort JSON) on the
  /// graceful-drain path and after each cache snapshot. Never written on
  /// the request path — a SIGKILL loses it by design.
  std::string flight_recorder_path;
  /// > 0: any request slower than this (milliseconds, arrival to
  /// response) logs its full phase breakdown to stderr.
  double slow_request_ms = 0.0;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, loads the cache snapshot (warm restart), and spawns
  /// the accept thread. On return the server is answering requests.
  Status Start();

  /// The bound port (after Start); the ephemeral-port answer.
  int port() const { return port_; }

  /// Asks the server to stop. Async-signal-safe: one write(2) on an
  /// internal pipe. Idempotent.
  void RequestStop();

  /// Blocks until a stop is requested, then drains: stops accepting,
  /// completes every admitted request, writes the final cache snapshot,
  /// and tears the worker pool down. Call once, after Start().
  Status Wait();

  Backend& backend() { return *backend_; }

  const FlightRecorder& flight_recorder() const { return recorder_; }

 private:
  struct Connection;

  void AcceptLoop();
  /// Registers an accepted socket and spawns its reader thread.
  void AdoptClient(int client);
  void ServeConnection(std::shared_ptr<Connection> conn);
  /// Consumes complete lines (or one HTTP exchange) from `buffer`. Sets
  /// `*one_shot` when the connection must stop reading: an HTTP scrape
  /// was answered, or a poison (oversized) line forced a close.
  void ConsumeBuffer(const std::shared_ptr<Connection>& conn,
                     std::string& buffer, bool* one_shot);
  /// Handles one protocol line: parse, admit, submit; every path writes
  /// exactly one response.
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  std::string line);
  /// Answers an HTTP GET (metrics scrape) and closes the connection.
  void ServeHttp(const std::shared_ptr<Connection>& conn,
                 const std::string& first_line);
  /// The response-write site for lines that never became a request (e.g.
  /// oversized input): renders, writes, and does the per-disposition
  /// accounting the load driver cross-checks.
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const Response& response);
  /// The single exit path for every parsed request: accounts the
  /// disposition, commits the flight-recorder record (and slow-request
  /// log) *before* the rendered response hits the wire — a client that
  /// scrapes /debug/requests right after its response must find its own
  /// record — then writes. Accounting happens even when the client hung
  /// up.
  void Respond(const std::shared_ptr<Connection>& conn,
               const Response& response, const std::string& tenant,
               const char* op, const RequestTelemetry& telemetry,
               std::chrono::steady_clock::time_point arrival,
               size_t bytes_in);
  /// Commits one flight-recorder record and emits the slow-request log
  /// line when the request overshot `slow_request_ms`.
  void CommitRecord(const std::string& tenant, const char* op,
                    const Response& response,
                    const RequestTelemetry& telemetry,
                    std::chrono::steady_clock::time_point arrival,
                    size_t bytes_in, size_t bytes_out);
  void MaybeSnapshot();
  /// Best-effort recorder dump to `flight_recorder_path` (no-op when
  /// unset); failures log a warning and are otherwise ignored.
  void DumpFlightRecorder();
  /// Joins finished connection threads (called from the accept loop).
  void ReapConnections();

  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};

  std::unique_ptr<Backend> backend_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<ThreadPool> pool_;
  FlightRecorder recorder_;

  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::mutex snapshot_mutex_;
  std::chrono::steady_clock::time_point last_snapshot_{};
};

}  // namespace wfms::service

#endif  // WFMS_SERVICE_SERVER_H_
