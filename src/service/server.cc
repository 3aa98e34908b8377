#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace wfms::service {

namespace {

metrics::Counter& RequestsTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_requests_total");
  return counter;
}

metrics::Counter& ConnectionsTotal() {
  static metrics::Counter& counter = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_connections_total");
  return counter;
}

metrics::Gauge& ConnectionsOpen() {
  static metrics::Gauge& gauge = metrics::MetricsRegistry::Global()
      .GetGauge("wfms_service_connections_open");
  return gauge;
}

metrics::Histogram& RequestSeconds() {
  static metrics::Histogram& histogram = metrics::MetricsRegistry::Global()
      .GetHistogram("wfms_service_request_seconds");
  return histogram;
}

/// One counter per terminal disposition, incremented only at the
/// response-write site so the load driver's before/after metrics diff is
/// exactly its own per-disposition tally.
metrics::Counter& DispositionCounter(Disposition d) {
  static metrics::Counter& completed = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_responses_completed_total");
  static metrics::Counter& degraded = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_responses_degraded_total");
  static metrics::Counter& rejected = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_responses_rejected_total");
  static metrics::Counter& deadline = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_responses_deadline_total");
  static metrics::Counter& error = metrics::MetricsRegistry::Global()
      .GetCounter("wfms_service_responses_error_total");
  switch (d) {
    case Disposition::kCompleted: return completed;
    case Disposition::kDegraded: return degraded;
    case Disposition::kRejectedOverloaded: return rejected;
    case Disposition::kDeadlineExceeded: return deadline;
    case Disposition::kError: return error;
  }
  return error;
}

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Writes all of `data`, retrying short writes and EINTR.
bool WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  std::atomic<bool> reader_done{false};
  std::thread reader;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

Server::Server(const ServerOptions& options)
    : options_(options),
      recorder_(std::max<size_t>(1, options.flight_recorder_capacity)) {
  options_.num_workers = std::max<size_t>(2, options_.num_workers);
  // The ladder is relative to the pool bound; an explicit 0 keeps it off
  // (tests), leaving the pool bound as the only shed.
  if (options_.admission.max_queue != 0) {
    options_.admission.max_queue = options_.max_queue;
  }
  BackendOptions backend_options = options_.backend;
  if (options_.snapshot_interval_seconds < 0.0) {
    backend_options.snapshot_path.clear();  // persistence disabled
  }
  backend_ = std::make_unique<Backend>(backend_options);
  admission_ = std::make_unique<AdmissionController>(options_.admission);
}

Server::~Server() {
  RequestStop();
  if (accept_thread_.joinable()) {
    (void)Wait();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status Server::Start() {
  // A dead client mid-write must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  if (::pipe(wake_pipe_) != 0) return ErrnoStatus("pipe");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("bind " + options_.host + ":" +
                       std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return ErrnoStatus("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  // Warm restart: prefill the scenario caches from the snapshot. Stale
  // scenarios are rejected with a clean per-scenario message and start
  // cold; a torn/corrupt snapshot file aborts startup loudly.
  WFMS_ASSIGN_OR_RETURN(Backend::SnapshotLoadStats stats,
                        backend_->LoadCacheSnapshot());
  if (stats.scenarios > 0) {
    WFMS_LOG(Info) << "wfmsd: warm start — " << stats.reports
                   << " cached reports across " << stats.scenarios
                   << " scenario(s) restored";
  }
  for (const std::string& rejection : stats.rejected) {
    WFMS_LOG(Warning) << "wfmsd: " << rejection;
  }

  pool_ = std::make_unique<ThreadPool>(options_.num_workers,
                                       options_.max_queue);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::RequestStop() {
  if (stopping_.exchange(true)) return;
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    // Async-signal-safe by POSIX; the accept loop's poll wakes on it.
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
}

Status Server::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain: no new connections (listen fd is closed by the accept loop).
  // Readers see the stop on the self-pipe, serve what clients already
  // sent through the lame-duck grace window, and exit on their own; then
  // the pool runs dry — every admitted request's response is written
  // before Shutdown returns.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns = connections_;
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  if (pool_) pool_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.clear();
  }

  Status final_snapshot = Status::OK();
  if (options_.snapshot_interval_seconds >= 0.0) {
    final_snapshot = backend_->SaveCacheSnapshot();
  }
  // Best-effort forensics dump on the graceful-drain path only: a SIGKILL
  // loses the recorder by design (the chaos path must never depend on it).
  DumpFlightRecorder();
  return final_snapshot;
}

void Server::DumpFlightRecorder() {
  if (options_.flight_recorder_path.empty()) return;
  Status dumped = recorder_.DumpJson(options_.flight_recorder_path);
  if (!dumped.ok()) {
    WFMS_LOG(Warning) << "wfmsd: flight-recorder dump failed: "
                      << dumped.ToString();
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      WFMS_LOG(Error) << "wfmsd: poll failed: " << std::strerror(errno);
      break;
    }
    if (fds[1].revents != 0 || stopping_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      WFMS_LOG(Error) << "wfmsd: accept failed: " << std::strerror(errno);
      continue;
    }
    AdoptClient(client);
  }
  // A connection that finished its TCP handshake before the stop is part
  // of the drain: its requests may already be on the wire, and closing
  // the listen socket with it still in the backlog would RST it. Adopt
  // everything pending, then close.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) break;  // EAGAIN: backlog empty
    AdoptClient(client);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::AdoptClient(int client) {
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_shared<Connection>();
  conn->fd = client;
  ConnectionsTotal().Increment();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    ReapConnections();
    connections_.push_back(conn);
    ConnectionsOpen().Set(static_cast<double>(connections_.size()));
  }
  conn->reader = std::thread([this, conn] { ServeConnection(conn); });
}

void Server::ReapConnections() {
  // Caller holds conn_mutex_. Joining a finished reader is instant.
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->reader_done.load() && (*it)->reader.joinable()) {
      (*it)->reader.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  ConnectionsOpen().Set(static_cast<double>(connections_.size()));
}

void Server::ServeConnection(std::shared_ptr<Connection> conn) {
  using clock = std::chrono::steady_clock;
  std::string buffer;
  char chunk[4096];
  bool one_shot = false;
  bool peer_gone = false;
  clock::time_point drain_deadline{};

  while (!one_shot && !peer_gone) {
    // Readers learn about a stop from the same self-pipe as the accept
    // loop: the wake byte is never consumed, so the pipe stays readable
    // (level-triggered) for every poller at once.
    pollfd fds[2];
    fds[0] = {conn->fd, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    int timeout_ms = -1;
    if (drain_deadline != clock::time_point{}) {
      const double remaining =
          std::chrono::duration<double>(drain_deadline - clock::now())
              .count();
      if (remaining <= 0.0) break;  // lame-duck window over
      timeout_ms = static_cast<int>(remaining * 1000.0) + 1;
    }
    const int ready = ::poll(fds, 2, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 && drain_deadline == clock::time_point{}) {
      // Drain requested: keep serving lines the client already sent for
      // the grace window (a SHUT_RD here would discard request bytes
      // still in the kernel buffer and RST un-read responses away).
      drain_deadline =
          clock::now() + std::chrono::duration_cast<clock::duration>(
                             std::chrono::duration<double>(
                                 options_.drain_grace_seconds));
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    // Consume everything buffered right now without blocking, so a
    // drain deadline can never wedge behind a slow blocking read.
    while (!one_shot) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {  // EOF or error: mid-stream disconnects land here
        peer_gone = true;
        break;
      }
      buffer.append(chunk, static_cast<size_t>(n));
      ConsumeBuffer(conn, buffer, &one_shot);
    }
  }
  if (one_shot) {
    // One-shot exchange: send the FIN now so a client reading until EOF
    // (every scraper) finishes immediately instead of waiting for the
    // connection to be reaped.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->alive.store(false);
    ::shutdown(conn->fd, SHUT_WR);
  }
  // NDJSON readers leave `alive` as-is: the client closing its send side
  // (or a drain) must not discard responses for requests already admitted
  // to the pool — a write to a genuinely dead peer fails with EPIPE and
  // flips `alive` at the write site instead.
  conn->reader_done.store(true);
}

void Server::ConsumeBuffer(const std::shared_ptr<Connection>& conn,
                           std::string& buffer, bool* one_shot) {
  // An HTTP scrape shares the port: the first bytes decide the dialect.
  if (buffer.size() >= 4 && buffer.compare(0, 4, "GET ") == 0) {
    const size_t eol = buffer.find('\n');
    if (eol == std::string::npos) {
      if (buffer.size() > 8192) *one_shot = true;  // absurd request line
      return;
    }
    ServeHttp(conn, buffer.substr(0, eol));
    *one_shot = true;
    return;
  }

  size_t start = 0;
  for (size_t eol = buffer.find('\n', start); eol != std::string::npos;
       eol = buffer.find('\n', start)) {
    std::string line = buffer.substr(start, eol - start);
    start = eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    HandleLine(conn, std::move(line));
  }
  buffer.erase(0, start);

  if (buffer.size() > options_.max_line_bytes) {
    // A line this long cannot be resynchronized reliably; answer once
    // and drop the connection.
    Response resp;
    resp.disposition = Disposition::kError;
    resp.error = "request line exceeds " +
                 std::to_string(options_.max_line_bytes) + " bytes";
    RequestsTotal().Increment();
    WriteResponse(conn, resp);
    *one_shot = true;
  }
}

void Server::HandleLine(const std::shared_ptr<Connection>& conn,
                        std::string line) {
  RequestsTotal().Increment();
  const auto now = std::chrono::steady_clock::now();
  const size_t bytes_in = line.size();

  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    // Unparseable lines still get a (minted) trace id: the record must be
    // findable in /debug/requests even when the request never named one.
    const trace::TraceContext ctx = trace::TraceContext::Mint();
    Response resp;
    resp.disposition = Disposition::kError;
    resp.error = parsed.status().ToString();
    resp.trace_id = ctx.trace_id_hex();
    RequestTelemetry telemetry;
    telemetry.context = ctx;
    Respond(conn, resp, /*tenant=*/"", /*op=*/"invalid", telemetry, now,
            bytes_in);
    return;
  }
  Request req = *std::move(parsed);

  // Accept-or-mint the request's trace context. Minting happens even with
  // span recording off: the flight recorder keys records by trace id, and
  // the response echoes it, recording or not.
  const trace::TraceContext ctx =
      req.trace_id.empty()
          ? trace::TraceContext::Mint()
          : trace::TraceContext::WithRemoteParent(req.trace_id,
                                                  req.parent_span_id);

  if (req.op == Op::kPing) {
    // Liveness probes bypass admission and the queue entirely.
    RequestTelemetry telemetry;
    telemetry.context = ctx;
    Response resp = backend_->Handle(req, 0, now, &telemetry);
    resp.trace_id = ctx.trace_id_hex();
    Respond(conn, resp, req.tenant, OpName(req.op), telemetry, now, bytes_in);
    return;
  }

  const AdmissionDecision decision = [&] {
    trace::TraceSpan span("service/admission", "service", ctx);
    return admission_->Admit(req.tenant, pool_->queue_depth(), now);
  }();
  if (!decision.admitted) {
    Response resp;
    resp.id = req.id;
    resp.disposition = Disposition::kRejectedOverloaded;
    resp.error = decision.reason;
    resp.trace_id = ctx.trace_id_hex();
    RequestTelemetry telemetry;
    telemetry.context = ctx;
    Respond(conn, resp, req.tenant, OpName(req.op), telemetry, now, bytes_in);
    return;
  }

  // The task takes `req` by move; the shed path below still answers with
  // the request's id and accounts its tenant and op.
  const std::string id = req.id;
  const std::string tenant = req.tenant;
  const Op op = req.op;
  auto submitted = pool_->Submit(
      [this, conn, req = std::move(req), level = decision.degrade_level,
       now, ctx, bytes_in]() -> Status {
        RequestTelemetry telemetry;
        telemetry.context = ctx;
        // Queue wait is a first-class phase: the time between admission
        // and a worker picking the request up.
        telemetry.phases.emplace_back(
            "queue", std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - now)
                         .count());
        Response resp = backend_->Handle(req, level, now, &telemetry);
        resp.trace_id = ctx.trace_id_hex();
        const bool cache_changing =
            resp.disposition == Disposition::kCompleted ||
            resp.disposition == Disposition::kDegraded;
        Respond(conn, resp, req.tenant, OpName(req.op), telemetry, now,
                bytes_in);
        if (cache_changing) MaybeSnapshot();
        return Status::OK();
      });
  if (!submitted.ok()) {
    // The pool bound is the backstop behind the admission ladder: a race
    // that fills the queue between Admit and Submit still answers with an
    // explicit shed, never a block.
    Response resp;
    resp.id = id;
    resp.disposition = Disposition::kRejectedOverloaded;
    resp.error = submitted.status().ToString();
    resp.trace_id = ctx.trace_id_hex();
    RequestTelemetry telemetry;
    telemetry.context = ctx;
    Respond(conn, resp, tenant, OpName(op), telemetry, now, bytes_in);
  }
}

void Server::ServeHttp(const std::shared_ptr<Connection>& conn,
                       const std::string& first_line) {
  // "GET <path> HTTP/1.x"
  std::string path;
  const size_t sp1 = first_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : first_line.find(' ', sp1 + 1);
  if (sp1 != std::string::npos && sp2 != std::string::npos) {
    path = first_line.substr(sp1 + 1, sp2 - sp1 - 1);
  }

  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  std::string status_line = "HTTP/1.1 200 OK";
  if (path == "/metrics") {
    body = metrics::MetricsRegistry::Global().Snapshot().ToPrometheusText();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/metrics.json") {
    body = metrics::MetricsRegistry::Global().Snapshot().ToJson();
    content_type = "application/json";
  } else if (path == "/healthz") {
    body = "ok\n";
  } else if (path == "/debug/requests" ||
             path.rfind("/debug/requests?", 0) == 0) {
    // Live flight-recorder scrape, newest-first; `?n=` caps the count.
    size_t n = 0;
    const size_t q = path.find('?');
    if (q != std::string::npos) {
      const size_t at = path.find("n=", q + 1);
      if (at != std::string::npos) {
        n = static_cast<size_t>(
            std::strtoull(path.c_str() + at + 2, nullptr, 10));
      }
    }
    body = recorder_.ToJson(n);
    content_type = "application/json";
  } else {
    status_line = "HTTP/1.1 404 Not Found";
    body = "not found\n";
  }

  std::string response = status_line + "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!WriteAll(conn->fd, response)) conn->alive.store(false);
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           const Response& response) {
  DispositionCounter(response.disposition).Increment();
  // The latency exemplar links the histogram's max bucket to a concrete
  // trace id in /metrics.json (DESIGN.md §13).
  RequestSeconds().Observe(response.elapsed_seconds, response.trace_id);
  std::string line = response.Render();
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!conn->alive.load()) return;  // client hung up; accounting still done
  if (!WriteAll(conn->fd, line)) conn->alive.store(false);
}

void Server::Respond(const std::shared_ptr<Connection>& conn,
                     const Response& response, const std::string& tenant,
                     const char* op, const RequestTelemetry& telemetry,
                     std::chrono::steady_clock::time_point arrival,
                     size_t bytes_in) {
  DispositionCounter(response.disposition).Increment();
  RequestSeconds().Observe(response.elapsed_seconds, response.trace_id);
  std::string line = response.Render();
  line.push_back('\n');
  // Record first, write second: once the response is on the wire the
  // request must already be visible in /debug/requests.
  CommitRecord(tenant, op, response, telemetry, arrival, bytes_in,
               line.size());
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!conn->alive.load()) return;  // client hung up; accounting still done
  if (!WriteAll(conn->fd, line)) conn->alive.store(false);
}

void Server::CommitRecord(const std::string& tenant, const char* op,
                          const Response& response,
                          const RequestTelemetry& telemetry,
                          std::chrono::steady_clock::time_point arrival,
                          size_t bytes_in, size_t bytes_out) {
  RequestRecord record;
  record.trace_id = telemetry.context.trace_id_hex();
  record.tenant = tenant;
  record.op = op;
  record.disposition = DispositionName(response.disposition);
  record.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    arrival)
          .count();
  record.phases = telemetry.phases;
  for (const auto& [name, seconds] : telemetry.phases) {
    if (name == "queue") record.admission_wait_seconds = seconds;
  }
  record.cache_hit = telemetry.cache_hit;
  record.solver_rungs = telemetry.solver_rungs;
  record.bytes_in = bytes_in;
  record.bytes_out = bytes_out;

  if (options_.slow_request_ms > 0.0 &&
      record.elapsed_seconds * 1000.0 >= options_.slow_request_ms) {
    std::string breakdown;
    for (const auto& [name, seconds] : record.phases) {
      breakdown += " " + name + "=" + std::to_string(seconds * 1000.0) +
                   "ms";
    }
    WFMS_LOG(Warning) << "wfmsd: slow request trace=" << record.trace_id
                      << " op=" << record.op
                      << " disposition=" << record.disposition
                      << " elapsed="
                      << record.elapsed_seconds * 1000.0 << "ms"
                      << " cache_hit=" << (record.cache_hit ? 1 : 0)
                      << " solver_rungs=" << record.solver_rungs
                      << breakdown;
  }
  recorder_.Record(std::move(record));
}

void Server::MaybeSnapshot() {
  if (options_.snapshot_interval_seconds < 0.0) return;
  // The mutex stays held across the save: concurrent workers would race
  // on the snapshot's temp file (same path, write/rename interleaved).
  // Interval 0 (chaos mode) persists after every cache-changing request,
  // so a SIGKILL at any instant loses at most the requests in flight.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const auto now = std::chrono::steady_clock::now();
  if (options_.snapshot_interval_seconds > 0.0 &&
      last_snapshot_ != std::chrono::steady_clock::time_point{} &&
      std::chrono::duration<double>(now - last_snapshot_).count() <
          options_.snapshot_interval_seconds) {
    return;
  }
  last_snapshot_ = now;
  Status saved = backend_->SaveCacheSnapshot();
  if (!saved.ok()) {
    WFMS_LOG(Warning) << "wfmsd: cache snapshot failed: " << saved.ToString();
  }
  // The recorder rides along with periodic cache snapshots, keeping an
  // on-disk forensics trail on long-running daemons. Interval 0 (chaos
  // mode) deliberately skips it: that mode snapshots after every request,
  // and the recorder must never add I/O to the request path.
  if (options_.snapshot_interval_seconds > 0.0) DumpFlightRecorder();
}

}  // namespace wfms::service
