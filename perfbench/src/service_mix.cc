// service_mix: starts wfmsd on loopback with a pinned worker count and
// drives it from this process over one pipelined connection. The request
// mix is assess requests on a small hot set of configurations (backend
// cache hits), assess requests on configurations not yet seen (misses)
// and greedy recommends. The shares and the rates are assumptions:
// neither the paper nor the repository has traffic data for the
// configuration tool, so the run covers both ends of the cache-hit share.
//
// Four phases, on one daemon:
//  - nominal: miss-heavy open-loop Poisson arrivals at the nominal rate (a
//    fixed count placed uniformly in the window, which is a Poisson
//    process conditioned on its count), each request timed from the
//    moment it was due: the failure figures, and the wall-time latency
//    reported per layer (service.nominal_*);
//  - hit-heavy: the same at the other end of the cache-hit share, reported
//    per layer (service.hot_*);
//  - closed loop of the miss-heavy mix, one request in flight, each
//    request charged the CPU time of both processes: ops_per_s,
//    op_p50_ms and op_tail_ms;
//  - a search over a fixed geometric ladder of offered rates for the
//    highest rate at which p99 meets the latency limit and the backlog does
//    not grow; shed, failed and degraded requests count as misses.
//
// Checks, after the daemon stopped: every completed `result` is byte-equal
// to the in-process Backend's answer for the same request, and the
// client's disposition tallies equal the daemon's /metrics.json counter
// deltas exactly, in every phase.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "service/backend.h"
#include "service/protocol.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wfms::Json;

constexpr int kWorkers = 4;  // wfmsd --workers
// wfmsd's library lanes. The rate ladder is timed on the wall clock, where
// a second lane halves a miss's solve time; two lanes per worker still
// leave the client its own cores at the nominal rate.
constexpr int kDaemonLanes = 2;
constexpr int kConnections = 1;  // pipelined; more only added wake-up noise
// wfmsd --max-queue. The degradation ladder starts at half of it; at the
// default 64, a burst of 32 queued requests (about 70 ms of work) marked
// whole stretches of a rung degraded, and the highest passing rate moved
// by a factor of 1.3 between seeds. At 1024 the latency limit and the
// backlog decide.
constexpr int kMaxQueue = 1024;
constexpr double kLatencyLimitMs = 250.0;  // p99 limit on the ladder
// The offered-rate ladder: kLadderBase * 2^(k/16) requests per second.
// The search steps kLadderStride rungs (x1.19) at a time, then bisects
// between the last pass and the first miss, so it resolves the rate to
// x1.044.
constexpr double kLadderBase = 100.0;
constexpr int kLadderTop = 96;  // 6400 requests per second
constexpr int kLadderStride = 4;

/// A request mix; the requests that are neither hot-set assesses nor
/// recommends are misses.
struct Profile {
  double hot_share;
  double recommend_share;
  double rate;  // requests per second in the open-loop phase
};
// The workload's mix: 25% hits, 70% misses, 5% recommends.
constexpr Profile kMixProfile = {0.25, 0.05, 60.0};
// The hit-heavy phase: 90% hits, 10% misses, at twice the rate, so that
// the phase holds enough misses for its tail.
constexpr Profile kHotProfile = {0.90, 0.0, 120.0};
// Where the ladder search starts: 367 requests/s, near where it ended on
// a 4-vCPU virtual machine (351 to 476/s), so it takes few rungs.
constexpr int kFirstRung = 30;
// Every recommend carries one goal set (see InProcessAnswers): a greedy
// search on `ep` for a 0.1-minute wait bound at 0.9999 availability.
constexpr double kRecommendMaxWait = 0.1;
constexpr double kRecommendMinAvail = 0.9999;

double LadderRate(int rung) {
  return kLadderBase * std::exp2(static_cast<double>(rung) / 16.0);
}

// The warm-up builds the benchmark-mix tool in the daemon with this
// configuration (32 states: outside the misses' range).
const std::vector<int> kWarmBenchmarkConfig = {1, 1, 1, 1, 1};

enum class Kind { kHot, kMiss, kRecommend };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kHot: return "hot";
    case Kind::kMiss: return "miss";
    case Kind::kRecommend: return "recommend";
  }
  return "?";
}

struct Request {
  double due_s = 0.0;
  Kind kind = Kind::kHot;
  std::string line;  // without the trailing newline
};

/// Everything the client observed about one request.
struct Observed {
  Clock::time_point sent{};
  Clock::time_point received{};
  bool answered = false;
  std::string status;
  double elapsed_s = 0.0;
  std::string result;  // Dump() of `result` for completed responses
  double cpu_ms = 0.0;  // closed loop: CPU time both processes spent on it
};

const std::vector<std::vector<int>>& HotSet() {
  static const std::vector<std::vector<int>> hot = {
      {2, 2, 3}, {1, 2, 2}, {2, 3, 3}, {3, 3, 4}};
  return hot;
}

/// Request id "<prefix><n>".
std::string RequestId(char prefix, size_t n) {
  std::string id(1, prefix);
  id += std::to_string(n);
  return id;
}

std::string AssessLine(const std::string& id, const std::string& scenario,
                       const std::vector<int>& config) {
  Json req = Json::Object();
  req.Set("id", Json::Str(id));
  req.Set("op", Json::Str("assess"));
  req.Set("scenario", Json::Str(scenario));
  Json c = Json::Array();
  for (const int r : config) c.Append(Json::Number(r));
  req.Set("config", std::move(c));
  return req.Dump();
}

std::string RecommendLine(const std::string& id, double max_wait,
                          double min_avail) {
  Json req = Json::Object();
  req.Set("id", Json::Str(id));
  req.Set("op", Json::Str("recommend"));
  req.Set("scenario", Json::Str("ep"));
  req.Set("method", Json::Str("greedy"));
  req.Set("max_wait", Json::Number(max_wait));
  req.Set("min_avail", Json::Number(min_avail));
  return req.Dump();
}

/// Configurations of the five-type benchmark mix that the daemon has not
/// seen: 1..11 replicas per type whose chains have 3000..6000 states
/// (28171 configurations), in an order shuffled by the seed. The narrow
/// band keeps a miss's cost within a factor of two, and large enough that
/// the solve, not thread wake-ups, sets its latency. The closed loop takes
/// them from the back and the open-loop phases from the front, so how many
/// the closed loop used does not change the other phases' requests.
class MissPool {
 public:
  explicit MissPool(uint64_t seed) {
    std::vector<int> config(5, 1);
    for (;;) {
      int states = 1;
      for (const int r : config) states *= r + 1;
      if (states >= 3000 && states <= 6000) configs_.push_back(config);
      size_t x = 0;
      while (x < config.size() && ++config[x] > 11) config[x++] = 1;
      if (x == config.size()) break;
    }
    std::mt19937_64 rng(seed);
    std::shuffle(configs_.begin(), configs_.end(), rng);
    back_ = configs_.size();
  }

  wfms::Result<std::vector<int>> Take(bool from_back) {
    if (front_ == back_) {
      return wfms::Status::OutOfRange("every miss configuration used");
    }
    return from_back ? configs_[--back_] : configs_[front_++];
  }

 private:
  std::vector<std::vector<int>> configs_;
  size_t front_ = 0;
  size_t back_ = 0;
};

/// Builds requests of a profile's mix from its own random stream, with
/// request ids "<prefix><n>". Kinds come from a shuffled deck of
/// kDeckSize holding each kind's share exactly, so every stretch of
/// requests has the mix, not just its expectation.
class RequestFactory {
 public:
  RequestFactory(const Profile& profile, uint64_t seed, char id_prefix,
                 MissPool* misses, bool misses_from_back)
      : profile_(profile),
        rng_(seed),
        id_prefix_(id_prefix),
        misses_(misses),
        misses_from_back_(misses_from_back) {}

  /// `rate * seconds` requests due at uniform times in the window.
  wfms::Result<std::vector<Request>> Phase(double rate, double seconds) {
    const size_t count = static_cast<size_t>(std::llround(rate * seconds));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> due(count);
    for (double& t : due) t = unit(rng_) * seconds;
    std::sort(due.begin(), due.end());
    WFMS_ASSIGN_OR_RETURN(std::vector<Request> requests, Next(count));
    for (size_t i = 0; i < count; ++i) requests[i].due_s = due[i];
    return requests;
  }

  /// `count` requests without due times (for the closed loop).
  wfms::Result<std::vector<Request>> Next(size_t count) {
    std::vector<Request> requests(count);
    for (Request& req : requests) {
      const std::string id = RequestId(id_prefix_, next_id_++);
      if (deck_.empty()) Deal();
      req.kind = deck_.back();
      deck_.pop_back();
      if (req.kind == Kind::kHot) {
        req.line = AssessLine(id, "ep", HotSet()[rng_() % HotSet().size()]);
      } else if (req.kind == Kind::kRecommend) {
        req.line = RecommendLine(id, kRecommendMaxWait, kRecommendMinAvail);
      } else {
        WFMS_ASSIGN_OR_RETURN(const std::vector<int> config,
                              misses_->Take(misses_from_back_));
        req.line = AssessLine(id, "benchmark", config);
      }
    }
    return requests;
  }

 private:
  static constexpr int kDeckSize = 20;

  void Deal() {
    const int hot = static_cast<int>(std::lround(profile_.hot_share * kDeckSize));
    const int recommend =
        static_cast<int>(std::lround(profile_.recommend_share * kDeckSize));
    deck_.assign(kDeckSize, Kind::kMiss);
    std::fill_n(deck_.begin(), hot, Kind::kHot);
    std::fill_n(deck_.begin() + hot, recommend, Kind::kRecommend);
    std::shuffle(deck_.begin(), deck_.end(), rng_);
  }

  Profile profile_;
  std::mt19937_64 rng_;
  char id_prefix_;
  size_t next_id_ = 0;
  MissPool* misses_;
  bool misses_from_back_;
  std::vector<Kind> deck_;
};

wfms::Result<int> ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return wfms::Status::Unavailable("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return wfms::Status::Unavailable("cannot connect to port " +
                                     std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

wfms::Result<Json> ScrapeMetrics(int port) {
  WFMS_ASSIGN_OR_RETURN(const int fd, ConnectLoopback(port));
  const bool sent =
      WriteAll(fd, "GET /metrics.json HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n");
  std::string response;
  char chunk[8192];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (!sent || body == std::string::npos) {
    return wfms::Status::Unavailable("metrics scrape failed");
  }
  return Json::Parse(std::string_view(response).substr(body + 4));
}

double CounterOf(const Json& doc, const std::string& name) {
  const Json* counters = doc.Find("counters");
  return counters != nullptr ? counters->GetNumber(name, 0.0) : 0.0;
}

double HistogramSumOf(const Json& doc, const std::string& name) {
  const Json* histograms = doc.Find("histograms");
  const Json* h = histograms != nullptr ? histograms->Find(name) : nullptr;
  return h != nullptr ? h->GetNumber("sum", 0.0) : 0.0;
}

/// The daemon child process and the client's connections to it.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  wfms::Status Start(const std::string& path, int lanes) {
    int out[2];
    if (::pipe(out) != 0) return wfms::Status::Unavailable("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) return wfms::Status::Unavailable("fork failed");
    if (pid_ == 0) {
      // The daemon dies with this process, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      const std::string lanes_env = std::to_string(lanes);
      ::setenv("WFMS_NUM_THREADS", lanes_env.c_str(), 1);
      const std::string workers = std::to_string(kWorkers);
      const std::string max_queue = std::to_string(kMaxQueue);
      ::execl(path.c_str(), path.c_str(), "--host", "127.0.0.1", "--port",
              "0", "--workers", workers.c_str(), "--max-queue",
              max_queue.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    // Handshake: "wfmsd: listening on HOST:PORT".
    std::string line;
    char c = 0;
    while (::read(out[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    ::close(out[0]);
    const size_t colon = line.rfind(':');
    if (line.rfind("wfmsd: listening on ", 0) != 0 ||
        colon == std::string::npos) {
      return wfms::Status::Unavailable("wfmsd did not start: '" + line + "'");
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    return wfms::Status::OK();
  }

  /// SIGTERM and wait for the drain.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  double PeakRss() const { return PeakRssMiB(pid_); }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// CPU time of this process plus the daemon's (every thread of each), in
/// ms. With one request in flight it is what the request cost both sides,
/// without the time the hypervisor gave the cores to another guest: on a
/// shared virtual machine that steal moved service_mix's wall-time
/// latency medians by 24% to 64% between two sets of runs minutes apart.
class CpuMeter {
 public:
  explicit CpuMeter(pid_t daemon) {
    ok_ = ::clock_getcpuclockid(daemon, &daemon_) == 0;
  }

  bool ok() const { return ok_ && Ms() >= 0.0; }
  double Ms() const { return SelfMs() + ClockMs(daemon_); }
  static double SelfMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }

 private:
  static double ClockMs(clockid_t clock) {
    timespec now{};
    if (::clock_gettime(clock, &now) != 0) return -1e300;
    return 1e3 * static_cast<double>(now.tv_sec) + 1e-6 * now.tv_nsec;
  }
  bool ok_ = false;
  clockid_t daemon_ = CLOCK_PROCESS_CPUTIME_ID;
};

/// Sends scheduled requests over a few pipelined connections and collects
/// the responses on one reader thread per connection.
class LoadClient {
 public:
  LoadClient() = default;
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;
  ~LoadClient() { Close(); }

  wfms::Status Connect(int port, int connections) {
    for (int c = 0; c < connections; ++c) {
      WFMS_ASSIGN_OR_RETURN(const int fd, ConnectLoopback(port));
      fds_.push_back(fd);
    }
    for (size_t c = 0; c < fds_.size(); ++c) {
      readers_.emplace_back([this, c] { ReadLoop(fds_[c]); });
    }
    return wfms::Status::OK();
  }

  void Close() {
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : readers_) t.join();
    for (const int fd : fds_) ::close(fd);
    readers_.clear();
    fds_.clear();
  }

  /// Runs one phase open loop; returns once every response arrived or
  /// `grace_s` after the last due time. `on_response` runs on a reader
  /// thread as each response lands (the traced run's span hook).
  std::vector<Observed> RunPhase(
      const std::vector<Request>& requests, double grace_s, double* lag_p99_ms,
      std::function<void(size_t, const Observed&, Clock::time_point)>
          on_response = nullptr) {
    Begin(requests, std::move(on_response));
    std::vector<double> lags;
    lags.reserve(requests.size());
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < requests.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(requests[i].due_s));
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        observed_[i].sent = now;
        due_[i] = due;
      }
      lags.push_back(MsBetween(due, now));
      WriteAll(fds_[i % fds_.size()], requests[i].line + "\n");
    }
    *lag_p99_ms = Percentile(lags, 99.0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait_until(lock, Clock::now() + Seconds(grace_s),
                     [this] { return pending_ == 0; });
    return End();
  }

  /// Closed loop, one request in flight: sends each request once the
  /// previous one was answered, until `deadline`, and charges each the
  /// `cpu` time that went by from its send to its answer. Returns the
  /// observations of the requests sent, a prefix of `requests`; each is
  /// due when sent.
  std::vector<Observed> RunClosed(const std::vector<Request>& requests,
                                  Clock::time_point deadline, double grace_s,
                                  const CpuMeter& cpu) {
    Begin(requests, nullptr);
    size_t sent = 0;
    while (sent < requests.size() && Clock::now() < deadline) {
      const size_t i = sent++;
      const Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        observed_[i].sent = now;
        due_[i] = now;
      }
      const double cpu_start = cpu.Ms();
      WriteAll(fds_.front(), requests[i].line + "\n");
      std::unique_lock<std::mutex> lock(mutex_);
      if (!done_.wait_until(lock, now + Seconds(grace_s),
                            [&] { return observed_[i].answered; })) {
        break;
      }
      observed_[i].cpu_ms = cpu.Ms() - cpu_start;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Observed> result = End();
    result.resize(sent);
    return result;
  }

  /// Dispositions of the last phase's response lines whose id matched no
  /// request of the phase.
  std::vector<std::string> unattributed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return unattributed_;
  }

  /// Due time of request i of the last phase.
  Clock::time_point due(size_t i) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return due_.at(i);
  }

 private:
  static Clock::duration Seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  void Begin(const std::vector<Request>& requests,
             std::function<void(size_t, const Observed&, Clock::time_point)>
                 on_response) {
    std::lock_guard<std::mutex> lock(mutex_);
    observed_.assign(requests.size(), Observed{});
    due_.assign(requests.size(), Clock::time_point{});
    index_.clear();
    for (size_t i = 0; i < requests.size(); ++i) {
      index_[IdOf(requests[i].line)] = i;
    }
    pending_ = requests.size();
    on_response_ = std::move(on_response);
    unattributed_.clear();
  }

  /// Ends a phase; the caller holds `mutex_`.
  std::vector<Observed> End() {
    on_response_ = nullptr;
    std::vector<Observed> result = std::move(observed_);
    observed_.clear();
    index_.clear();
    return result;
  }

  static std::string IdOf(const std::string& line) {
    const size_t at = line.find("\"id\":\"") + 6;
    return line.substr(at, line.find('"', at) - at);
  }

  void ReadLoop(int fd) {
    std::string buffer;
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      const Clock::time_point now = Clock::now();
      buffer.append(chunk, static_cast<size_t>(n));
      size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        Handle(buffer.substr(0, newline), now);
        buffer.erase(0, newline + 1);
      }
    }
  }

  void Handle(const std::string& line, Clock::time_point now) {
    auto doc = Json::Parse(line);
    if (!doc.ok()) return;
    const std::string id = doc->GetString("id", "");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(id);
    if (it == index_.end()) {
      unattributed_.push_back(doc->GetString("status", ""));
      return;
    }
    Observed& o = observed_[it->second];
    if (o.answered) return;
    o.answered = true;
    o.received = now;
    o.status = doc->GetString("status", "");
    o.elapsed_s = doc->GetNumber("elapsed_seconds", 0.0);
    if (const Json* result = doc->Find("result");
        result != nullptr && o.status == "completed") {
      o.result = result->Dump();
    }
    if (on_response_) on_response_(it->second, o, due_[it->second]);
    --pending_;
    done_.notify_all();
  }

  std::vector<int> fds_;
  std::vector<std::thread> readers_;
  mutable std::mutex mutex_;  // guards everything below
  std::condition_variable done_;
  std::vector<Observed> observed_;
  std::vector<Clock::time_point> due_;
  std::map<std::string, size_t> index_;
  std::vector<std::string> unattributed_;
  size_t pending_ = 0;
  std::function<void(size_t, const Observed&, Clock::time_point)>
      on_response_;
};

/// Response lines by disposition. A response whose id matches no request
/// still counts under its disposition (wfmsd answers a shed whose queue
/// submit failed with an empty id); its request stays unanswered.
struct Tally {
  uint64_t completed = 0, degraded = 0, rejected = 0, deadline = 0,
           error = 0, missing = 0, unattributed = 0;
  void Count(const Observed& o) {
    if (!o.answered) {
      ++missing;
    } else {
      CountStatus(o.status);
    }
  }
  void CountUnattributed(const std::vector<std::string>& statuses) {
    for (const std::string& status : statuses) {
      CountStatus(status);
      ++unattributed;
    }
  }
  void CountStatus(const std::string& status) {
    if (status == "completed") ++completed;
    else if (status == "degraded") ++degraded;
    else if (status == "rejected-overloaded") ++rejected;
    else if (status == "deadline-exceeded") ++deadline;
    else ++error;
  }
};

/// Client tallies must equal the daemon's counter deltas exactly.
void Reconcile(const Tally& tally, const Json& before, const Json& after,
               const std::string& phase, Report& report) {
  const std::pair<const char*, uint64_t> checks[] = {
      {"wfms_service_responses_completed_total", tally.completed},
      {"wfms_service_responses_degraded_total", tally.degraded},
      {"wfms_service_responses_rejected_total", tally.rejected},
      {"wfms_service_responses_deadline_total", tally.deadline},
      {"wfms_service_responses_error_total", tally.error},
  };
  for (const auto& [name, count] : checks) {
    const double delta = CounterOf(after, name) - CounterOf(before, name);
    if (delta != static_cast<double>(count)) {
      report.errors.push_back(phase + ": client counted " +
                              std::to_string(count) + " for " + name +
                              ", daemon moved " + std::to_string(delta));
    }
  }
  if (tally.missing > tally.unattributed) {
    report.errors.push_back(
        phase + ": " + std::to_string(tally.missing - tally.unattributed) +
        " requests never answered");
  }
}

/// Latency from the due time, with every request that did not complete
/// in time counted as a miss of the limit.
struct PhaseStats {
  std::vector<double> completed_ms;
  size_t requests = 0;
  size_t misses = 0;
  bool backlog_grew = false;
};

PhaseStats Stats(const std::vector<Observed>& observed,
                 const LoadClient& client) {
  PhaseStats stats;
  stats.requests = observed.size();
  std::vector<double> all_ms;
  for (size_t i = 0; i < observed.size(); ++i) {
    const Observed& o = observed[i];
    const double ms =
        o.answered ? MsBetween(client.due(i), o.received) : 1e12;
    all_ms.push_back(ms);
    if (o.answered && o.status == "completed") {
      stats.completed_ms.push_back(ms);
      if (ms > kLatencyLimitMs) ++stats.misses;
    } else {
      ++stats.misses;
    }
  }
  // A growing backlog shows as a rising latency level: the median of the
  // last quarter of requests exceeds twice that of the first quarter by
  // more than a fifth of the latency limit.
  const size_t quarter = all_ms.size() / 4;
  if (quarter >= 10) {
    const std::vector<double> head(all_ms.begin(), all_ms.begin() + quarter);
    const std::vector<double> tail(all_ms.end() - quarter, all_ms.end());
    stats.backlog_grew =
        Median(tail) > 2.0 * Median(head) + kLatencyLimitMs / 5.0;
  }
  return stats;
}

/// A completed request, in the order the daemon received it, with the
/// result the daemon sent.
struct Completed {
  const char* phase;
  Kind kind;
  std::string line;
  std::string result;
  bool counted;  // a wrong result fails an operation (else: an error)
};

/// The in-process answers, from Backends with the daemon's default
/// options. Requests on `ep` (the warm-up, hot assesses and recommends)
/// replay on one Backend in the order the daemon received them: a cached
/// assessment keeps the bits of whichever computation filled the cache (a
/// cold assess and a warm-started search can differ in the last place),
/// so the reference needs the daemon's cache history. With the warm-up
/// cached first and one recommend goal set per run, that history does not
/// depend on how the daemon interleaves concurrent requests. A miss is the
/// first request for its configuration on a scenario no search runs on,
/// so its answer is a cold assessment: misses replay on a second Backend,
/// on several threads.
std::vector<std::string> InProcessAnswers(
    const std::vector<Completed>& history) {
  using wfms::service::Backend;
  auto answer = [](Backend& backend, const std::string& line) {
    auto request = wfms::service::ParseRequest(line);
    if (!request.ok()) return "error: " + request.status().ToString();
    const wfms::service::Response response =
        backend.Handle(*request, 0, Clock::now());
    if (response.disposition != wfms::service::Disposition::kCompleted) {
      return std::string("error: in-process backend answered ") +
             wfms::service::DispositionName(response.disposition);
    }
    return response.result.Dump();
  };
  std::vector<std::string> answers(history.size());
  Backend ordered((wfms::service::BackendOptions()));
  Backend cold((wfms::service::BackendOptions()));
  std::vector<size_t> misses;
  for (size_t i = 0; i < history.size(); ++i) {
    if (history[i].kind == Kind::kMiss) misses.push_back(i);
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (size_t k; (k = next.fetch_add(1)) < misses.size();) {
        answers[misses[k]] = answer(cold, history[misses[k]].line);
      }
    });
  }
  for (size_t i = 0; i < history.size(); ++i) {
    if (history[i].kind != Kind::kMiss) {
      answers[i] = answer(ordered, history[i].line);
    }
  }
  for (std::thread& t : threads) t.join();
  return answers;
}

}  // namespace

Report RunServiceMix(const Options& options, Tracer& tracer) {
  Report report;
  // Wake the sender at each due time, not up to 50 us after it.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const double nominal_s = options.tiny ? 1.0 : 0.3 * options.seconds;
  const double hot_s = options.tiny ? 0.5 : 0.1 * options.seconds;
  const size_t closed_count =
      options.tiny ? 40 : static_cast<size_t>(40.0 * options.seconds);
  const double rung_s = options.tiny ? 0.3 : options.seconds / 8.0;
  const double grace_s = 10.0;

  // Set-up: start the daemon, connect, and warm the hot set (which also
  // builds both scenarios' tools in the daemon). Repeated; the last
  // daemon serves the run. Timed in CPU time: this process's over the
  // set-up plus the new daemon's since it was forked.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<LoadClient> client;
  std::vector<Request> warm;
  for (int rep = 0; rep < SetupReps(options); ++rep) {
    if (client) client->Close();
    if (daemon) daemon->Stop();
    const double start_cpu = CpuMeter::SelfMs();
    daemon = std::make_unique<Daemon>();
    const wfms::Status started =
        daemon->Start(options.wfmsd_path, kDaemonLanes);
    if (!started.ok()) {
      report.Fail(started.ToString());
      return report;
    }
    client = std::make_unique<LoadClient>();
    const wfms::Status connected =
        client->Connect(daemon->port(), kConnections);
    if (!connected.ok()) {
      report.Fail(connected.ToString());
      return report;
    }
    warm.clear();
    for (const auto& config : HotSet()) {
      warm.push_back({0.0, Kind::kHot,
                      AssessLine(RequestId('w', warm.size()), "ep", config)});
    }
    warm.push_back({0.0, Kind::kHot,
                    AssessLine(RequestId('w', warm.size()), "benchmark",
                               kWarmBenchmarkConfig)});
    double lag = 0.0;
    const std::vector<Observed> seen = client->RunPhase(warm, 60.0, &lag);
    for (const Observed& o : seen) {
      if (o.status != "completed") {
        report.Fail("warm-up request answered '" + o.status + "'");
        return report;
      }
    }
    const CpuMeter daemon_cpu(daemon->pid());
    if (!daemon_cpu.ok()) {
      report.Fail("cannot read the CPU clock of wfmsd");
      return report;
    }
    setup_s.push_back((daemon_cpu.Ms() - start_cpu) / 1000.0);
  }
  const CpuMeter cpu(daemon->pid());

  MissPool miss_pool(Mix(options.seed, 76));
  RequestFactory factory(kMixProfile, Mix(options.seed, 77), 'r', &miss_pool,
                         false);
  RequestFactory hot_factory(kHotProfile, Mix(options.seed, 79), 'h',
                             &miss_pool, false);
  RequestFactory closed_factory(kMixProfile, Mix(options.seed, 78), 'c',
                                &miss_pool, true);
  std::vector<Completed> history;
  for (const Request& req : warm) {
    history.push_back({"warm-up", req.kind, req.line, "", false});
  }
  auto record = [&](const char* phase, const std::vector<Request>& requests,
                    const std::vector<Observed>& observed, bool counted) {
    for (size_t i = 0; i < observed.size(); ++i) {
      // Shed and degraded requests changed nothing in the daemon's cache,
      // so the replay skips them too.
      if (observed[i].status != "completed") continue;
      history.push_back({phase, requests[i].kind, requests[i].line,
                         observed[i].result, counted});
    }
  };
  auto count_failures = [&](const std::vector<Request>& requests,
                            const std::vector<Observed>& observed) {
    report.attempted += observed.size();
    for (size_t i = 0; i < observed.size(); ++i) {
      if (observed[i].status != "completed") {
        report.Fail(std::string(KindName(requests[i].kind)) + " request " +
                    (observed[i].answered ? "answered '" + observed[i].status +
                                                "'"
                                          : std::string("never answered")));
      }
    }
  };
  auto reconcile = [&](const Tally& tally,
                       const wfms::Result<Json>& before,
                       const wfms::Result<Json>& after, const char* phase) {
    if (!before.ok() || !after.ok()) {
      report.errors.push_back(std::string(phase) + ": metrics scrape failed");
    } else {
      Reconcile(tally, *before, *after, phase, report);
    }
  };
  std::map<std::string, std::vector<double>> gaps;  // per disposition
  auto add_gaps = [&](const std::vector<Observed>& observed) {
    for (const Observed& o : observed) {
      if (!o.answered) continue;
      gaps[o.status].push_back(MsBetween(o.sent, o.received) -
                               1000.0 * o.elapsed_s);
    }
  };

  // Nominal phase(s). A traced run repeats it with spans recorded, for
  // the overhead figure.
  LayerTotals layers;
  Tally nominal_tally;
  PhaseStats nominal;
  std::vector<double> server_ms;
  double lag_p99_ms = 0.0;
  std::vector<double> traced_completed_ms;
  for (int round = 0; round < (options.trace ? 2 : 1); ++round) {
    const bool traced = round == 1;
    auto phase = factory.Phase(kMixProfile.rate, nominal_s);
    if (!phase.ok()) {
      report.errors.push_back(phase.status().ToString());
      break;
    }
    const std::vector<Request> requests = *std::move(phase);
    auto before = ScrapeMetrics(daemon->port());
    std::function<void(size_t, const Observed&, Clock::time_point)> hook;
    if (traced) {
      hook = [&tracer, op_base = history.size()](
                 size_t i, const Observed& o, Clock::time_point due) {
        const int request =
            tracer.Add("service.request", due, o.received, -1, op_base + i);
        tracer.Add("service.generator_lag", due, o.sent, request,
                   op_base + i);
      };
    }
    double lag = 0.0;
    const std::vector<Observed> observed =
        client->RunPhase(requests, grace_s, &lag, hook);
    auto after = ScrapeMetrics(daemon->port());
    Tally tally;
    for (const Observed& o : observed) tally.Count(o);
    tally.CountUnattributed(client->unattributed());
    count_failures(requests, observed);
    record("nominal", requests, observed, true);
    reconcile(tally, before, after, "nominal");
    const PhaseStats stats = Stats(observed, *client);
    if (!traced) {
      Digest inputs, outputs;
      for (size_t i = 0; i < requests.size(); ++i) {
        inputs.Add(requests[i].line);
        outputs.Add(observed[i].result);
      }
      report.details.Set("input_digest",
                         Json::Str(std::to_string(inputs.value())));
      report.details.Set("output_digest",
                         Json::Str(std::to_string(outputs.value())));
      nominal = stats;
      nominal_tally = tally;
      lag_p99_ms = lag;
      add_gaps(observed);
      for (const Observed& o : observed) {
        if (o.status == "completed") server_ms.push_back(1000.0 * o.elapsed_s);
      }
    } else {
      traced_completed_ms = stats.completed_ms;
      if (before.ok() && after.ok()) {
        // The daemon's own counters over the traced phase.
        AddRegistryLayersWith(layers, [&](const char* metric, bool seconds) {
          return seconds ? HistogramSumOf(*after, metric) -
                               HistogramSumOf(*before, metric)
                         : CounterOf(*after, metric) -
                               CounterOf(*before, metric);
        });
      }
    }
  }

  // Peak RSS through the nominal phase, which comes first and has a fixed
  // count: the closed loop's count varies with speed, and the ladder's
  // search takes a different path from run to run, so both fill the cache
  // differently.
  const double daemon_rss = daemon->PeakRss();

  // The hit-heavy phase.
  LatencySummary hot;
  {
    auto phase = hot_factory.Phase(kHotProfile.rate, hot_s);
    if (!phase.ok()) {
      report.errors.push_back(phase.status().ToString());
    } else {
      const std::vector<Request> requests = *std::move(phase);
      auto before = ScrapeMetrics(daemon->port());
      double lag = 0.0;
      const std::vector<Observed> observed =
          client->RunPhase(requests, grace_s, &lag);
      Tally tally;
      for (const Observed& o : observed) tally.Count(o);
      tally.CountUnattributed(client->unattributed());
      count_failures(requests, observed);
      record("hit-heavy", requests, observed, true);
      reconcile(tally, before, ScrapeMetrics(daemon->port()), "hit-heavy");
      const std::vector<double> completed =
          Stats(observed, *client).completed_ms;
      hot = Summarize(completed, completed.size());
    }
  }

  // Closed loop: a fixed count of requests, one in flight, each charged
  // the CPU time both processes spent from its send to its answer.
  std::vector<double> closed_ms;
  std::map<Kind, std::vector<double>> closed_by_kind;
  if (auto closed = closed_factory.Next(closed_count); !closed.ok()) {
    report.errors.push_back(closed.status().ToString());
  } else {
    std::vector<Request> requests = *std::move(closed);
    auto before = ScrapeMetrics(daemon->port());
    // A safety stop only: at 15 s the loop takes about 5 s.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(60);
    const std::vector<Observed> observed =
        client->RunClosed(requests, deadline, grace_s, cpu);
    Tally tally;
    for (size_t i = 0; i < observed.size(); ++i) {
      const Observed& o = observed[i];
      tally.Count(o);
      if (o.answered && o.status == "completed") {
        closed_ms.push_back(o.cpu_ms);
        closed_by_kind[requests[i].kind].push_back(o.cpu_ms);
      }
    }
    tally.CountUnattributed(client->unattributed());
    // Requests the safety stop left unsent fail too.
    for (size_t i = observed.size(); i < requests.size(); ++i) {
      report.Fail("closed loop stopped before request " + std::to_string(i));
    }
    report.attempted += requests.size() - observed.size();
    requests.resize(observed.size());
    count_failures(requests, observed);
    record("closed", requests, observed, true);
    reconcile(tally, before, ScrapeMetrics(daemon->port()), "closed");
  }

  // The ladder search: from kFirstRung, kLadderStride rungs at a time up
  // while rungs meet the limit (down while they miss it), then bisection
  // between the highest pass and the lowest miss.
  Tally ladder_tally;
  size_t ladder_requests = 0;
  wfms::Json rungs = wfms::Json::Array();
  auto try_rung = [&](int rung) {
    const double rate = LadderRate(rung);
    auto phase = factory.Phase(rate, rung_s);
    if (!phase.ok()) {
      report.errors.push_back(phase.status().ToString());
      return false;
    }
    const std::vector<Request> requests = *std::move(phase);
    auto before = ScrapeMetrics(daemon->port());
    double lag = 0.0;
    const std::vector<Observed> observed =
        client->RunPhase(requests, grace_s, &lag);
    auto after = ScrapeMetrics(daemon->port());
    Tally tally;
    tally.CountUnattributed(client->unattributed());
    ladder_tally.CountUnattributed(client->unattributed());
    for (const Observed& o : observed) {
      tally.Count(o);
      ladder_tally.Count(o);
    }
    add_gaps(observed);
    ladder_requests += requests.size();
    record("ladder", requests, observed, false);
    reconcile(tally, before, after, "ladder");
    const PhaseStats stats = Stats(observed, *client);
    const bool meets = stats.misses * 100 <= stats.requests &&
                       !stats.backlog_grew;
    wfms::Json row = wfms::Json::Object();
    row.Set("offered_per_s", Json::Number(rate));
    row.Set("requests", Json::Number(double(stats.requests)));
    row.Set("misses", Json::Number(double(stats.misses)));
    row.Set("p99_ms", Json::Number(Percentile(stats.completed_ms, 99.0)));
    row.Set("backlog_grew", Json::Bool(stats.backlog_grew));
    row.Set("meets_limit", Json::Bool(meets));
    rungs.Append(std::move(row));
    // Let the queue drain before the next rung.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return meets;
  };
  // A rung that misses runs once more and counts as missed only if it
  // misses again: a pause of the host (the hypervisor lending the cores
  // to another guest for a few hundred ms) failed single rungs far below
  // the daemon's capacity, and sent the search down to 248/s in a run
  // whose neighbours passed 400/s.
  auto meets_limit = [&](int rung) {
    return try_rung(rung) || try_rung(rung);
  };
  int passed = -1;              // highest rung that met the limit
  int missed = kLadderTop + 1;  // lowest rung that missed it
  if (meets_limit(kFirstRung)) {
    passed = kFirstRung;
    while (passed + kLadderStride <= kLadderTop && missed > kLadderTop) {
      if (meets_limit(passed + kLadderStride)) {
        passed += kLadderStride;
      } else {
        missed = passed + kLadderStride;
      }
    }
  } else {
    missed = kFirstRung;
    while (missed - kLadderStride >= 0 && passed < 0) {
      if (meets_limit(missed - kLadderStride)) {
        passed = missed - kLadderStride;
      } else {
        missed -= kLadderStride;
      }
    }
  }
  while (passed >= 0 && missed <= kLadderTop && missed - passed > 1) {
    const int middle = (passed + missed) / 2;
    (meets_limit(middle) ? passed : missed) = middle;
  }
  const double max_rate = passed >= 0 ? LadderRate(passed) : 0.0;

  client->Close();
  daemon->Stop();

  // Every completed result against the in-process answer.
  const std::vector<std::string> answers = InProcessAnswers(history);
  bool injected = !options.inject_wrong;
  for (size_t i = 0; i < history.size(); ++i) {
    const Completed& done = history[i];
    if (std::strcmp(done.phase, "warm-up") == 0) continue;
    std::string got = done.result;
    if (!injected && done.counted) {
      got += " ";
      injected = true;
    }
    if (answers[i] == got) continue;
    const std::string why =
        std::string(done.phase) + " " + KindName(done.kind) + " request " +
        done.line + ": result " + got.substr(0, 160) +
        " differs from the in-process answer " + answers[i].substr(0, 160);
    if (done.counted) {
      report.Fail(why);
    } else if (report.errors.size() < 8) {
      report.errors.push_back(why);
    }
  }

  const LatencySummary summary = Summarize(closed_ms, closed_count);
  const LatencySummary at_nominal =
      Summarize(nominal.completed_ms, nominal.completed_ms.size());
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note), "p%g, n=%zu, CPU time",
                summary.tail_percentile, summary.samples);
  if (!options.trace) {
    double busy_ms = 0.0;
    for (const double ms : closed_ms) busy_ms += ms;
    report.Set("setup_s", Median(setup_s), "s",
               "CPU time, median of " + std::to_string(setup_s.size()));
    report.Set("ops_per_s",
               busy_ms > 0.0 ? 1000.0 * closed_ms.size() / busy_ms : 0.0,
               "1/s",
               "n=" + std::to_string(closed_ms.size()) +
                   ", closed loop, 1 in flight, per CPU second");
    report.Set("op_p50_ms", summary.p50_ms, "ms",
               "n=" + std::to_string(summary.samples) +
                   ", closed loop, CPU time");
    report.Set("op_tail_ms", summary.tail_ms, "ms", tail_note);
    report.Set("max_rate_ops_s", max_rate, "1/s",
               "highest offered rate whose p99 met " +
                   std::to_string(int(kLatencyLimitMs)) + " ms");
    report.Set("peak_rss_mib", daemon_rss, "MiB",
               "VmHWM of wfmsd after the nominal phase");
  }
  wfms::Json dispositions = wfms::Json::Object();
  dispositions.Set("completed", Json::Number(double(nominal_tally.completed)));
  dispositions.Set("degraded", Json::Number(double(nominal_tally.degraded)));
  dispositions.Set("rejected", Json::Number(double(nominal_tally.rejected)));
  dispositions.Set("deadline", Json::Number(double(nominal_tally.deadline)));
  dispositions.Set("error", Json::Number(double(nominal_tally.error)));
  report.details.Set("nominal_rate_per_s", Json::Number(kMixProfile.rate));
  char nominal_note[96];
  std::snprintf(nominal_note, sizeof(nominal_note),
                "p50 %.4g ms, p%g %.4g ms, n=%zu", at_nominal.p50_ms,
                at_nominal.tail_percentile, at_nominal.tail_ms,
                at_nominal.samples);
  report.details.Set("nominal_latency_from_due", Json::Str(nominal_note));
  wfms::Json by_kind = wfms::Json::Object();
  for (const auto& [kind, values] : closed_by_kind) {
    char note[64];
    std::snprintf(note, sizeof(note), "p50 %.4g ms, max %.4g ms, n=%zu",
                  Median(values), Percentile(values, 100.0), values.size());
    by_kind.Set(KindName(kind), Json::Str(note));
  }
  report.details.Set("closed_cpu_by_kind", std::move(by_kind));
  report.details.Set("hit_heavy_rate_per_s", Json::Number(kHotProfile.rate));
  char hot_note[64];
  std::snprintf(hot_note, sizeof(hot_note), "p50 %.4g ms, p%g %.4g ms, n=%zu",
                hot.p50_ms, hot.tail_percentile, hot.tail_ms, hot.samples);
  report.details.Set("hit_heavy_latency", Json::Str(hot_note));
  report.details.Set("nominal_dispositions", std::move(dispositions));
  report.details.Set("latency_limit_ms", Json::Number(kLatencyLimitMs));
  report.details.Set("ladder", std::move(rungs));
  report.details.Set("ladder_responses_without_request_id",
                     Json::Number(double(ladder_tally.unattributed)));
  report.details.Set("workers", Json::Number(kWorkers));
  report.details.Set("max_queue", Json::Number(kMaxQueue));
  report.details.Set("daemon_lanes", Json::Number(kDaemonLanes));
  report.details.Set("connections", Json::Number(kConnections));
  wfms::Json gap_json = wfms::Json::Object();
  for (const auto& [status, values] : gaps) {
    wfms::Json g = wfms::Json::Object();
    g.Set("n", Json::Number(double(values.size())));
    g.Set("p50_ms", Json::Number(Median(values)));
    g.Set("p99_ms", Json::Number(Percentile(values, 99.0)));
    gap_json.Set(status, std::move(g));
  }
  report.details.Set("gap_client_minus_server_ms", std::move(gap_json));

  if (options.trace) {
    auto median_of = [&](const char* status) {
      const auto it = gaps.find(status);
      return it == gaps.end() ? 0.0 : Median(it->second);
    };
    const double ladder = std::max<double>(1.0, ladder_requests);
    layers.SetFinal("service.requests", double(nominal.requests));
    layers.SetFinal("service.server_ms", Median(server_ms));
    layers.SetFinal("service.gap_ms", median_of("completed"));
    layers.SetFinal("service.gap_degraded_ms", median_of("degraded"));
    layers.SetFinal("service.gap_shed_ms", median_of("rejected-overloaded"));
    layers.SetFinal("service.ladder_requests", double(ladder_requests));
    layers.SetFinal("service.shed_ratio", ladder_tally.rejected / ladder);
    layers.SetFinal("service.degraded_ratio", ladder_tally.degraded / ladder);
    layers.SetFinal("service.generator_lag_ms", lag_p99_ms);
    layers.SetFinal("service.nominal_p50_ms", at_nominal.p50_ms);
    layers.SetFinal("service.nominal_tail_ms", at_nominal.tail_ms);
    layers.SetFinal("service.hot_p50_ms", hot.p50_ms);
    layers.SetFinal("service.hot_tail_ms", hot.tail_ms);
    const double hits = layers.Value("configtool.cache_hits", 1.0);
    const double lookups = hits + layers.Value("configtool.cache_misses", 1.0);
    layers.SetFinal("service.cache_hit_ratio",
                    lookups > 0.0 ? hits / lookups : 0.0);
    SetTraceOverhead(layers, nominal.completed_ms, traced_completed_ms,
                     tracer);
    SetLayerMetrics(report, layers, nominal.requests);
  }
  return report;
}

}  // namespace perfbench
