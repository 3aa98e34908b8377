// Tests for the wfmsd service layer: the JSON codec, the wire protocol,
// admission control and the degradation ladder, the backend's dispositions
// and snapshot warm-restart, and a live loopback server exercised through
// the real client (including pipelining and graceful drain).
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/metrics.h"
#include "service/admission.h"
#include "service/backend.h"
#include "service/client.h"
#include "service/flight_recorder.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workflow/scenarios.h"

namespace wfms::service {
namespace {

using steady_clock = std::chrono::steady_clock;

std::string TempPath(const std::string& stem) {
  return testing::TempDir() + stem;
}

// ---------------------------------------------------------------- Json --

TEST(JsonTest, RoundTripsScalarsAndContainers) {
  auto doc = Json::Parse(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"k":3}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetNumber("a", 0), 1.0);
  EXPECT_EQ(doc->GetNumber("b", 0), -2.5);
  EXPECT_EQ(doc->GetString("c", ""), "x\ny");
  const Json* d = doc->Find("d");
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->items().size(), 3u);
  EXPECT_TRUE(d->items()[0].bool_value());
  EXPECT_TRUE(d->items()[2].is_null());
  // Dump -> Parse -> Dump is a fixed point (deterministic serialization).
  const std::string once = doc->Dump();
  auto again = Json::Parse(once);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Dump(), once);
}

TEST(JsonTest, IntegersPrintWithoutDecimalPoint) {
  Json doc = Json::Object();
  doc.Set("n", Json::Number(42));
  doc.Set("f", Json::Number(0.5));
  EXPECT_EQ(doc.Dump(), R"({"n":42,"f":0.5})");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{}trailing").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("").ok());
  // Nesting bomb: depth is limited, not stack-crashing.
  std::string bomb(100, '[');
  EXPECT_FALSE(Json::Parse(bomb).ok());
}

// ------------------------------------------------------------ Protocol --

TEST(ProtocolTest, ParsesFullRequest) {
  auto req = ParseRequest(
      R"({"id":"r7","op":"assess","scenario":"ep","tenant":"teamA",)"
      R"("config":[2,2,3],"max_wait":0.1,"min_avail":0.999,)"
      R"("deadline_seconds":5})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, "r7");
  EXPECT_EQ(req->op, Op::kAssess);
  EXPECT_EQ(req->tenant, "teamA");
  EXPECT_EQ(req->config, (std::vector<int>{2, 2, 3}));
  EXPECT_EQ(req->max_wait, 0.1);
  EXPECT_EQ(req->deadline_seconds, 5.0);
}

TEST(ProtocolTest, RejectsBadOpAndBadConfig) {
  EXPECT_FALSE(ParseRequest(R"({"op":"launch-missiles"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"assess","config":"2,2,3"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"assess","config":[1.5]})").ok());
  EXPECT_FALSE(ParseRequest("[1,2,3]").ok());
  EXPECT_FALSE(ParseRequest("not json at all").ok());
}

TEST(ProtocolTest, RenderCarriesDispositionNames) {
  Response resp;
  resp.id = "x";
  resp.disposition = Disposition::kRejectedOverloaded;
  resp.error = "queue full";
  const std::string line = resp.Render();
  auto doc = Json::Parse(line);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("status", ""), "rejected-overloaded");
  EXPECT_EQ(doc->GetString("error", ""), "queue full");
  EXPECT_EQ(doc->GetBool("degraded", true), false);
}

// ----------------------------------------------------------- Admission --

TEST(AdmissionTest, TenantBucketThrottlesBurst) {
  AdmissionOptions options;
  options.max_queue = 0;  // ladder off; isolate the bucket
  options.tenant_rate = 10.0;
  options.tenant_burst = 3.0;
  AdmissionController admission(options);
  const auto t0 = steady_clock::now();
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (admission.Admit("hog", /*queue_depth=*/0, t0).admitted) ++admitted;
  }
  EXPECT_EQ(admitted, 3);  // the burst, no refill at t0
  // Another tenant is unaffected by the hog's empty bucket.
  EXPECT_TRUE(admission.Admit("quiet", 0, t0).admitted);
  // After one second the hog has ~10 fresh tokens.
  const auto t1 = t0 + std::chrono::seconds(1);
  EXPECT_TRUE(admission.Admit("hog", 0, t1).admitted);
}

TEST(AdmissionTest, LadderDegradesThenSheds) {
  AdmissionOptions options;
  options.max_queue = 100;
  AdmissionController admission(options);
  const auto now = steady_clock::now();
  EXPECT_EQ(admission.Admit("", 0, now).degrade_level, 0);
  EXPECT_EQ(admission.Admit("", 49, now).degrade_level, 0);
  EXPECT_EQ(admission.Admit("", 50, now).degrade_level, 1);
  EXPECT_EQ(admission.Admit("", 75, now).degrade_level, 2);
  const AdmissionDecision full = admission.Admit("", 100, now);
  EXPECT_FALSE(full.admitted);
  EXPECT_FALSE(full.reason.empty());
}

// ------------------------------------------------------------- Backend --

Request AssessRequest(const std::vector<int>& config) {
  Request req;
  req.id = "t";
  req.op = Op::kAssess;
  req.scenario = "ep";
  req.config = config;
  req.max_wait = 0.05;
  req.min_avail = 0.99;
  return req;
}

TEST(BackendTest, AssessCompletesAndMemoizes) {
  Backend backend(BackendOptions{});
  const auto now = steady_clock::now();
  Response first = backend.Handle(AssessRequest({2, 2, 3}), 0, now);
  ASSERT_EQ(first.disposition, Disposition::kCompleted) << first.error;
  EXPECT_TRUE(first.result.is_object());
  EXPECT_EQ(backend.TotalCachedReports(), 1u);
  // The repeat answers from the cache with an identical payload.
  Response again = backend.Handle(AssessRequest({2, 2, 3}), 0, now);
  EXPECT_EQ(again.result.Dump(), first.result.Dump());
  EXPECT_EQ(backend.TotalCachedReports(), 1u);
}

TEST(BackendTest, ErrorsAreContained) {
  Backend backend(BackendOptions{});
  const auto now = steady_clock::now();
  Request bad_scenario = AssessRequest({1, 1, 1});
  bad_scenario.scenario = "definitely not a scenario";
  EXPECT_EQ(backend.Handle(bad_scenario, 0, now).disposition,
            Disposition::kError);
  Request bad_config = AssessRequest({1, -3, 1});
  EXPECT_EQ(backend.Handle(bad_config, 0, now).disposition,
            Disposition::kError);
  // The backend survives both and still answers.
  EXPECT_EQ(backend.Handle(AssessRequest({1, 1, 1}), 0, now).disposition,
            Disposition::kCompleted);
}

TEST(BackendTest, ExpiredDeadlineAnswersDeadlineExceeded) {
  Backend backend(BackendOptions{});
  Request req = AssessRequest({1, 1, 1});
  req.deadline_seconds = 0.001;
  // Admitted two seconds ago: the deadline died in the queue.
  const auto admitted = steady_clock::now() - std::chrono::seconds(2);
  Response resp = backend.Handle(req, 0, admitted);
  EXPECT_EQ(resp.disposition, Disposition::kDeadlineExceeded);
  EXPECT_TRUE(resp.result.is_null());
}

TEST(BackendTest, CacheOnlyLevelHitsCacheOrSheds) {
  Backend backend(BackendOptions{});
  const auto now = steady_clock::now();
  // Cold cache at level 2: a miss is shed, never computed.
  Response miss = backend.Handle(AssessRequest({2, 2, 3}), 2, now);
  EXPECT_EQ(miss.disposition, Disposition::kRejectedOverloaded);
  EXPECT_EQ(backend.TotalCachedReports(), 0u);
  // Warm the entry at level 0, then the same request serves degraded.
  ASSERT_EQ(backend.Handle(AssessRequest({2, 2, 3}), 0, now).disposition,
            Disposition::kCompleted);
  Response hit = backend.Handle(AssessRequest({2, 2, 3}), 2, now);
  EXPECT_EQ(hit.disposition, Disposition::kDegraded);
  EXPECT_FALSE(hit.degrade_reason.empty());
}

TEST(BackendTest, RecommendDowngradesAtLevelOne) {
  Backend backend(BackendOptions{});
  const auto now = steady_clock::now();
  Request req;
  req.op = Op::kRecommend;
  req.scenario = "ep";
  req.method = "exhaustive";
  req.max_wait = 0.1;
  req.min_avail = 0.999;
  req.max_replicas = 3;
  Response resp = backend.Handle(req, 1, now);
  ASSERT_EQ(resp.disposition, Disposition::kDegraded) << resp.error;
  EXPECT_NE(resp.degrade_reason.find("greedy"), std::string::npos);
  EXPECT_EQ(resp.result.GetString("method", ""), "greedy");
  // Level 0 honors the requested strategy.
  Response full = backend.Handle(req, 0, now);
  ASSERT_EQ(full.disposition, Disposition::kCompleted) << full.error;
  EXPECT_EQ(full.result.GetString("method", ""), "exhaustive");
}

TEST(BackendTest, SnapshotRoundTripsWarm) {
  const std::string path = TempPath("service_snapshot_roundtrip.wfsn");
  std::remove(path.c_str());
  BackendOptions options;
  options.snapshot_path = path;

  Backend cold(options);
  const auto now = steady_clock::now();
  Response original = cold.Handle(AssessRequest({2, 2, 3}), 0, now);
  ASSERT_EQ(original.disposition, Disposition::kCompleted);
  ASSERT_TRUE(cold.SaveCacheSnapshot().ok());

  Backend warm(options);
  auto stats = warm.LoadCacheSnapshot();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->scenarios, 1u);
  EXPECT_EQ(stats->reports, 1u);
  EXPECT_TRUE(stats->rejected.empty());
  // The warm answer is byte-identical to the cold one — and is a cache
  // hit (serving at level 2 proves no recomputation happened).
  Response restored = warm.Handle(AssessRequest({2, 2, 3}), 2, now);
  EXPECT_EQ(restored.disposition, Disposition::kDegraded);
  EXPECT_EQ(restored.result.Dump(), original.result.Dump());
  std::remove(path.c_str());
}

TEST(BackendTest, StaleFingerprintRejectsCleanly) {
  const std::string path = TempPath("service_snapshot_stale.wfsn");
  std::remove(path.c_str());
  BackendOptions options;
  options.snapshot_path = path;
  Backend writer(options);
  ASSERT_EQ(writer.Handle(AssessRequest({1, 1, 1}), 0, steady_clock::now())
                .disposition,
            Disposition::kCompleted);
  ASSERT_TRUE(writer.SaveCacheSnapshot().ok());

  // Different solver options => different fingerprint => cold start with
  // a clean per-scenario rejection, not an error and not a stale answer.
  BackendOptions changed = options;
  changed.tool_options.availability.solver.tolerance = 1e-6;
  Backend reader(changed);
  auto stats = reader.LoadCacheSnapshot();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->scenarios, 0u);
  ASSERT_EQ(stats->rejected.size(), 1u);
  EXPECT_NE(stats->rejected[0].find("fingerprint"), std::string::npos);
  EXPECT_EQ(reader.TotalCachedReports(), 0u);
  std::remove(path.c_str());
}

TEST(BackendTest, MissingSnapshotIsAColdStartNotAnError) {
  BackendOptions options;
  options.snapshot_path = TempPath("service_snapshot_never_written.wfsn");
  Backend backend(options);
  auto stats = backend.LoadCacheSnapshot();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->scenarios, 0u);
}

TEST(BackendTest, FingerprintSeparatesEnvironmentsAndOptions) {
  auto ep_result = workflow::EpEnvironment();
  auto bench_result = workflow::BenchmarkEnvironment();
  ASSERT_TRUE(ep_result.ok() && bench_result.ok());
  const workflow::Environment& ep = *ep_result;
  const workflow::Environment& bench = *bench_result;
  performability::PerformabilityOptions options;
  const uint64_t base = ServiceFingerprint(ep, options);
  EXPECT_NE(base, ServiceFingerprint(bench, options));
  performability::PerformabilityOptions tweaked = options;
  tweaked.availability.solver.max_iterations += 1;
  EXPECT_NE(base, ServiceFingerprint(ep, tweaked));
  EXPECT_EQ(base, ServiceFingerprint(ep, options));  // deterministic
}

// ------------------------------------------------------ Server loopback --

class ServerLoopbackTest : public testing::Test {
 protected:
  ServerOptions DefaultOptions() {
    ServerOptions options;
    options.port = 0;
    options.num_workers = 2;
    options.max_queue = 16;
    return options;
  }

  Client MakeClient(int port) {
    ClientOptions client_options;
    client_options.port = port;
    client_options.io_timeout_seconds = 60.0;
    return Client(client_options);
  }
};

TEST_F(ServerLoopbackTest, PingAssessAndErrorOverTheWire) {
  Server server(DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  auto pong = client.Call(R"({"id":"p","op":"ping"})");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  auto pong_doc = Json::Parse(*pong);
  ASSERT_TRUE(pong_doc.ok());
  EXPECT_EQ(pong_doc->GetString("status", ""), "completed");

  auto assess = client.Call(
      R"({"id":"a","op":"assess","scenario":"ep","config":[2,2,3],)"
      R"("max_wait":0.05,"min_avail":0.99})");
  ASSERT_TRUE(assess.ok()) << assess.status().ToString();
  auto assess_doc = Json::Parse(*assess);
  ASSERT_TRUE(assess_doc.ok());
  EXPECT_EQ(assess_doc->GetString("status", ""), "completed");
  EXPECT_EQ(assess_doc->GetString("id", ""), "a");

  // Malformed input answers `error` on the same connection, which stays
  // usable afterwards.
  auto garbage = client.Call("this is not json");
  ASSERT_TRUE(garbage.ok()) << garbage.status().ToString();
  auto garbage_doc = Json::Parse(*garbage);
  ASSERT_TRUE(garbage_doc.ok());
  EXPECT_EQ(garbage_doc->GetString("status", ""), "error");
  auto after = client.Call(R"({"id":"p2","op":"ping"})");
  EXPECT_TRUE(after.ok()) << after.status().ToString();

  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerLoopbackTest, PipelinedRequestsAllAnswerWithMatchingIds) {
  Server server(DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client
                    .Send(R"({"id":"q)" + std::to_string(i) +
                          R"(","op":"assess","scenario":"ep",)"
                          R"("config":[1,1,)" + std::to_string(1 + i % 3) +
                          R"(],"max_wait":0.05,"min_avail":0.99})")
                    .ok());
  }
  std::vector<bool> seen(kRequests, false);
  for (int i = 0; i < kRequests; ++i) {
    auto line = client.ReadResponse();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto doc = Json::Parse(*line);
    ASSERT_TRUE(doc.ok());
    const std::string id = doc->GetString("id", "");
    ASSERT_EQ(id.substr(0, 1), "q");
    const int index = std::stoi(id.substr(1));
    EXPECT_FALSE(seen[index]) << "duplicate response for " << id;
    seen[index] = true;
    const std::string status = doc->GetString("status", "");
    EXPECT_TRUE(status == "completed" || status == "degraded" ||
                status == "rejected-overloaded")
        << status;
  }
  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerLoopbackTest, DrainAnswersInFlightRequestsBeforeExit) {
  Server server(DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  // Uncached assess requests in flight when the stop lands.
  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client
                    .Send(R"({"id":"d)" + std::to_string(i) +
                          R"(","op":"assess","scenario":"ep",)"
                          R"("config":[)" + std::to_string(1 + i % 4) +
                          R"(,2,2],"max_wait":0.05,"min_avail":0.99})")
                    .ok());
  }
  server.RequestStop();
  // Every admitted request still answers; the drain never drops one.
  int answered = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto line = client.ReadResponse();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto doc = Json::Parse(*line);
    ASSERT_TRUE(doc.ok());
    EXPECT_NE(doc->GetString("status", ""), "");
    ++answered;
  }
  EXPECT_EQ(answered, kRequests);
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerLoopbackTest, TenantQuotaShedsOverTheWire) {
  ServerOptions options = DefaultOptions();
  options.admission.tenant_rate = 1.0;
  options.admission.tenant_burst = 2.0;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  int shed = 0;
  for (int i = 0; i < 6; ++i) {
    auto line = client.Call(
        R"({"id":"t)" + std::to_string(i) +
        R"(","op":"assess","scenario":"ep","tenant":"hog",)"
        R"("config":[1,1,1],"max_wait":0.05,"min_avail":0.99})");
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto doc = Json::Parse(*line);
    ASSERT_TRUE(doc.ok());
    if (doc->GetString("status", "") == "rejected-overloaded") ++shed;
  }
  EXPECT_GE(shed, 3);  // burst 2, rate 1/s: most of a tight loop is shed
  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerLoopbackTest, PoolShedEchoesTheRequestId) {
  // With the admission ladder off, the worker pool's queue bound is the
  // only backstop: pipelined cold assessments overflow a one-slot queue
  // behind a single worker, and each request the pool rejects must still
  // be answered under its own id.
  ServerOptions options = DefaultOptions();
  options.max_queue = 1;
  options.admission.max_queue = 0;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client
                    .Send(R"({"id":"q)" + std::to_string(i) +
                          R"(","op":"assess","scenario":"ep","config":[)" +
                          std::to_string(1 + i % 4) + "," +
                          std::to_string(1 + i / 4) +
                          R"(,2],"max_wait":0.05,"min_avail":0.99})")
                    .ok());
  }
  std::set<std::string> ids;
  int pool_sheds = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto line = client.ReadResponse();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    auto doc = Json::Parse(*line);
    ASSERT_TRUE(doc.ok());
    const std::string id = doc->GetString("id", "");
    EXPECT_EQ(id.rfind('q', 0), 0u) << *line;
    ids.insert(id);
    if (doc->GetString("error", "").find("ThreadPool queue full") !=
        std::string::npos) {
      EXPECT_EQ(doc->GetString("status", ""), "rejected-overloaded");
      ++pool_sheds;
    }
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kRequests));
  EXPECT_GE(pool_sheds, 1);
  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

TEST_F(ServerLoopbackTest, ClientRetriesUntilServerAppears) {
  // Nothing listens yet: the client's transport retries are exhausted.
  ClientOptions client_options;
  client_options.port = 1;  // reserved port, nothing listens
  client_options.max_retries = 1;
  client_options.backoff_initial_seconds = 0.01;
  Client client(client_options);
  auto result = client.Call(R"({"op":"ping"})");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServerLoopbackTest, RetriesAreCountedAndGatedOnIdempotency) {
  metrics::Counter& retries = metrics::MetricsRegistry::Global().GetCounter(
      "wfms_service_client_retries_total");
  ClientOptions client_options;
  client_options.port = 1;  // reserved port, nothing listens
  client_options.max_retries = 2;
  client_options.backoff_initial_seconds = 0.01;
  client_options.backoff_max_seconds = 0.02;

  // Idempotent call: every transport retry is counted.
  const uint64_t before = retries.value();
  Client idempotent(client_options);
  EXPECT_FALSE(idempotent.Call(R"({"op":"ping"})").ok());
  EXPECT_EQ(retries.value(), before + 2);

  // Non-idempotent call against a dead port: the request provably never
  // reached the wire (connect failure), so retrying is still allowed —
  // the idempotency gate only stops re-sends once bytes may be out.
  const uint64_t before_mutating = retries.value();
  Client mutating(client_options);
  EXPECT_FALSE(
      mutating.Call(R"({"op":"autotune"})", /*idempotent=*/false).ok());
  EXPECT_EQ(retries.value(), before_mutating + 2);
}

TEST_F(ServerLoopbackTest, GeoSurvivabilityAssessOverTheWire) {
  Server server(DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  // The split-brain placement dies under a partition; the wire response
  // carries the per-contingency verdicts and the survivability bit.
  auto split = client.Call(
      R"({"id":"g1","op":"assess","scenario":"geo",)"
      R"("site_config":[1,1,2,0,0,2],"max_wait":0.2,"min_avail":0.999,)"
      R"("survive_sites":1,"survive_partitions":true,)"
      R"("degraded_max_wait":0.2,"degraded_min_avail":0.995})");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  auto split_doc = Json::Parse(*split);
  ASSERT_TRUE(split_doc.ok()) << *split;
  EXPECT_EQ(split_doc->GetString("status", ""), "completed");
  const Json* result = split_doc->Find("result");
  ASSERT_NE(result, nullptr) << *split;
  EXPECT_FALSE(result->GetBool("meets_survivability_goal", true));
  const Json* contingencies = result->Find("contingencies");
  ASSERT_NE(contingencies, nullptr) << *split;
  ASSERT_EQ(contingencies->items().size(), 3u);
  bool saw_dead_partition = false;
  for (const Json& c : contingencies->items()) {
    if (c.GetString("contingency", "") == "partition EU|US") {
      saw_dead_partition = true;
      EXPECT_EQ(c.GetNumber("availability", -1.0), 0.0);
      EXPECT_FALSE(c.GetBool("satisfied", true));
    }
  }
  EXPECT_TRUE(saw_dead_partition);

  // The symmetric placement meets the degraded goals everywhere.
  auto symmetric = client.Call(
      R"({"id":"g2","op":"assess","scenario":"geo",)"
      R"("site_config":[1,1,1,1,2,2],"max_wait":0.2,"min_avail":0.999,)"
      R"("survive_sites":1,"survive_partitions":true,)"
      R"("degraded_max_wait":0.2,"degraded_min_avail":0.995})");
  ASSERT_TRUE(symmetric.ok());
  auto symmetric_doc = Json::Parse(*symmetric);
  ASSERT_TRUE(symmetric_doc.ok());
  const Json* ok_result = symmetric_doc->Find("result");
  ASSERT_NE(ok_result, nullptr) << *symmetric;
  EXPECT_TRUE(ok_result->GetBool("meets_survivability_goal", false));
  EXPECT_TRUE(ok_result->GetBool("satisfies", false));

  // site_config against a single-site scenario is a structural error.
  auto mismatch = client.Call(
      R"({"id":"g3","op":"assess","scenario":"ep",)"
      R"("site_config":[1,1,1,1,2,2],"max_wait":0.2,"min_avail":0.999})");
  ASSERT_TRUE(mismatch.ok());
  auto mismatch_doc = Json::Parse(*mismatch);
  ASSERT_TRUE(mismatch_doc.ok());
  EXPECT_EQ(mismatch_doc->GetString("status", ""), "error");

  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

// ----------------------------------------------------- Flight recorder --

RequestRecord MakeRecord(const std::string& trace_id) {
  RequestRecord record;
  record.trace_id = trace_id;
  record.tenant = "default";
  record.op = "assess";
  record.disposition = "completed";
  record.elapsed_seconds = 0.010;
  record.phases = {{"queue", 0.001}, {"execute", 0.008}};
  record.bytes_in = 100;
  record.bytes_out = 300;
  return record;
}

std::string HexTraceId(int i) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%032x", i);
  return buf;
}

TEST(FlightRecorderTest, NewestReturnsNewestFirst) {
  FlightRecorder recorder(/*capacity=*/64, /*shards=*/4);
  for (int i = 0; i < 10; ++i) recorder.Record(MakeRecord(HexTraceId(i)));
  const std::vector<RequestRecord> newest = recorder.Newest(3);
  ASSERT_EQ(newest.size(), 3u);
  EXPECT_EQ(newest[0].trace_id, HexTraceId(9));
  EXPECT_EQ(newest[1].trace_id, HexTraceId(8));
  EXPECT_EQ(newest[2].trace_id, HexTraceId(7));
  EXPECT_EQ(recorder.total_recorded(), 10u);
  // n == 0 and n > retained both return everything.
  EXPECT_EQ(recorder.Newest(0).size(), 10u);
  EXPECT_EQ(recorder.Newest(1000).size(), 10u);
}

TEST(FlightRecorderTest, WraparoundKeepsTheNewestRecords) {
  FlightRecorder recorder(/*capacity=*/8, /*shards=*/2);
  ASSERT_EQ(recorder.capacity(), 8u);
  for (int i = 0; i < 30; ++i) recorder.Record(MakeRecord(HexTraceId(i)));
  const std::vector<RequestRecord> retained = recorder.Newest(0);
  ASSERT_EQ(retained.size(), 8u);
  // The ring keeps exactly the last `capacity` commits, newest first.
  for (size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].trace_id, HexTraceId(29 - static_cast<int>(i)));
  }
  EXPECT_EQ(recorder.total_recorded(), 30u);
}

TEST(FlightRecorderTest, ToJsonCarriesSchemaAndEveryField) {
  FlightRecorder recorder(/*capacity=*/8, /*shards=*/2);
  RequestRecord record = MakeRecord(HexTraceId(1));
  record.cache_hit = true;
  record.solver_rungs = 2;
  record.admission_wait_seconds = 0.001;
  recorder.Record(record);
  const std::string json = recorder.ToJson();
  for (const char* needle :
       {"\"schema_version\":1", "\"total_recorded\":1", "\"records\"",
        "\"seq\"", "\"trace_id\"", "\"tenant\":\"default\"",
        "\"op\":\"assess\"", "\"disposition\":\"completed\"",
        "\"admission_wait_seconds\"", "\"elapsed_seconds\"", "\"phases\"",
        "\"name\":\"queue\"", "\"cache_hit\":true", "\"solver_rungs\":2",
        "\"bytes_in\":100", "\"bytes_out\":300"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle << " in " << json;
  }
}

TEST(FlightRecorderTest, ConcurrentRecordsAllLandWithUniqueSeq) {
  FlightRecorder recorder(/*capacity=*/4096, /*shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeRecord(HexTraceId(t * kPerThread + i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<RequestRecord> all = recorder.Newest(0);
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i].seq, all[i - 1].seq);  // strictly newest-first
  }
}

TEST(FlightRecorderTest, DumpJsonWritesTheDocument) {
  const std::string path = TempPath("flight_recorder_dump.json");
  std::remove(path.c_str());
  FlightRecorder recorder(/*capacity=*/8, /*shards=*/2);
  recorder.Record(MakeRecord(HexTraceId(7)));
  ASSERT_TRUE(recorder.DumpJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(4096, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find(HexTraceId(7)), std::string::npos);
  EXPECT_FALSE(recorder.DumpJson("/nonexistent_dir_zzz/dump.json").ok());
}

TEST_F(ServerLoopbackTest, FlightRecorderCapturesTracedRequests) {
  Server server(DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());

  // A client-minted trace context rides the request; the response echoes
  // the same trace id back.
  const std::string trace_id = "00112233445566778899aabbccddeeff";
  auto traced = client.Call(
      R"({"id":"tr1","op":"assess","scenario":"ep","config":[2,2,3],)"
      R"("max_wait":0.05,"min_avail":0.99,)"
      R"("trace":{"trace_id":")" + trace_id +
      R"(","parent_span_id":"0123456789abcdef"}})");
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  auto traced_doc = Json::Parse(*traced);
  ASSERT_TRUE(traced_doc.ok());
  EXPECT_EQ(traced_doc->GetString("status", ""), "completed");
  EXPECT_EQ(traced_doc->GetString("trace_id", ""), trace_id);

  // A request without a trace field gets a server-minted id.
  auto bare = client.Call(R"({"id":"tr2","op":"ping"})");
  ASSERT_TRUE(bare.ok());
  auto bare_doc = Json::Parse(*bare);
  ASSERT_TRUE(bare_doc.ok());
  const std::string minted = bare_doc->GetString("trace_id", "");
  EXPECT_EQ(minted.size(), 32u);
  EXPECT_NE(minted, trace_id);

  // Both requests landed in the flight recorder, newest first, with
  // phases that fit inside the recorded wall time.
  const std::vector<RequestRecord> records =
      server.flight_recorder().Newest(0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, minted);
  EXPECT_EQ(records[0].op, "ping");
  EXPECT_EQ(records[1].trace_id, trace_id);
  EXPECT_EQ(records[1].op, "assess");
  EXPECT_EQ(records[1].disposition, "completed");
  EXPECT_FALSE(records[1].cache_hit);
  EXPECT_GT(records[1].bytes_in, 0u);
  EXPECT_GT(records[1].bytes_out, 0u);
  double phase_sum = 0.0;
  bool saw_execute = false;
  for (const auto& [name, seconds] : records[1].phases) {
    EXPECT_GE(seconds, 0.0) << name;
    phase_sum += seconds;
    if (name == "execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_LE(phase_sum, records[1].elapsed_seconds + 1e-3);

  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

// Raw HTTP/1.0 GET against the server's shared port (the protocol sniffer
// routes "GET " lines to ServeHttp). Returns the full response, headers
// included.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ServerLoopbackTest, FlightRecorderServedAtDebugRequests) {
  Server server(DefaultOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        client.Call(R"({"id":"h)" + std::to_string(i) + R"(","op":"ping"})")
            .ok());
  }

  const std::string all = HttpGet(server.port(), "/debug/requests");
  EXPECT_NE(all.find("200 OK"), std::string::npos) << all;
  EXPECT_NE(all.find("application/json"), std::string::npos) << all;
  EXPECT_NE(all.find("\"schema_version\":1"), std::string::npos) << all;
  EXPECT_NE(all.find("\"total_recorded\":3"), std::string::npos) << all;

  // ?n= caps the returned records without touching total_recorded.
  const std::string capped = HttpGet(server.port(), "/debug/requests?n=1");
  EXPECT_NE(capped.find("\"total_recorded\":3"), std::string::npos) << capped;
  size_t seq_count = 0;
  for (size_t pos = capped.find("\"seq\""); pos != std::string::npos;
       pos = capped.find("\"seq\"", pos + 1)) {
    ++seq_count;
  }
  EXPECT_EQ(seq_count, 1u);

  server.RequestStop();
  EXPECT_TRUE(server.Wait().ok());
}

}  // namespace
}  // namespace wfms::service
