#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::string& text) {
  for (const unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  Add(static_cast<uint64_t>(text.size()));
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Open(const std::string& name, uint64_t op) {
  const double now = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_ms = now;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  const double now = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ms = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::Add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int parent, uint64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ms = MsBetween(origin_, start);
  span.end_ms = MsBetween(origin_, end);
  span.parent = parent;
  span.op = op;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_ms >= span.start_ms) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ms,
                                                              span.end_ms);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ms < span.start_ms) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = span.start_ms;
    for (const auto& [begin, end] : kids) {
      const double from = std::max(begin, cursor);
      const double to = std::min(end, span.end_ms);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[span.name] += (span.end_ms - span.start_ms) - covered;
  }
  return self;
}

wfms::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return wfms::Status::Unavailable("cannot write " + path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%llu}}",
                  i == 0 ? "" : ",", wfms::JsonEscape(span.name).c_str(),
                  span.start_ms * 1000.0,
                  std::max(0.0, span.end_ms - span.start_ms) * 1000.0, i,
                  span.parent, static_cast<unsigned long long>(span.op));
    out << line;
  }
  out << "\n]}\n";
  return out ? wfms::Status::OK() : wfms::Status::Unavailable("short write to " + path);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> PerInputMedians(const std::vector<double>& latencies_ms,
                                    size_t inputs) {
  std::vector<double> medians;
  for (size_t i = 0; i < inputs; ++i) {
    std::vector<double> mine;
    for (size_t k = i; k < latencies_ms.size(); k += inputs) {
      mine.push_back(latencies_ms[k]);
    }
    medians.push_back(Median(std::move(mine)));
  }
  return medians;
}

double ThreadCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return 1e3 * static_cast<double>(now.tv_sec) + 1e-6 * now.tv_nsec;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * values.size());
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

LatencySummary Summarize(std::vector<double> latencies_ms,
                         size_t min_samples) {
  LatencySummary summary;
  summary.samples = latencies_ms.size();
  if (latencies_ms.empty()) return summary;
  summary.p50_ms = Median(latencies_ms);
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  const double n =
      static_cast<double>(std::min(min_samples, latencies_ms.size()));
  for (const double pct : kLadder) {
    const double rank = std::ceil(pct / 100.0 * n);
    if (n - rank >= 10.0) {
      summary.tail_percentile = pct;
      summary.tail_ms = Percentile(latencies_ms, pct);
      return summary;
    }
  }
  summary.tail_percentile = 50.0;
  summary.tail_ms = Percentile(latencies_ms, 50.0);
  return summary;
}

double PeakRssMiB(int pid) {
  const std::string path = pid > 0
                                ? "/proc/" + std::to_string(pid) + "/status"
                                : std::string("/proc/self/status");
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

RegistryDelta::RegistryDelta() { Restart(); }

void RegistryDelta::Restart() {
  before_ = wfms::metrics::MetricsRegistry::Global().Snapshot();
  have_after_ = false;
}

const wfms::metrics::MetricsSnapshot& RegistryDelta::After() const {
  if (!have_after_) {
    after_ = wfms::metrics::MetricsRegistry::Global().Snapshot();
    have_after_ = true;
  }
  return after_;
}

double RegistryDelta::Counter(const std::string& name) const {
  return static_cast<double>(After().counter(name) - before_.counter(name));
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  const auto* after = After().histogram(name);
  const auto* before = before_.histogram(name);
  return (after ? after->sum : 0.0) - (before ? before->sum : 0.0);
}

double LayerTotals::Value(const std::string& name, double ops) const {
  if (const auto it = finals_.find(name); it != finals_.end()) {
    return it->second;
  }
  const auto it = sums_.find(name);
  return it == sums_.end() || ops <= 0.0 ? 0.0 : it->second / ops;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  for (auto& [existing, metric] : metrics) {
    if (existing == name) {
      metric = Metric{value, unit, note};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit, note});
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void SetClosedLoopMetrics(Report& report, double setup_s,
                          const std::vector<double>& latencies_ms,
                          size_t min_samples) {
  const LatencySummary summary = Summarize(latencies_ms, min_samples);
  double busy_ms = 0.0;
  for (const double ms : latencies_ms) busy_ms += ms;
  const double ops_per_s =
      busy_ms > 0.0 ? 1000.0 * latencies_ms.size() / busy_ms : 0.0;
  const std::string samples = "n=" + std::to_string(summary.samples);
  char tail_note[64];
  std::snprintf(tail_note, sizeof(tail_note), "p%g, n=%zu, %zu beyond",
                summary.tail_percentile, summary.samples,
                summary.samples -
                    static_cast<size_t>(std::ceil(summary.tail_percentile /
                                                  100.0 * summary.samples)));
  report.Set("setup_s", setup_s, "s");
  report.Set("ops_per_s", ops_per_s, "1/s",
             samples + ", closed loop, 1 client, per CPU second");
  report.Set("op_p50_ms", summary.p50_ms, "ms", samples + ", thread CPU time");
  report.Set("op_tail_ms", summary.tail_ms, "ms", tail_note);
  report.Set("max_rate_ops_s", ops_per_s, "1/s",
             "no rate ladder in a closed loop: ops_per_s stands in");
}

const std::vector<LayerMetricSpec> kLayerMetrics = {
    {"corpus.import_ms", "ms/op"},
    {"corpus.compile_ms", "ms/op"},
    {"corpus.tasks", "count/op"},
    {"statechart.map_ms", "ms/op"},
    {"statechart.states", "count/op"},
    {"markov.first_passage_ms", "ms/op"},
    {"markov.visits_ms", "ms/op"},
    {"perf.model_build_ms", "ms/op"},
    {"perf.analyze_self_ms", "ms/op"},
    {"avail.build_ms", "ms/op"},
    {"avail.states", "count/op"},
    {"avail.nnz", "count/op"},
    {"avail.evaluate_ms", "ms/op"},
    {"markov.steady_ms", "ms/op"},
    {"markov.steady_iterations", "count/op"},
    {"markov.lumping_ms", "ms/op"},
    {"markov.lumped_states", "count/op"},
    {"markov.rung_fallbacks", "count/op"},
    {"markov.lumping_attempts", "count/op"},
    {"markov.lumpable_share", "ratio"},
    {"queueing.mg1_evals", "count/op"},
    {"performability.evaluate_ms", "ms/op"},
    {"performability.reward_self_ms", "ms/op"},
    {"configtool.create_ms", "ms/op"},
    {"configtool.search_ms", "ms/op"},
    {"configtool.assess_ms", "ms/op"},
    {"configtool.evaluations", "count/op"},
    {"configtool.cache_lookups", "count/op"},
    {"configtool.cache_hit_ratio", "ratio"},
    {"threadpool.queue_wait_ms", "ms/op"},
    {"threadpool.tasks", "count/op"},
    {"service.requests", "count"},
    {"service.server_ms", "ms"},
    {"service.gap_ms", "ms"},
    {"service.gap_degraded_ms", "ms"},
    {"service.gap_shed_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.ladder_requests", "count"},
    {"service.shed_ratio", "ratio"},
    {"service.degraded_ratio", "ratio"},
    {"service.generator_lag_ms", "ms"},
    {"service.nominal_p50_ms", "ms"},
    {"service.nominal_tail_ms", "ms"},
    {"service.hot_p50_ms", "ms"},
    {"service.hot_tail_ms", "ms"},
    {"share.base_op_ms", "ms"},
    {"share.corpus", "ratio"},
    {"share.statechart", "ratio"},
    {"share.perf_markov", "ratio"},
    {"trace.untraced_p50_ms", "ms"},
    {"trace.traced_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

const std::vector<RegistryLayer> kRegistryLayers = {
    {"perf.model_build_ms", "wfms_perf_model_build_seconds", true},
    {"configtool.assess_ms", "wfms_configtool_assessment_seconds", true},
    {"configtool.cache_hits", "wfms_configtool_cache_hits_total", false},
    {"configtool.cache_misses", "wfms_configtool_cache_misses_total", false},
    {"avail.evaluate_ms", "wfms_avail_evaluate_seconds", true},
    {"performability.evaluate_ms", "wfms_performability_evaluate_seconds",
     true},
    {"markov.steady_ms", "wfms_markov_steady_solve_seconds", true},
    {"markov.steady_iterations", "wfms_markov_steady_iterations_total",
     false},
    {"markov.rung_fallbacks", "wfms_markov_steady_fallbacks_total", false},
    {"markov.lumping_attempts", "wfms_markov_lumping_attempts_total", false},
    {"markov.lumping_wins", "wfms_markov_lumping_wins_total", false},
    {"queueing.mg1_evals", "wfms_queueing_mg1_evaluations_total", false},
    {"threadpool.queue_wait_ms", "wfms_threadpool_queue_wait_seconds", true},
    {"threadpool.tasks", "wfms_threadpool_tasks_executed_total", false},
};

void AddRegistryLayers(LayerTotals& layers, const RegistryDelta& delta) {
  AddRegistryLayersWith(layers, [&](const char* metric, bool seconds) {
    return seconds ? delta.HistogramSum(metric) : delta.Counter(metric);
  });
}

void SetTraceOverhead(LayerTotals& layers,
                      const std::vector<double>& untraced_ms,
                      const std::vector<double>& traced_ms,
                      const Tracer& tracer) {
  layers.SetFinal("trace.untraced_p50_ms", Median(untraced_ms));
  layers.SetFinal("trace.traced_p50_ms", Median(traced_ms));
  layers.SetFinal("trace.overhead_ms",
                  Median(traced_ms) - Median(untraced_ms));
  layers.SetFinal("trace.spans", static_cast<double>(tracer.size()));
}

void SetLayerMetrics(Report& report, LayerTotals layers, size_t traced_ops) {
  const double ops = static_cast<double>(traced_ops);
  auto ratio = [&](const char* name, double num, double den) {
    if (!layers.has_final(name)) {
      layers.SetFinal(name, den > 0.0 ? num / den : 0.0);
    }
  };
  const double hits = layers.Value("configtool.cache_hits", ops);
  const double lookups = hits + layers.Value("configtool.cache_misses", ops);
  if (!layers.has_final("configtool.cache_lookups")) {
    layers.SetFinal("configtool.cache_lookups", lookups);
  }
  ratio("configtool.cache_hit_ratio", hits, lookups);
  ratio("markov.lumpable_share", layers.Value("markov.lumping_wins", ops),
        layers.Value("markov.lumping_attempts", ops));
  if (!layers.has_final("performability.reward_self_ms")) {
    layers.SetFinal("performability.reward_self_ms",
                    std::max(0.0, layers.Value("performability.evaluate_ms",
                                               ops) -
                                      layers.Value("avail.evaluate_ms", ops)));
  }
  // A traced run reports only per-layer metrics; its end-to-end figures
  // carry the tracing overhead.
  report.metrics.clear();
  const std::string note = "traced operations: " + std::to_string(traced_ops);
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    report.Set(spec.name, layers.Value(spec.name, ops), spec.unit, note);
  }
}

}  // namespace perfbench
