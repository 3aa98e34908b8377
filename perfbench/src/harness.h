// Shared pieces of the benchmark binary: run options, the in-memory span
// recorder used by traced runs, latency summaries, registry deltas, and
// the report every workload fills in.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// CPU time of the calling thread, in ms. The closed-loop workloads time
/// their set-up and operations with it: with one library lane every pool
/// task runs inline on the caller, so this is the time on a dedicated
/// core. Unlike wall time it leaves out the time the hypervisor gave the
/// core to another guest (steal), which on a shared virtual machine moved
/// wall-time medians by up to 90% within minutes.
double ThreadCpuMs();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Library thread-pool lanes (also exported as WFMS_NUM_THREADS).
  int lanes = 1;
  /// Shrinks every workload to a few operations (the benchmark's tests).
  bool tiny = false;
  /// Corrupts one recorded output before the oracle checks (tests that a
  /// wrong value is counted as failed).
  bool inject_wrong = false;
  std::string wfmsd_path;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

/// Times a workload's set-up runs; setup_s is the median. A tiny run sets
/// up once.
inline int SetupReps(const Options& options) { return options.tiny ? 1 : 5; }

/// SplitMix64 step: derives independent streams from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// FNV-1a over the bit patterns of the values an operation produced.
class Digest {
 public:
  void Add(double value);
  void Add(uint64_t value);
  void Add(const std::string& text);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Spans recorded from the benchmark's own code around calls into the
/// library: name, start, end, parent span and operation id. Kept in memory
/// and written when the run ends. Open/Close nest on the calling thread;
/// Add records a finished span from any thread.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  int Open(const std::string& name, uint64_t op);
  void Close(int id);
  /// Returns the span's id (-1 when tracing is off).
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, uint64_t op);

  /// Self time per span name (duration minus the union of its children's
  /// intervals), summed over all spans, in ms.
  std::map<std::string, double> SelfMs() const;
  size_t size() const;
  wfms::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = -1.0;
    int parent = -1;
    uint64_t op = 0;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards spans_ and open_
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op for a null or disabled tracer (untraced operations).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t op)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Open(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

double Median(std::vector<double> values);

/// Median plus the latency at the highest percentile of a fixed ladder
/// that has at least ten samples beyond it in every run: the percentile is
/// chosen from the sample count a run guarantees (`min_samples`), so it
/// does not flip between runs that reach different counts.
struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 50.0;
};
LatencySummary Summarize(std::vector<double> latencies_ms,
                         size_t min_samples);
/// Value at percentile `pct` (nearest rank) of an unsorted sample.
double Percentile(std::vector<double> values, double pct);

/// Peak resident set size (VmHWM) of a process, in MiB; 0 when unknown.
double PeakRssMiB(int pid = 0);

/// Differences of the library's exported counters and histogram sums
/// between two registry snapshots.
class RegistryDelta {
 public:
  RegistryDelta();
  void Restart();
  /// Counter increase since the last Restart.
  double Counter(const std::string& name) const;
  /// Histogram sum increase since the last Restart (seconds for the
  /// *_seconds histograms).
  double HistogramSum(const std::string& name) const;

 private:
  wfms::metrics::MetricsSnapshot before_;
  mutable bool have_after_ = false;
  mutable wfms::metrics::MetricsSnapshot after_;
  const wfms::metrics::MetricsSnapshot& After() const;
};

/// Per-layer figures of a traced run. Add sums a figure over the traced
/// operations (reported as a per-operation mean); SetFinal stores a value
/// reported as is (ratios, medians, per-set-up figures).
class LayerTotals {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  void SetFinal(const std::string& name, double value) {
    finals_[name] = value;
  }
  /// The reported value: the final one if set, else the per-op mean.
  double Value(const std::string& name, double ops) const;
  bool has_final(const std::string& name) const {
    return finals_.count(name) > 0;
  }

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, double> finals_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, percentile, base of a ratio
};

/// What one workload run produced.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure causes
  std::vector<std::pair<std::string, Metric>> metrics;
  wfms::Json details = wfms::Json::Object();

  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Counts one failed operation and remembers why.
  void Fail(const std::string& why);
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// The end-to-end metrics every closed-loop workload reports: ops_per_s
/// is operations per second of busy (thread CPU) time with one client. A closed loop
/// has no offered-rate ladder, so max_rate_ops_s stands in with the same
/// value (a closed loop offers exactly the rate it sustains).
void SetClosedLoopMetrics(Report& report, double setup_s,
                          const std::vector<double>& latencies_ms,
                          size_t min_samples);

/// Library counters and histograms a traced run reads around each
/// operation, keyed by the per-layer figure they feed.
struct RegistryLayer {
  const char* layer;
  const char* metric;
  bool seconds;  // a histogram of seconds: its sum, in ms
};
extern const std::vector<RegistryLayer> kRegistryLayers;

/// Adds every kRegistryLayers delta, from `value(metric, seconds)`.
template <typename Value>
void AddRegistryLayersWith(LayerTotals& layers, Value&& value) {
  for (const RegistryLayer& entry : kRegistryLayers) {
    const double v = value(entry.metric, entry.seconds);
    layers.Add(entry.layer, entry.seconds ? 1000.0 * v : v);
  }
}
/// The same, from the in-process registry.
void AddRegistryLayers(LayerTotals& layers, const RegistryDelta& delta);

/// The traced run's overhead figures: untraced and traced median operation
/// latency, their difference, and the span count.
void SetTraceOverhead(LayerTotals& layers,
                      const std::vector<double>& untraced_ms,
                      const std::vector<double>& traced_ms,
                      const Tracer& tracer);

/// Per-layer metrics of a traced run: every name in kLayerMetrics (0 for a
/// layer the workload does not exercise). Derives the ratios and the
/// performability self time unless the workload set them.
void SetLayerMetrics(Report& report, LayerTotals layers, size_t traced_ops);

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<LayerMetricSpec> kLayerMetrics;

/// What a closed-loop timed run produced: latencies of the untraced (and,
/// in a traced run, the traced) operations, and every successful outcome
/// with the index of its input.
template <typename Outcome>
struct ClosedLoop {
  std::vector<double> latencies_ms;
  std::vector<double> traced_latencies_ms;
  std::vector<std::pair<size_t, Outcome>> outcomes;
  size_t passes = 0;
  size_t min_samples = 0;  // untraced latencies every run records
};

/// The timed loop of the closed-loop workloads: whole passes over the
/// `inputs` operations until `options.seconds` of wall time have gone by,
/// and at least `min_passes` (one in a tiny run), so every run holds the
/// same mix. A traced run times every operation twice per pass, untraced
/// then traced, for the overhead figure.
/// `run_op(input, op_id, traced, &latency_ms)` returns a Result<Outcome>.
template <typename Outcome, typename RunOp>
ClosedLoop<Outcome> RunClosedLoop(const Options& options, size_t inputs,
                                  Report& report, RunOp&& run_op,
                                  size_t min_passes = 2) {
  ClosedLoop<Outcome> loop;
  uint64_t next_op = 0;
  auto one = [&](size_t input, bool traced) {
    double ms = 0.0;
    wfms::Result<Outcome> outcome = run_op(input, next_op++, traced, &ms);
    (traced ? loop.traced_latencies_ms : loop.latencies_ms).push_back(ms);
    ++report.attempted;
    if (!outcome.ok()) {
      report.Fail("input " + std::to_string(input) + ": " +
                  outcome.status().ToString());
      return;
    }
    loop.outcomes.emplace_back(input, *std::move(outcome));
  };
  const Clock::time_point start = Clock::now();
  if (options.tiny) min_passes = 1;
  loop.min_samples = min_passes * inputs;
  while (loop.passes < min_passes ||
         MsBetween(start, Clock::now()) < options.seconds * 1000.0) {
    for (size_t i = 0; i < inputs; ++i) {
      one(i, false);
      if (options.trace) one(i, true);
    }
    ++loop.passes;
  }
  return loop;
}

/// The oracle pass, outside the timed region: `check(input, outcome)`
/// judges each input's first outcome ("" when correct, else the cause);
/// every repeat must carry the first outcome's digest, and repeats of a
/// wrong first outcome fail too. Returns the first outcome per input.
template <typename Outcome, typename Check>
std::vector<std::optional<Outcome>> CheckOutcomes(
    const std::vector<std::pair<size_t, Outcome>>& outcomes, size_t inputs,
    Report& report, Check&& check) {
  std::vector<std::optional<Outcome>> first(inputs);
  std::vector<bool> wrong(inputs, false);
  for (const auto& [input, outcome] : outcomes) {
    const std::string label = "input " + std::to_string(input) + ": ";
    if (first[input].has_value()) {
      if (wrong[input] || first[input]->digest != outcome.digest) {
        report.Fail(label + "repeat differs from a correct first result");
      }
      continue;
    }
    first[input] = outcome;
    const std::string why = check(input, outcome);
    if (!why.empty()) {
      report.Fail(label + why);
      wrong[input] = true;
    }
  }
  return first;
}

/// Median latency of each input over the passes (latencies are in input
/// order within every pass).
std::vector<double> PerInputMedians(const std::vector<double>& latencies_ms,
                                    size_t inputs);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
