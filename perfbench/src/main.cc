// perfbench — runs one benchmark workload in this process and prints one
// JSON line with its metrics, failure counts, details and context stamp.
// perfbench/run.py builds this binary, runs it, and checks the result.
//
//   perfbench --workload corpus_dag --seed 1 --seconds 10 --trace 0
//             [--lanes 4] [--wfmsd PATH]
//             [--trace-out PATH] [--tiny] [--inject-wrong]
//
// Exit codes: 0 every operation correct, 1 a failed operation or oracle
// mismatch, 2 usage error, 3 unoptimised build.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/string_util.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--lanes N] [--wfmsd PATH] "
               "[--trace-out PATH] [--tiny] [--inject-wrong]\n",
               why);
  return 2;
}

wfms::Json MetricsJson(const Report& report) {
  wfms::Json metrics = wfms::Json::Object();
  for (const auto& [name, metric] : report.metrics) {
    wfms::Json entry = wfms::Json::Object();
    entry.Set("value", wfms::Json::Number(metric.value));
    entry.Set("unit", wfms::Json::Str(metric.unit));
    if (!metric.note.empty()) entry.Set("note", wfms::Json::Str(metric.note));
    metrics.Set(name, std::move(entry));
  }
  return metrics;
}

int Main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to report from an unoptimised "
                       "build (compile with -O2 or higher)\n");
  return 3;
#endif
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() {
      ++i;
      return std::string(value);
    };
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--inject-wrong") {
      options.inject_wrong = true;
    } else if (value == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = take();
    } else if (arg == "--seed") {
      const std::string text = take();
      char* end = nullptr;
      options.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || text[0] == '-' || *end != '\0') {
        return Usage("bad --seed");
      }
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!wfms::ParseDouble(take(), &options.seconds) ||
          !(options.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      const std::string trace = take();
      if (trace != "0" && trace != "1") return Usage("bad --trace");
      options.trace = trace == "1";
    } else if (arg == "--lanes") {
      if (!wfms::ParseInt(take(), &options.lanes) || options.lanes < 1) {
        return Usage("bad --lanes");
      }
    } else if (arg == "--wfmsd") {
      options.wfmsd_path = take();
    } else if (arg == "--trace-out") {
      options.trace_out = take();
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  // Pin every library thread pool before any is created.
  setenv("WFMS_NUM_THREADS", std::to_string(options.lanes).c_str(), 1);

  Tracer tracer(options.trace);
  Report report;
  if (options.workload == "corpus_dag") {
    report = RunCorpusDag(options, tracer);
  } else if (options.workload == "config_search") {
    report = RunConfigSearch(options, tracer);
  } else if (options.workload == "avail_large") {
    report = RunAvailLarge(options, tracer);
  } else if (options.workload == "service_mix") {
    if (options.wfmsd_path.empty()) return Usage("service_mix needs --wfmsd");
    report = RunServiceMix(options, tracer);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!options.trace) {
    bool has_rss = false;
    for (const auto& entry : report.metrics) {
      has_rss |= entry.first == "peak_rss_mib";
    }
    // service_mix reports the daemon's peak; the others their own.
    if (!has_rss) {
      report.Set("peak_rss_mib", PeakRssMiB(), "MiB",
                 "VmHWM of the workload process");
    }
  }
  if (options.trace && !options.trace_out.empty()) {
    const wfms::Status written = tracer.WriteChromeTrace(options.trace_out);
    if (!written.ok()) report.errors.push_back(written.ToString());
  }

  wfms::Json out = wfms::Json::Object();
  out.Set("workload", wfms::Json::Str(options.workload));
  out.Set("correct", wfms::Json::Bool(report.correct()));
  out.Set("attempted", wfms::Json::Number(double(report.attempted)));
  out.Set("failed", wfms::Json::Number(double(report.failed)));
  wfms::Json errors = wfms::Json::Array();
  for (const std::string& error : report.errors) {
    errors.Append(wfms::Json::Str(error));
  }
  out.Set("errors", std::move(errors));
  out.Set("metrics", MetricsJson(report));
  wfms::Json context = wfms::Json::Object();
#if defined(__OPTIMIZE_SIZE__)
  context.Set("optimization", wfms::Json::Str("size (-Os)"));
#else
  context.Set("optimization", wfms::Json::Str("__OPTIMIZE__ (-O1 or higher)"));
#endif
#if defined(NDEBUG)
  context.Set("ndebug", wfms::Json::Bool(true));
#else
  context.Set("ndebug", wfms::Json::Bool(false));
#endif
  context.Set("lanes", wfms::Json::Number(options.lanes));
  context.Set("nproc_online",
              wfms::Json::Number(double(sysconf(_SC_NPROCESSORS_ONLN))));
  context.Set("seed", wfms::Json::Number(double(options.seed)));
  context.Set("seconds", wfms::Json::Number(options.seconds));
  context.Set("setup_reps", wfms::Json::Number(SetupReps(options)));
  context.Set("trace", wfms::Json::Bool(options.trace));
  out.Set("context", std::move(context));
  out.Set("details", std::move(report.details));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
