// The benchmark workloads. Each runs in its own process, builds its
// inputs from the seed, measures for the requested time, checks its
// outputs against an oracle outside the timed region, and fills a Report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

Report RunCorpusDag(const Options& options, Tracer& tracer);
Report RunConfigSearch(const Options& options, Tracer& tracer);
Report RunAvailLarge(const Options& options, Tracer& tracer);
Report RunServiceMix(const Options& options, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
