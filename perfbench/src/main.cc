// Repository benchmark program (pw_perfbench).
//
//   pw_perfbench --workload <stream-ieee30|locate-ieee30|build-ieee57>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Prints its checks and every metric with its unit, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when an output check fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "spans.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || !have_seed || options.seconds <= 0 ||
      (workload != "stream-ieee30" && workload != "locate-ieee30" &&
       workload != "build-ieee57")) {
    std::fprintf(stderr,
                 "usage: pw_perfbench --workload "
                 "<stream-ieee30|locate-ieee30|build-ieee57> --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }

  Report report;
  if (options.trace) {
    // Spans from set-up and the traced half, with ample headroom.
    Tracer::Get().Enable(size_t{1} << 18);
  }
  if (workload == "stream-ieee30") {
    CheckPlanDeterminism(StreamPlanDigest, options.seed, &report);
    RunStream(options, &report);
  } else if (workload == "locate-ieee30") {
    CheckPlanDeterminism(LocatePlanDigest, options.seed, &report);
    RunLocate(options, &report);
  } else {
    CheckPlanDeterminism(BuildPlanDigest, options.seed, &report);
    RunBuild(options, &report);
  }
  report.Print(options.trace ? PerLayerMetrics() : EndToEndMetrics());
  return report.correct() ? 0 : 1;
}
