#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input plans. Each workload's inputs — frame schedule, sample
// mix, masks, fault schedules, double-outage pairs, build seeds — are a
// pure function of the workload seed (and of fixed shapes such as the
// grid's node count). Plans name data by "draws" (raw random integers
// reduced modulo the data actually built at set-up), so they can be
// generated and compared without building any data. The IEEE-30 model
// the stream and locate workloads query is a fixture trained from a
// fixed corpus (kFixtureDatasetSeed in fixtures.h): the seed draws the
// queries, so runs on different seeds exercise the same model. Training
// data varies by seed in the build workload.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/fault_injection.h"
#include "sim/missing_data.h"
#include "sim/pmu_network.h"

namespace perfbench {

namespace pw = ::phasorwatch;

// --- stream-ieee30 ------------------------------------------------------

struct StreamFrameSpec {
  bool outage = false;       ///< frame belongs to an outage episode
  uint32_t segment = 0;      ///< index of its normal stretch / episode
  uint32_t case_draw = 0;    ///< outage case (mod case count)
  uint32_t column_draw = 0;  ///< test-sample column (mod columns)
  pw::sim::MissingMask mask;
};

struct TenantPlan {
  std::vector<StreamFrameSpec> frames;  ///< cycled by frame number
  pw::sim::FaultSchedule faults;        ///< over frames.size() samples
  uint64_t fault_seed = 0;
};

struct StreamPlan {
  std::vector<TenantPlan> tenants;
};

pw::Result<StreamPlan> MakeStreamPlan(uint64_t seed, size_t tenants,
                                      size_t frames_per_tenant,
                                      const pw::sim::PmuNetwork& network);

// --- locate-ieee30 ------------------------------------------------------

enum class SampleKind : uint8_t { kNormal, kOutage, kMissing, kMulti };
inline constexpr size_t kNumKinds = 4;
const char* KindName(SampleKind kind);

struct LocateSpec {
  SampleKind kind = SampleKind::kNormal;
  uint32_t draw = 0;         ///< outage case or double pair (mod count)
  uint32_t column_draw = 0;  ///< sample column (mod columns)
  /// kMissing: extra dark nodes beyond the outaged line's endpoints
  /// (endpoints themselves are skipped), so masks keep being new.
  std::vector<uint32_t> extra_missing;
};

struct LocatePlan {
  uint64_t doubles_seed = 0;
  /// Candidate double-outage pairs as case draws; set-up keeps the
  /// first ones that neither island the grid nor fail power flow.
  std::vector<std::pair<uint32_t, uint32_t>> pair_draws;
  std::vector<LocateSpec> warmup;
  std::vector<LocateSpec> samples;  ///< cycled by call number
};

LocatePlan MakeLocatePlan(uint64_t seed, size_t num_nodes, size_t samples);

// --- build-ieee57 -------------------------------------------------------

struct HeldOutSpec {
  uint32_t case_draw = 0;
  uint32_t column_draw = 0;
};

struct BuildSpec {
  uint64_t dataset_seed = 0;
  uint64_t normal_seed = 0;  ///< held-out normal data (SimulateMeasurements)
  std::vector<HeldOutSpec> outage_samples;
  std::vector<uint32_t> powerflow_line_draws;  ///< direct line-out solves
};

struct BuildPlan {
  uint64_t warmup_seed = 0;
  std::vector<BuildSpec> builds;  ///< cycled by build number
};

BuildPlan MakeBuildPlan(uint64_t seed, size_t builds,
                        size_t outage_samples_per_build);

// --- self-test ------------------------------------------------------------

/// FNV-1a digests of every field of a plan.
uint64_t Digest(const StreamPlan& plan);
uint64_t Digest(const LocatePlan& plan);
uint64_t Digest(const BuildPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
