#include "inputs.h"

#include <cstring>

#include "common/rng.h"
#include "eval/experiments.h"

namespace perfbench {

using pw::Rng;

namespace {

// Independent seed streams of one workload seed.
enum Stream : uint64_t {
  kTenantStream = 2,
  kSampleStream = 3,
  kPairStream = 4,
  kDoublesStream = 5,
  kWarmupStream = 6,
  kBuildStream = 7,
};

uint32_t Draw(Rng& rng) { return static_cast<uint32_t>(rng.NextU64() >> 32); }

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& value) {
    Bytes(&value, sizeof(value));
  }
  void Mask(const pw::sim::MissingMask& mask) {
    Pod(mask.missing.size());
    for (bool b : mask.missing) Pod(static_cast<uint8_t>(b));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

const char* KindName(SampleKind kind) {
  switch (kind) {
    case SampleKind::kNormal: return "normal";
    case SampleKind::kOutage: return "outage";
    case SampleKind::kMissing: return "missing";
    case SampleKind::kMulti: return "multi";
  }
  return "?";
}

pw::Result<StreamPlan> MakeStreamPlan(uint64_t seed, size_t tenants,
                                      size_t frames_per_tenant,
                                      const pw::sim::PmuNetwork& network) {
  StreamPlan plan;
  // Masks from the library's reliability model at its defaults, the
  // paper's r_PMU and r_link.
  const pw::sim::PmuReliability reliability;
  // Faults per plan cycle: the library's own "kitchen_sink" chaos regime
  // (eval::DefaultChaosRegimes), every fault type at once.
  pw::sim::FaultScheduleOptions faults;
  for (const pw::eval::ChaosRegime& regime : pw::eval::DefaultChaosRegimes()) {
    if (regime.name == "kitchen_sink") faults = regime.faults;
  }
  plan.tenants.resize(tenants);
  for (size_t k = 0; k < tenants; ++k) {
    Rng rng = Rng::Fork(Rng::Fork(seed, kTenantStream).NextU64(), k);
    TenantPlan& tenant = plan.tenants[k];
    tenant.frames.resize(frames_per_tenant);
    // Alternating segments: a normal stretch of 40-100 frames (the
    // first one shorter, so tenants do not start in phase), then an
    // outage episode of 6-10 frames — about 10% outage frames.
    size_t t = 0;
    uint32_t segment = 0;
    bool outage = false;
    while (t < frames_per_tenant) {
      const size_t length =
          outage ? 6 + rng.UniformInt(5)
                 : (segment == 0 ? 10 + rng.UniformInt(50)
                                 : 40 + rng.UniformInt(61));
      const uint32_t case_draw = Draw(rng);
      for (size_t i = 0; i < length && t < frames_per_tenant; ++i, ++t) {
        StreamFrameSpec& frame = tenant.frames[t];
        frame.outage = outage;
        frame.segment = segment;
        frame.case_draw = case_draw;
        frame.column_draw = Draw(rng);
        frame.mask = pw::sim::MissingFromReliability(network, reliability, rng);
      }
      outage = !outage;
      ++segment;
    }
    tenant.fault_seed = rng.NextU64();
    PW_ASSIGN_OR_RETURN(
        tenant.faults,
        pw::sim::MakeRandomFaultSchedule(faults, network.num_nodes(),
                                         frames_per_tenant, rng.NextU64()));
  }
  return plan;
}

namespace {

void DrawLocateSpecs(Rng& rng, size_t num_nodes, size_t count,
                     std::vector<LocateSpec>* out) {
  out->resize(count);
  for (LocateSpec& spec : *out) {
    // Mix: 15% normal, 35% single outage, 20% single outage with its
    // endpoints dark, 30% double outage. The cheap paths (normal,
    // missing) stay well below half of the calls, so the median call
    // sits inside the outage-path cluster instead of on the gap between
    // the two cost clusters, where it would flip with small changes.
    const uint64_t u = rng.UniformInt(100);
    spec.kind = u < 15   ? SampleKind::kNormal
                : u < 50 ? SampleKind::kOutage
                : u < 70 ? SampleKind::kMissing
                         : SampleKind::kMulti;
    spec.draw = Draw(rng);
    spec.column_draw = Draw(rng);
    if (spec.kind == SampleKind::kMissing) {
      const size_t extra = 1 + rng.UniformInt(2);
      for (size_t i = 0; i < extra; ++i) {
        spec.extra_missing.push_back(
            static_cast<uint32_t>(rng.UniformInt(num_nodes)));
      }
    }
  }
}

}  // namespace

LocatePlan MakeLocatePlan(uint64_t seed, size_t num_nodes, size_t samples) {
  LocatePlan plan;
  plan.doubles_seed = Rng::Fork(seed, kDoublesStream).NextU64();
  Rng pairs = Rng::Fork(seed, kPairStream);
  plan.pair_draws.resize(192);
  for (auto& pair : plan.pair_draws) pair = {Draw(pairs), Draw(pairs)};
  Rng warmup = Rng::Fork(seed, kWarmupStream);
  DrawLocateSpecs(warmup, num_nodes, 256, &plan.warmup);
  Rng rng = Rng::Fork(seed, kSampleStream);
  DrawLocateSpecs(rng, num_nodes, samples, &plan.samples);
  return plan;
}

BuildPlan MakeBuildPlan(uint64_t seed, size_t builds,
                        size_t outage_samples_per_build) {
  BuildPlan plan;
  plan.warmup_seed = Rng::Fork(seed, kWarmupStream).NextU64();
  plan.builds.resize(builds);
  for (size_t b = 0; b < builds; ++b) {
    Rng rng = Rng::Fork(Rng::Fork(seed, kBuildStream).NextU64(), b);
    BuildSpec& build = plan.builds[b];
    build.dataset_seed = rng.NextU64();
    build.normal_seed = rng.NextU64();
    build.outage_samples.resize(outage_samples_per_build);
    for (HeldOutSpec& s : build.outage_samples) {
      s.case_draw = Draw(rng);
      s.column_draw = Draw(rng);
    }
    build.powerflow_line_draws.resize(4);
    for (uint32_t& line : build.powerflow_line_draws) line = Draw(rng);
  }
  return plan;
}

uint64_t Digest(const StreamPlan& plan) {
  Fnv h;
  for (const TenantPlan& tenant : plan.tenants) {
    for (const StreamFrameSpec& f : tenant.frames) {
      h.Pod(f.outage);
      h.Pod(f.segment);
      h.Pod(f.case_draw);
      h.Pod(f.column_draw);
      h.Mask(f.mask);
    }
    h.Pod(tenant.fault_seed);
    for (const pw::sim::FaultEvent& e : tenant.faults.events) {
      h.Pod(e.type);
      h.Pod(e.node);
      h.Pod(e.start);
      h.Pod(e.end);
      h.Pod(e.magnitude);
    }
  }
  return h.value();
}

uint64_t Digest(const LocatePlan& plan) {
  Fnv h;
  h.Pod(plan.doubles_seed);
  for (const auto& pair : plan.pair_draws) {
    h.Pod(pair.first);
    h.Pod(pair.second);
  }
  for (const auto* specs : {&plan.warmup, &plan.samples}) {
    for (const LocateSpec& s : *specs) {
      h.Pod(s.kind);
      h.Pod(s.draw);
      h.Pod(s.column_draw);
      for (uint32_t node : s.extra_missing) h.Pod(node);
    }
  }
  return h.value();
}

uint64_t Digest(const BuildPlan& plan) {
  Fnv h;
  h.Pod(plan.warmup_seed);
  for (const BuildSpec& b : plan.builds) {
    h.Pod(b.dataset_seed);
    h.Pod(b.normal_seed);
    for (const HeldOutSpec& s : b.outage_samples) {
      h.Pod(s.case_draw);
      h.Pod(s.column_draw);
    }
    for (uint32_t line : b.powerflow_line_draws) h.Pod(line);
  }
  return h.value();
}

}  // namespace perfbench
