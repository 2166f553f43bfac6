#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <time.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The repository modules a benchmark span can be attributed to, plus
/// the benchmark's own glue (kBench).
enum class Layer : int {
  kBench = 0,
  kGrid,
  kSim,
  kPowerflow,
  kEval,
  kDetect,
  kSession,
  kFleet,
  kObs,
  kCount,
};
const char* LayerName(Layer layer);

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time, in seconds, consumed so far by the calling thread
/// (CLOCK_THREAD_CPUTIME_ID) or by every thread of the process, ended
/// ones included (CLOCK_PROCESS_CPUTIME_ID). The bounded timings use
/// CPU time: on a shared host, wall time also counts the time other
/// tenants hold the cores, which changes from hour to hour.
inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double ThreadCpuS() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
inline double ProcessCpuS() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// In-memory span recorder for the traced run. Spans are recorded by
/// the benchmark's own code around each call into a layer's public
/// functions, on the benchmark's calling thread only; storage is
/// reserved up front so recording never allocates while timing.
class Tracer {
 public:
  static Tracer& Get();

  /// Starts recording into a buffer of `capacity` spans (cleared).
  void Enable(size_t capacity);
  /// Pauses recording (the untraced half of a traced run) and resumes
  /// it, keeping what was recorded.
  void Disable() { enabled_ = false; }
  void Resume() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when not recording (or the
  /// buffer is full, which is counted in dropped()).
  int64_t Begin(Layer layer, double start_us);
  void End(int64_t index, double end_us);

  struct LayerTotals {
    double self_ms = 0.0;  ///< span time minus time covered by child spans
    uint64_t spans = 0;
  };
  /// Self time and span count per layer over everything recorded.
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> Totals() const;
  uint64_t dropped() const { return dropped_; }
  size_t recorded() const { return spans_.size(); }

 private:
  struct SpanRecord {
    Layer layer;
    double start_us;
    double end_us;
    int64_t parent;
  };
  bool enabled_ = false;
  uint64_t dropped_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

/// Times one call into a layer. Always measures (the untraced run needs
/// the same timings for its end-to-end metrics); records a span only
/// while the tracer is enabled.
class Span {
 public:
  explicit Span(Layer layer)
      : start_us_(NowUs()),
        index_(Tracer::Get().enabled() ? Tracer::Get().Begin(layer, start_us_)
                                       : -1) {}
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in us.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      elapsed_us_ = NowUs() - start_us_;
      if (index_ >= 0) Tracer::Get().End(index_, start_us_ + elapsed_us_);
    }
    return elapsed_us_;
  }

 private:
  double start_us_;
  int64_t index_;
  bool stopped_ = false;
  double elapsed_us_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
