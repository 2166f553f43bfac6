#ifndef PHASORWATCH_DETECT_STREAM_H_
#define PHASORWATCH_DETECT_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "detect/detector.h"
#include "detect/session.h"
#include "sim/fault_injection.h"

namespace phasorwatch::detect {

/// Stateful wrapper turning the per-sample OutageDetector into an
/// operator-facing alarm stream: debounces the alarm flag and
/// stabilizes the candidate line set by majority vote across recent
/// samples. This is the single-grid, caller-threaded entry point; the
/// implementation lives in TenantSession (detect/session.h), of which
/// this monitor owns exactly one — multi-grid deployments run many
/// sessions behind the fleet engine (detect/fleet.h) instead.
///
/// Thread-safety contract (single producer, many observers): Process()
/// and Reset() mutate debouncing state and must be externally
/// serialized — one ingest thread, as in a PDC feed. The cheap
/// observers alarm_active() and samples_processed() are atomic and may
/// be polled concurrently from other threads (an operator UI, a
/// metrics scraper) without locking. Everything else (StreamEvent
/// results, Reset) belongs to the producer thread.
/// tests/stream_concurrency_test.cc pins this contract down under
/// ThreadSanitizer.
class StreamingMonitor {
 public:
  /// The detector must outlive the monitor (the monitor's session holds
  /// a non-owning reference; null crashes the session constructor's
  /// contract check, as before).
  StreamingMonitor(OutageDetector* detector, const StreamOptions& options)
      // Aliasing shared_ptr with no control block: the monitor never
      // owned its detector and still does not.
      : session_(std::shared_ptr<OutageDetector>(
                     std::shared_ptr<OutageDetector>(), detector),
                 options) {}

  /// Feeds one sample; returns the debounced event.
  PW_NODISCARD Result<StreamEvent> Process(const linalg::Vector& vm,
                                           const linalg::Vector& va,
                                           const sim::MissingMask& mask) {
    return session_.Process(vm, va, mask);
  }

  /// Complete-sample convenience.
  PW_NODISCARD Result<StreamEvent> Process(const linalg::Vector& vm,
                                           const linalg::Vector& va) {
    return session_.Process(vm, va);
  }

  /// Feeds one transport-level frame (sim/fault_injection.h); see
  /// TenantSession::ProcessFrame. Producer-thread only.
  PW_NODISCARD Result<StreamEvent> ProcessFrame(
      const sim::MeasurementFrame& frame) {
    return session_.ProcessFrame(frame);
  }

  /// Safe to poll from any thread while the producer runs.
  bool alarm_active() const { return session_.alarm_active(); }
  /// Samples ingested since construction or the last Reset(), rejected
  /// ones included (each consumes one sample index). Safe to poll from
  /// any thread while the producer runs.
  uint64_t samples_processed() const { return session_.samples_processed(); }
  /// Drops all debouncing/voting state (e.g. after operator ack).
  /// Producer-thread only.
  void Reset() { session_.Reset(); }

  /// The underlying session, for callers migrating to the fleet API.
  TenantSession& session() { return session_; }

 private:
  TenantSession session_;
};

}  // namespace phasorwatch::detect

#endif  // PHASORWATCH_DETECT_STREAM_H_
