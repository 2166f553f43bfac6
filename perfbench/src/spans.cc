#include "spans.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kGrid: return "grid";
    case Layer::kSim: return "sim";
    case Layer::kPowerflow: return "powerflow";
    case Layer::kEval: return "eval";
    case Layer::kDetect: return "detect";
    case Layer::kSession: return "session";
    case Layer::kFleet: return "fleet";
    case Layer::kObs: return "obs";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(size_t capacity) {
  spans_.clear();
  spans_.reserve(capacity);
  open_.clear();
  open_.reserve(64);
  dropped_ = 0;
  enabled_ = true;
}

int64_t Tracer::Begin(Layer layer, double start_us) {
  if (spans_.size() == spans_.capacity() || open_.size() == open_.capacity()) {
    ++dropped_;
    return -1;
  }
  const int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({layer, start_us, start_us, parent});
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int64_t index, double end_us) {
  spans_[static_cast<size_t>(index)].end_us = end_us;
  // Spans close in LIFO order (RAII scopes on one thread).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::array<Tracer::LayerTotals, static_cast<size_t>(Layer::kCount)>
Tracer::Totals() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> totals{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[static_cast<size_t>(spans_[i].layer)];
    t.self_ms += (spans_[i].end_us - spans_[i].start_us - child_us[i]) / 1000.0;
    ++t.spans;
  }
  return totals;
}

}  // namespace perfbench
