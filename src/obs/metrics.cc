#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace rose {

int Histogram::BucketIndex(uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  const int octave = 63 - std::countl_zero(v);  // >= kSubBits here
  const int sub = static_cast<int>((v >> (octave - kSubBits)) & (kSub - 1));
  return kSub + (octave - kSubBits) * kSub + sub;
}

uint64_t Histogram::BucketLower(int index) {
  if (index < kSub) return static_cast<uint64_t>(index);
  const int octave = kSubBits + (index - kSub) / kSub;
  const int sub = (index - kSub) % kSub;
  return (uint64_t{1} << octave) +
         static_cast<uint64_t>(sub) * (uint64_t{1} << (octave - kSubBits));
}

uint64_t Histogram::BucketWidth(int index) {
  if (index < kSub) return 1;
  const int octave = kSubBits + (index - kSub) / kSub;
  return uint64_t{1} << (octave - kSubBits);
}

namespace {
uint64_t BucketMid(int index) {
  return Histogram::BucketLower(index) + Histogram::BucketWidth(index) / 2;
}
}  // namespace

uint64_t Histogram::Quantile(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th value, 1-based; q=0 maps to the first recording.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.5));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) return BucketMid(i);
  }
  return BucketMid(kBuckets - 1);
}

void Histogram::Reset() {
  for (int i = 0; i < kBuckets; ++i) buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

uint64_t Histogram::ApproxMax() const {
  for (int i = kBuckets - 1; i >= 0; --i) {
    if (buckets_[i].load(std::memory_order_relaxed) != 0) return BucketMid(i);
  }
  return 0;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.p50 = h->Quantile(0.50);
    hs.p90 = h->Quantile(0.90);
    hs.p99 = h->Quantile(0.99);
    hs.max = h->ApproxMax();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;  // std::map iteration => already name-sorted
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

std::string MetricsSnapshot::ToYaml() const {
  std::ostringstream out;
  out << "# rose-obs v1\n";
  if (counters.empty()) {
    out << "counters: {}\n";
  } else {
    out << "counters:\n";
    for (const auto& [name, v] : counters) out << "  " << name << ": " << v << "\n";
  }
  if (gauges.empty()) {
    out << "gauges: {}\n";
  } else {
    out << "gauges:\n";
    for (const auto& [name, v] : gauges) out << "  " << name << ": " << v << "\n";
  }
  if (histograms.empty()) {
    out << "histograms: {}\n";
  } else {
    out << "histograms:\n";
    for (const auto& h : histograms) {
      out << "  " << h.name << ": {count: " << h.count << ", sum: " << h.sum
          << ", p50: " << h.p50 << ", p90: " << h.p90 << ", p99: " << h.p99
          << ", max: " << h.max << "}\n";
    }
  }
  return out.str();
}

}  // namespace rose
