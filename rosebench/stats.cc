#include "rosebench/stats.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <thread>

#include "src/common/rng.h"

namespace rosebench {

double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
  return n - std::min(rank, n);
}

Summary Summarize(std::vector<double> samples) {
  Summary out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  out.p50 = NearestRank(samples, 50);
  out.tail = out.p50;
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (SamplesBeyond(samples.size(), q) >= 10) {
      out.tail = NearestRank(samples, q);
      out.tail_percentile = q;
      break;
    }
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<double> ArrivalSchedule(uint64_t seed, double rate_per_s, double seconds) {
  std::vector<double> due;
  rose::Rng rng(seed);
  const double mean_gap = 1.0 / rate_per_s;
  double t = mean_gap * rng.NextDouble();
  while (t < seconds) {
    due.push_back(t);
    t += mean_gap * (0.5 + rng.NextDouble());
  }
  return due;
}

RequestClass ClassifyAccept(rose::AcceptKind kind) {
  return kind == rose::AcceptKind::kCacheHit ? RequestClass::kHit : RequestClass::kMiss;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t child : children[i]) {
      const int64_t start = std::max(spans[child].start_ns, span.start_ns);
      const int64_t end = std::min(spans[child].end_ns, span.end_ns);
      if (end > start) {
        covered.emplace_back(start, end);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t reach = span.start_ns;
    for (const auto& [start, end] : covered) {
      const int64_t from = std::max(start, reach);
      if (end > from) {
        union_ns += end - from;
        reach = end;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans, int root) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); i++) {
    int top = static_cast<int>(i);
    while (root >= 0 && top != root && spans[static_cast<size_t>(top)].parent >= 0) {
      top = spans[static_cast<size_t>(top)].parent;
    }
    if (root < 0 || top == root) {
      out[spans[i].name] += self[i];
    }
  }
  return out;
}

int SpanRecorder::Begin(const std::string& name, uint64_t id, int parent) {
  const int64_t now = NowNs();
  return Add(name, id, parent, now, now);
}

void SpanRecorder::End(int index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int SpanRecorder::Add(const std::string& name, uint64_t id, int parent, int64_t start_ns,
                      int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans()) {
    out << "{\"name\": \"" << span.name << "\", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

double ReferenceBlockMs() {
  const int64_t start = NowNs();
  std::map<std::string, std::string> table;
  for (int i = 0; i < 750; i++) {
    table["field" + std::to_string((i * 7919) % 750)] = std::to_string(i);
  }
  size_t bytes = 0;
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 750; i++) {
      bytes += table.find("field" + std::to_string(i))->second.size();
    }
  }
  std::vector<std::unique_ptr<std::vector<int>>> cells;
  for (int i = 0; i < 5000; i++) {
    cells.push_back(std::make_unique<std::vector<int>>(i % 17 + 1, static_cast<int>(bytes)));
  }
  // Keep the work observable so that it cannot be optimized away.
  static std::atomic<size_t> sink{0};
  sink += bytes + cells.back()->size();
  return static_cast<double>(NowNs() - start) / 1e6;
}

double ReferenceBlockMs(int cores) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && static_cast<int>(cpus.size()) < cores; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  if (cpus.size() <= 1) {
    return ReferenceBlockMs();
  }
  std::vector<double> ms(cpus.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cpus.size(); i++) {
    threads.emplace_back([&cpus, &ms, i] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      sched_setaffinity(0, sizeof(one), &one);
      ms[i] = ReferenceBlockMs();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return *std::max_element(ms.begin(), ms.end());
}

double SpeedFactor(std::vector<double> block_ms, double reference_ms) {
  const double median = Median(std::move(block_ms));
  return median > 0 ? reference_ms / median : 1;
}

double LocalSpeedFactor(const std::vector<double>& block_ms, size_t center, size_t radius,
                        double reference_ms) {
  if (block_ms.empty()) {
    return 1;
  }
  center = std::min(center, block_ms.size() - 1);
  const size_t from = center > radius ? center - radius : 0;
  const size_t to = std::min(block_ms.size(), center + radius + 1);
  return SpeedFactor(std::vector<double>(block_ms.begin() + static_cast<long>(from),
                                         block_ms.begin() + static_cast<long>(to)),
                     reference_ms);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace rosebench
