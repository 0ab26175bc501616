// Arithmetic of the Rose benchmark: percentiles, the open-loop arrival
// schedule, span self times and request classification. Kept apart from the
// workload code so stats_test.cc can check it without running Rose.
#ifndef ROSEBENCH_STATS_H_
#define ROSEBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/protocol.h"

namespace rosebench {

// A timing distribution: its median and the highest percentile of a fixed
// ladder (99.9, 99, 95, 90, 75) that leaves at least ten samples beyond it.
// When no rung does (fewer than 20 samples), the tail is the median.
struct Summary {
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 50;
  size_t samples = 0;
};

// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
// 1-based rank ceil(q/100 * n).
double NearestRank(const std::vector<double>& sorted, double q);

// Samples strictly above the nearest-rank position of percentile `q`.
size_t SamplesBeyond(size_t n, double q);

Summary Summarize(std::vector<double> samples);

double Median(std::vector<double> values);

// Open-loop arrivals at `rate_per_s` for `seconds`: gaps are uniform in
// [0.5, 1.5) of the mean gap, drawn from `seed`. Returns due times in
// seconds from the start, ascending. The same seed gives the same schedule.
std::vector<double> ArrivalSchedule(uint64_t seed, double rate_per_s, double seconds);

// How the service answered one submission.
enum class RequestClass { kMiss, kHit };

// A cache hit is answered without a diagnosis; a queued or coalesced
// submission waits for one, so both count as misses.
RequestClass ClassifyAccept(rose::AcceptKind kind);

// One timed interval. `parent` indexes the span that caused it (-1 for a
// root); spans of one bug or one request share `id`.
struct Span {
  std::string name;
  uint64_t id = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of its interval that
// the union of its children's intervals covers. Children running
// concurrently on several threads are therefore not subtracted twice.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Sum of self times per span name, over the subtree of span `root`, or over
// every span when `root` is -1.
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans, int root = -1);

// Spans kept in memory, recorded from any thread.
class SpanRecorder {
 public:
  // Opens a span now and returns its index.
  int Begin(const std::string& name, uint64_t id, int parent);
  void End(int index);
  // Records an interval measured elsewhere.
  int Add(const std::string& name, uint64_t id, int parent, int64_t start_ns, int64_t end_ns);
  std::vector<Span> spans() const;
  // Writes the spans as JSON lines to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Host-speed reference. Wall times on a shared host drift by 10-25% over
// tens of seconds as neighbours load the cores, and the drift hits
// allocation- and map-heavy code, Rose's own profile, hardest. The benchmark
// therefore interleaves a fixed block of such work with the measured work
// and scales every end-to-end time by how fast the block ran:
//   reported = measured * SpeedFactor(block times)
// A change to Rose does not change the block, so it moves the reported
// times as much as the measured ones; host drift moves both and cancels.

// Runs one reference block (string-keyed map inserts and lookups and small
// allocations on fixed inputs) and returns its wall time in milliseconds.
double ReferenceBlockMs();

// Runs one block on each of the first `cores` allowed cores at once and
// returns the slowest block's time: a parallel batch of runs finishes with
// its slowest core, so that core's speed is the one to scale by.
double ReferenceBlockMs(int cores);


// The block's median time on the reference host (4-core x86-64 VM).
inline constexpr double kReferenceBlockMs = 1.5;

// reference_ms / median(block_ms), or 1 with no samples.
double SpeedFactor(std::vector<double> block_ms, double reference_ms = kReferenceBlockMs);

// The speed factor at one point of a sequence of blocks: SpeedFactor over
// blocks[center - radius .. center + radius], clipped to the sequence. The
// drift changes within seconds, so each measured piece of work is scaled by
// the blocks run around it.
double LocalSpeedFactor(const std::vector<double>& block_ms, size_t center, size_t radius,
                        double reference_ms = kReferenceBlockMs);

// Monotonic nanoseconds since an arbitrary origin.
int64_t NowNs();

}  // namespace rosebench

#endif  // ROSEBENCH_STATS_H_
