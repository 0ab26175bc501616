// Shared pieces of the Rose benchmark's workloads: the run report,
// the ScheduleRunner seam, the diagnosis pipeline rebuilt from public entry
// points, and registry deltas.
#ifndef ROSEBENCH_BENCH_H_
#define ROSEBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rosebench/stats.h"
#include "src/diagnose/engine.h"
#include "src/harness/rose.h"

namespace rosebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for the span file of a traced run.
  std::string out_dir = ".";
};

// What one benchmark run prints: metrics by name with their unit, the
// correctness verdict, and free-form detail lines printed before the result.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> details;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Records a correctness-gate failure.
  void Fail(const std::string& why);
  void Detail(const std::string& line) { details.push_back(line); }
};

// A span open for the lifetime of the object; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, const std::string& name, uint64_t id, int parent)
      : spans_(spans), index_(spans != nullptr ? spans->Begin(name, id, parent) : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) {
      spans_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* spans_;
  int index_;
};

// One call through the ScheduleRunner seam.
struct RunRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t virtual_ns = 0;
  int faults_scheduled = 0;
  int faults_injected = 0;
  bool on_caller_thread = false;
};

// Registry counters the per-layer metrics divide by the seam's run count.
// Run counts themselves come from the seam, never from the registry.
struct RegistryTally {
  uint64_t engine_runs = 0;
  uint64_t syscalls = 0;
  uint64_t events = 0;
  uint64_t pool_job_ns = 0;

  static RegistryTally Now();
  RegistryTally& operator+=(const RegistryTally& other);
  RegistryTally operator-(const RegistryTally& other) const;
};

// Counts and times every run the engine asks for. Safe to call from the
// engine's worker threads and from several engines at once.
class RunSeam {
 public:
  // `spans` may be null: the seam then only counts.
  explicit RunSeam(SpanRecorder* spans) : spans_(spans) {}

  // Wraps `inner`; run spans get `id` and the parent span `parent`.
  rose::DiagnosisEngine::ScheduleRunner Wrap(rose::DiagnosisEngine::ScheduleRunner inner,
                                             uint64_t id, int parent);

  std::vector<RunRecord> records() const;
  size_t calls() const;

  // Wall time of the engines (construction + Run), summed.
  void AddEngineTime(int64_t ns);
  int64_t engine_ns() const;

  // Registry deltas over the regions the caller measured; only the
  // registry's activity inside those regions may be added.
  RegistryTally deltas;

 private:
  SpanRecorder* spans_;
  mutable std::mutex mu_;
  std::vector<RunRecord> records_;
  int64_t engine_ns_ = 0;
};

// DiagnoseTrace rebuilt from public entry points, so that the seam can wrap
// the engine's runner: the same server-node discovery, base seed and runner.
rose::DiagnosisResult DiagnoseWithSeam(const rose::BugSpec& spec, const rose::Profile& profile,
                                       rose::TraceView production,
                                       const rose::RoseConfig& config, RunSeam* seam,
                                       SpanRecorder* spans, uint64_t id, int parent);

// Current value of a registry counter, or a histogram's running sum.
uint64_t CounterValue(const std::string& name);
uint64_t HistogramSum(const std::string& name);
uint64_t HistogramCount(const std::string& name);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// "<what>: p50 <ms> ms, p<q> <ms> ms over <n> samples", for detail lines.
std::string TimingLine(const std::string& what, const Summary& summary);

double NsToS(int64_t ns);
double NsToMs(int64_t ns);

// Per-layer metrics shared by every workload, derived from the seam.
void ReportSeamLayers(const RunSeam& seam, Report* report);

// A bug's captured inputs and its diagnosis, kept for the side measurements.
struct Captured {
  const rose::BugSpec* spec = nullptr;
  rose::Profile profile;
  rose::Trace production;
  rose::DiagnosisResult result;
};

// Costs of the analysis layers the engine calls internally (extraction,
// causal graph, schedule lint, trace validation) and of the trace container,
// measured by calling the same public functions on the same inputs, summed
// over `captured`.
void ReportAnalysisLayers(const std::vector<Captured>& captured, Report* report);

// The workloads.
Report RunCatalogue(const Args& args, int parallelism);
// catalogue-p4's parallelism: min(4, nproc).
int WideParallelism();
Report RunServe(const Args& args);

// Per-layer metric names every traced run prints (0 where a layer does not
// take part in the workload).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace rosebench

#endif  // ROSEBENCH_BENCH_H_
