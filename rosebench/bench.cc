#include "rosebench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "src/analyze/schedule_linter.h"
#include "src/analyze/trace_validator.h"
#include "src/causal/causal_graph.h"
#include "src/diagnose/extract.h"
#include "src/harness/runner.h"
#include "src/obs/metrics.h"

namespace rosebench {

using rose::DiagnosisEngine;

void Report::Fail(const std::string& why) {
  correct = false;
  details.push_back("GATE FAILED: " + why);
}

DiagnosisEngine::ScheduleRunner RunSeam::Wrap(DiagnosisEngine::ScheduleRunner inner,
                                              uint64_t id, int parent) {
  const std::thread::id caller = std::this_thread::get_id();
  return [this, inner = std::move(inner), id, parent,
          caller](const rose::ScheduleRunRequest& request) {
    RunRecord record;
    record.on_caller_thread = std::this_thread::get_id() == caller;
    record.start_ns = NowNs();
    rose::ScheduleRunOutcome outcome = inner(request);
    record.end_ns = NowNs();
    record.virtual_ns = outcome.virtual_duration;
    record.faults_scheduled =
        request.schedule != nullptr ? static_cast<int>(request.schedule->size()) : 0;
    for (const rose::FaultOutcome& fault : outcome.feedback.outcomes) {
      record.faults_injected += fault.injected ? 1 : 0;
    }
    if (spans_ != nullptr) {
      spans_->Add("harness.run", id, parent, record.start_ns, record.end_ns);
    }
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(record);
    return outcome;
  };
}

std::vector<RunRecord> RunSeam::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

size_t RunSeam::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void RunSeam::AddEngineTime(int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_ns_ += ns;
}

int64_t RunSeam::engine_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_ns_;
}

RegistryTally RegistryTally::Now() {
  RegistryTally tally;
  tally.engine_runs = CounterValue("engine.runs");
  tally.syscalls = CounterValue("tracer.syscalls_observed");
  tally.events = CounterValue("tracer.events_captured");
  tally.pool_job_ns = HistogramSum("parallel.job_ns");
  return tally;
}

RegistryTally& RegistryTally::operator+=(const RegistryTally& other) {
  engine_runs += other.engine_runs;
  syscalls += other.syscalls;
  events += other.events;
  pool_job_ns += other.pool_job_ns;
  return *this;
}

RegistryTally RegistryTally::operator-(const RegistryTally& other) const {
  return RegistryTally{engine_runs - other.engine_runs, syscalls - other.syscalls,
                       events - other.events, pool_job_ns - other.pool_job_ns};
}

rose::DiagnosisResult DiagnoseWithSeam(const rose::BugSpec& spec, const rose::Profile& profile,
                                       rose::TraceView production,
                                       const rose::RoseConfig& config, RunSeam* seam,
                                       SpanRecorder* spans, uint64_t id, int parent) {
  rose::BugRunner runner(&spec);
  rose::DiagnosisConfig diagnosis = config.diagnosis;
  if (diagnosis.server_nodes.empty()) {
    ScopedSpan deploy_span(spans, "harness.deploy", id, parent);
    rose::SimWorld world(config.seed);
    rose::Deployment deployment = spec.deploy(world, config.seed);
    diagnosis.server_nodes = deployment.servers;
  }
  diagnosis.base_seed = config.seed * 1000 + 40000;

  const int64_t start = NowNs();
  rose::DiagnosisResult result;
  {
    ScopedSpan engine_span(spans, "diagnose", id, parent);
    rose::DiagnosisEngine engine(production, &profile, spec.binary,
                                 seam->Wrap(rose::MakeScheduleRunner(&runner, &profile), id,
                                            engine_span.index()),
                                 diagnosis);
    result = engine.Run();
  }
  seam->AddEngineTime(NowNs() - start);
  return result;
}

uint64_t CounterValue(const std::string& name) {
  return rose::MetricRegistry::Global().GetCounter(name)->value();
}

uint64_t HistogramSum(const std::string& name) {
  return rose::MetricRegistry::Global().GetHistogram(name)->sum();
}

uint64_t HistogramCount(const std::string& name) {
  return rose::MetricRegistry::Global().GetHistogram(name)->count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

std::string TimingLine(const std::string& what, const Summary& summary) {
  char line[160];
  std::snprintf(line, sizeof(line), "%s: p50 %.4f ms, p%g %.4f ms over %zu samples",
                what.c_str(), summary.p50, summary.tail_percentile, summary.tail,
                summary.samples);
  return line;
}

double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metrics of the trace container measured on `traces`: mean dump
// size, and encode, parse and canonical blob hash times, each the median of
// three calls per trace, summed over the traces.
void ReportContainerLayers(const std::vector<const rose::Trace*>& traces, Report* report) {
  constexpr int kRepeats = 3;
  double bytes = 0;
  double encode_ms = 0;
  double parse_ms = 0;
  double hash_ms = 0;
  for (const rose::Trace* trace : traces) {
    std::vector<double> encode;
    std::vector<double> parse;
    std::vector<double> hash;
    for (int i = 0; i < kRepeats; i++) {
      int64_t t0 = NowNs();
      const std::string blob = trace->SerializeBinary();
      int64_t t1 = NowNs();
      const rose::Trace parsed = rose::Trace::ParseBinary(blob);
      int64_t t2 = NowNs();
      uint64_t blob_hash = 0;
      rose::CanonicalBlobHash(blob, &blob_hash);
      int64_t t3 = NowNs();
      encode.push_back(NsToMs(t1 - t0));
      parse.push_back(NsToMs(t2 - t1));
      hash.push_back(NsToMs(t3 - t2));
      bytes += i == 0 ? static_cast<double>(blob.size()) : 0;
    }
    encode_ms += Median(encode);
    parse_ms += Median(parse);
    hash_ms += Median(hash);
  }
  report->Set("trace.dump_bytes", Ratio(bytes, static_cast<double>(traces.size())), "bytes");
  report->Set("trace.encode_ms", encode_ms, "ms");
  report->Set("trace.parse_ms", parse_ms, "ms");
  report->Set("trace.blob_hash_ms", hash_ms, "ms");
}

}  // namespace

void ReportSeamLayers(const RunSeam& seam, Report* report) {
  const std::vector<RunRecord> records = seam.records();
  std::vector<double> run_ms;
  int64_t busy_ns = 0;
  int64_t virtual_ns = 0;
  int inline_calls = 0;
  int scheduled = 0;
  int injected = 0;
  for (const RunRecord& record : records) {
    run_ms.push_back(NsToMs(record.end_ns - record.start_ns));
    busy_ns += record.end_ns - record.start_ns;
    virtual_ns += record.virtual_ns;
    inline_calls += record.on_caller_thread ? 1 : 0;
    scheduled += record.faults_scheduled;
    injected += record.faults_injected;
  }
  const double calls = static_cast<double>(records.size());
  const Summary runs = Summarize(run_ms);
  report->Set("harness.run_ms_p50", runs.p50, "ms");
  report->Set("harness.run_ms_tail", runs.tail, "ms");
  report->Detail(TimingLine("harness.run_ms (per RunOnce)", runs));
  report->Set("harness.run_busy_s", NsToS(busy_ns), "s");
  report->Set("harness.host_us_per_virtual_ms",
              Ratio(static_cast<double>(busy_ns) / 1e3, NsToMs(virtual_ns)), "us/ms");
  report->Set("harness.host_ns_per_syscall",
              Ratio(static_cast<double>(busy_ns), static_cast<double>(seam.deltas.syscalls)),
              "ns");
  report->Set("os.syscalls_per_run", Ratio(static_cast<double>(seam.deltas.syscalls), calls),
              "count");
  report->Set("trace.events_per_run", Ratio(static_cast<double>(seam.deltas.events), calls),
              "count");
  report->Set("sim.virtual_s_per_run", Ratio(NsToS(virtual_ns), calls), "s");
  report->Set("exec.faults_injected_share", Ratio(injected, scheduled), "ratio");
  report->Set("diagnose.runs_executed", calls, "count");
  report->Set("diagnose.inline_run_share", Ratio(inline_calls, calls), "ratio");
}

void ReportAnalysisLayers(const std::vector<Captured>& captured, Report* report) {
  double extract_ms = 0;
  double graph_ms = 0;
  double lint_ms = 0;
  double validate_ms = 0;
  std::vector<const rose::Trace*> traces;
  for (const Captured& bug : captured) {
    int64_t t0 = NowNs();
    const rose::ExtractionResult extraction = rose::ExtractFaults(bug.production, bug.profile);
    int64_t t1 = NowNs();
    const rose::CausalGraph graph(bug.production);
    int64_t t2 = NowNs();
    rose::LintOptions lint_options;
    lint_options.binary = bug.spec->binary;
    const auto lint = rose::ScheduleLinter(lint_options).Lint(bug.result.schedule);
    int64_t t3 = NowNs();
    rose::TraceValidateOptions validate_options;
    validate_options.profile = &bug.profile;
    const auto validation = rose::TraceValidator(validate_options).Validate(bug.production);
    int64_t t4 = NowNs();
    extract_ms += NsToMs(t1 - t0);
    graph_ms += NsToMs(t2 - t1);
    lint_ms += NsToMs(t3 - t2);
    validate_ms += NsToMs(t4 - t3);
    traces.push_back(&bug.production);
  }
  report->Set("diagnose.extract_ms", extract_ms, "ms");
  report->Set("causal.graph_ms", graph_ms, "ms");
  report->Set("analyze.lint_ms", lint_ms, "ms");
  report->Set("analyze.validate_ms", validate_ms, "ms");
  ReportContainerLayers(traces, report);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"harness.profile_s", "s"},
      {"harness.production_s", "s"},
      {"harness.run_ms_p50", "ms"},
      {"harness.run_ms_tail", "ms"},
      {"harness.run_busy_s", "s"},
      {"harness.host_us_per_virtual_ms", "us/ms"},
      {"harness.host_ns_per_syscall", "ns"},
      {"os.syscalls_per_run", "count"},
      {"trace.events_per_run", "count"},
      {"sim.virtual_s_per_run", "s"},
      {"exec.faults_injected_share", "ratio"},
      {"diagnose.self_s", "s"},
      {"diagnose.runs_executed", "count"},
      {"diagnose.runs_reported", "count"},
      {"diagnose.run_yield", "ratio"},
      {"diagnose.inline_run_share", "ratio"},
      {"diagnose.schedules", "count"},
      {"diagnose.extract_ms", "ms"},
      {"common.pool_utilization", "ratio"},
      {"causal.graph_ms", "ms"},
      {"causal.pruned", "count"},
      {"analyze.lint_ms", "ms"},
      {"analyze.validate_ms", "ms"},
      {"trace.dump_bytes", "bytes"},
      {"trace.encode_ms", "ms"},
      {"trace.parse_ms", "ms"},
      {"trace.blob_hash_ms", "ms"},
      {"serve.poll_ms_tail", "ms"},
      {"serve.admit_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.job_ms", "ms"},
      {"serve.hit_ratio", "ratio"},
      {"serve.rejects_queue_full", "count"},
      {"serve.generator_lag_ms_tail", "ms"},
      {"obs.engine_runs_gap", "count"},
      {"obs.layer_sum_residual", "ratio"},
      {"obs.tracing_overhead_s", "s"},
  };
  return kMetrics;
}

}  // namespace rosebench
