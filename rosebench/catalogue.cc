// The catalogue workloads: every Table-1 bug from a fresh profile to a
// confirmed schedule, at parallelism 1 (catalogue-p1) or min(4, nproc)
// (catalogue-p4).
//
// Untraced runs time ReproduceBugRobust, the path `reproduce_bug all` takes.
// Traced runs rebuild that path from BugRunner and DiagnoseWithSeam so that
// spans sit around profiling, production, the engine and every run.
#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "rosebench/bench.h"
#include "src/analyze/schedule_linter.h"
#include "src/common/rng.h"
#include "src/harness/bug_registry.h"
#include "src/harness/runner.h"

namespace rosebench {
namespace {

// The catalogue runs at the seed of the paper's Table 1 (`reproduce_bug all`'s
// default). Across catalogue seeds the amount of search differs several-fold,
// which would drown any change in speed, so the benchmark seed only orders
// the bugs.
constexpr uint64_t kCatalogueSeed = 42;
// ReproduceBugRobust's default number of attempts.
constexpr int kTries = 3;
constexpr int kSetupRepeats = 15;
// Each bug's time is scaled by the host-speed blocks run before the bug and
// before its neighbours, kBlockRadius to each side.
constexpr size_t kBlockRadius = 2;

struct BugOutcome {
  std::string id;
  bool reproduced = false;
  int level = 0;
  int total_runs = 0;
  uint64_t schedule_hash = 0;
  double ms = 0;
  // Index of the host-speed block run just before this bug (untraced
  // passes only).
  size_t block = 0;
};

struct Pass {
  std::vector<BugOutcome> bugs;
  double wall_s = 0;
};

BugOutcome Outcome(const std::string& id, const rose::DiagnosisResult& result, double ms) {
  return BugOutcome{id, result.reproduced, result.level, result.total_runs,
                    rose::CanonicalHash(result.schedule), ms};
}

rose::RoseConfig ConfigFor(uint64_t seed, int parallelism) {
  rose::RoseConfig config;
  config.seed = seed;
  config.diagnosis.parallelism = parallelism;
  return config;
}

std::vector<const rose::BugSpec*> BugOrder(uint64_t seed) {
  std::vector<const rose::BugSpec*> order = rose::AllBugs();
  rose::Rng rng(seed);
  for (size_t i = order.size(); i > 1; i--) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

// One pass through the public entry point. With `blocks`, host-speed
// reference blocks run before each bug, on as many cores as the diagnosis
// uses; the pass wall time counts the bugs only.
Pass PublicPass(const std::vector<const rose::BugSpec*>& order, int parallelism,
                std::vector<double>* blocks) {
  Pass pass;
  for (const rose::BugSpec* spec : order) {
    if (blocks != nullptr) {
      blocks->push_back(ReferenceBlockMs(parallelism));
    }
    const int64_t t0 = NowNs();
    const rose::RoseReport report =
        rose::ReproduceBugRobust(*spec, ConfigFor(kCatalogueSeed, parallelism), kTries);
    pass.bugs.push_back(Outcome(spec->id, report.diagnosis, NsToMs(NowNs() - t0)));
    pass.bugs.back().block = blocks != nullptr ? blocks->size() - 1 : 0;
    pass.wall_s += pass.bugs.back().ms / 1e3;
  }
  return pass;
}

// Totals over every engine a seam pass ran, failed attempts included.
struct EngineTotals {
  int runs_reported = 0;
  int schedules = 0;
  int causal_pruned = 0;
};

// One pass through ReproduceBugRobust rebuilt from public pieces, with every
// run counted at the seam. At parallelism 1 each engine must ask for exactly
// the runs it reports.
Pass SeamPass(const std::vector<const rose::BugSpec*>& order, int parallelism, RunSeam* seam,
              SpanRecorder* spans, int root, EngineTotals* totals,
              std::vector<Captured>* captured, Report* report) {
  Pass pass;
  const int64_t start = NowNs();
  for (size_t b = 0; b < order.size(); b++) {
    const rose::BugSpec* spec = order[b];
    const int64_t t0 = NowNs();
    ScopedSpan bug_span(spans, "bug", b, root);
    rose::BugRunner runner(spec);
    Captured last;
    for (int attempt = 0; attempt < kTries; attempt++) {
      const rose::RoseConfig config =
          ConfigFor(kCatalogueSeed + static_cast<uint64_t>(attempt) * 101, parallelism);
      rose::Profile profile;
      {
        ScopedSpan span(spans, "harness.profile", b, bug_span.index());
        profile = runner.RunProfiling(config.seed);
      }
      std::optional<rose::Trace> production;
      {
        ScopedSpan span(spans, "harness.production", b, bug_span.index());
        production = runner.ObtainProductionTrace(profile, config.seed + 17);
      }
      if (!production.has_value()) {
        last.result = rose::DiagnosisResult{};
        continue;
      }
      const size_t calls_before = seam->calls();
      const RegistryTally before = RegistryTally::Now();
      last.result = DiagnoseWithSeam(*spec, profile, *production, config, seam, spans, b,
                                     bug_span.index());
      seam->deltas += RegistryTally::Now() - before;
      const size_t calls = seam->calls() - calls_before;
      if (parallelism == 1 && calls != static_cast<size_t>(last.result.total_runs)) {
        report->Fail(spec->id + ": the seam counted " + std::to_string(calls) +
                     " runs at parallelism 1, the result reports " +
                     std::to_string(last.result.total_runs));
      }
      totals->runs_reported += last.result.total_runs;
      totals->schedules += last.result.schedules_generated;
      totals->causal_pruned +=
          last.result.schedules_pruned_infeasible + last.result.schedules_pruned_commuted;
      last.spec = spec;
      last.profile = std::move(profile);
      last.production = std::move(*production);
      if (last.result.reproduced) {
        break;
      }
    }
    pass.bugs.push_back(Outcome(spec->id, last.result, NsToMs(NowNs() - t0)));
    if (captured != nullptr && last.spec != nullptr) {
      captured->push_back(std::move(last));
    }
  }
  pass.wall_s = NsToS(NowNs() - start);
  return pass;
}

// Fails the report unless `pass` confirms the same schedules with the same
// run counts as `reference`, and reproduces every bug.
void CheckPass(const Pass& reference, const Pass& pass, const std::string& what,
               Report* report) {
  for (size_t b = 0; b < pass.bugs.size(); b++) {
    const BugOutcome& want = reference.bugs[b];
    const BugOutcome& got = pass.bugs[b];
    if (!got.reproduced) {
      report->Fail(got.id + " not reproduced (" + what + ")");
    }
    if (got.schedule_hash != want.schedule_hash || got.total_runs != want.total_runs ||
        got.level != want.level) {
      report->Fail(got.id + ": " + what + " confirmed schedule " +
                   std::to_string(got.schedule_hash) + " with " +
                   std::to_string(got.total_runs) + " runs at level " +
                   std::to_string(got.level) + ", the reference " +
                   std::to_string(want.schedule_hash) + " with " +
                   std::to_string(want.total_runs) + " runs at level " +
                   std::to_string(want.level));
    }
  }
}

// The layers whose self times must add up to the pass.
const char* const kLayers[] = {"harness.profile", "harness.production", "harness.deploy",
                               "harness.run", "diagnose"};

// Per-layer metrics of one traced pass.
Report TracedPassLayers(const Pass& pass, const RunSeam& seam, const SpanRecorder& spans,
                        int root, const EngineTotals& totals, int parallelism) {
  Report layers;
  ReportSeamLayers(seam, &layers);
  std::map<std::string, int64_t> self = SelfTimeByName(spans.spans(), root);
  int64_t layer_ns = 0;
  for (const char* name : kLayers) {
    layer_ns += self[name];
  }
  const double executed = static_cast<double>(seam.calls());
  layers.Set("harness.profile_s", NsToS(self["harness.profile"]), "s");
  layers.Set("harness.production_s", NsToS(self["harness.production"]), "s");
  layers.Set("diagnose.self_s", NsToS(self["diagnose"]), "s");
  layers.Set("diagnose.runs_reported", totals.runs_reported, "count");
  layers.Set("diagnose.run_yield", executed > 0 ? totals.runs_reported / executed : 0, "ratio");
  layers.Set("diagnose.schedules", totals.schedules, "count");
  layers.Set("causal.pruned", totals.causal_pruned, "count");
  layers.Set("common.pool_utilization",
             parallelism > 1 && seam.engine_ns() > 0
                 ? static_cast<double>(seam.deltas.pool_job_ns) /
                       (static_cast<double>(seam.engine_ns()) * parallelism)
                 : 0,
             "ratio");
  layers.Set("obs.engine_runs_gap",
             static_cast<double>(totals.runs_reported) -
                 static_cast<double>(seam.deltas.engine_runs),
             "count");
  layers.Set("obs.layer_sum_residual", 1.0 - NsToS(layer_ns) / pass.wall_s, "ratio");
  return layers;
}

}  // namespace

int WideParallelism() {
  return std::min(4, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
}

Report RunCatalogue(const Args& args, int parallelism) {
  Report report;
  const std::vector<const rose::BugSpec*> order = BugOrder(args.seed);

  // Set-up: profile every guest once, as a user does before diagnosing.
  std::vector<double> setup_s;
  std::vector<double> setup_blocks;
  for (int i = 0; i < kSetupRepeats; i++) {
    setup_blocks.push_back(ReferenceBlockMs());
    const int64_t t0 = NowNs();
    for (const rose::BugSpec* spec : order) {
      rose::BugRunner(spec).RunProfiling(kCatalogueSeed);
    }
    setup_s.push_back(NsToS(NowNs() - t0));
  }

  std::vector<Pass> passes;
  std::vector<double> blocks;
  std::vector<Report> traced_layers;
  std::optional<Pass> untraced;
  SpanRecorder spans;
  std::vector<Captured> captured;
  const int64_t start = NowNs();
  auto measuring = [&] { return NsToS(NowNs() - start) < args.seconds; };
  if (!args.trace) {
    do {
      passes.push_back(PublicPass(order, parallelism, &blocks));
    } while (measuring());
  } else {
    // One untraced pass gives the tracing overhead; traced passes follow.
    untraced = PublicPass(order, parallelism, nullptr);
    do {
      const int root = spans.Begin("catalogue", passes.size(), -1);
      RunSeam seam(&spans);
      EngineTotals totals;
      captured.clear();
      passes.push_back(
          SeamPass(order, parallelism, &seam, &spans, root, &totals, &captured, &report));
      spans.End(root);
      traced_layers.push_back(
          TracedPassLayers(passes.back(), seam, spans, root, totals, parallelism));
    } while (measuring());
  }

  // Correctness: every pass confirms the same schedules, and so does a
  // check pass at the other parallelism, counted at the seam.
  const Pass& reference = untraced.has_value() ? *untraced : passes.front();
  for (size_t i = 0; i < passes.size(); i++) {
    CheckPass(reference, passes[i], "pass " + std::to_string(i), &report);
  }
  const int other = parallelism == 1 ? WideParallelism() : 1;
  RunSeam check_seam(nullptr);
  EngineTotals check_totals;
  const Pass check =
      SeamPass(order, other, &check_seam, nullptr, -1, &check_totals, nullptr, &report);
  CheckPass(reference, check, "check pass at parallelism " + std::to_string(other), &report);

  report.attempted = order.size();
  for (const BugOutcome& bug : passes.back().bugs) {
    report.failed += bug.reproduced ? 0 : 1;
  }

  if (!args.trace) {
    // Every time is scaled to the reference host speed around it; the raw
    // values go to the detail lines.
    std::vector<double> deep_ms;
    std::vector<double> shallow_ms;
    std::vector<double> deep_pass_ms;
    std::vector<double> shallow_pass_ms;
    std::vector<double> walls;
    std::vector<double> raw_walls;
    for (const Pass& pass : passes) {
      double deep = 0;
      double shallow = 0;
      for (const BugOutcome& bug : pass.bugs) {
        const double ms = bug.ms * LocalSpeedFactor(blocks, bug.block, kBlockRadius);
        (bug.level >= 2 ? deep_ms : shallow_ms).push_back(ms);
        (bug.level >= 2 ? deep : shallow) += ms;
      }
      deep_pass_ms.push_back(deep);
      shallow_pass_ms.push_back(shallow);
      walls.push_back((deep + shallow) / 1e3);
      raw_walls.push_back(pass.wall_s);
    }
    int runs = 0;
    int confirmed = 0;
    for (const BugOutcome& bug : passes.front().bugs) {
      runs += bug.total_runs;
      confirmed += bug.reproduced ? 1 : 0;
    }
    const double wall = Median(walls);
    report.Set("setup_s", Median(setup_s) * SpeedFactor(setup_blocks), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("slow_ms", Median(deep_pass_ms), "ms");
    report.Set("fast_ms", Median(shallow_pass_ms), "ms");
    report.Set("goodput_per_s", confirmed / wall, "1/s");
    report.Set("sim_runs_per_s", runs / wall, "1/s");
    std::string pass_walls;
    for (double w : raw_walls) {
      pass_walls += " " + std::to_string(w);
    }
    report.Detail("catalogue_s " + std::to_string(wall) + " at reference host speed (" +
                  std::to_string(runs) + " runs, " + std::to_string(confirmed) +
                  " bugs confirmed); host speed factor " + std::to_string(SpeedFactor(blocks)) +
                  "; raw pass walls" + pass_walls);
    report.Detail("setup_s raw " + std::to_string(Median(setup_s)));
    report.Detail(TimingLine("per Level>=2 bug", Summarize(deep_ms)));
    report.Detail(TimingLine("per Level-1 bug", Summarize(shallow_ms)));
    return report;
  }

  // Traced: the median of each layer metric over the traced passes.
  for (const auto& [name, value_unit] : traced_layers.front().metrics) {
    std::vector<double> values;
    for (const Report& layers : traced_layers) {
      values.push_back(layers.metrics.at(name).first);
    }
    report.Set(name, Median(values), value_unit.second);
  }
  for (const std::string& line : traced_layers.front().details) {
    report.Detail(line);
  }
  ReportAnalysisLayers(captured, &report);
  std::vector<double> traced_walls;
  for (const Pass& pass : passes) {
    traced_walls.push_back(pass.wall_s);
  }
  report.Set("obs.tracing_overhead_s", Median(traced_walls) - untraced->wall_s, "s");
  const double residual = report.metrics.at("obs.layer_sum_residual").first;
  if (parallelism == 1 && std::abs(residual) > 0.10) {
    report.Fail("layer self times leave " + std::to_string(residual) +
                " of catalogue_s unattributed (bar: 10%)");
  }
  spans.Write(args.out_dir + "/spans-catalogue-p" + std::to_string(parallelism) + "-" +
              std::to_string(args.seed) + ".jsonl");
  return report;
}

}  // namespace rosebench
