// rose_served — the diagnosis daemon, serving several clients at once.
//
// Stands up a DiagnosisService listening on a simulated Unix socket, connects
// one client per requested job, and pumps everything until the queue drains.
// Each submission is either a saved dump pair (bug=BASE loads BASE.trc +
// BASE.profile) or generated on the fly by simulating phases 1–2 for the
// named bug. Confirmed schedules land in --out as <bug>-<seed>.yaml —
// byte-identical to offline `reproduce_bug --schedule-out` for the same seed.
//
// With --cache-dir the result store persists: restart the daemon on the same
// directory and resubmissions are answered from disk without an engine run.
//
// Usage:
//   ./build/examples/rose_served [flags] <bug-id>[=DUMPBASE] ...
//
// Flags:
//   --cache-dir DIR    persist confirmed schedules across restarts
//   --out DIR          write confirmed schedule YAML files here (default ".")
//   --concurrency N    diagnosis jobs running at once (default 2)
//   --queue N          queued-job bound; overflow is rejected with kQueueFull
//   --seed N           submission seed (default 42)
//   --stats-out FILE   write the rose::obs metrics snapshot (YAML) at shutdown
//   --stats-interval S one-line service summary every S host seconds (0 = off)
//   --stream-window B  per-stream-session resident window bound in bytes
//   --stream-spill-dir DIR  spill-ring directory for evicted stream events
//   --stream-spill B   per-session spill-ring capacity in bytes
//
// Example — three bugs, two of them identical (the duplicate coalesces):
//   ./build/examples/rose_served RedisRaft-43 MiniZK-1058 RedisRaft-43
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "examples/serve_demo.h"
#include "src/common/file.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/service.h"

namespace {

// Canonical --help text, diffed verbatim against docs/cli.md by the
// docs_drift ctest (tools/check_docs.sh); keep the two in sync.
constexpr char kHelp[] =
    R"(usage: rose_served [flags] <bug-id>[=DUMPBASE] ...

The diagnosis daemon, serving several clients at once. Stands up a
DiagnosisService on a simulated Unix socket, connects one client per
requested job, and pumps everything until the queue drains. Each
submission is a saved dump pair (bug=BASE loads BASE.trc + BASE.profile)
or is generated by simulating phases 1-2 for the named bug. Confirmed
schedules land in --out as <bug>-<seed>.yaml, byte-identical to offline
`reproduce_bug --schedule-out` for the same seed.

flags:
  --cache-dir DIR    persist confirmed schedules across restarts
  --out DIR          write confirmed schedule YAML files here (default .)
  --concurrency N    diagnosis jobs running at once (default 2)
  --queue N          queued-job bound; overflow is rejected with kQueueFull
  --seed N           submission seed (default 42)
  --stats-out FILE   write the rose::obs metrics snapshot (YAML) to FILE
                     at shutdown (see docs/metrics.md)
  --stats-interval S print a one-line service summary every S seconds of
                     host time while pumping (0 = off, default 2)
  --stream-window B  per-stream-session resident window bound in bytes
                     (default 4 MiB; see DESIGN.md section 16)
  --stream-spill-dir DIR
                     spill-ring directory for stream events evicted from the
                     window (default: none -- evicted events drop)
  --stream-spill B   per-session spill-ring capacity in bytes (default 32 MiB)
  --help             show this help and exit

example (three bugs, two identical -- the duplicate coalesces):
  rose_served RedisRaft-43 MiniZK-1058 RedisRaft-43
)";

}  // namespace

int main(int argc, char** argv) {
  rose::ServeConfig config;
  std::string out_dir = ".";
  std::string stats_out;
  double stats_interval = 2.0;
  uint64_t seed = 42;
  std::vector<serve_demo::Submission> submissions;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kHelp, stdout);
      return 0;
    } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
      config.cache_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--concurrency") == 0 && i + 1 < argc) {
      config.max_concurrent_jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      config.queue_capacity = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--stats-out") == 0 && i + 1 < argc) {
      stats_out = argv[++i];
    } else if (std::strcmp(argv[i], "--stats-interval") == 0 && i + 1 < argc) {
      stats_interval = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--stream-window") == 0 && i + 1 < argc) {
      config.stream_window_bytes = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--stream-spill-dir") == 0 && i + 1 < argc) {
      config.stream_spill_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--stream-spill") == 0 && i + 1 < argc) {
      config.stream_spill_bytes = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      submissions.push_back(serve_demo::ParseSubmission(argv[i]));
    }
  }
  if (submissions.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--cache-dir DIR] [--out DIR] [--concurrency N] [--queue N] "
                 "[--seed N] [--stats-out FILE] [--stats-interval S] "
                 "[--stream-window B] [--stream-spill-dir DIR] [--stream-spill B] "
                 "<bug-id>[=DUMPBASE] ...  (see --help)\n", argv[0]);
    return 2;
  }
  // A directory that cannot be created surfaces as a failed schedule write.
  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);

  rose::DiagnosisService service(config);
  rose::SimSocketSpace sockets;
  sockets.Listen("/run/rose_served.sock");
  std::printf("rose_served: listening (concurrency=%d queue=%zu cache=%s)\n",
              config.max_concurrent_jobs, config.queue_capacity,
              config.cache_dir.empty() ? "memory" : config.cache_dir.c_str());

  // One connection per submission — the daemon's per-client fairness and
  // duplicate coalescing are visible with several tenants.
  size_t client_index = 0;
  for (serve_demo::Submission& sub : submissions) {
    client_index++;
    serve_demo::DumpPayload payload;
    if (!serve_demo::ObtainDump("rose_served", sub, seed, &payload)) {
      return 1;
    }
    std::shared_ptr<rose::Transport> end = sockets.Connect("/run/rose_served.sock");
    service.Attach(sockets.Accept("/run/rose_served.sock"));
    sub.client = std::make_unique<rose::ServeClient>(end);
    serve_demo::Submit(sub, seed, payload);
    std::printf("client %zu: submitted %s (%zu events, load=%s)\n", client_index,
                sub.bug_id.c_str(), payload.events, payload.mapped.load_mode());
  }

  int failures = 0;
  // Periodic one-line service summary — the daemon's heartbeat. Host wall
  // time only; never feeds back into the simulation.
  auto last_summary = std::chrono::steady_clock::now();
  for (;;) {
    if (stats_interval > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_summary).count() >= stats_interval) {
        last_summary = now;
        std::printf("rose_served: %s\n", service.BuildStats().ToString().c_str());
      }
    }
    const bool all_done =
        serve_demo::PollAndReportAll("rose_served", submissions, seed, out_dir, &failures);
    service.Poll();
    if (all_done && service.idle()) {
      break;
    }
  }

  // Final summary through the same formatter the periodic line and the
  // STATS wire reply use — one code path, one output format.
  std::printf("\nstats: %s\n", service.BuildStats().ToString().c_str());
  if (!stats_out.empty()) {
    if (!rose::WriteFile(stats_out, rose::MetricRegistry::Global().Snapshot().ToYaml())) {
      std::fprintf(stderr, "rose_served: cannot write %s\n", stats_out.c_str());
      return 2;
    }
    std::printf("metrics snapshot written to %s\n", stats_out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
