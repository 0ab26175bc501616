// The client side shared by the rose_served and rose_routerd demos: obtain
// each requested dump, submit it on its own ServeClient, and report each
// outcome as it lands. `tool` prefixes every diagnostic message.
#ifndef EXAMPLES_SERVE_DEMO_H_
#define EXAMPLES_SERVE_DEMO_H_

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "src/common/file.h"
#include "src/harness/bug_registry.h"
#include "src/harness/runner.h"
#include "src/serve/client.h"
#include "src/trace/mapped_trace.h"
#include "src/trace/trace_io.h"

namespace serve_demo {

struct Submission {
  std::string bug_id;
  std::string dump_base;  // Empty = simulate phases 1-2.
  std::unique_ptr<rose::ServeClient> client;
  uint64_t handle = 0;
  bool reported = false;
};

// Parses one positional argument: "<bug-id>" or "<bug-id>=DUMPBASE".
inline Submission ParseSubmission(const char* arg) {
  Submission sub;
  const char* eq = std::strchr(arg, '=');
  if (eq != nullptr) {
    sub.bug_id.assign(arg, static_cast<size_t>(eq - arg));
    sub.dump_base = eq + 1;
  } else {
    sub.bug_id = arg;
  }
  return sub;
}

// One obtained dump + baseline, ready to submit. Saved dumps stay a
// zero-copy mapped handle whose raw container bytes ship over the wire
// (SubmitBlob); generated dumps carry an owning Trace instead.
struct DumpPayload {
  rose::Profile profile;
  std::string profile_text;   // Set for saved pairs (shipped verbatim).
  rose::MappedTrace mapped;   // valid() for saved dumps.
  rose::Trace trace;          // Set for generated dumps.
  size_t events = 0;
};

// Loads the saved pair BASE.trc + BASE.profile, or simulates phases 1-2 for
// the bug. False (after a message on stderr) when no dump can be had.
inline bool ObtainDump(const char* tool, const Submission& sub, uint64_t seed,
                       DumpPayload* out) {
  if (!sub.dump_base.empty()) {
    if (!rose::OpenDumpForSubmit(sub.dump_base + ".trc", &out->mapped)) {
      return false;
    }
    out->events = out->mapped.event_count();
    if (!rose::ReadFileBytes(sub.dump_base + ".profile", &out->profile_text)) {
      std::fprintf(stderr, "%s: cannot open %s.profile\n", tool, sub.dump_base.c_str());
      return false;
    }
    return rose::ParseProfile(out->profile_text, &out->profile);
  }
  const rose::BugSpec* spec = rose::FindBug(sub.bug_id);
  if (spec == nullptr) {
    std::fprintf(stderr, "%s: unknown bug id %s\n", tool, sub.bug_id.c_str());
    return false;
  }
  rose::BugRunner runner(spec);
  out->profile = runner.RunProfiling(seed);
  std::optional<rose::Trace> production =
      runner.ObtainProductionTrace(out->profile, seed + 17);
  if (!production.has_value()) {
    std::fprintf(stderr, "%s: %s never surfaced\n", tool, sub.bug_id.c_str());
    return false;
  }
  out->trace = std::move(*production);
  out->events = out->trace.size();
  return true;
}

// Submits `payload` on sub.client, tagged with the bug id.
inline void Submit(Submission& sub, uint64_t seed, DumpPayload& payload) {
  if (payload.mapped.valid()) {
    // Mapped dump: ship the container bytes verbatim — no owning Trace, no
    // re-encode. Same cache key as the Submit path.
    sub.handle = sub.client->SubmitBlob(sub.bug_id, seed, sub.bug_id, payload.profile_text,
                                        payload.mapped.bytes());
    return;
  }
  rose::SubmitRequest request;
  request.bug_id = sub.bug_id;
  request.seed = seed;
  request.tag = sub.bug_id;
  request.profile = std::move(payload.profile);
  request.trace = std::move(payload.trace);
  sub.handle = sub.client->Submit(request);
}

// One client pump: prints the progress received for `sub` and, the first
// time its job is done, its outcome — writing a confirmed schedule to
// OUT_DIR/<bug>-<seed>.yaml. A rejection, a non-reproduction or a failed
// write adds one to `*failures`. Returns whether the job is done.
inline bool PollAndReport(const char* tool, Submission& sub, uint64_t seed,
                          const std::string& out_dir, int* failures) {
  sub.client->Poll();
  for (const rose::ProgressMsg& msg : sub.client->TakeProgress(sub.handle)) {
    std::printf("  [%s] %s\n", sub.bug_id.c_str(), msg.ToString().c_str());
  }
  if (!sub.client->done(sub.handle)) {
    return false;
  }
  if (sub.reported) {
    return true;
  }
  sub.reported = true;
  if (sub.client->failed(sub.handle)) {
    std::printf("%-18s  REJECTED: %s\n", sub.bug_id.c_str(),
                sub.client->error_message(sub.handle).c_str());
    (*failures)++;
    return true;
  }
  const rose::ServeJobResult& result = sub.client->result(sub.handle);
  const char* how = result.cached ? "cache" : result.coalesced ? "coalesced" : "ran";
  std::printf("%-18s  %s  L%d  RR=%3.0f%%  sched=%d runs=%d  (%s)  [%s]\n",
              sub.bug_id.c_str(), result.reproduced ? "REPRODUCED " : "NOT-REPRO  ",
              result.level, result.replay_rate, result.schedules, result.runs, how,
              result.fault_summary.c_str());
  if (!result.reproduced) {
    (*failures)++;
    return true;
  }
  const std::string path = out_dir + "/" + sub.bug_id + "-" + std::to_string(seed) + ".yaml";
  if (!rose::WriteFile(path, result.schedule_yaml)) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    (*failures)++;
    return true;
  }
  std::printf("  schedule -> %s\n", path.c_str());
  return true;
}

}  // namespace serve_demo

#endif  // EXAMPLES_SERVE_DEMO_H_
