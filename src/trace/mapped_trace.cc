#include "src/trace/mapped_trace.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/trace/trace_io.h"

namespace rose {

namespace {

// rose::obs self-metrics for the zero-copy load path (docs/metrics.md
// "trace_io.*").
struct MappedMetrics {
  Counter* zero_copy_decodes;
  Counter* promotions;
};

MappedMetrics& Metrics() {
  static MappedMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* metrics = new MappedMetrics();
    metrics->zero_copy_decodes = reg.GetCounter("trace_io.zero_copy_decodes");
    metrics->promotions = reg.GetCounter("trace_io.promotions");
    return metrics;
  }();
  return *m;
}

}  // namespace

struct MappedTrace::Impl {
  // Exactly one of `file` / `buffer` backs `bytes`.
  MmapTraceFile file;
  std::string buffer;
  bool file_backed = false;

  std::vector<TraceEvent> events;
  StringPool pool;  // External-arena over `bytes` when `zero_copy`.
  Trace owned;      // Text fallback: a normal owning parse.
  bool zero_copy = false;
  std::vector<Diagnostic> diags;

  std::string_view bytes() const { return file_backed ? file.bytes() : buffer; }
};

MappedTrace MappedTrace::Decode(std::shared_ptr<Impl> impl) {
  const std::string_view bytes = impl->bytes();
  if (LooksLikeBinaryTrace(bytes)) {
    // Zero-copy walk: same frames, CRCs, and failure diagnostics as
    // Trace::ParseBinary, but pool strings stay in the backing bytes.
    TraceReader reader(bytes, bytes.data());
    TraceEvent event;
    while (reader.Next(&event)) {
      impl->events.push_back(event);
    }
    impl->diags = reader.diagnostics();
    impl->pool = reader.ReleasePool();
    impl->zero_copy = true;
    Metrics().zero_copy_decodes->Inc();
  } else {
    // Text dumps have no frame structure to alias; parse them the owning
    // way. Matches LoadTraceFile's auto-detection.
    impl->owned = Trace::Parse(std::string(bytes));
  }
  MappedTrace out;
  out.impl_ = std::move(impl);
  return out;
}

MappedTrace MappedTrace::OpenFile(const std::string& path) {
  auto impl = std::make_shared<Impl>();
  int open_errno = 0;
  impl->file = MmapTraceFile::Open(path, &open_errno);
  if (!impl->file.valid()) {
    MappedTrace out;  // invalid(): unreadable file, nothing to decode.
    out.invalid_diags_ = std::make_shared<std::vector<Diagnostic>>();
    Diagnostic diag;
    diag.code = DiagCode::kTraceFileUnreadable;
    diag.severity = Severity::kError;
    diag.message = StrFormat("cannot open trace file %s: %s", path.c_str(),
                             open_errno != 0 ? std::strerror(open_errno) : "unknown error");
    diag.hint = "check the path and permissions";
    out.invalid_diags_->push_back(std::move(diag));
    return out;
  }
  impl->file_backed = true;
  return Decode(std::move(impl));
}

MappedTrace MappedTrace::FromBuffer(std::string storage) {
  auto impl = std::make_shared<Impl>();
  impl->buffer = std::move(storage);
  impl->file_backed = false;
  return Decode(std::move(impl));
}

TraceView MappedTrace::view() const {
  if (impl_ == nullptr) {
    return TraceView();
  }
  if (!impl_->zero_copy) {
    return TraceView(impl_->owned);
  }
  return TraceView(impl_->events.data(), impl_->events.size(), &impl_->pool);
}

std::string_view MappedTrace::bytes() const {
  return impl_ != nullptr ? impl_->bytes() : std::string_view();
}

size_t MappedTrace::event_count() const {
  if (impl_ == nullptr) {
    return 0;
  }
  return impl_->zero_copy ? impl_->events.size() : impl_->owned.size();
}

const std::vector<Diagnostic>& MappedTrace::diagnostics() const {
  static const std::vector<Diagnostic> kEmpty;
  if (impl_ != nullptr) {
    return impl_->diags;
  }
  return invalid_diags_ != nullptr ? *invalid_diags_ : kEmpty;
}

bool MappedTrace::mapped() const { return impl_ != nullptr && impl_->file.mapped(); }

size_t MappedTrace::mapped_bytes() const { return mapped() ? impl_->file.size() : 0; }

const char* MappedTrace::load_mode() const { return mapped() ? "mmap" : "heap"; }

bool MappedTrace::zero_copy() const { return impl_ != nullptr && impl_->zero_copy; }

Trace MappedTrace::Promote() const {
  if (impl_ == nullptr) {
    return Trace();
  }
  Metrics().promotions->Inc();
  if (!impl_->zero_copy) {
    return impl_->owned;  // Already owning; copy out.
  }
  // Re-intern in id order so the promoted pool assigns identical ids and the
  // copied events need no remapping.
  StringPool pool;
  for (StrId id = 1; id < impl_->pool.size(); id++) {
    pool.Intern(impl_->pool.View(id));
  }
  return Trace(impl_->events, std::move(pool));
}

bool OpenDumpForSubmit(const std::string& path, MappedTrace* mapped, Trace* trace) {
  *mapped = MappedTrace::OpenFile(path);
  for (const Diagnostic& diag : mapped->diagnostics()) {
    std::fprintf(stderr, "  %s\n", diag.ToString().c_str());
  }
  if (HasErrors(mapped->diagnostics())) {
    return false;
  }
  if (!mapped->zero_copy()) {
    *trace = mapped->Promote();
    *mapped = MappedTrace();
  }
  return true;
}

}  // namespace rose
