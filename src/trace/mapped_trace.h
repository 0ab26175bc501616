// Zero-copy trace loading (DESIGN.md §13).
//
// Trace::ParseBinary copies every pool string into a private arena and the
// whole file through a heap buffer before the first event is usable. For
// read-only consumers — diagnosis, validation, stats — those copies buy
// nothing: the events decode into one contiguous vector either way, and the
// pool strings already sit in the file bytes. MappedTrace keeps the file
// bytes alive (mmap via MmapTraceFile, or an adopted in-memory buffer from a
// serve submission) and decodes the RTRC frames with an external-arena
// StringPool whose entries are offsets into those bytes. CRC validation is
// unchanged — every frame is checked as the decode walk reaches it, which on
// a mapped file means pages fault in lazily instead of being read up front.
//
// A MappedTrace is a cheap shared handle: copies share one backing mapping
// and decoded state, and the mapping is unmapped when the last copy drops.
// TraceViews taken from it are valid only while some copy is alive — the
// guard() handle makes that testable (tests/trace_io_test.cc).
//
// This is the only way Rose reads a trace file, and RTRC is the only input
// format: bytes without the RTRC magic (a .txt export, a short or foreign
// file) yield a valid handle with zero events and a TB201 diagnostic.
// load_mode() reports whether mmap or the read fallback served the bytes.
#ifndef SRC_TRACE_MAPPED_TRACE_H_
#define SRC_TRACE_MAPPED_TRACE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/analyze/diagnostic.h"
#include "src/trace/event.h"
#include "src/trace/mmap_file.h"

namespace rose {

class MappedTrace {
 public:
  // An empty handle: valid() is false, view() is empty.
  MappedTrace() = default;

  // Maps `path` (heap read when mmap refuses it) and decodes it. An unreadable
  // file yields an invalid handle plus a TB206 diagnostic with the errno
  // text; container damage decodes the intact prefix and appends TB2xx
  // diagnostics, exactly as Trace::ParseBinary does.
  static MappedTrace OpenFile(const std::string& path);

  // Adopts `storage` (e.g. a serve submission's trace blob, moved in without
  // copying) and decodes it in place. The decoded pool aliases `storage`'s
  // bytes, which the handle owns.
  static MappedTrace FromBuffer(std::string storage);

  // False only for default-constructed handles and unreadable files; damaged
  // containers are valid-with-diagnostics, matching Trace::ParseBinary.
  bool valid() const { return impl_ != nullptr; }

  // The decoded events + pool. Valid while any copy of this handle is alive.
  TraceView view() const;
  // The raw backing bytes (the RTRC container) — what a zero-copy
  // submission ships over the serve wire. Same lifetime as view().
  std::string_view bytes() const;
  size_t event_count() const;
  const std::vector<Diagnostic>& diagnostics() const;

  // True when the backing bytes live in an mmap region.
  bool mapped() const;
  size_t mapped_bytes() const;
  // "mmap" or "heap" — what actually backs the bytes (heap covers the
  // read-fallback, adopted buffers, and invalid handles).
  const char* load_mode() const;

  // Copy-on-write promotion: materializes an owning Trace (private pool,
  // same ids — strings re-interned in id order) for call sites that must
  // mutate (Merge, AppendRemapped, --save after edits). Counted in
  // trace_io.promotions.
  Trace Promote() const;

  // Expires exactly when the last copy of this handle drops — a test can
  // hold this, release the handle, and assert the mapping is gone before
  // (not) touching the view.
  std::weak_ptr<const void> guard() const { return impl_; }

 private:
  struct Impl;
  static MappedTrace Decode(std::shared_ptr<Impl> impl);

  std::shared_ptr<Impl> impl_;
  // Set only on unreadable-file handles (no backing bytes, no Impl): the
  // TB206 diagnostic the caller reports. shared_ptr keeps copies cheap.
  std::shared_ptr<std::vector<Diagnostic>> invalid_diags_;
};

// Opens the saved dump at `path` for submission over the serve wire. Every
// diagnostic of the open is printed to stderr; returns false if any is an
// error. On success `*mapped` is a zero-copy handle whose container bytes
// ship verbatim (ServeClient::SubmitBlob).
bool OpenDumpForSubmit(const std::string& path, MappedTrace* mapped);

}  // namespace rose

#endif  // SRC_TRACE_MAPPED_TRACE_H_
