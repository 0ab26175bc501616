// Read-only memory-mapped trace files (DESIGN.md §13).
//
// The diagnosis phase re-reads a dumped window many times; reading it
// through a stream copies every byte into a heap buffer before the first
// event decodes. MmapTraceFile maps the file instead (PROT_READ/MAP_PRIVATE)
// so the container bytes are paged in on demand and the mapped region can
// back zero-copy string-pool entries (MappedTrace). Files mmap
// refuses (exotic filesystems) fall back transparently to ReadFileBytes'
// one fstat-sized read() into an owned buffer; `mapped()` reports which
// path was taken.
#ifndef SRC_TRACE_MMAP_FILE_H_
#define SRC_TRACE_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace rose {

// Move-only RAII mapping of one file. Invalid instances hold no bytes.
class MmapTraceFile {
 public:
  MmapTraceFile() = default;
  ~MmapTraceFile() { Reset(); }

  MmapTraceFile(MmapTraceFile&& other) noexcept { *this = std::move(other); }
  MmapTraceFile& operator=(MmapTraceFile&& other) noexcept;
  MmapTraceFile(const MmapTraceFile&) = delete;
  MmapTraceFile& operator=(const MmapTraceFile&) = delete;

  // Maps `path` read-only; on any mmap failure falls back to
  // ReadFileBytes (src/common/file.h). An unreadable file yields an invalid instance
  // with the errno in `*errno_out`.
  static MmapTraceFile Open(const std::string& path, int* errno_out = nullptr);

  // The file's bytes — stable for the lifetime of this object (and only
  // that lifetime: views into a mapping dangle after destruction).
  std::string_view bytes() const { return {data_, size_}; }
  bool valid() const { return valid_; }
  // True when bytes() lives in an actual mmap region (vs the heap fallback).
  bool mapped() const { return mapped_; }
  size_t size() const { return size_; }

 private:
  void Reset();

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool valid_ = false;
  bool mapped_ = false;
  std::string fallback_;  // Owns the bytes when !mapped_.
};

}  // namespace rose

#endif  // SRC_TRACE_MMAP_FILE_H_
