#include "src/trace/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

#include "src/common/file.h"
#include "src/obs/metrics.h"

namespace rose {

namespace {

// rose::obs self-metrics for the mapped load path (docs/metrics.md
// "trace_io.mmap_*").
struct MmapMetrics {
  Counter* opens;
  Counter* bytes;
  Counter* fallbacks;
};

MmapMetrics& Metrics() {
  static MmapMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* metrics = new MmapMetrics();
    metrics->opens = reg.GetCounter("trace_io.mmap_opens");
    metrics->bytes = reg.GetCounter("trace_io.mmap_bytes");
    metrics->fallbacks = reg.GetCounter("trace_io.mmap_fallbacks");
    return metrics;
  }();
  return *m;
}

}  // namespace

MmapTraceFile& MmapTraceFile::operator=(MmapTraceFile&& other) noexcept {
  if (this != &other) {
    Reset();
    fallback_ = std::move(other.fallback_);
    mapped_ = other.mapped_;
    valid_ = other.valid_;
    size_ = other.size_;
    // Fallback bytes live in fallback_, whose heap buffer just moved here;
    // recompute rather than trusting the moved-from pointer.
    data_ = mapped_ ? other.data_ : fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.valid_ = false;
    other.mapped_ = false;
  }
  return *this;
}

void MmapTraceFile::Reset() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  valid_ = false;
  mapped_ = false;
  fallback_.clear();
}

MmapTraceFile MmapTraceFile::Open(const std::string& path, int* errno_out) {
  MmapTraceFile file;
  if (errno_out != nullptr) {
    *errno_out = 0;
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd >= 0 && ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    const auto size = static_cast<size_t>(st.st_size);
    // mmap(0) is EINVAL; an empty file is a valid (empty) byte range.
    void* addr = size == 0 ? nullptr : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      ::close(fd);
      file.data_ = static_cast<const char*>(addr);
      file.size_ = size;
      file.valid_ = true;
      file.mapped_ = size > 0;
      Metrics().opens->Inc();
      Metrics().bytes->Inc(size);
      return file;
    }
  }
  if (fd >= 0) {
    ::close(fd);
  }
  // mmap refused (or a non-regular file): one exact-sized read into an
  // owned buffer, which also reports the errno.
  if (!ReadFileBytes(path, &file.fallback_, errno_out)) {
    return file;
  }
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  file.valid_ = true;
  Metrics().fallbacks->Inc();
  return file;
}

}  // namespace rose
