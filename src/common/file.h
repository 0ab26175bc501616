// The one file-I/O module: every file Rose itself reads or writes goes
// through here (DESIGN.md §17). User-named outputs are truncated in place
// (WriteFile); state the tool owns is replaced atomically and durably
// (WriteFileAtomic); the journal and the spill ring hold a `File`.
#ifndef SRC_COMMON_FILE_H_
#define SRC_COMMON_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace rose {

// Reads all of the regular file `path` into `*out` with one fstat-sized read;
// anything else fails (EISDIR, or EINVAL for a device such as /dev/zero, which
// would never end). `*errno_out`, when non-null, gets the errno (0 = success).
bool ReadFileBytes(const std::string& path, std::string* out, int* errno_out = nullptr);

// Creates or truncates `path` in place (a device stays a device) and writes
// `bytes`. True only when every byte was written and close() succeeded.
bool WriteFile(const std::string& path, std::string_view bytes);

// Replaces `path` so a crash or power loss leaves the old bytes or the new:
// `path`.tmp, fsync, rename, fsync of the directory. A failed step removes
// the .tmp and leaves nothing this call wrote under `path`.
bool WriteFileAtomic(const std::string& path, std::string_view bytes);

// Move-only owner of one file descriptor, closed on destruction.
class File {
 public:
  File() = default;
  ~File();
  File(File&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  // Swaps: the fd this File held closes when `other` is destroyed.
  File& operator=(File&& other) noexcept {
    std::swap(fd_, other.fd_);
    return *this;
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  // open(2) with `flags` (created files get 0666 less the umask); invalid
  // when the open fails.
  static File Open(const std::string& path, int flags);
  bool valid() const { return fd_ >= 0; }

  // Writes all of `bytes` at the current offset, resuming after EINTR and
  // short writes; returns how many bytes reached the file.
  [[nodiscard]] size_t Write(std::string_view bytes);
  // Transfer exactly the given range with pwrite/pread (short transfers
  // resumed); a ReadAt that reaches end of file fails.
  [[nodiscard]] bool WriteAt(uint64_t offset, const void* data, size_t size);
  [[nodiscard]] bool ReadAt(uint64_t offset, void* out, size_t size);
  [[nodiscard]] bool Sync();
  [[nodiscard]] bool Truncate(uint64_t size);
  // Closes now and reports close()'s result; the File is invalid after.
  [[nodiscard]] bool Close();

 private:
  int fd_ = -1;
};

}  // namespace rose

#endif  // SRC_COMMON_FILE_H_
