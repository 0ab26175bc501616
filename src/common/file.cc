#include "src/common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>

namespace rose {

namespace {

// Calls `step(done)` — one read or write of the bytes past `done` — until
// `size` bytes moved, resuming after EINTR and short transfers. Returns the
// bytes moved; when fewer than `size`, errno is 0 at end of file and the
// failure's errno otherwise.
template <typename Step>
size_t TransferAll(size_t size, Step step) {
  size_t done = 0;
  while (done < size) {
    errno = 0;
    const ssize_t n = step(done);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      return done;
    }
  }
  errno = 0;
  return done;
}

}  // namespace

bool ReadFileBytes(const std::string& path, std::string* out, int* errno_out) {
  int err = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd < 0 || ::fstat(fd, &st) != 0) {
    err = errno;
  } else if (!S_ISREG(st.st_mode)) {
    err = S_ISDIR(st.st_mode) ? EISDIR : EINVAL;
  } else {
    out->resize(static_cast<size_t>(st.st_size));
    const size_t got = TransferAll(out->size(), [&](size_t done) {
      return ::read(fd, out->data() + done, out->size() - done);
    });
    err = errno;  // 0 also when the file shrank under us: keep what was read.
    out->resize(got);
  }
  if (fd >= 0) {
    ::close(fd);
  }
  if (errno_out != nullptr) {
    *errno_out = err;
  }
  return err == 0;
}

bool WriteFile(const std::string& path, std::string_view bytes) {
  File file = File::Open(path, O_WRONLY | O_CREAT | O_TRUNC);
  return file.valid() && file.Write(bytes) == bytes.size() && file.Close();
}

bool WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  File file = File::Open(tmp, O_WRONLY | O_CREAT | O_TRUNC);
  if (!file.valid()) {
    return false;
  }
  if (file.Write(bytes) != bytes.size() || !file.Sync() || !file.Close() ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // The new name survives a power loss only once its directory is synced.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  File dir_file = File::Open(dir.empty() ? "." : dir, O_RDONLY | O_DIRECTORY);
  if (!dir_file.Sync()) {
    ::unlink(path.c_str());
    return false;
  }
  return true;
}

File::~File() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

File File::Open(const std::string& path, int flags) {
  File file;
  file.fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0666);
  return file;
}

// An invalid File's fd is -1, on which every call below fails with EBADF.

size_t File::Write(std::string_view bytes) {
  return TransferAll(bytes.size(), [&](size_t done) {
    return ::write(fd_, bytes.data() + done, bytes.size() - done);
  });
}

bool File::WriteAt(uint64_t offset, const void* data, size_t size) {
  return TransferAll(size, [&](size_t done) {
           return ::pwrite(fd_, static_cast<const char*>(data) + done, size - done,
                           static_cast<off_t>(offset + done));
         }) == size;
}

bool File::ReadAt(uint64_t offset, void* out, size_t size) {
  return TransferAll(size, [&](size_t done) {
           return ::pread(fd_, static_cast<char*>(out) + done, size - done,
                          static_cast<off_t>(offset + done));
         }) == size;
}

bool File::Sync() { return ::fsync(fd_) == 0; }

bool File::Truncate(uint64_t size) { return ::ftruncate(fd_, static_cast<off_t>(size)) == 0; }

bool File::Close() { return ::close(std::exchange(fd_, -1)) == 0; }

}  // namespace rose
