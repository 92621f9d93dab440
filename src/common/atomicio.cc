#include "common/atomicio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault.h"

namespace multiclust {
namespace atomicio {

namespace {

// Fault hooks fire only when the caller named a site. Wrapped in a helper
// (not MC_FAULT_FIRES directly) because the site is a runtime value here.
bool Fires(const AtomicWriteOptions& options, FaultKind kind) {
  if (options.fault_site == nullptr) return false;
  return MC_FAULT_FIRES(options.fault_site, kind, options.io_step);
}

std::string Prefix(const char* what) { return std::string(what) + ": "; }

// fsyncs directory `path` so a rename into it is durable.
Status FsyncDir(const std::string& path, const char* what) {
  const int fd = open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError(Prefix(what) + "cannot open " + path +
                           " for fsync: " + std::strerror(errno));
  }
  const int rc = fsync(fd);
  close(fd);
  if (rc != 0) {
    return Status::IoError(Prefix(what) + "fsync " + path +
                           " failed: " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status AtomicWriteFile(const std::string& dir, const std::string& name,
                       const std::string& content,
                       const AtomicWriteOptions& options) {
  const char* what = options.what;
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  const int fd = open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError(Prefix(what) + "cannot create " + tmp_path +
                           ": " + std::strerror(errno));
  }
  if (Fires(options, FaultKind::kIoWriteFail)) {
    close(fd);
    unlink(tmp_path.c_str());
    return Status::IoError(Prefix(what) + "write to " + tmp_path +
                           " failed: injected write fault");
  }
  size_t to_write = content.size();
  bool short_write = false;
  if (Fires(options, FaultKind::kIoShortWrite)) {
    // ENOSPC model: a prefix reaches the disk, then the write errors.
    to_write = content.size() / 2;
    short_write = true;
  }
  size_t off = 0;
  while (off < to_write) {
    const ssize_t n = write(fd, content.data() + off, to_write - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      close(fd);
      unlink(tmp_path.c_str());
      return Status::IoError(Prefix(what) + "write to " + tmp_path +
                             " failed: " + err);
    }
    off += static_cast<size_t>(n);
  }
  if (short_write) {
    close(fd);
    // The checkpoint model deliberately leaves the half-written temp file
    // behind (recovery must ignore stray *.tmp files); every other
    // consumer unlinks so no failure mode can leak a temp.
    if (!options.keep_temp_on_short_write) unlink(tmp_path.c_str());
    return Status::IoError(Prefix(what) + "write to " + tmp_path +
                           " failed: injected short write (no space)");
  }
  if (Fires(options, FaultKind::kIoTornWrite)) {
    // Silent tear: only a prefix persists, but every syscall "succeeds".
    if (ftruncate(fd, static_cast<off_t>(content.size() / 2)) != 0) {
      close(fd);
      unlink(tmp_path.c_str());
      return Status::IoError(Prefix(what) +
                             "injected torn write could not truncate " +
                             tmp_path);
    }
  }
  const bool fsync_fault = Fires(options, FaultKind::kIoFsyncFail);
  if (fsync(fd) != 0 || fsync_fault) {
    const std::string err =
        fsync_fault ? "injected fsync fault" : std::strerror(errno);
    close(fd);
    unlink(tmp_path.c_str());
    return Status::IoError(Prefix(what) + "fsync " + tmp_path +
                           " failed: " + err);
  }
  if (close(fd) != 0) {
    unlink(tmp_path.c_str());
    return Status::IoError(Prefix(what) + "close " + tmp_path +
                           " failed: " + std::strerror(errno));
  }
  if (Fires(options, FaultKind::kIoRenameFail)) {
    unlink(tmp_path.c_str());
    return Status::IoError(Prefix(what) + "rename to " + final_path +
                           " failed: injected rename fault");
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    unlink(tmp_path.c_str());
    return Status::IoError(Prefix(what) + "rename to " + final_path +
                           " failed: " + err);
  }
  if (options.fsync_dir) {
    return FsyncDir(dir, what);
  }
  return Status::OK();
}

Status AtomicWritePath(const std::string& path, const std::string& content,
                       const AtomicWriteOptions& options) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return AtomicWriteFile(".", path, content, options);
  }
  return AtomicWriteFile(path.substr(0, slash), path.substr(slash + 1),
                         content, options);
}

Status EnsureDir(const std::string& dir, const char* what) {
  if (dir.empty()) return Status::IoError(Prefix(what) + "empty directory");
  const auto make = [](const std::string& path) {
    return mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
  };
  const auto fail = [what](const std::string& path) {
    const int err = errno;
    return Status::IoError(Prefix(what) + "cannot create directory " + path +
                           ": " + std::strerror(err));
  };
  if (make(dir)) return Status::OK();
  if (errno != ENOENT) return fail(dir);
  // A parent is missing: create each component left to right. Positions
  // start past index 0 so an absolute path's leading '/' is not a
  // component.
  for (size_t pos = 1; pos < dir.size(); ++pos) {
    if (dir[pos] == '/' && !make(dir.substr(0, pos))) {
      return fail(dir.substr(0, pos));
    }
  }
  return make(dir) ? Status::OK() : fail(dir);
}

}  // namespace atomicio
}  // namespace multiclust
