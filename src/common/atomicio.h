#ifndef MULTICLUST_COMMON_ATOMICIO_H_
#define MULTICLUST_COMMON_ATOMICIO_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace multiclust {

/// Crash-safe file publication shared by every artifact writer
/// (checkpoints, metrics snapshots, flight records, Chrome traces, flame
/// graphs): write `<final>.tmp`, fsync, rename over the final name — a
/// crash at any point leaves either the previous file or the new complete
/// file, never a torn one.
///
/// The writer carries the library's I/O fault-injection hooks (fault.h,
/// the kIo* kinds) so every consumer inherits the same failure model the
/// checkpoint subsystem is tested under; pass a null `fault_site` to
/// opt out of injection entirely.
namespace atomicio {

struct AtomicWriteOptions {
  /// Error-message prefix, e.g. "checkpoint" -> "checkpoint: fsync ...".
  const char* what = "atomicio";
  /// Fault-injection site for the kIo* kinds; nullptr disables the hooks.
  const char* fault_site = nullptr;
  /// Fault iteration: the caller's 0-based write-attempt index.
  size_t io_step = 0;
  /// kIoShortWrite behavior: true preserves the half-written temp file
  /// (the checkpoint model — recovery must ignore stray *.tmp files);
  /// false unlinks it, guaranteeing no temp is ever leaked (the model
  /// for scraper-facing artifacts like metrics snapshots).
  bool keep_temp_on_short_write = false;
  /// fsync the containing directory after the rename (durable
  /// publication; skip for best-effort artifacts rewritten periodically).
  bool fsync_dir = false;
};

/// Atomically publishes `content` as `<dir>/<name>`. Every injected I/O
/// failure surfaces as a clean kIoError except kIoTornWrite, which
/// silently persists only a prefix (the model of a filesystem without
/// atomic rename) — read-back verification or a content checksum is what
/// catches that one. On any reported failure the final file is untouched
/// and the temp file is removed (except the documented short-write case).
Status AtomicWriteFile(const std::string& dir, const std::string& name,
                       const std::string& content,
                       const AtomicWriteOptions& options = {});

/// Creates `dir` and every missing ancestor (mkdir -p), so nested artifact
/// directories like "runs/today/job3" work out of the box. Errors carry the
/// `what` prefix, e.g. "checkpoint: cannot create directory ...".
Status EnsureDir(const std::string& dir, const char* what);

/// AtomicWriteFile addressed by one path, split at its last '/' (a bare
/// file name publishes into the current directory).
Status AtomicWritePath(const std::string& path, const std::string& content,
                       const AtomicWriteOptions& options = {});

}  // namespace atomicio
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_ATOMICIO_H_
