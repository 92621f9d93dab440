#ifndef MULTICLUST_COMMON_FAULT_H_
#define MULTICLUST_COMMON_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace multiclust {

/// Kinds of faults the injector can simulate inside iterative loops and at
/// the checkpoint I/O boundary.
enum class FaultKind {
  kInjectNaN,            ///< poison a numeric value with quiet NaN
  kForceNonConvergence,  ///< suppress an algorithm's convergence test
  kExpireDeadline,       ///< make the run budget report an expired deadline
  kCrash,                ///< simulated process death at a persistence point:
                         ///< the checkpointer force-snapshots, then the run
                         ///< returns kAborted (snapshot-then-abort)
  // --- I/O faults, fired at site "checkpoint" with iteration = the
  // Checkpointer's 0-based write index. The first four are *reported*
  // failures (the write call returns kIoError and the run degrades to a
  // warning); the torn write is *silent* (the call reports success but only
  // a prefix reaches the disk) — the model for a non-POSIX-atomic
  // filesystem tearing a sector, catchable only by read-back verification
  // or the restore-time CRC.
  kIoWriteFail,        ///< write() fails outright; temp file removed
  kIoShortWrite,       ///< ENOSPC-style: a prefix hits the disk, then error;
                       ///< the half-written temp file is left behind
  kIoFsyncFail,        ///< fsync(file) fails after a complete write
  kIoRenameFail,       ///< rename(temp, final) fails
  kIoTornWrite,        ///< SILENT: only a prefix persists, success reported
  kCheckpointCorrupt,  ///< post-write bit rot: one byte of the final file is
                       ///< flipped after all success paths ran; only the
                       ///< restore-time CRC sees it
  kAllocFail,          ///< simulated allocation failure at a Matrix/model
                       ///< growth site inside an algorithm loop; degrades to
                       ///< kComputationError (restart/retry/fallback paths)
  kRaiseSegv,          ///< raises a REAL SIGSEGV at the armed iteration's
                       ///< budget check — the process dies (modulo an
                       ///< installed crash handler, see common/blackbox.h).
                       ///< Crash-forensics only; chaos schedule generation
                       ///< never draws it.
};

/// Short stable identifier for `kind` ("inject_nan", "io_torn_write", ...),
/// used by chaos schedules; inverse of ParseFaultKind.
const char* FaultKindName(FaultKind kind);

/// Parses a FaultKindName() string. Returns false on unknown names.
bool ParseFaultKind(std::string_view name, FaultKind* out);

/// One armed fault. It fires at the named `site` (e.g. "kmeans", "gmm",
/// "dec-kmeans", "checkpoint") once the outer iteration counter reaches
/// `at_iteration`, at most `max_fires` times in total (0 = unlimited).
///
/// With `probability < 1.0` each otherwise-eligible check additionally
/// draws from a private SplitMix64 stream seeded with `seed` and fires only
/// when the draw lands below `probability`. The stream position advances
/// once per eligible check, so re-running the same workload with the same
/// armed spec replays the exact firing pattern — probabilistic faults stay
/// bit-reproducible per seed.
struct FaultSpec {
  std::string site;
  FaultKind kind = FaultKind::kInjectNaN;
  size_t at_iteration = 0;
  size_t max_fires = 0;
  double probability = 1.0;  ///< < 1.0 enables the seeded coin flip
  uint64_t seed = 0;         ///< SplitMix64 stream seed for the coin flips
};

/// Deterministic fault injector. The hooks are always compiled into the
/// library, so every build can exercise its recovery paths; with nothing
/// armed, the per-iteration cost is one acquire atomic load.
///
/// Concurrency contract (see fault_injection_test.cc, ArmRaceHygiene):
/// Arm(), Reset(), ShouldFire() and TotalFires() are individually
/// thread-safe and may race freely. An Arm() concurrent with a running
/// algorithm becomes visible to that algorithm at its *next* hook check —
/// never mid-check and never partially (the registry append happens under
/// the same mutex every slow-path check takes). A Reset() concurrent with a
/// check either sees the fault (and the fire counts toward the pre-Reset
/// total) or does not; a check can never observe a half-cleared registry.
/// There is no ordering between two hook checks on different threads: a
/// fault with max_fires = 1 fires on exactly one of them.
namespace fault {

/// Arms `spec` (appends to the active set). Thread-safe.
void Arm(const FaultSpec& spec);

/// Clears all armed faults and fire counters.
void Reset();

/// True when an armed fault matches (site, kind) and covers `iteration`;
/// each true return consumes one of the fault's `max_fires`.
bool ShouldFire(const char* site, FaultKind kind, size_t iteration);

/// Number of times any fault fired since the last Reset().
size_t TotalFires();

/// Number of fires attributed to faults armed at `site` since the last
/// Reset() — lets campaign assertions pinpoint the firing site.
size_t TotalFires(const char* site);

}  // namespace fault
}  // namespace multiclust

/// Hot-loop hook. Usage:
///   if (MC_FAULT_FIRES("kmeans", FaultKind::kInjectNaN, iter)) { ... }
#define MC_FAULT_FIRES(site, kind, iter) \
  (::multiclust::fault::ShouldFire((site), (kind), (iter)))

#endif  // MULTICLUST_COMMON_FAULT_H_
