#include "common/fault.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/blackbox.h"
#include "common/rng.h"

namespace multiclust {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kInjectNaN:
      return "inject_nan";
    case FaultKind::kForceNonConvergence:
      return "force_non_convergence";
    case FaultKind::kExpireDeadline:
      return "expire_deadline";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kIoWriteFail:
      return "io_write_fail";
    case FaultKind::kIoShortWrite:
      return "io_short_write";
    case FaultKind::kIoFsyncFail:
      return "io_fsync_fail";
    case FaultKind::kIoRenameFail:
      return "io_rename_fail";
    case FaultKind::kIoTornWrite:
      return "io_torn_write";
    case FaultKind::kCheckpointCorrupt:
      return "checkpoint_corrupt";
    case FaultKind::kAllocFail:
      return "alloc_fail";
    case FaultKind::kRaiseSegv:
      return "raise_segv";
  }
  return "unknown";
}

bool ParseFaultKind(std::string_view name, FaultKind* out) {
  constexpr FaultKind kAll[] = {
      FaultKind::kInjectNaN,     FaultKind::kForceNonConvergence,
      FaultKind::kExpireDeadline, FaultKind::kCrash,
      FaultKind::kIoWriteFail,   FaultKind::kIoShortWrite,
      FaultKind::kIoFsyncFail,   FaultKind::kIoRenameFail,
      FaultKind::kIoTornWrite,   FaultKind::kCheckpointCorrupt,
      FaultKind::kAllocFail,     FaultKind::kRaiseSegv,
  };
  for (FaultKind k : kAll) {
    if (name == FaultKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

namespace fault {

namespace {

struct ArmedFault {
  FaultSpec spec;
  size_t fires = 0;
  uint64_t coin_state = 0;  ///< SplitMix64 position for probabilistic specs
};

std::mutex g_mutex;
std::atomic<int> g_armed{0};
std::atomic<size_t> g_total_fires{0};

std::vector<ArmedFault>& Registry() {
  static std::vector<ArmedFault>* r = new std::vector<ArmedFault>();
  return *r;
}

}  // namespace

void Arm(const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(g_mutex);
  Registry().push_back({spec, 0, spec.seed});
  g_armed.store(static_cast<int>(Registry().size()),
                std::memory_order_release);
}

void Reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  Registry().clear();
  g_armed.store(0, std::memory_order_release);
  g_total_fires.store(0, std::memory_order_relaxed);
}

bool ShouldFire(const char* site, FaultKind kind, size_t iteration) {
  // Fast path: nothing armed (the normal state of a production process).
  if (g_armed.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (ArmedFault& f : Registry()) {
    if (f.spec.kind != kind) continue;
    if (iteration < f.spec.at_iteration) continue;
    if (f.spec.max_fires != 0 && f.fires >= f.spec.max_fires) continue;
    if (std::strcmp(f.spec.site.c_str(), site) != 0) continue;
    if (f.spec.probability < 1.0) {
      // One coin flip per eligible check, drawn from the spec's private
      // SplitMix64 stream: the firing pattern is a pure function of
      // (seed, eligible-check index), hence bit-reproducible per seed.
      f.coin_state = SplitMix64(f.coin_state + 0x9E3779B97F4A7C15ULL);
      const double draw =
          static_cast<double>(f.coin_state >> 11) * 0x1.0p-53;
      if (draw >= f.spec.probability) continue;
    }
    ++f.fires;
    g_total_fires.fetch_add(1, std::memory_order_relaxed);
    // Flight-record the fire while still under g_mutex: blackbox::Record
    // is lock-free, so no lock-order edge is created.
    blackbox::RecordFault(site, static_cast<int>(kind), iteration);
    return true;
  }
  return false;
}

size_t TotalFires() { return g_total_fires.load(std::memory_order_relaxed); }

size_t TotalFires(const char* site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  size_t total = 0;
  for (const ArmedFault& f : Registry()) {
    if (std::strcmp(f.spec.site.c_str(), site) == 0) total += f.fires;
  }
  return total;
}

}  // namespace fault
}  // namespace multiclust
