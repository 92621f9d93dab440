#include "common/blackbox.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/profile.h"

namespace multiclust {
namespace blackbox {

namespace {

// --- Ring storage -----------------------------------------------------------
//
// Every field of a record is an individually-relaxed atomic: a reader
// racing the writer at the ring boundary may observe a MIXED record (the
// fields of two different events) but never a torn one — in particular
// the name pointer is always one that was actually stored, so the crash
// handler can dereference it safely. Consumers therefore must not assume
// records are internally consistent at the one boundary slot, and the
// crash-report validator does not require strict timestamp monotonicity.

static_assert((kRingCapacity & (kRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

struct Rec {
  std::atomic<uint64_t> ts_us{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<uint32_t> type{0};  // 0 = never written
};

struct alignas(64) ThreadRing {
  std::atomic<uint64_t> head{0};  // monotonic records-written count
  uint32_t tid = 0;
  std::atomic<uint32_t> span_depth{0};
  std::atomic<const char*> span_stack[kMaxSpanDepth] = {};
  Rec recs[kRingCapacity];
};

constexpr size_t kMaxThreads = 256;

std::atomic<bool> g_enabled{true};
std::atomic<ThreadRing*> g_rings[kMaxThreads];
std::atomic<uint32_t> g_ring_count{0};

// Process epoch for record timestamps, pinned by the first record (or by
// InstallCrashHandler, whichever runs first) via CAS.
std::atomic<uint64_t> g_epoch_us{0};

uint64_t NowRawUs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

uint64_t NowUs() {
  uint64_t epoch = g_epoch_us.load(std::memory_order_relaxed);
  if (epoch == 0) {
    uint64_t now = NowRawUs();
    g_epoch_us.compare_exchange_strong(epoch, now,
                                       std::memory_order_relaxed);
    epoch = g_epoch_us.load(std::memory_order_relaxed);
  }
  const uint64_t raw = NowRawUs();
  return raw >= epoch ? raw - epoch : 0;
}

// Rings are registered once per thread and intentionally leaked: the
// crash handler (and a post-run FlightRecordJson) may read a ring after
// its thread exited. Threads past kMaxThreads record nothing.
ThreadRing* LocalRing() {
  thread_local ThreadRing* ring = [] {
    const uint32_t slot =
        g_ring_count.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxThreads) return static_cast<ThreadRing*>(nullptr);
    ThreadRing* r = new ThreadRing();
    r->tid = slot;
    g_rings[slot].store(r, std::memory_order_release);
    return r;
  }();
  return ring;
}

inline void RecordTo(ThreadRing* ring, EventType type, const char* name,
                     uint64_t a, uint64_t b) {
  const uint64_t seq = ring->head.load(std::memory_order_relaxed);
  Rec& r = ring->recs[seq & (kRingCapacity - 1)];
  r.ts_us.store(NowUs(), std::memory_order_relaxed);
  r.name.store(name, std::memory_order_relaxed);
  r.a.store(a, std::memory_order_relaxed);
  r.b.store(b, std::memory_order_relaxed);
  r.type.store(static_cast<uint32_t>(type), std::memory_order_relaxed);
  ring->head.store(seq + 1, std::memory_order_release);
}

// --- Checkpoint / crash-handler global state --------------------------------

std::atomic<uint64_t> g_ckpt_snapshots{0};
std::atomic<uint64_t> g_ckpt_restores{0};
std::atomic<uint64_t> g_ckpt_last_seq{0};
// Last checkpointed algorithm name, copied byte-by-byte through relaxed
// atomics so the handler's read of a concurrent update is interleaved at
// worst, never undefined.
std::atomic<char> g_ckpt_algo[64] = {};

constexpr size_t kMaxPath = 1024;
constexpr size_t kMaxLedgerLine = 4096;

std::atomic<bool> g_handler_installed{false};
std::atomic<bool> g_in_crash{false};
char g_report_path[kMaxPath] = {};

char g_ledger_path[kMaxPath] = {};
char g_ledger_line[kMaxLedgerLine] = {};
std::atomic<size_t> g_ledger_line_len{0};  // release-published after copy

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGABRT, SIGFPE};
constexpr size_t kNumFatalSignals =
    sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);
struct sigaction g_saved_actions[kNumFatalSignals];

const char* SignalName(int sig) {
  switch (sig) {
    case 0:
      return "snapshot";
    case SIGSEGV:
      return "SIGSEGV";
    case SIGBUS:
      return "SIGBUS";
    case SIGABRT:
      return "SIGABRT";
    case SIGFPE:
      return "SIGFPE";
  }
  return "unknown";
}

// --- Async-signal-safe JSON sink --------------------------------------------
//
// One writer, two backends: a file descriptor (crash handler — flushes
// through a fixed stack buffer with a write(2) retry loop, no
// allocation) or a std::string (FlightRecordJson — normal context).

class Sink {
 public:
  explicit Sink(int fd) : fd_(fd) {}
  explicit Sink(std::string* out) : out_(out) {}

  void Char(char c) {
    if (len_ == sizeof(buf_)) Flush();
    buf_[len_++] = c;
  }

  void Raw(const char* s) {
    while (*s != '\0') Char(*s++);
  }

  void Uint(uint64_t v) {
    char digits[20];
    size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Char(digits[--n]);
  }

  void Int(int64_t v) {
    if (v < 0) {
      Char('-');
      Uint(static_cast<uint64_t>(-(v + 1)) + 1);
    } else {
      Uint(static_cast<uint64_t>(v));
    }
  }

  void Hex(uint64_t v) {
    Raw("0x");
    char digits[16];
    size_t n = 0;
    do {
      const uint64_t d = v & 0xF;
      digits[n++] =
          static_cast<char>(d < 10 ? '0' + d : 'a' + (d - 10));
      v >>= 4;
    } while (v != 0);
    while (n > 0) Char(digits[--n]);
  }

  // JSON string literal, escaped, clamped to `max` source bytes (the
  // handler must bound every loop over data it does not own).
  void Quoted(const char* s, size_t max = 256) {
    Char('"');
    for (size_t i = 0; s != nullptr && s[i] != '\0' && i < max; ++i) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (c == '"' || c == '\\') {
        Char('\\');
        Char(static_cast<char>(c));
      } else if (c < 0x20) {
        Raw("\\u00");
        Char(c < 0x10 ? '0' : '1');
        const unsigned char d = c & 0xF;
        Char(static_cast<char>(d < 10 ? '0' + d : 'a' + (d - 10)));
      } else {
        Char(static_cast<char>(c));
      }
    }
    Char('"');
  }

  void Flush() {
    if (out_ != nullptr) {
      out_->append(buf_, len_);
    } else if (fd_ >= 0) {
      size_t off = 0;
      while (off < len_) {
        const ssize_t n = ::write(fd_, buf_ + off, len_ - off);
        if (n > 0) {
          off += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;  // unwritable target: drop the rest, still re-raise
        }
      }
    }
    len_ = 0;
  }

 private:
  int fd_ = -1;
  std::string* out_ = nullptr;
  char buf_[4096];
  size_t len_ = 0;
};

// --- Report body (shared by the crash handler and FlightRecordJson) ---------

void WriteThread(Sink* s, const ThreadRing* ring) {
  s->Raw("{\"tid\":");
  s->Uint(ring->tid);
  s->Raw(",\"open_spans\":[");
  uint32_t depth = ring->span_depth.load(std::memory_order_acquire);
  if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
  for (uint32_t i = 0; i < depth; ++i) {
    if (i > 0) s->Char(',');
    s->Quoted(ring->span_stack[i].load(std::memory_order_relaxed));
  }
  s->Raw("],\"events\":[");
  const uint64_t head = ring->head.load(std::memory_order_acquire);
  const uint64_t count = head < kRingCapacity ? head : kRingCapacity;
  bool first = true;
  for (uint64_t seq = head - count; seq != head; ++seq) {
    const Rec& r = ring->recs[seq & (kRingCapacity - 1)];
    uint32_t type = r.type.load(std::memory_order_relaxed);
    if (type == 0) continue;  // slot never written (head raced Reset)
    if (type > static_cast<uint32_t>(EventType::kMark)) type = 0;
    if (!first) s->Char(',');
    first = false;
    s->Raw("{\"t\":");
    s->Uint(r.ts_us.load(std::memory_order_relaxed));
    s->Raw(",\"type\":");
    s->Quoted(EventTypeName(static_cast<EventType>(type)));
    s->Raw(",\"name\":");
    s->Quoted(r.name.load(std::memory_order_relaxed));
    s->Raw(",\"a\":");
    s->Uint(r.a.load(std::memory_order_relaxed));
    const uint64_t b = r.b.load(std::memory_order_relaxed);
    if (b != 0) {
      s->Raw(",\"b\":");
      s->Uint(b);
    }
    if (type == static_cast<uint32_t>(EventType::kFault)) {
      s->Raw(",\"fault_kind\":");
      s->Quoted(FaultKindName(static_cast<FaultKind>(b)));
    }
    s->Char('}');
  }
  s->Raw("]}");
}

// Builds the whole multiclust.crash_report document. Async-signal-safe
// when `s` is fd-backed: integer formatting only, bounded loops, and —
// the one liberty taken — getrusage(2), which is not on the POSIX
// async-signal-safe list but is a plain syscall on Linux and the only
// way to report peak RSS from a dying process.
void WriteReportBody(Sink* s, int sig, const void* fault_addr) {
  s->Raw("{\"kind\":");
  s->Quoted(kCrashReportKind);
  s->Raw(",\"schema_version\":");
  s->Int(kCrashReportSchemaVersion);
  s->Raw(",\"signal\":");
  s->Int(sig);
  s->Raw(",\"signal_name\":");
  s->Quoted(SignalName(sig));
  if (fault_addr != nullptr) {
    s->Raw(",\"fault_addr\":\"");
    s->Hex(reinterpret_cast<uint64_t>(fault_addr));
    s->Char('"');
  }
  s->Raw(",\"pid\":");
  s->Int(static_cast<int64_t>(::getpid()));
  s->Raw(",\"elapsed_us\":");
  s->Uint(NowUs());

  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  ::getrusage(RUSAGE_SELF, &ru);
  s->Raw(",\"resource\":{\"user_cpu_us\":");
  s->Uint(static_cast<uint64_t>(ru.ru_utime.tv_sec) * 1000000ull +
          static_cast<uint64_t>(ru.ru_utime.tv_usec));
  s->Raw(",\"system_cpu_us\":");
  s->Uint(static_cast<uint64_t>(ru.ru_stime.tv_sec) * 1000000ull +
          static_cast<uint64_t>(ru.ru_stime.tv_usec));
  s->Raw(",\"peak_rss_kb\":");
  s->Uint(static_cast<uint64_t>(ru.ru_maxrss));
  s->Raw(",\"minor_faults\":");
  s->Uint(static_cast<uint64_t>(ru.ru_minflt));
  s->Raw(",\"major_faults\":");
  s->Uint(static_cast<uint64_t>(ru.ru_majflt));
  s->Raw(",\"alloc_count\":");
  s->Uint(telemetry::internal::g_alloc_count.load(std::memory_order_relaxed));
  s->Raw(",\"alloc_bytes\":");
  s->Uint(telemetry::internal::g_alloc_bytes.load(std::memory_order_relaxed));
  s->Raw(",\"flops\":");
  s->Uint(telemetry::internal::g_flops.load(std::memory_order_relaxed));
  s->Raw(",\"kernel_bytes\":");
  s->Uint(
      telemetry::internal::g_kernel_bytes.load(std::memory_order_relaxed));
  s->Char('}');

  s->Raw(",\"fault_injection\":{\"total_fires\":");
  s->Uint(fault::TotalFires());
  s->Char('}');

  s->Raw(",\"checkpoint\":{\"snapshots\":");
  s->Uint(g_ckpt_snapshots.load(std::memory_order_relaxed));
  s->Raw(",\"restores\":");
  s->Uint(g_ckpt_restores.load(std::memory_order_relaxed));
  s->Raw(",\"last_sequence\":");
  s->Uint(g_ckpt_last_seq.load(std::memory_order_relaxed));
  s->Raw(",\"last_algorithm\":\"");
  for (size_t i = 0;
       i < sizeof(g_ckpt_algo) / sizeof(g_ckpt_algo[0]); ++i) {
    const char c = g_ckpt_algo[i].load(std::memory_order_relaxed);
    if (c == '\0') break;
    // Slot names are [a-z0-9._-]; anything else is dropped rather than
    // escaped, keeping the handler loop trivial.
    if (c == '"' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20) continue;
    s->Char(c);
  }
  s->Raw("\"}");

  s->Raw(",\"threads\":[");
  const uint32_t count = g_ring_count.load(std::memory_order_acquire);
  bool first = true;
  for (uint32_t i = 0; i < count && i < kMaxThreads; ++i) {
    const ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    if (!first) s->Char(',');
    first = false;
    WriteThread(s, ring);
  }
  s->Raw("]}\n");
  s->Flush();
}

void RestoreDisposition(int sig) {
  for (size_t i = 0; i < kNumFatalSignals; ++i) {
    if (kFatalSignals[i] == sig) {
      ::sigaction(sig, &g_saved_actions[i], nullptr);
      return;
    }
  }
  ::signal(sig, SIG_DFL);
}

void CrashHandler(int sig, siginfo_t* info, void* /*ucontext*/) {
  // Reentrancy: a second fatal signal (including one raised by this
  // handler itself) must not recurse into the report writer.
  if (g_in_crash.exchange(true)) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    return;
  }
  g_enabled.store(false, std::memory_order_relaxed);

  const int fd =
      ::open(g_report_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    Sink sink(fd);
    WriteReportBody(&sink, sig,
                    info != nullptr ? info->si_addr : nullptr);
    ::fsync(fd);
    ::close(fd);
    Sink err(2);
    err.Raw("multiclust: fatal signal ");
    err.Raw(SignalName(sig));
    err.Raw(", crash report written to ");
    err.Raw(g_report_path);
    err.Char('\n');
    err.Flush();
  }

  const size_t line_len =
      g_ledger_line_len.load(std::memory_order_acquire);
  if (line_len > 0 && g_ledger_path[0] != '\0') {
    const int lfd = ::open(g_ledger_path,
                           O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (lfd >= 0) {
      size_t off = 0;
      while (off < line_len) {
        const ssize_t n =
            ::write(lfd, g_ledger_line + off, line_len - off);
        if (n > 0) {
          off += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          break;
        }
      }
      (void)!::write(lfd, "\n", 1);
      ::fsync(lfd);
      ::close(lfd);
    }
  }

  RestoreDisposition(sig);
  ::raise(sig);
}

}  // namespace

// --- Public API -------------------------------------------------------------

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Record(EventType type, const char* name, uint64_t a, uint64_t b) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadRing* ring = LocalRing();
  if (ring == nullptr) return;
  RecordTo(ring, type, name, a, b);
}

void OnSpanEnter(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadRing* ring = LocalRing();
  if (ring == nullptr) return;
  const uint32_t depth = ring->span_depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) {
    ring->span_stack[depth].store(name, std::memory_order_relaxed);
  }
  ring->span_depth.store(depth + 1, std::memory_order_release);
  RecordTo(ring, EventType::kSpanEnter, name, depth, 0);
}

void OnSpanExit(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadRing* ring = LocalRing();
  if (ring == nullptr) return;
  const uint32_t depth = ring->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) {
    if (depth <= kMaxSpanDepth) {
      ring->span_stack[depth - 1].store(nullptr,
                                        std::memory_order_relaxed);
    }
    ring->span_depth.store(depth - 1, std::memory_order_release);
  }
  RecordTo(ring, EventType::kSpanExit, name, depth > 0 ? depth - 1 : 0, 0);
}

void Mark(const char* name, uint64_t a) {
  Record(EventType::kMark, name, a, 0);
}

void RecordFault(const char* site, int kind, uint64_t iteration) {
  Record(EventType::kFault, site, iteration,
         static_cast<uint64_t>(kind));
}

void RecordCheckpoint(EventType type, const char* algorithm,
                      uint64_t sequence) {
  switch (type) {
    case EventType::kCheckpointWrite:
      g_ckpt_snapshots.fetch_add(1, std::memory_order_relaxed);
      g_ckpt_last_seq.store(sequence, std::memory_order_relaxed);
      break;
    case EventType::kCheckpointRestore:
      g_ckpt_restores.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  if (algorithm != nullptr && *algorithm != '\0' &&
      type != EventType::kCheckpointFail) {
    constexpr size_t kAlgoCap = sizeof(g_ckpt_algo) / sizeof(g_ckpt_algo[0]);
    size_t i = 0;
    for (; i + 1 < kAlgoCap && algorithm[i] != '\0'; ++i) {
      g_ckpt_algo[i].store(algorithm[i], std::memory_order_relaxed);
    }
    g_ckpt_algo[i].store('\0', std::memory_order_relaxed);
  }
  // The per-thread record stores a static label; the dynamic slot name
  // lives in the checkpoint summary above.
  Record(type, "checkpoint", sequence, 0);
}

void Reset() {
  const uint32_t count = g_ring_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < count && i < kMaxThreads; ++i) {
    ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (size_t j = 0; j < kRingCapacity; ++j) {
      ring->recs[j].type.store(0, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_release);
  }
  g_ckpt_snapshots.store(0, std::memory_order_relaxed);
  g_ckpt_restores.store(0, std::memory_order_relaxed);
  g_ckpt_last_seq.store(0, std::memory_order_relaxed);
  g_ckpt_algo[0].store('\0', std::memory_order_relaxed);
}

uint64_t TotalRecords() {
  uint64_t total = 0;
  const uint32_t count = g_ring_count.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < count && i < kMaxThreads; ++i) {
    const ThreadRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) {
      total += ring->head.load(std::memory_order_relaxed);
    }
  }
  return total;
}

Status InstallCrashHandler(const std::string& report_path) {
  if (report_path.empty()) {
    return Status::InvalidArgument("blackbox: empty crash-report path");
  }
  if (report_path.size() >= kMaxPath) {
    return Status::InvalidArgument(
        "blackbox: crash-report path too long (handler buffers are "
        "fixed)");
  }
  if (g_handler_installed.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "blackbox: crash handler already installed");
  }
  std::memcpy(g_report_path, report_path.c_str(), report_path.size() + 1);
  NowUs();      // pin the timestamp epoch outside signal context
  LocalRing();  // register the installing thread's ring eagerly
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &CrashHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_SIGINFO;
  for (size_t i = 0; i < kNumFatalSignals; ++i) {
    if (::sigaction(kFatalSignals[i], &action, &g_saved_actions[i]) != 0) {
      for (size_t j = 0; j < i; ++j) {
        ::sigaction(kFatalSignals[j], &g_saved_actions[j], nullptr);
      }
      return Status::Internal("blackbox: sigaction failed for signal " +
                              std::to_string(kFatalSignals[i]));
    }
  }
  g_in_crash.store(false, std::memory_order_relaxed);
  g_handler_installed.store(true, std::memory_order_release);
  return Status::OK();
}

void UninstallCrashHandler() {
  if (!g_handler_installed.load(std::memory_order_acquire)) return;
  for (size_t i = 0; i < kNumFatalSignals; ++i) {
    ::sigaction(kFatalSignals[i], &g_saved_actions[i], nullptr);
  }
  g_handler_installed.store(false, std::memory_order_release);
}

bool CrashHandlerInstalled() {
  return g_handler_installed.load(std::memory_order_acquire);
}

void SetCrashLedger(const std::string& ledger_path,
                    const std::string& record_line) {
  if (ledger_path.empty() || record_line.empty() ||
      ledger_path.size() >= kMaxPath ||
      record_line.size() >= kMaxLedgerLine) {
    g_ledger_line_len.store(0, std::memory_order_release);
    g_ledger_path[0] = '\0';
    return;
  }
  g_ledger_line_len.store(0, std::memory_order_release);  // unpublish first
  std::memcpy(g_ledger_path, ledger_path.c_str(), ledger_path.size() + 1);
  std::memcpy(g_ledger_line, record_line.c_str(), record_line.size() + 1);
  g_ledger_line_len.store(record_line.size(), std::memory_order_release);
}

std::string FlightRecordJson(int signal) {
  std::string out;
  out.reserve(16384);
  Sink sink(&out);
  WriteReportBody(&sink, signal, nullptr);
  return out;
}

}  // namespace blackbox
}  // namespace multiclust
