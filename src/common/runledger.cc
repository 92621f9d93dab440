#include "common/runledger.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"

// Git revision baked in at configure time (src/CMakeLists.txt scopes the
// definition to this translation unit); "unknown" outside a git checkout.
#if !defined(MULTICLUST_GIT_REV)
#define MULTICLUST_GIT_REV "unknown"
#endif

namespace multiclust {
namespace ledger {

namespace {

constexpr char kFaultSite[] = "ledger";

// 0-based append attempt index of this process, the fault iteration for
// the "ledger" site.
std::atomic<size_t> g_append_attempts{0};

void KeyString(json::Writer* w, const char* key, const std::string& value) {
  if (value.empty()) return;
  w->Key(key);
  w->String(value);
}

}  // namespace

bool IsTerminalStatus(std::string_view status) {
  return !(status == "queued" || status == "resumed" || status == "crashed");
}

std::string GenerateRunId(uint64_t seed, const char* prefix) {
  // Process-local counter so two ids generated in the same second (same
  // pid, same seed) still differ.
  static std::atomic<uint64_t> g_sequence{0};
  uint64_t mix = seed;
  mix = SplitMix64(mix + 0x9E3779B97F4A7C15ULL *
                             static_cast<uint64_t>(::getpid()));
  mix = SplitMix64(mix + static_cast<uint64_t>(std::time(nullptr)));
  mix = SplitMix64(mix + g_sequence.fetch_add(1, std::memory_order_relaxed));
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, mix);
  return std::string(prefix) + "-" + hex;
}

std::string RunRecordJson(const RunRecord& record) {
  json::Writer w;
  w.BeginObject();
  w.Key("kind");
  w.String(kRunRecordKind);
  w.Key("schema_version");
  w.Int(kRunRecordSchemaVersion);
  KeyString(&w, "run_id", record.run_id);
  KeyString(&w, "tool", record.tool);
  KeyString(&w, "status", record.status);
  w.Key("exit_code");
  w.Int(record.exit_code);
  w.Key("seed");
  w.Uint(record.seed);
  KeyString(&w, "fingerprint", record.fingerprint);
  KeyString(&w, "workload", record.workload);
  KeyString(&w, "strategy", record.strategy);
  if (!std::isnan(record.objective)) {
    w.Key("objective");
    w.Double(record.objective);
  }
  KeyString(&w, "report", record.report_path);
  KeyString(&w, "checkpoint_dir", record.checkpoint_dir);
  KeyString(&w, "crash_report", record.crash_report);
  KeyString(&w, "note", record.note);
  KeyString(&w, "job", record.job);
  KeyString(&w, "tenant", record.tenant);
  w.Key("build");
  w.BeginObject();
  w.Key("git_rev");
  w.String(MULTICLUST_GIT_REV);
  w.Key("tracing");  // every build carries the tracer; kept for readers
  w.Bool(true);
  w.Key("fault_injection");  // every build carries the hooks; kept for readers
  w.Bool(true);
  w.Key("simd");
#if defined(MULTICLUST_SIMD)
  w.Bool(true);
#else
  w.Bool(false);
#endif
  w.EndObject();
  w.EndObject();
  return std::move(w).str();
}

Status Append(const std::string& ledger_path, const RunRecord& record) {
  if (ledger_path.empty()) {
    return Status::InvalidArgument("ledger: empty ledger path");
  }
  std::string line = RunRecordJson(record) + "\n";
  const size_t attempt =
      g_append_attempts.fetch_add(1, std::memory_order_relaxed);
  (void)attempt;
  if (MC_FAULT_FIRES(kFaultSite, FaultKind::kIoWriteFail, attempt)) {
    return Status::IoError("ledger: append to " + ledger_path +
                           " failed: injected write fault");
  }
  // O_RDWR rather than O_WRONLY: the torn-tail probe below has to read
  // the last byte back through this same descriptor.
  const int fd = ::open(ledger_path.c_str(),
                        O_RDWR | O_APPEND | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("ledger: cannot open " + ledger_path + ": " +
                           std::strerror(errno));
  }
  // Torn-tail healing: a crash mid-append leaves a half line with no
  // trailing newline; appending straight after it would fuse this record
  // onto the torn prefix and lose BOTH. Terminate any unterminated tail
  // first so only the torn half-line is sacrificed.
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    if (::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      line.insert(line.begin(), '\n');
    }
  }
  size_t to_write = line.size();
  bool torn = false;
  if (MC_FAULT_FIRES(kFaultSite, FaultKind::kIoShortWrite, attempt)) {
    // Crash-mid-append model: a prefix of the line (no newline) lands in
    // the file — readers must skip it and keep every earlier record.
    to_write = line.size() / 2;
    torn = true;
  }
  size_t off = 0;
  while (off < to_write) {
    const ssize_t n = ::write(fd, line.data() + off, to_write - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IoError("ledger: append to " + ledger_path +
                             " failed: " + err);
    }
    off += static_cast<size_t>(n);
  }
  const int sync_rc = ::fsync(fd);
  ::close(fd);
  if (torn) {
    return Status::IoError("ledger: append to " + ledger_path +
                           " failed: injected short write (torn line)");
  }
  if (sync_rc != 0) {
    return Status::IoError("ledger: fsync " + ledger_path +
                           " failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Status Read(const std::string& ledger_path, std::vector<RunRecord>* out,
            size_t* skipped_lines) {
  out->clear();
  if (skipped_lines != nullptr) *skipped_lines = 0;
  std::ifstream in(ledger_path);
  if (!in) {
    return Status::NotFound("ledger: cannot open " + ledger_path);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Result<json::Value> parsed = json::Parse(line);
    if (!parsed.ok() || parsed->GetString("kind", "") != kRunRecordKind) {
      // Torn trailing line after a crash, or foreign junk: skip, never
      // fail — every complete record before it still counts.
      if (skipped_lines != nullptr) ++*skipped_lines;
      continue;
    }
    const json::Value& doc = *parsed;
    RunRecord record;
    record.run_id = doc.GetString("run_id", "");
    record.tool = doc.GetString("tool", "");
    record.status = doc.GetString("status", "");
    record.exit_code = static_cast<int>(doc.GetNumber("exit_code", 0.0));
    record.seed = static_cast<uint64_t>(doc.GetNumber("seed", 0.0));
    record.fingerprint = doc.GetString("fingerprint", "");
    record.workload = doc.GetString("workload", "");
    record.strategy = doc.GetString("strategy", "");
    record.objective = doc.GetNumber(
        "objective", std::numeric_limits<double>::quiet_NaN());
    record.report_path = doc.GetString("report", "");
    record.checkpoint_dir = doc.GetString("checkpoint_dir", "");
    record.crash_report = doc.GetString("crash_report", "");
    record.note = doc.GetString("note", "");
    record.job = doc.GetString("job", "");
    record.tenant = doc.GetString("tenant", "");
    out->push_back(std::move(record));
  }
  return Status::OK();
}

}  // namespace ledger
}  // namespace multiclust
