#include "common/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/atomicio.h"
#include "common/blackbox.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/runguard.h"
#include "linalg/matrix.h"

namespace multiclust {

namespace {

// File layout: <dir>/<algorithm>.<sequence>.ckpt.json, sequence zero-padded
// so lexical order equals numeric order.
constexpr char kSuffix[] = ".ckpt.json";

std::string CheckpointFileName(const std::string& algorithm,
                               uint64_t sequence) {
  char seq[32];
  std::snprintf(seq, sizeof(seq), "%020" PRIu64, sequence);
  return algorithm + "." + seq + kSuffix;
}

// Splits "algo.00000000000000000003.ckpt.json" -> (algo, 3).
bool ParseCheckpointFileName(const std::string& name, std::string* algorithm,
                             uint64_t* sequence) {
  const size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= suffix_len + 21) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return false;
  }
  const size_t seq_start = name.size() - suffix_len - 20;
  if (name[seq_start - 1] != '.') return false;
  const std::string seq = name.substr(seq_start, 20);
  for (char c : seq) {
    if (c < '0' || c > '9') return false;
  }
  *algorithm = name.substr(0, seq_start - 1);
  *sequence = std::strtoull(seq.c_str(), nullptr, 10);
  return true;
}

Status ListCheckpoints(const std::string& dir, const std::string& algorithm,
                       std::vector<std::pair<uint64_t, std::string>>* out) {
  out->clear();
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::OK();  // no directory = no files
    return Status::IoError("checkpoint: cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  while (dirent* entry = readdir(d)) {
    std::string algo;
    uint64_t seq = 0;
    if (!ParseCheckpointFileName(entry->d_name, &algo, &seq)) continue;
    if (!algorithm.empty() && algo != algorithm) continue;
    out->emplace_back(seq, entry->d_name);
  }
  closedir(d);
  std::sort(out->begin(), out->end());
  return Status::OK();
}

// The injection site for checkpoint I/O faults; the fault iteration is the
// Checkpointer's 0-based write-attempt index (see FaultKind docs).
constexpr char kIoFaultSite[] = "checkpoint";

// write temp -> fsync -> rename -> fsync(dir) via the shared atomicio
// writer, under the checkpoint failure model: "checkpoint:"-prefixed
// errors, the "checkpoint" fault site, and a short write that leaves the
// half-written temp file behind (recovery must ignore stray *.tmp files —
// checkpoint_test depends on that artifact).
Status AtomicWriteFile(const std::string& dir, const std::string& name,
                       const std::string& content, size_t io_step) {
  atomicio::AtomicWriteOptions options;
  options.what = "checkpoint";
  options.fault_site = kIoFaultSite;
  options.io_step = io_step;
  options.keep_temp_on_short_write = true;
  options.fsync_dir = true;
  return atomicio::AtomicWriteFile(dir, name, content, options);
}

// Creates `dir` and every missing ancestor (mkdir -p): checkpoint
// directories like "runs/today/job3" must work out of the box.
Status EnsureDir(const std::string& dir) {
  if (dir.empty()) {
    return Status::IoError("checkpoint: empty checkpoint directory");
  }
  if (mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  if (errno != ENOENT) {
    return Status::IoError("checkpoint: cannot create directory " + dir +
                           ": " + std::strerror(errno));
  }
  // A parent is missing: create each component left to right. Positions
  // start past index 0 so an absolute path's leading '/' is not a
  // component.
  for (size_t pos = 1; pos < dir.size(); ++pos) {
    if (dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("checkpoint: cannot create directory " + prefix +
                             ": " + std::strerror(errno));
    }
  }
  if (mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IoError("checkpoint: cannot create directory " + dir + ": " +
                         std::strerror(errno));
}

std::string HexU64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  return buf;
}

// Read-back verification toggle (see SetVerifyAfterWriteForTest). Always on
// outside tests: it is the guard that keeps rotation from destroying the
// last good snapshot when a write silently tore.
bool g_verify_after_write = true;

// Reads all of `path`; empty optional when unreadable.
std::optional<std::string> SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

#if defined(MULTICLUST_FAULT_INJECTION)
// kCheckpointCorrupt: deterministic post-write bit rot — the byte at `pos`
// in the (already verified) final file gets a bit flipped. The caller aims
// `pos` into the payload region: envelope bytes outside the validated
// fields (e.g. the "sequence" key — sequence numbers come from the file
// name) are not covered by any check, but every payload byte is under the
// restore-time CRC, so a payload flip is always detected on load.
void FlipByteInFile(const std::string& path, off_t pos) {
  const int fd = open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  const off_t size = lseek(fd, 0, SEEK_END);
  if (size > 0) {
    if (pos < 0 || pos >= size) pos = size / 2;
    char byte = 0;
    if (pread(fd, &byte, 1, pos) == 1) {
      byte = static_cast<char>(byte ^ 0x04);
      pwrite(fd, &byte, 1, pos);
      fsync(fd);
    }
  }
  close(fd);
}
#endif  // MULTICLUST_FAULT_INJECTION

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Fingerprint& Fingerprint::Mix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (v >> (8 * i)) & 0xFFu;
    state_ *= 0x100000001B3ULL;  // FNV prime
  }
  return *this;
}

Fingerprint& Fingerprint::Mix(std::string_view s) {
  for (unsigned char c : s) {
    state_ ^= c;
    state_ *= 0x100000001B3ULL;
  }
  Mix(static_cast<uint64_t>(s.size()));
  return *this;
}

Fingerprint& Fingerprint::MixDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(bits);
}

Fingerprint& Fingerprint::Mix(const Matrix& m) {
  Mix(static_cast<uint64_t>(m.rows()));
  Mix(static_cast<uint64_t>(m.cols()));
  // Eight independent word-wise FNV-1a lanes, folded into the main state at
  // the end. A single byte-wise chain (8 dependent multiplies per entry)
  // costs tens of microseconds on a few-thousand-row matrix — it dominated
  // the whole armed-checkpoint overhead, since every algorithm fingerprints
  // its input once per run.
  constexpr uint64_t kPrime = 0x100000001B3ULL;
  uint64_t lane[8];
  for (int l = 0; l < 8; ++l) {
    lane[l] = 0xCBF29CE484222325ULL + static_cast<uint64_t>(l);
  }
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_data(i);
    const size_t cols = m.cols();
    size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      for (int l = 0; l < 8; ++l) {
        uint64_t bits;
        std::memcpy(&bits, &row[j + l], sizeof(bits));
        lane[l] = (lane[l] ^ bits) * kPrime;
      }
    }
    for (; j < cols; ++j) {
      uint64_t bits;
      std::memcpy(&bits, &row[j], sizeof(bits));
      lane[j % 8] = (lane[j % 8] ^ bits) * kPrime;
    }
  }
  // Byte-wise fold of each lane restores full diffusion in the final value.
  for (int l = 0; l < 8; ++l) Mix(lane[l]);
  return *this;
}

Checkpointer::Checkpointer(std::string dir, CheckpointPolicy policy)
    : dir_(std::move(dir)), policy_(policy) {}

void Checkpointer::Warn(const char* algorithm, const std::string& message,
                        RunDiagnostics* diagnostics) {
  const std::string full = std::string(algorithm) + ": " + message;
  warnings_.push_back(full);
  if (diagnostics != nullptr) diagnostics->warnings.push_back(full);
}

std::vector<std::string> Checkpointer::TakeWarnings() {
  std::vector<std::string> out = std::move(warnings_);
  warnings_.clear();
  return out;
}

std::optional<Checkpointer::Restored> Checkpointer::TryRestore(
    const char* algorithm, uint64_t fingerprint,
    RunDiagnostics* diagnostics) {
  std::vector<std::pair<uint64_t, std::string>> files;
  const Status list = ListCheckpoints(dir_, algorithm, &files);
  if (!list.ok()) {
    Warn(algorithm, "cold start: " + list.ToString(), diagnostics);
    return std::nullopt;
  }
  // Newest first; the first fully valid matching candidate wins. Every
  // rejected candidate is a warning, never an error: a corrupt or stale
  // checkpoint must degrade to a cold start.
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    const std::string path = dir_ + "/" + it->second;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      Warn(algorithm, "checkpoint " + it->second + " unreadable; skipped",
           diagnostics);
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    Result<json::Value> parsed = json::Parse(text);
    if (!parsed.ok()) {
      Warn(algorithm,
           "checkpoint " + it->second +
               " corrupt (truncated or malformed JSON); skipped",
           diagnostics);
      continue;
    }
    const json::Value& doc = *parsed;
    const double version = doc.GetNumber("schema_version", -1.0);
    if (doc.GetString("kind", "") != kCheckpointKind ||
        version != kCheckpointSchemaVersion) {
      Warn(algorithm,
           "checkpoint " + it->second + " has unsupported schema (kind '" +
               doc.GetString("kind", "?") + "', version " +
               std::to_string(static_cast<long long>(version)) + "); skipped",
           diagnostics);
      continue;
    }
    const json::Value* payload = doc.Find("payload");
    const json::Value* crc_field = doc.Find("crc32");
    if (payload == nullptr || crc_field == nullptr ||
        !crc_field->is_number()) {
      Warn(algorithm,
           "checkpoint " + it->second + " missing payload or checksum; "
           "skipped",
           diagnostics);
      continue;
    }
    // The writer computed the CRC over the exact serialized payload, and
    // parse->serialize is the identity on documents this library writes, so
    // re-serializing reproduces the checksummed bytes.
    json::Writer reserialized;
    json::SerializeValue(*payload, &reserialized);
    const uint32_t crc = Crc32(reserialized.str());
    if (static_cast<double>(crc) != crc_field->number_value()) {
      Warn(algorithm,
           "checkpoint " + it->second + " failed its CRC-32 check; skipped",
           diagnostics);
      continue;
    }
    if (doc.GetString("algorithm", "") != algorithm) {
      Warn(algorithm,
           "checkpoint " + it->second + " belongs to algorithm '" +
               doc.GetString("algorithm", "?") + "'; skipped",
           diagnostics);
      continue;
    }
    if (doc.GetString("fingerprint", "") != HexU64(fingerprint)) {
      // A channel-level note (warnings()/TakeWarnings), never a run
      // diagnostic: composite strategies share one slot across base runs,
      // so a resumed run legitimately probes its siblings' snapshots, and
      // a diagnostics warning would make its report differ from an
      // uninterrupted run's.
      if (stale_fp_warned_.insert(algorithm).second) {
        Warn(algorithm,
             "checkpoint " + it->second +
                 " was written under a different configuration or dataset; "
                 "skipped (further stale probes of this slot are silent)",
             nullptr);
      }
      continue;
    }
    MC_METRIC_COUNT("checkpoint.restores", 1);
    blackbox::RecordCheckpoint(blackbox::EventType::kCheckpointRestore,
                               algorithm, it->first);
    Restored restored;
    restored.sequence = it->first;
    restored.payload = *payload;
    return restored;
  }
  return std::nullopt;
}

Status Checkpointer::WriteSnapshot(
    const char* algorithm, uint64_t fingerprint,
    FunctionRef<void(json::Writer*)> payload) {
  MC_RETURN_IF_ERROR(EnsureDir(dir_));
  std::vector<std::pair<uint64_t, std::string>> files;
  MC_RETURN_IF_ERROR(ListCheckpoints(dir_, algorithm, &files));
  const uint64_t sequence = files.empty() ? 1 : files.back().first + 1;

  json::Writer body;
  payload(&body);
  const std::string payload_text = std::move(body).str();

  json::Writer doc;
  doc.BeginObject();
  doc.Key("schema_version");
  doc.Int(kCheckpointSchemaVersion);
  doc.Key("kind");
  doc.String(kCheckpointKind);
  doc.Key("algorithm");
  doc.String(algorithm);
  doc.Key("sequence");
  doc.Uint(sequence);
  doc.Key("fingerprint");
  doc.String(HexU64(fingerprint));
  doc.Key("crc32");
  doc.Uint(Crc32(payload_text));
  doc.Key("payload");
  doc.Raw(payload_text);
  doc.EndObject();

  const std::string file_name = CheckpointFileName(algorithm, sequence);
  const std::string doc_text = std::move(doc).str();
  const size_t io_step = write_attempts_++;
  const Status written = AtomicWriteFile(dir_, file_name, doc_text, io_step);
  if (!written.ok()) {
    blackbox::RecordCheckpoint(blackbox::EventType::kCheckpointFail,
                               algorithm, sequence);
    return written;
  }

  // Read-back verification: a snapshot only counts (and rotation only
  // runs) once the bytes on disk equal the bytes we meant to write. This
  // is the guard against silent torn writes — without it, a torn new file
  // would rotate out the last *good* snapshot and leave only garbage.
  if (g_verify_after_write) {
    const std::optional<std::string> on_disk =
        SlurpFile(dir_ + "/" + file_name);
    if (!on_disk.has_value() || *on_disk != doc_text) {
      unlink((dir_ + "/" + file_name).c_str());
      blackbox::RecordCheckpoint(blackbox::EventType::kCheckpointFail,
                                 algorithm, sequence);
      return Status::IoError(
          "checkpoint: " + file_name +
          " failed read-back verification (torn or corrupt write); removed");
    }
  }
  ++snapshots_written_;
  blackbox::RecordCheckpoint(blackbox::EventType::kCheckpointWrite,
                             algorithm, sequence);
  MC_METRIC_COUNT("checkpoint.snapshots", 1);
  have_last_save_ = true;
  last_save_ = std::chrono::steady_clock::now();

#if defined(MULTICLUST_FAULT_INJECTION)
  // Post-verification bit rot (models corruption that happens after a
  // correct write): exercised against the restore-time CRC, never against
  // the write path above.
  if (MC_FAULT_FIRES(kIoFaultSite, FaultKind::kCheckpointCorrupt, io_step)) {
    // Land the flip in the middle of the payload, where the CRC covers it.
    const size_t marker = doc_text.find("\"payload\":");
    const size_t body = marker == std::string::npos ? 0 : marker + 10;
    FlipByteInFile(dir_ + "/" + file_name,
                   static_cast<off_t>(body + (doc_text.size() - body) / 2));
  }
#endif

  // Rotation: keep the newest keep_last files of this slot.
  if (policy_.keep_last > 0) {
    files.emplace_back(sequence, file_name);
    while (files.size() > policy_.keep_last) {
      unlink((dir_ + "/" + files.front().second).c_str());
      files.erase(files.begin());
    }
  }
  return Status::OK();
}

namespace ckpt {

bool SetVerifyAfterWriteForTest(bool enabled) {
  const bool previous = g_verify_after_write;
  g_verify_after_write = enabled;
  return previous;
}

}  // namespace ckpt

Status Checkpointer::AtPersistencePoint(
    const char* algorithm, uint64_t fingerprint, size_t step,
    FunctionRef<void(json::Writer*)> payload) {
  const bool crash = MC_FAULT_FIRES(algorithm, FaultKind::kCrash, step);
  bool due = crash;
  if (!due && policy_.every_iterations > 0 &&
      (step + 1) % policy_.every_iterations == 0) {
    due = true;
    if (policy_.min_interval_ms > 0.0 && have_last_save_) {
      const double since_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - last_save_)
              .count();
      if (since_ms < policy_.min_interval_ms) due = false;
    }
  }
  if (!due && policy_.every_iterations == 0 && policy_.min_interval_ms > 0.0) {
    const double since_ms =
        have_last_save_
            ? std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - last_save_)
                  .count()
            : policy_.min_interval_ms;
    due = since_ms >= policy_.min_interval_ms;
  }
  if (!due) return Status::OK();
  const Status written = WriteSnapshot(algorithm, fingerprint, payload);
  if (!written.ok()) {
    // A failed snapshot must not fail the run — warn and keep computing.
    Warn(algorithm, "snapshot failed: " + written.ToString(), nullptr);
    if (!crash) return Status::OK();
  }
  if (crash) {
    blackbox::Record(blackbox::EventType::kStatus, "injected-crash", step);
    return Status::Aborted(std::string(algorithm) +
                           ": injected crash after persistence point " +
                           std::to_string(step));
  }
  return Status::OK();
}

Status Checkpointer::Flush(const char* algorithm, uint64_t fingerprint,
                           FunctionRef<void(json::Writer*)> payload) {
  const Status written = WriteSnapshot(algorithm, fingerprint, payload);
  if (!written.ok()) {
    Warn(algorithm, "final flush failed: " + written.ToString(), nullptr);
  }
  return written;
}

Status Checkpointer::Clear() {
  std::vector<std::pair<uint64_t, std::string>> files;
  MC_RETURN_IF_ERROR(ListCheckpoints(dir_, "", &files));
  for (const auto& [seq, name] : files) {
    unlink((dir_ + "/" + name).c_str());
  }
  return Status::OK();
}

namespace ckpt {

void WriteU64(json::Writer* w, uint64_t v) { w->String(HexU64(v)); }

Result<uint64_t> ReadU64(const json::Value& v) {
  if (!v.is_string()) {
    return Status::ComputationError("checkpoint: expected hex u64 string");
  }
  const std::string& s = v.string_value();
  if (s.rfind("0x", 0) != 0) {
    return Status::ComputationError("checkpoint: malformed u64 '" + s + "'");
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(s.c_str() + 2, &end, 16);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return Status::ComputationError("checkpoint: malformed u64 '" + s + "'");
  }
  return parsed;
}

namespace {

// Member lookup helpers for the leaf codecs (missing field ->
// kComputationError naming it).
Result<const json::Value*> Field(const json::Value& v, const char* key) {
  const json::Value* f = v.Find(key);
  if (f == nullptr) {
    return Status::ComputationError(std::string("checkpoint: missing field '") +
                                    key + "'");
  }
  return f;
}

Result<double> NumberField(const json::Value& v, const char* key) {
  MC_ASSIGN_OR_RETURN(const json::Value* f, Field(v, key));
  if (!f->is_number()) {
    return Status::ComputationError(std::string("checkpoint: field '") + key +
                                    "' is not a number");
  }
  return f->number_value();
}

Result<bool> BoolField(const json::Value& v, const char* key) {
  MC_ASSIGN_OR_RETURN(const json::Value* f, Field(v, key));
  if (!f->is_bool()) {
    return Status::ComputationError(std::string("checkpoint: field '") + key +
                                    "' is not a bool");
  }
  return f->bool_value();
}

Result<size_t> SizeField(const json::Value& v, const char* key) {
  MC_ASSIGN_OR_RETURN(double n, NumberField(v, key));
  if (n < 0) {
    return Status::ComputationError(std::string("checkpoint: field '") + key +
                                    "' is negative");
  }
  return static_cast<size_t>(n);
}

// Moves a leaf codec's parse result into `out` (the archive's leaf Gets).
template <class T>
Status Assign(Result<T> parsed, T& out) {
  if (!parsed.ok()) return parsed.status();
  out = std::move(*parsed);
  return Status::OK();
}

}  // namespace

void WriteMatrix(json::Writer* w, const Matrix& m) {
  w->BeginObject();
  w->Key("r");
  w->Uint(m.rows());
  w->Key("c");
  w->Uint(m.cols());
  w->Key("v");
  w->BeginArray();
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_data(i);
    for (size_t j = 0; j < m.cols(); ++j) w->Double(row[j]);
  }
  w->EndArray();
  w->EndObject();
}

Result<Matrix> ReadMatrix(const json::Value& v) {
  MC_ASSIGN_OR_RETURN(size_t rows, SizeField(v, "r"));
  MC_ASSIGN_OR_RETURN(size_t cols, SizeField(v, "c"));
  MC_ASSIGN_OR_RETURN(const json::Value* data, Field(v, "v"));
  if (!data->is_array() || data->array_items().size() != rows * cols) {
    return Status::ComputationError("checkpoint: matrix payload shape "
                                    "mismatch");
  }
  Matrix m(rows, cols);
  size_t idx = 0;
  for (size_t i = 0; i < rows; ++i) {
    double* row = m.row_data(i);
    for (size_t j = 0; j < cols; ++j, ++idx) {
      const json::Value& cell = data->array_items()[idx];
      if (!cell.is_number()) {
        return Status::ComputationError("checkpoint: non-numeric matrix cell");
      }
      row[j] = cell.number_value();
    }
  }
  return m;
}

void WriteIntVector(json::Writer* w, const std::vector<int>& v) {
  w->BeginArray();
  for (int x : v) w->Int(x);
  w->EndArray();
}

Result<std::vector<int>> ReadIntVector(const json::Value& v) {
  if (!v.is_array()) {
    return Status::ComputationError("checkpoint: expected int array");
  }
  std::vector<int> out;
  out.reserve(v.array_items().size());
  for (const json::Value& x : v.array_items()) {
    if (!x.is_number()) {
      return Status::ComputationError("checkpoint: non-numeric int entry");
    }
    out.push_back(static_cast<int>(x.number_value()));
  }
  return out;
}

void WriteDoubleVector(json::Writer* w, const std::vector<double>& v) {
  w->BeginArray();
  for (double x : v) w->Double(x);
  w->EndArray();
}

Result<std::vector<double>> ReadDoubleVector(const json::Value& v) {
  if (!v.is_array()) {
    return Status::ComputationError("checkpoint: expected double array");
  }
  std::vector<double> out;
  out.reserve(v.array_items().size());
  for (const json::Value& x : v.array_items()) {
    if (!x.is_number() && !x.is_null()) {
      return Status::ComputationError("checkpoint: non-numeric double entry");
    }
    // null encodes NaN/Inf (JSON cannot represent them); algorithms never
    // checkpoint non-finite state, but stay lossless-by-construction here.
    out.push_back(x.is_null() ? std::numeric_limits<double>::quiet_NaN()
                              : x.number_value());
  }
  return out;
}

void WriteSizeVector(json::Writer* w, const std::vector<size_t>& v) {
  w->BeginArray();
  for (size_t x : v) w->Uint(x);
  w->EndArray();
}

Result<std::vector<size_t>> ReadSizeVector(const json::Value& v) {
  if (!v.is_array()) {
    return Status::ComputationError("checkpoint: expected size array");
  }
  std::vector<size_t> out;
  out.reserve(v.array_items().size());
  for (const json::Value& x : v.array_items()) {
    if (!x.is_number() || x.number_value() < 0) {
      return Status::ComputationError("checkpoint: bad size entry");
    }
    out.push_back(static_cast<size_t>(x.number_value()));
  }
  return out;
}

void WriteRng(json::Writer* w, const Rng& rng) {
  const RngState s = rng.SaveState();
  w->BeginObject();
  w->Key("s");
  w->BeginArray();
  for (uint64_t word : s.words) WriteU64(w, word);
  w->EndArray();
  w->Key("g");
  w->Bool(s.has_cached_gaussian);
  w->Key("gv");
  w->Double(s.cached_gaussian);
  w->EndObject();
}

Result<Rng> ReadRng(const json::Value& v) {
  MC_ASSIGN_OR_RETURN(const json::Value* words, Field(v, "s"));
  if (!words->is_array() || words->array_items().size() != 4) {
    return Status::ComputationError("checkpoint: RNG state must have 4 words");
  }
  RngState s;
  for (size_t i = 0; i < 4; ++i) {
    MC_ASSIGN_OR_RETURN(s.words[i], ReadU64(words->array_items()[i]));
  }
  MC_ASSIGN_OR_RETURN(s.has_cached_gaussian, BoolField(v, "g"));
  MC_ASSIGN_OR_RETURN(double cached, NumberField(v, "gv"));
  s.cached_gaussian = cached;
  Rng rng;
  rng.RestoreState(s);
  return rng;
}

void WriteTrace(json::Writer* w, const ConvergenceTrace& trace) {
  w->BeginObject();
  w->Key("winner");
  w->Uint(trace.winning_restart);
  w->Key("points");
  w->BeginArray();
  for (const ConvergencePoint& p : trace.points) {
    w->BeginArray();
    w->Uint(p.restart);
    w->Uint(p.iteration);
    w->Double(p.objective);
    w->Double(p.delta);
    w->Uint(p.reseeds);
    w->Double(p.budget_remaining_ms);
    w->EndArray();
  }
  w->EndArray();
  w->EndObject();
}

Result<ConvergenceTrace> ReadTrace(const json::Value& v) {
  ConvergenceTrace trace;
  MC_ASSIGN_OR_RETURN(trace.winning_restart, SizeField(v, "winner"));
  MC_ASSIGN_OR_RETURN(const json::Value* points, Field(v, "points"));
  if (!points->is_array()) {
    return Status::ComputationError("checkpoint: trace points not an array");
  }
  for (const json::Value& p : points->array_items()) {
    if (!p.is_array() || p.array_items().size() != 6) {
      return Status::ComputationError("checkpoint: malformed trace point");
    }
    const auto& cells = p.array_items();
    for (size_t i = 0; i < 6; ++i) {
      if (!cells[i].is_number() && !cells[i].is_null()) {
        return Status::ComputationError("checkpoint: malformed trace point");
      }
    }
    ConvergencePoint point;
    point.restart = static_cast<size_t>(cells[0].number_value());
    point.iteration = static_cast<size_t>(cells[1].number_value());
    point.objective = cells[2].is_null()
                          ? std::numeric_limits<double>::quiet_NaN()
                          : cells[2].number_value();
    point.delta = cells[3].is_null()
                      ? std::numeric_limits<double>::quiet_NaN()
                      : cells[3].number_value();
    point.reseeds = static_cast<size_t>(cells[4].number_value());
    point.budget_remaining_ms =
        cells[5].is_null() ? -1.0 : cells[5].number_value();
    trace.points.push_back(point);
  }
  return trace;
}

void WriteStatus(json::Writer* w, const Status& status) {
  w->BeginObject();
  w->Key("code");
  w->Int(static_cast<int>(status.code()));
  w->Key("msg");
  w->String(status.message());
  w->EndObject();
}

Status ReadStatus(const json::Value& v, Status* out) {
  MC_ASSIGN_OR_RETURN(double code, NumberField(v, "code"));
  MC_ASSIGN_OR_RETURN(const json::Value* msg, Field(v, "msg"));
  if (!msg->is_string()) {
    return Status::ComputationError("checkpoint: status message not a string");
  }
  *out = Status(static_cast<StatusCode>(static_cast<int>(code)),
                msg->string_value());
  return Status::OK();
}

Status ReadArchive::Get(const json::Value& v, size_t& out) {
  if (!v.is_number()) return Status::ComputationError("not a number");
  if (v.number_value() < 0) return Status::ComputationError("negative");
  out = static_cast<size_t>(v.number_value());
  return Status::OK();
}

Status ReadArchive::Get(const json::Value& v, bool& out) {
  if (!v.is_bool()) return Status::ComputationError("not a bool");
  out = v.bool_value();
  return Status::OK();
}

Status ReadArchive::Get(const json::Value& v, double& out) {
  if (v.is_null()) {
    out = std::numeric_limits<double>::quiet_NaN();  // the writer's NaN/Inf
    return Status::OK();
  }
  if (!v.is_number()) return Status::ComputationError("not a number");
  out = v.number_value();
  return Status::OK();
}

Status ReadArchive::Get(const json::Value& v, std::string& out) {
  if (!v.is_string()) return Status::ComputationError("not a string");
  out = v.string_value();
  return Status::OK();
}

Status ReadArchive::Get(const json::Value& v, Hex out) {
  return Assign(ReadU64(v), out.value);
}
Status ReadArchive::Get(const json::Value& v, Matrix& out) {
  return Assign(ReadMatrix(v), out);
}
Status ReadArchive::Get(const json::Value& v, Rng& out) {
  return Assign(ReadRng(v), out);
}
Status ReadArchive::Get(const json::Value& v, ConvergenceTrace& out) {
  return Assign(ReadTrace(v), out);
}
Status ReadArchive::Get(const json::Value& v, Status& out) {
  return ReadStatus(v, &out);
}
Status ReadArchive::Get(const json::Value& v, std::vector<int>& out) {
  return Assign(ReadIntVector(v), out);
}
Status ReadArchive::Get(const json::Value& v, std::vector<double>& out) {
  return Assign(ReadDoubleVector(v), out);
}
Status ReadArchive::Get(const json::Value& v, std::vector<size_t>& out) {
  return Assign(ReadSizeVector(v), out);
}

}  // namespace ckpt
}  // namespace multiclust
