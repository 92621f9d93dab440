#include "common/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
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
  MC_RETURN_IF_ERROR(atomicio::EnsureDir(dir_, "checkpoint"));
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

void WriteArchive::Put(const Matrix& m) {
  w_->BeginObject();
  (*this)("r", m.rows());
  (*this)("c", m.cols());
  w_->Key("v");
  w_->BeginArray();
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_data(i);
    for (size_t j = 0; j < m.cols(); ++j) w_->Double(row[j]);
  }
  w_->EndArray();
  w_->EndObject();
}

void WriteArchive::Put(const Rng& rng) {
  const RngState s = rng.SaveState();
  w_->BeginObject();
  w_->Key("s");
  w_->BeginArray();
  for (uint64_t word : s.words) WriteU64(w_, word);
  w_->EndArray();
  (*this)("g", s.has_cached_gaussian);
  (*this)("gv", s.cached_gaussian);
  w_->EndObject();
}

void WriteArchive::Put(const Status& status) {
  w_->BeginObject();
  (*this)("code", status.code());
  (*this)("msg", status.message());
  w_->EndObject();
}

void WriteArchive::Put(const ConvergencePoint& p) {
  w_->BeginArray();
  Put(p.restart);
  Put(p.iteration);
  Put(p.objective);
  Put(p.delta);
  Put(p.reseeds);
  Put(p.budget_remaining_ms);
  w_->EndArray();
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

Status ReadArchive::Get(const json::Value& v, int& out) {
  if (!v.is_number()) return Status::ComputationError("not a number");
  out = static_cast<int>(v.number_value());
  return Status::OK();
}

Status ReadArchive::Get(const json::Value& v, Hex out) {
  MC_ASSIGN_OR_RETURN(out.value, ReadU64(v));
  return Status::OK();
}

Status ReadArchive::Get(const json::Value& v, Matrix& out) {
  if (!v.is_object()) return Status::ComputationError("not an object");
  ReadArchive ar(v);
  size_t rows = 0;
  size_t cols = 0;
  ar("r", rows);
  ar("c", cols);
  ar.Field("v", [&](const json::Value& cells) {
    // Divide rather than multiply: both counts come from the file, and
    // rows * cols could wrap to the cell count.
    const size_t n = cells.array_items().size();
    if (!cells.is_array() ||
        (rows == 0 ? n != 0 : n % rows != 0 || n / rows != cols)) {
      return Status::ComputationError("shape mismatch");
    }
    Matrix m(rows, cols);
    for (size_t i = 0; i < rows; ++i) {
      double* row = m.row_data(i);
      for (size_t j = 0; j < cols; ++j) {
        const json::Value& cell = cells.array_items()[i * cols + j];
        // null is the writer's NaN/Inf, which no checkpointed matrix holds.
        if (!cell.is_number()) {
          return Status::ComputationError("non-numeric cell");
        }
        row[j] = cell.number_value();
      }
    }
    out = std::move(m);
    return Status::OK();
  });
  return ar.status_;
}

Status ReadArchive::Get(const json::Value& v, Rng& out) {
  if (!v.is_object()) return Status::ComputationError("not an object");
  ReadArchive ar(v);
  RngState s;
  ar.Field("s", [&](const json::Value& words) {
    if (!words.is_array() || words.array_items().size() != 4) {
      return Status::ComputationError("RNG state must have 4 words");
    }
    for (size_t i = 0; i < 4; ++i) {
      MC_RETURN_IF_ERROR(Get(words.array_items()[i], Hex{s.words[i]}));
    }
    return Status::OK();
  });
  ar("g", s.has_cached_gaussian);
  ar("gv", s.cached_gaussian);
  if (ar.status_.ok()) out.RestoreState(s);
  return ar.status_;
}

Status ReadArchive::Get(const json::Value& v, Status& out) {
  if (!v.is_object()) return Status::ComputationError("not an object");
  ReadArchive ar(v);
  StatusCode code = StatusCode::kOk;
  std::string message;
  ar("code", code);
  ar("msg", message);
  if (ar.status_.ok()) out = Status(code, std::move(message));
  return ar.status_;
}

Status ReadArchive::Get(const json::Value& v, ConvergencePoint& out) {
  if (!v.is_array() || v.array_items().size() != 6) {
    return Status::ComputationError("trace point must have 6 cells");
  }
  const std::vector<json::Value>& cells = v.array_items();
  MC_RETURN_IF_ERROR(Get(cells[0], out.restart));
  MC_RETURN_IF_ERROR(Get(cells[1], out.iteration));
  MC_RETURN_IF_ERROR(Get(cells[2], out.objective));
  MC_RETURN_IF_ERROR(Get(cells[3], out.delta));
  MC_RETURN_IF_ERROR(Get(cells[4], out.reseeds));
  MC_RETURN_IF_ERROR(Get(cells[5], out.budget_remaining_ms));
  // null is the writer's non-finite budget; -1 is the no-deadline value.
  if (cells[5].is_null()) out.budget_remaining_ms = -1.0;
  return Status::OK();
}

}  // namespace ckpt
}  // namespace multiclust
