#ifndef MULTICLUST_COMMON_CHECKPOINT_H_
#define MULTICLUST_COMMON_CHECKPOINT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/runguard.h"
#include "common/status.h"

namespace multiclust {

class Matrix;
class Rng;

/// Crash-consistent checkpoint/resume for the iterative algorithms and the
/// discovery pipeline (see DESIGN.md "Crash recovery").
///
/// Every checkpoint is one self-describing JSON document:
///
///   {"schema_version":1,"kind":"multiclust.checkpoint",
///    "algorithm":"kmeans","sequence":12,"fingerprint":"0x1a2b...",
///    "crc32":3735928559,"payload":{...}}
///
/// The payload is algorithm-owned opaque state (centroids, responsibilities,
/// subspace bases, RNG stream position, restart index, best-so-far result,
/// accumulated ConvergenceTrace). Doubles use the writer's
/// shortest-round-trip formatting and 64-bit integers are hex strings, so a
/// restored state is bit-identical to the saved one — a resumed run produces
/// exactly the labels and objectives of an uninterrupted run.
///
/// Persistence is atomic: write to a temp file, fsync, rename over the final
/// name, fsync the directory. A reader therefore sees either the previous
/// complete checkpoint or the new complete checkpoint, never a torn one.
/// Validation on load checks the envelope (kind + schema_version), a CRC-32
/// over the serialized payload, the algorithm name, and a caller-supplied
/// configuration fingerprint; any mismatch degrades to a cold start with an
/// attributed RunDiagnostics warning, never an error.
inline constexpr int kCheckpointSchemaVersion = 1;
inline constexpr const char kCheckpointKind[] = "multiclust.checkpoint";

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) of `data`.
uint32_t Crc32(std::string_view data);

/// When an armed Checkpointer persists. Snapshots only ever happen at
/// persistence points (the end of an outer iteration / a completed pipeline
/// stage), so any combination of triggers preserves bit-identical resume.
struct CheckpointPolicy {
  /// Snapshot every N persistence points (1 = every outer iteration);
  /// 0 disables the iteration trigger.
  size_t every_iterations = 1;
  /// Minimum wall-clock gap between snapshots. With `every_iterations`
  /// also set, both must agree (rate-limits tight loops); alone, it is the
  /// sole trigger. 0 disables the interval requirement.
  double min_interval_ms = 0.0;
  /// Rotation: keep the newest N checkpoint files per algorithm slot.
  size_t keep_last = 2;
};

/// Non-owning type-erased callable reference: two raw pointers, no heap.
/// The per-iteration persistence hooks take these instead of std::function
/// because an owning wrapper would allocate for every lambda whose capture
/// outgrows the small-buffer optimisation — a real cost at k-means
/// iteration rates. The referenced callable must outlive the call, which
/// the synchronous AtPersistencePoint()/Flush() contract guarantees.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;
  FunctionRef(std::nullptr_t) {}  // NOLINT: implicit, mirrors std::function
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, FunctionRef>>>
  FunctionRef(const F& f)  // NOLINT: implicit by design
      : obj_(&f), call_([](const void* obj, Args... args) -> R {
          return (*static_cast<const F*>(obj))(std::forward<Args>(args)...);
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  const void* obj_ = nullptr;
  R (*call_)(const void*, Args...) = nullptr;
};

/// Deterministic configuration fingerprint (FNV-1a over option values and
/// data contents). Algorithms mix in everything that shapes their
/// iteration sequence so a checkpoint written under a different
/// configuration, seed or dataset is recognised as stale and discarded.
class Fingerprint {
 public:
  Fingerprint& Mix(uint64_t v);
  Fingerprint& Mix(std::string_view s);
  Fingerprint& MixDouble(double v);  ///< bit pattern, so -0.0 != 0.0
  Fingerprint& Mix(const Matrix& m); ///< dimensions and every entry
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/// One run's checkpoint channel: a directory plus a cadence policy,
/// attached to the algorithms via `RunBudget::checkpoint`. Not thread-safe;
/// use one Checkpointer per run. The default-constructed budget carries no
/// checkpointer and the per-iteration cost of the disarmed path is a single
/// null-pointer test.
///
/// Algorithms interact through three calls, all keyed by their own
/// `algorithm` slot name and config fingerprint:
///
///  - TryRestore(): newest valid matching checkpoint, or nullopt for a
///    cold start (corrupt/stale files produce warnings, never errors).
///  - AtPersistencePoint(): called once per outer iteration with a payload
///    writer; persists when the policy says so. Under an armed
///    `FaultKind::kCrash` fault the snapshot is forced and the call
///    returns StatusCode::kAborted — the snapshot-then-abort simulation of
///    a process kill at exactly this persistence point.
///  - Flush(): force-persists (cooperative-cancellation and shutdown
///    paths), best effort.
class Checkpointer {
 public:
  Checkpointer(std::string dir, CheckpointPolicy policy = {});

  const std::string& dir() const { return dir_; }
  const CheckpointPolicy& policy() const { return policy_; }

  /// A restored payload plus the sequence number it carried.
  struct Restored {
    json::Value payload;
    uint64_t sequence = 0;
  };

  /// Loads the newest valid checkpoint for (algorithm, fingerprint).
  /// Invalid candidates (truncated, checksum mismatch, stale schema) are
  /// skipped with a warning attributed to `algorithm`, appended to
  /// `diagnostics` when given and to TakeWarnings() always. A wrong
  /// fingerprint is expected when base runs share a slot, so it is noted
  /// in TakeWarnings() only (once per slot), never in `diagnostics`.
  std::optional<Restored> TryRestore(const char* algorithm,
                                     uint64_t fingerprint,
                                     RunDiagnostics* diagnostics);

  /// Persistence-point hook; see class comment. `step` is the algorithm's
  /// monotonic persistence-point counter (restarts included), which also
  /// feeds the crash-injection site: MC_FAULT_FIRES(algorithm, kCrash,
  /// step) forces the snapshot and makes the call return kAborted.
  Status AtPersistencePoint(const char* algorithm, uint64_t fingerprint,
                            size_t step,
                            FunctionRef<void(json::Writer*)> payload);

  /// Unconditional snapshot (cancellation / clean-shutdown flush).
  Status Flush(const char* algorithm, uint64_t fingerprint,
               FunctionRef<void(json::Writer*)> payload);

  /// Removes every checkpoint file in the directory (fresh-start path).
  Status Clear();

  /// Warnings accumulated by TryRestore (cold-start fallbacks) and failed
  /// writes, for callers without a RunDiagnostics sink. Draining resets.
  std::vector<std::string> TakeWarnings();

  /// Total snapshots successfully persisted by this Checkpointer.
  size_t snapshots_written() const { return snapshots_written_; }

 private:
  Status WriteSnapshot(const char* algorithm, uint64_t fingerprint,
                       FunctionRef<void(json::Writer*)> payload);
  void Warn(const char* algorithm, const std::string& message,
            RunDiagnostics* diagnostics);

  std::string dir_;
  CheckpointPolicy policy_;
  std::vector<std::string> warnings_;
  /// Slots that already produced a wrong-fingerprint warning. Composite
  /// strategies (meta clustering, orthogonal projections) legitimately run
  /// the same base algorithm many times with different seeds against one
  /// slot; every run after an interrupt would re-discover the same stale
  /// snapshot, so the warning fires once per slot, not once per probe.
  std::set<std::string> stale_fp_warned_;
  bool have_last_save_ = false;
  std::chrono::steady_clock::time_point last_save_;
  size_t snapshots_written_ = 0;
  /// 0-based write-attempt counter (successful or not): the iteration fed
  /// to the "checkpoint" fault site for injected I/O failures.
  size_t write_attempts_ = 0;
};

/// --- Payload schema and leaf codecs. Each checkpointed state declares
/// its payload once, as a visitor over its members:
///
///   template <class Ar> void Fields(Ar& ar) {
///     ar("step", step);
///     if (ar.Guard("have_best", have_best)) ar("best", best);
///   }
///
/// WriteArchive drives it to serialize and ReadArchive to parse, so the two
/// directions cannot disagree on key names, order or encoding. Readers
/// reject a missing or mistyped field with kComputationError naming it, so
/// the caller can fall back to a cold start. ---
namespace ckpt {

/// Test-only: toggles the Checkpointer's read-back verification of every
/// written snapshot (compare bytes on disk against the intended document;
/// mismatch removes the file and reports kIoError before rotation runs).
/// Always ON outside tests — disabling it reintroduces the bug where a
/// silently torn write rotates out the last good snapshot. Returns the
/// previous setting.
bool SetVerifyAfterWriteForTest(bool enabled);

/// 64-bit integers as hex strings ("0x1a2b") — JSON numbers are doubles
/// and would silently round above 2^53.
void WriteU64(json::Writer* w, uint64_t v);
Result<uint64_t> ReadU64(const json::Value& v);

void WriteMatrix(json::Writer* w, const Matrix& m);
Result<Matrix> ReadMatrix(const json::Value& v);

void WriteIntVector(json::Writer* w, const std::vector<int>& v);
Result<std::vector<int>> ReadIntVector(const json::Value& v);

void WriteDoubleVector(json::Writer* w, const std::vector<double>& v);
Result<std::vector<double>> ReadDoubleVector(const json::Value& v);

void WriteSizeVector(json::Writer* w, const std::vector<size_t>& v);
Result<std::vector<size_t>> ReadSizeVector(const json::Value& v);

/// Full generator state (xoshiro words + Box-Muller cache).
void WriteRng(json::Writer* w, const Rng& rng);
Result<Rng> ReadRng(const json::Value& v);

/// Accumulated convergence telemetry, so a resumed run's trace equals the
/// uninterrupted run's.
void WriteTrace(json::Writer* w, const ConvergenceTrace& trace);
Result<ConvergenceTrace> ReadTrace(const json::Value& v);

void WriteStatus(json::Writer* w, const Status& status);
/// Parses a status written by WriteStatus into *out; the return value is
/// the parse outcome (Result<Status> would be ill-formed).
Status ReadStatus(const json::Value& v, Status* out);

/// Marks a 64-bit member that is encoded as a hex string (WriteU64) rather
/// than as a JSON number like the size_t counters: `ar("seed", Hex{seed})`.
struct Hex {
  uint64_t& value;
};

/// A vector encoded as the array of one member of each element:
/// `ar("subspaces", ckpt::Each{subspaces, &OrientedSubspace::basis})`.
template <class T, class M>
struct Each {
  std::vector<T>& items;
  M T::*member;
};
template <class T, class M>
Each(std::vector<T>&, M T::*) -> Each<T, M>;

/// A record: a type with a `template <class Ar> void Fields(Ar&)` visitor.
template <class T, class Ar>
concept Record = requires(T& record, Ar& ar) { record.Fields(ar); };

/// Serializing archive. A record is a JSON object of its Fields in
/// declaration order; a std::vector is a JSON array of its elements.
class WriteArchive {
 public:
  /// Writes `record` as one JSON object.
  template <class T>
  static void Write(json::Writer* w, const T& record) {
    WriteArchive ar(w);
    ar.Put(record);
  }

  template <class T>
  void operator()(const char* key, T&& value) {
    w_->Key(key);
    Put(value);
  }
  /// Writes the flag that guards a conditional group and returns it: the
  /// group's fields follow only when it is set.
  bool Guard(const char* key, bool& flag) {
    (*this)(key, flag);
    return flag;
  }

 private:
  explicit WriteArchive(json::Writer* w) : w_(w) {}

  void Put(size_t v) { w_->Uint(v); }
  void Put(bool v) { w_->Bool(v); }
  void Put(double v) { w_->Double(v); }  // NaN/Inf serialize as null
  void Put(const std::string& v) { w_->String(v); }
  void Put(Hex v) { WriteU64(w_, v.value); }
  void Put(const Matrix& m) { WriteMatrix(w_, m); }
  void Put(const Rng& rng) { WriteRng(w_, rng); }
  void Put(const ConvergenceTrace& trace) { WriteTrace(w_, trace); }
  void Put(const Status& status) { WriteStatus(w_, status); }
  void Put(const std::vector<int>& v) { WriteIntVector(w_, v); }
  void Put(const std::vector<double>& v) { WriteDoubleVector(w_, v); }
  void Put(const std::vector<size_t>& v) { WriteSizeVector(w_, v); }
  template <class E>
    requires std::is_enum_v<E>
  void Put(E v) {
    w_->Int(static_cast<int>(v));
  }
  template <class T>
  void Put(const std::vector<T>& items) {
    w_->BeginArray();
    for (const T& item : items) Put(item);
    w_->EndArray();
  }
  template <class T, class M>
  void Put(const Each<T, M>& each) {
    w_->BeginArray();
    for (const T& item : each.items) Put(item.*each.member);
    w_->EndArray();
  }
  template <Record<WriteArchive> T>
  void Put(const T& record) {
    w_->BeginObject();
    // Fields is one non-const visitor for both directions; this archive
    // only reads through the references it is handed.
    const_cast<T&>(record).Fields(*this);
    w_->EndObject();
  }

  json::Writer* w_;
};

/// Parsing archive: the first missing or mistyped field latches a
/// kComputationError naming it, and every later field is skipped.
class ReadArchive {
 public:
  /// Parses the JSON object `v` into `record`.
  template <class T>
  static Status Read(const json::Value& v, T* record) {
    return Get(v, *record);
  }

  template <class T>
  void operator()(const char* key, T&& value) {
    if (!status_.ok()) return;
    const json::Value* field = object_.Find(key);
    if (field == nullptr) {
      status_ = Status::ComputationError(
          std::string("checkpoint: missing field '") + key + "'");
      return;
    }
    const Status got = Get(*field, value);
    if (!got.ok()) {
      status_ = Status::ComputationError(std::string("checkpoint: field '") +
                                         key + "': " + got.message());
    }
  }
  /// Reads the flag that guards a conditional group; true when it parsed
  /// and is set.
  bool Guard(const char* key, bool& flag) {
    (*this)(key, flag);
    return status_.ok() && flag;
  }

 private:
  explicit ReadArchive(const json::Value& object) : object_(object) {}

  static Status Get(const json::Value& v, size_t& out);
  static Status Get(const json::Value& v, bool& out);
  static Status Get(const json::Value& v, double& out);  // null -> NaN
  static Status Get(const json::Value& v, std::string& out);
  static Status Get(const json::Value& v, Hex out);
  static Status Get(const json::Value& v, Matrix& out);
  static Status Get(const json::Value& v, Rng& out);
  static Status Get(const json::Value& v, ConvergenceTrace& out);
  static Status Get(const json::Value& v, Status& out);
  static Status Get(const json::Value& v, std::vector<int>& out);
  static Status Get(const json::Value& v, std::vector<double>& out);
  static Status Get(const json::Value& v, std::vector<size_t>& out);
  template <class E>
    requires std::is_enum_v<E>
  static Status Get(const json::Value& v, E& out) {
    if (!v.is_number()) return Status::ComputationError("not a number");
    out = static_cast<E>(static_cast<int>(v.number_value()));
    return Status::OK();
  }
  template <class T>
  static Status Get(const json::Value& v, std::vector<T>& out) {
    if (!v.is_array()) return Status::ComputationError("not an array");
    out.clear();
    for (const json::Value& item : v.array_items()) {
      T element;
      MC_RETURN_IF_ERROR(Get(item, element));
      out.push_back(std::move(element));
    }
    return Status::OK();
  }
  template <class T, class M>
  static Status Get(const json::Value& v, Each<T, M> each) {
    if (!v.is_array()) return Status::ComputationError("not an array");
    each.items.clear();
    for (const json::Value& item : v.array_items()) {
      T element;
      MC_RETURN_IF_ERROR(Get(item, element.*each.member));
      each.items.push_back(std::move(element));
    }
    return Status::OK();
  }
  template <Record<ReadArchive> T>
  static Status Get(const json::Value& v, T& record) {
    if (!v.is_object()) return Status::ComputationError("not an object");
    ReadArchive ar(v);
    record.Fields(ar);
    return ar.status_;
  }

  const json::Value& object_;
  Status status_ = Status::OK();
};

/// One algorithm's checkpoint slot in one run: the restore and snapshot
/// halves of the protocol every checkpointed algorithm follows. A state
/// with a `trace` member carries the run's ConvergenceTrace: Restore seeds
/// diagnostics->trace from it and Snapshot refreshes it from there, so a
/// resumed run's trace equals the uninterrupted run's.
struct Slot {
  Checkpointer* checkpointer;  ///< null = disarmed
  const char* algorithm;
  uint64_t fingerprint;
  RunDiagnostics* diagnostics;  ///< warnings and live trace; may be null

  /// Loads the newest valid checkpoint (TryRestore), parses it through
  /// State::Fields and runs the slot's post-restore `check`. On success
  /// moves it into *state and returns true; a rejected payload is a
  /// warning and a cold start (*state untouched). Disarmed: false.
  template <class State>
  bool Restore(State* state,
               FunctionRef<Status(const std::type_identity_t<State>&)> check =
                   nullptr) const {
    if (checkpointer == nullptr) return false;
    std::optional<Checkpointer::Restored> restored =
        checkpointer->TryRestore(algorithm, fingerprint, diagnostics);
    if (!restored.has_value()) return false;
    State loaded;
    Status parsed = ReadArchive::Read(restored->payload, &loaded);
    if (parsed.ok() && check) parsed = check(loaded);
    if (!parsed.ok()) {
      AddWarning(diagnostics, algorithm,
                 "checkpoint payload rejected (" + parsed.ToString() +
                     "); cold start");
      return false;
    }
    *state = std::move(loaded);
    if constexpr (requires { state->trace; }) {
      if (diagnostics != nullptr) diagnostics->trace = state->trace;
    }
    return true;
  }

  /// Persistence point `*step`, then advances `*step`. `capture()` returns
  /// the state to write (by value or by non-const reference) and runs only
  /// when a snapshot is actually serialized, so an armed-but-not-due point
  /// costs a policy check. `flush` forces the write and swallows its error
  /// (cancellation path); otherwise the result is AtPersistencePoint's
  /// (kAborted under an injected crash). Disarmed: OK.
  template <class Capture>
  Status Snapshot(size_t* step, bool flush, const Capture& capture) const {
    if (checkpointer == nullptr) return Status::OK();
    const auto payload = [&](json::Writer* w) {
      decltype(auto) state = capture();
      if constexpr (requires { state.trace; }) {
        if (diagnostics != nullptr) state.trace = diagnostics->trace;
      }
      WriteArchive::Write(w, state);
    };
    const Status st =
        flush ? checkpointer->Flush(algorithm, fingerprint, payload)
              : checkpointer->AtPersistencePoint(algorithm, fingerprint,
                                                 *step, payload);
    ++*step;
    return flush ? Status::OK() : st;
  }
};

/// The persistence hook RunRestarts hands each restart. A restart calls it
/// at every persistence point with `capture`, which copies the restart's
/// live state into the checkpoint state's mid-restart fields; `capture`
/// runs only when a snapshot is actually serialized (never when the slot
/// is disarmed).
using RestartPersistFn =
    FunctionRef<Status(bool flush, FunctionRef<void()> capture)>;

/// The restart loop of every multi-restart algorithm (k-means, GMM,
/// ORCLUS, dec-kmeans): run `restarts` (0 counts as 1) independent
/// restarts and keep the best, checkpointed through `slot`.
///
/// `State` is the algorithm's checkpoint state. Besides its own fields it
/// has `step`, `restart`, `have_best`, `best`, `last_error` and
/// `mid_restart`, and optionally `winner`. `run_one(r, resuming, persist)`
/// runs restart r (continuing from the state's mid-restart fields when
/// `resuming`) and returns a Result of `best`'s type; `objective(best)`
/// scores a finished restart, lower wins. The rules:
///  - a restored checkpoint resumes at its `restart`, mid-restart when it
///    says so;
///  - restart 0 always runs; later ones are skipped once the deadline has
///    expired;
///  - kCancelled and kAborted (a simulated crash) end the call; any other
///    error skips the restart and is kept in `last_error`;
///  - the first restart with the strictly lowest objective wins;
///  - a snapshot at every restart boundary but the last;
///  - no surviving restart returns the last error.
/// On OK `state->best` holds the winner.
template <class State, class RunOne, class Objective>
Status RunRestarts(const Slot& slot, State* state, size_t restarts,
                   BudgetTracker* guard, ConvergenceRecorder* recorder,
                   const RunOne& run_one, const Objective& objective) {
  restarts = std::max<size_t>(restarts, 1);
  bool resume_mid = slot.Restore(state) && state->mid_restart;
  for (size_t r = state->restart; r < restarts; ++r) {
    if (r > 0 && guard->DeadlineExpired()) break;
    const auto persist = [&](bool flush, FunctionRef<void()> capture) {
      return slot.Snapshot(&state->step, flush, [&]() -> State& {
        state->restart = r;
        state->mid_restart = true;
        capture();
        return *state;
      });
    };
    auto run = run_one(r, resume_mid, RestartPersistFn(persist));
    resume_mid = false;
    if (!run.ok()) {
      const StatusCode code = run.status().code();
      if (code == StatusCode::kCancelled || code == StatusCode::kAborted) {
        return run.status();
      }
      state->last_error = run.status();
    } else if (!state->have_best || objective(*run) < objective(state->best)) {
      state->best = std::move(*run);
      state->have_best = true;
      if constexpr (requires { state->winner; }) state->winner = r;
      recorder->SetWinner(r);
    }
    if (r + 1 < restarts) {
      state->restart = r + 1;
      state->mid_restart = false;
      MC_RETURN_IF_ERROR(slot.Snapshot(&state->step, /*flush=*/false,
                                       [&]() -> State& { return *state; }));
    }
  }
  return state->have_best ? Status::OK() : state->last_error;
}

}  // namespace ckpt
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_CHECKPOINT_H_
