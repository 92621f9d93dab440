#include "chaos/chaos.h"

#include <dirent.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "altspace/coala.h"
#include "altspace/dec_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/blackbox.h"
#include "common/checkpoint.h"
#include "common/json.h"
#include "common/report.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "multiview/co_em.h"
#include "subspace/orclus.h"
#include "subspace/proclus.h"

namespace multiclust {
namespace chaos {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "kmeans", "gmm",   "spectral", "dec-kmeans", "coala",
      "co-em",  "orclus", "proclus",  "pipeline"};
  return kNames;
}

namespace {

// ---------------------------------------------------------------------------
// Workload drivers. Every driver is fully deterministic in (seed, quick) and
// reports a digest mixing everything observable about its result, so two
// runs are interchangeable exactly when their digests match.
// ---------------------------------------------------------------------------

struct WorkloadRun {
  Status status;
  bool produced = false;
  uint64_t digest = 0;
  size_t iterations = 0;
  /// Upper bound the workload's own configuration puts on `iterations`;
  /// the budget-honored invariant checks against this.
  size_t iteration_cap = 0;
  std::string report_json;  ///< pipeline only
};

Result<Matrix> BlobData(uint64_t seed, bool quick) {
  const size_t per = quick ? 12 : 20;
  MC_ASSIGN_OR_RETURN(Dataset ds, MakeBlobs({{{0.0, 0.0}, 0.6, per},
                                             {{6.0, 0.0}, 0.6, per},
                                             {{3.0, 5.0}, 0.6, per}},
                                            seed));
  return ds.data();
}

void MixLabels(Fingerprint* fp, const std::vector<int>& labels) {
  fp->Mix(static_cast<uint64_t>(labels.size()));
  for (int l : labels) {
    fp->Mix(static_cast<uint64_t>(static_cast<int64_t>(l)));
  }
}

void MixClustering(Fingerprint* fp, const Clustering& c) {
  MixLabels(fp, c.labels);
  fp->MixDouble(c.quality);
  fp->Mix(static_cast<uint64_t>(c.iterations));
  fp->Mix(static_cast<uint64_t>(c.converged ? 1 : 0));
}

WorkloadRun FromClustering(const Result<Clustering>& r, size_t cap) {
  WorkloadRun out;
  out.iteration_cap = cap;
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.produced = true;
  out.iterations = r->iterations;
  Fingerprint fp;
  MixClustering(&fp, *r);
  out.digest = fp.value();
  return out;
}

WorkloadRun RunKMeansWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun fail;
  auto data = BlobData(seed, quick);
  if (!data.ok()) {
    fail.status = data.status();
    return fail;
  }
  KMeansOptions o;
  o.k = 3;
  o.restarts = 3;
  o.max_iters = 12;
  o.seed = seed;
  o.budget.checkpoint = ck;
  return FromClustering(RunKMeans(*data, o), o.max_iters);
}

WorkloadRun RunGmmWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun fail;
  auto data = BlobData(seed, quick);
  if (!data.ok()) {
    fail.status = data.status();
    return fail;
  }
  GmmOptions o;
  o.k = 3;
  o.restarts = 2;
  o.max_iters = 10;
  o.seed = seed;
  o.budget.checkpoint = ck;
  return FromClustering(RunGmm(*data, o), o.max_iters);
}

WorkloadRun RunSpectralWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun fail;
  auto data = BlobData(seed, quick);
  if (!data.ok()) {
    fail.status = data.status();
    return fail;
  }
  SpectralOptions o;
  o.k = 3;
  o.kmeans_restarts = 2;
  o.seed = seed;
  o.budget.checkpoint = ck;
  // Reported iterations come from the embedded k-means (default cap 100).
  return FromClustering(RunSpectral(*data, o), 100);
}

WorkloadRun RunDecKMeansWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun out;
  auto data = BlobData(seed, quick);
  if (!data.ok()) {
    out.status = data.status();
    return out;
  }
  DecKMeansOptions o;
  o.ks = {2, 2};
  o.restarts = 2;
  o.max_iters = 8;
  o.seed = seed;
  o.budget.checkpoint = ck;
  out.iteration_cap = o.max_iters;
  auto r = RunDecorrelatedKMeans(*data, o);
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.produced = true;
  out.iterations = r->iterations;
  Fingerprint fp;
  for (const Clustering& c : r->solutions.solutions()) MixClustering(&fp, c);
  fp.MixDouble(r->objective);
  for (double h : r->history) fp.MixDouble(h);
  fp.Mix(static_cast<uint64_t>(r->converged ? 1 : 0));
  out.digest = fp.value();
  return out;
}

WorkloadRun RunCoalaWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun out;
  const size_t per = quick ? 6 : 8;
  auto ds = MakeBlobs({{{0.0, 0.0}, 0.6, per},
                       {{6.0, 0.0}, 0.6, per},
                       {{3.0, 5.0}, 0.6, per}},
                      seed);
  if (!ds.ok()) {
    out.status = ds.status();
    return out;
  }
  const size_t n = ds->data().rows();
  std::vector<int> given(n);
  for (size_t i = 0; i < n; ++i) given[i] = static_cast<int>(i / per);
  CoalaOptions o;
  o.k = 3;
  o.w = 0.8;
  o.budget.checkpoint = ck;
  // Agglomerative: one merge per iteration, at most n - k of them.
  return FromClustering(RunCoala(ds->data(), given, o), n);
}

WorkloadRun RunCoEmWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun out;
  auto view1 = BlobData(seed, quick);
  auto view2 = BlobData(seed + 1000, quick);
  if (!view1.ok() || !view2.ok()) {
    out.status = view1.ok() ? view2.status() : view1.status();
    return out;
  }
  CoEmOptions o;
  o.k = 3;
  o.max_iters = 15;
  o.patience = 3;
  o.seed = seed;
  o.budget.checkpoint = ck;
  out.iteration_cap = o.max_iters;
  auto r = RunCoEm(*view1, *view2, o);
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.produced = true;
  out.iterations = r->iterations;
  Fingerprint fp;
  MixLabels(&fp, r->labels_view1);
  MixLabels(&fp, r->labels_view2);
  MixLabels(&fp, r->consensus.labels);
  fp.MixDouble(r->log_likelihood_view1);
  fp.MixDouble(r->log_likelihood_view2);
  fp.MixDouble(r->agreement);
  fp.Mix(static_cast<uint64_t>(r->converged ? 1 : 0));
  out.digest = fp.value();
  return out;
}

WorkloadRun RunOrclusWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun out;
  auto data = BlobData(seed, quick);
  if (!data.ok()) {
    out.status = data.status();
    return out;
  }
  OrclusOptions o;
  o.k = 3;
  o.l = 2;
  o.a_factor = 2;
  o.max_iters = 5;
  o.restarts = 2;
  o.seed = seed;
  o.budget.checkpoint = ck;
  // Iterations span the merge phases too; 64 comfortably bounds k0 -> k.
  out.iteration_cap = 64;
  auto r = RunOrclus(*data, o);
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.produced = true;
  out.iterations = r->clustering.iterations;
  Fingerprint fp;
  MixClustering(&fp, r->clustering);
  fp.MixDouble(r->projected_energy);
  fp.Mix(static_cast<uint64_t>(r->subspaces.size()));
  out.digest = fp.value();
  return out;
}

WorkloadRun RunProclusWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun out;
  auto data = BlobData(seed, quick);
  if (!data.ok()) {
    out.status = data.status();
    return out;
  }
  ProclusOptions o;
  o.k = 3;
  o.avg_dims = 2;
  o.max_iters = 8;
  o.seed = seed;
  o.budget.checkpoint = ck;
  out.iteration_cap = o.max_iters;
  auto r = RunProclus(*data, o);
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.produced = true;
  out.iterations = r->clustering.iterations;
  Fingerprint fp;
  MixClustering(&fp, r->clustering);
  for (const std::vector<size_t>& dims : r->dims) {
    fp.Mix(static_cast<uint64_t>(dims.size()));
    for (size_t d : dims) fp.Mix(static_cast<uint64_t>(d));
  }
  out.digest = fp.value();
  return out;
}

WorkloadRun RunPipelineWorkload(uint64_t seed, bool quick, Checkpointer* ck) {
  WorkloadRun out;
  auto data = BlobData(seed, quick);
  if (!data.ok()) {
    out.status = data.status();
    return out;
  }
  DiscoveryOptions o;
  o.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  o.num_solutions = 2;
  o.k = 3;
  o.seed = seed;
  o.budget.checkpoint = ck;
  auto r = DiscoverMultipleClusterings(*data, o);
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.produced = true;
  Fingerprint fp;
  for (const Clustering& c : r->solutions.solutions()) MixClustering(&fp, c);
  for (double q : r->objective.qualities) fp.MixDouble(q);
  fp.MixDouble(r->objective.mean_quality);
  fp.MixDouble(r->objective.mean_dissimilarity);
  fp.MixDouble(r->objective.combined);
  fp.Mix(static_cast<uint64_t>(r->chosen_k));
  fp.Mix(r->strategy_name);
  fp.Mix(static_cast<uint64_t>(r->degraded ? 1 : 0));
  out.digest = fp.value();
  out.report_json = DiscoveryReportJson(*r);
  return out;
}

WorkloadRun RunWorkload(const std::string& name, uint64_t seed, bool quick,
                        Checkpointer* ck) {
  if (name == "kmeans") return RunKMeansWorkload(seed, quick, ck);
  if (name == "gmm") return RunGmmWorkload(seed, quick, ck);
  if (name == "spectral") return RunSpectralWorkload(seed, quick, ck);
  if (name == "dec-kmeans") return RunDecKMeansWorkload(seed, quick, ck);
  if (name == "coala") return RunCoalaWorkload(seed, quick, ck);
  if (name == "co-em") return RunCoEmWorkload(seed, quick, ck);
  if (name == "orclus") return RunOrclusWorkload(seed, quick, ck);
  if (name == "proclus") return RunProclusWorkload(seed, quick, ck);
  if (name == "pipeline") return RunPipelineWorkload(seed, quick, ck);
  WorkloadRun out;
  out.status = Status::InvalidArgument("chaos: unknown workload '" + name +
                                       "'");
  return out;
}

bool IsWorkload(const std::string& name) {
  const std::vector<std::string>& all = WorkloadNames();
  return std::find(all.begin(), all.end(), name) != all.end();
}

// Fault-site geography per workload: where per-iteration faults land and
// which checkpoint slots an injected crash can hit. Spectral clustering
// checkpoints through its embedded k-means slot, so that is its crash site;
// the pipeline owns a stage-boundary slot of its own plus the inner
// dec-kmeans slot.
struct WorkloadSites {
  std::vector<std::string> iter_sites;
  std::vector<std::string> crash_sites;
};

WorkloadSites SitesFor(const std::string& workload) {
  if (workload == "spectral") return {{"spectral", "kmeans"}, {"kmeans"}};
  if (workload == "pipeline") {
    return {{"dec-kmeans", "pipeline"}, {"pipeline", "dec-kmeans"}};
  }
  return {{workload}, {workload}};
}

// ---------------------------------------------------------------------------
// Temp-dir + checkpoint-scan helpers.
// ---------------------------------------------------------------------------

Result<std::string> MakeTempDir() {
  char tmpl[] = "/tmp/multiclust_chaos_XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    return Status::IoError("chaos: mkdtemp failed: " +
                           std::string(strerror(errno)));
  }
  return std::string(tmpl);
}

// Removes every regular file in `dir` (snapshots, stray .tmp files from
// injected short writes), then the directory itself. Best effort.
void RemoveDirTree(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      unlink((dir + "/" + name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

std::optional<std::string> SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

bool HasSuffix(const std::string& s, const char* suffix) {
  const size_t n = strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// A checkpoint file is "valid" when its envelope parses, the kind and
// schema version match, and the CRC-32 over the re-serialized payload
// equals the recorded one — the same gate TryRestore applies (minus the
// fingerprint, which is slot-specific).
bool IsValidCheckpointFile(const std::string& path) {
  const std::optional<std::string> text = SlurpFile(path);
  if (!text.has_value()) return false;
  auto doc = json::Parse(*text);
  if (!doc.ok()) return false;
  if (doc->GetString("kind", "") != kCheckpointKind) return false;
  if (doc->GetNumber("schema_version", 0) != kCheckpointSchemaVersion) {
    return false;
  }
  const json::Value* payload = doc->Find("payload");
  const json::Value* crc = doc->Find("crc32");
  if (payload == nullptr || crc == nullptr || !crc->is_number()) return false;
  json::Writer reserialized;
  json::SerializeValue(*payload, &reserialized);
  return Crc32(reserialized.str()) ==
         static_cast<uint32_t>(crc->number_value());
}

size_t CountValidCheckpoints(const std::string& dir) {
  size_t valid = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (!HasSuffix(name, ".ckpt.json")) continue;
    if (IsValidCheckpointFile(dir + "/" + name)) ++valid;
  }
  closedir(d);
  return valid;
}

// ---------------------------------------------------------------------------
// Invariant classification.
// ---------------------------------------------------------------------------

// Kinds that must not change the final result: reported I/O failures
// degrade to warnings, torn/corrupt snapshots are caught by verification or
// the restore CRC, and a crash resumes bit-identically. kExpireDeadline and
// the computation-poisoning kinds legitimately alter the outcome.
bool IsResultNeutral(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kIoWriteFail:
    case FaultKind::kIoShortWrite:
    case FaultKind::kIoFsyncFail:
    case FaultKind::kIoRenameFail:
    case FaultKind::kIoTornWrite:
    case FaultKind::kCheckpointCorrupt:
      return true;
    default:
      return false;
  }
}

bool IsComputationFault(FaultKind kind) {
  return kind == FaultKind::kInjectNaN || kind == FaultKind::kAllocFail;
}

}  // namespace

Result<RunOutcome> RunSchedule(const RunConfig& config) {
  if (!IsWorkload(config.workload)) {
    return Status::InvalidArgument("chaos: unknown workload '" +
                                   config.workload + "'");
  }

  // Clean baseline: same workload and seed, no faults, no checkpointing.
  // It must succeed — a failure here is broken infrastructure, not a
  // finding about fault handling.
  fault::Reset();
  const WorkloadRun baseline =
      RunWorkload(config.workload, config.seed, config.quick, nullptr);
  if (!baseline.status.ok()) {
    return Status::Internal("chaos: clean baseline for '" + config.workload +
                            "' failed: " + baseline.status.ToString());
  }

  std::string dir = config.checkpoint_dir;
  bool own_dir = false;
  if (config.with_checkpoint && dir.empty()) {
    MC_ASSIGN_OR_RETURN(dir, MakeTempDir());
    own_dir = true;
  }

  RunOutcome out;
  out.baseline_digest = baseline.digest;

  // Arm once for the whole run: per-fault fire counters persist across
  // resume cycles, so a max_fires=1 crash kills exactly one attempt.
  fault::Reset();
  for (const FaultSpec& spec : config.schedule) fault::Arm(spec);

  // Fresh flight record for the armed run: a violation's dump must show
  // this schedule's events, not the clean baseline's.
  blackbox::Reset();

  constexpr size_t kMaxResumeCycles = 8;
  WorkloadRun run;
  for (;;) {
    std::optional<Checkpointer> ck;
    if (config.with_checkpoint) {
      CheckpointPolicy policy;
      policy.keep_last = config.keep_last;
      ck.emplace(dir, policy);
    }
    run = RunWorkload(config.workload, config.seed, config.quick,
                      ck ? &*ck : nullptr);
    if (ck) out.snapshots_written += ck->snapshots_written();
    if (run.status.code() != StatusCode::kAborted) break;
    if (!config.with_checkpoint || out.resume_cycles >= kMaxResumeCycles) {
      break;
    }
    ++out.resume_cycles;
    blackbox::Mark("chaos.resume", out.resume_cycles);
  }
  out.fault_fires = fault::TotalFires();
  fault::Reset();

  out.status = run.status;
  out.produced_result = run.produced;
  out.digest = run.digest;
  out.iterations = run.iterations;

  bool any_computation_fault = false;
  bool any_result_affecting = false;
  bool any_corrupt = false;
  for (const FaultSpec& spec : config.schedule) {
    if (IsComputationFault(spec.kind)) any_computation_fault = true;
    if (!IsResultNeutral(spec.kind)) any_result_affecting = true;
    if (spec.kind == FaultKind::kCheckpointCorrupt) any_corrupt = true;
  }

  // Invariant: every injected fault degrades to an allowed status. kOk is
  // always fine; kComputationError only when a computation-poisoning fault
  // was armed; a still-kAborted final status means resume never recovered;
  // anything else (notably kIoError) is a fault that escaped containment.
  switch (out.status.code()) {
    case StatusCode::kOk:
      break;
    case StatusCode::kComputationError:
      if (!any_computation_fault) {
        out.violations.push_back(
            {"status-consistency",
             "kComputationError without an armed NaN/alloc fault: " +
                 out.status.ToString()});
      }
      break;
    case StatusCode::kAborted:
      out.violations.push_back(
          {"crash-resume", "still aborted after " +
                               std::to_string(out.resume_cycles) +
                               " resume cycles: " + out.status.ToString()});
      break;
    default:
      out.violations.push_back(
          {"status-consistency",
           "injected faults must degrade to warnings, got: " +
               out.status.ToString()});
      break;
  }

  // Invariant: when only result-neutral faults were armed and the run ended
  // kOk, the result must be bit-identical to the clean baseline. This also
  // checks crash→resume equivalence, since generated crash schedules only
  // combine kCrash with neutral I/O faults.
  if (out.status.ok() && !any_result_affecting) {
    if (out.digest != baseline.digest) {
      out.violations.push_back(
          {"baseline-equivalence",
           "digest " + std::to_string(out.digest) + " != baseline " +
               std::to_string(baseline.digest) + " after " +
               std::to_string(out.resume_cycles) + " resume cycles"});
    } else if (out.iterations != baseline.iterations) {
      out.violations.push_back(
          {"baseline-equivalence",
           "iterations " + std::to_string(out.iterations) + " != baseline " +
               std::to_string(baseline.iterations)});
    }
  }

  // Invariant: once any snapshot was persisted, at least one *valid*
  // checkpoint file must remain on disk — rotation must never delete the
  // last good snapshot in favour of a failed or torn newer write. Skipped
  // when kCheckpointCorrupt was armed (that fault deliberately rots
  // already-persisted files; the restore CRC owns that case).
  if (config.with_checkpoint && out.snapshots_written > 0 && !any_corrupt) {
    if (CountValidCheckpoints(dir) == 0) {
      out.violations.push_back(
          {"checkpoint-survivor",
           std::to_string(out.snapshots_written) +
               " snapshots written but no valid checkpoint file survives "
               "in " +
               dir});
    }
  }

  // Invariant: the workload's own iteration cap was honored.
  if (run.produced && run.iteration_cap > 0 &&
      run.iterations > run.iteration_cap) {
    out.violations.push_back(
        {"budget-honored", "iterations " + std::to_string(run.iterations) +
                               " exceed the configured cap " +
                               std::to_string(run.iteration_cap)});
  }

  // Invariant: a produced pipeline report stays schema-valid under faults.
  if (config.workload == "pipeline" && run.produced) {
    auto doc = json::Parse(run.report_json);
    if (!doc.ok()) {
      out.violations.push_back(
          {"report-schema",
           "report does not parse: " + doc.status().ToString()});
    } else if (doc->GetString("kind", "") != "multiclust.discovery_report" ||
               doc->GetNumber("schema_version", 0) != kReportSchemaVersion) {
      out.violations.push_back(
          {"report-schema", "bad envelope: kind '" +
                                doc->GetString("kind", "?") + "', version " +
                                std::to_string(static_cast<int>(
                                    doc->GetNumber("schema_version", -1)))});
    }
  }

  // A violated run ships its flight record: the per-thread event tails,
  // open spans and checkpoint/fault state of the failing execution —
  // captured before any later run overwrites the rings.
  if (!out.violations.empty()) {
    out.flight_record = blackbox::FlightRecordJson();
  }

  if (own_dir) RemoveDirTree(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Schedule JSON.
// ---------------------------------------------------------------------------

std::string RunConfigToJson(const RunConfig& config) {
  json::Writer w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(kScheduleSchemaVersion);
  w.Key("kind");
  w.String(kScheduleKind);
  w.Key("workload");
  w.String(config.workload);
  w.Key("seed");
  ckpt::WriteU64(&w, config.seed);
  w.Key("keep_last");
  w.Uint(config.keep_last);
  w.Key("with_checkpoint");
  w.Bool(config.with_checkpoint);
  w.Key("quick");
  w.Bool(config.quick);
  w.Key("faults");
  w.BeginArray();
  for (const FaultSpec& f : config.schedule) {
    w.BeginObject();
    w.Key("site");
    w.String(f.site);
    w.Key("kind");
    w.String(FaultKindName(f.kind));
    w.Key("at_iteration");
    w.Uint(f.at_iteration);
    w.Key("max_fires");
    w.Uint(f.max_fires);
    w.Key("probability");
    w.Double(f.probability);
    w.Key("fault_seed");
    ckpt::WriteU64(&w, f.seed);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).str();
}

Result<RunConfig> ParseRunConfigJson(std::string_view text) {
  MC_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  if (doc.GetString("kind", "") != kScheduleKind) {
    return Status::InvalidArgument("chaos schedule: kind '" +
                                   doc.GetString("kind", "?") + "', want '" +
                                   std::string(kScheduleKind) + "'");
  }
  if (doc.GetNumber("schema_version", 0) != kScheduleSchemaVersion) {
    return Status::InvalidArgument("chaos schedule: unsupported schema "
                                   "version");
  }
  RunConfig config;
  config.workload = doc.GetString("workload", "kmeans");
  if (!IsWorkload(config.workload)) {
    return Status::InvalidArgument("chaos schedule: unknown workload '" +
                                   config.workload + "'");
  }
  if (const json::Value* seed = doc.Find("seed")) {
    MC_ASSIGN_OR_RETURN(config.seed, ckpt::ReadU64(*seed));
  }
  config.keep_last = static_cast<size_t>(doc.GetNumber("keep_last", 2));
  config.with_checkpoint = doc.GetBool("with_checkpoint", true);
  config.quick = doc.GetBool("quick", false);
  const json::Value* faults = doc.Find("faults");
  if (faults != nullptr) {
    if (!faults->is_array()) {
      return Status::InvalidArgument("chaos schedule: 'faults' must be an "
                                     "array");
    }
    for (const json::Value& f : faults->array_items()) {
      FaultSpec spec;
      spec.site = f.GetString("site", "");
      if (spec.site.empty()) {
        return Status::InvalidArgument("chaos schedule: fault without a "
                                       "site");
      }
      const std::string kind = f.GetString("kind", "");
      if (!ParseFaultKind(kind, &spec.kind)) {
        return Status::InvalidArgument("chaos schedule: unknown fault kind '" +
                                       kind + "'");
      }
      spec.at_iteration =
          static_cast<size_t>(f.GetNumber("at_iteration", 0));
      spec.max_fires = static_cast<size_t>(f.GetNumber("max_fires", 1));
      spec.probability = f.GetNumber("probability", 1.0);
      if (const json::Value* fs = f.Find("fault_seed")) {
        MC_ASSIGN_OR_RETURN(spec.seed, ckpt::ReadU64(*fs));
      }
      config.schedule.push_back(std::move(spec));
    }
  }
  return config;
}

// ---------------------------------------------------------------------------
// Delta debugging.
// ---------------------------------------------------------------------------

std::vector<FaultSpec> ShrinkSchedule(
    const RunConfig& config,
    const std::function<bool(const RunConfig&)>& still_fails) {
  std::vector<FaultSpec> current = config.schedule;
  bool changed = true;
  while (changed && current.size() > 1) {
    changed = false;
    for (size_t i = 0; i < current.size(); ++i) {
      std::vector<FaultSpec> candidate = current;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      RunConfig probe = config;
      probe.schedule = candidate;
      if (still_fails(probe)) {
        current = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return current;
}

std::vector<FaultSpec> ShrinkSchedule(const RunConfig& config) {
  return ShrinkSchedule(config, [](const RunConfig& probe) {
    auto outcome = RunSchedule(probe);
    return outcome.ok() && !outcome->violations.empty();
  });
}

// ---------------------------------------------------------------------------
// Schedule generator.
// ---------------------------------------------------------------------------

RunConfig GenerateConfig(uint64_t seed, bool quick,
                         const std::vector<std::string>& workloads) {
  const std::vector<std::string>& pool =
      workloads.empty() ? WorkloadNames() : workloads;
  RunConfig config;
  config.quick = quick;
  config.workload = pool[seed % pool.size()];
  const WorkloadSites sites = SitesFor(config.workload);

  Rng rng(SplitMix64(seed ^ 0xC4A0'5A11'C4A0'5A11ULL));
  config.seed = 1 + rng.NextIndex(1u << 20);
  config.with_checkpoint = rng.NextDouble() < 0.85;
  config.keep_last = 1 + rng.NextIndex(2);

  // Crash schedules combine kCrash with result-neutral checkpoint-I/O
  // faults only, so the resumed result stays comparable to the baseline.
  const bool crash_mode = config.with_checkpoint && rng.NextDouble() < 0.35;

  static constexpr FaultKind kIoKinds[] = {
      FaultKind::kIoWriteFail,  FaultKind::kIoShortWrite,
      FaultKind::kIoFsyncFail,  FaultKind::kIoRenameFail,
      FaultKind::kIoTornWrite,  FaultKind::kCheckpointCorrupt};
  static constexpr FaultKind kAlgoKinds[] = {
      FaultKind::kInjectNaN, FaultKind::kForceNonConvergence,
      FaultKind::kExpireDeadline, FaultKind::kAllocFail};

  const size_t num_faults = 1 + rng.NextIndex(3);
  for (size_t i = 0; i < num_faults; ++i) {
    FaultSpec spec;
    const bool io_fault =
        config.with_checkpoint && (crash_mode || rng.NextDouble() < 0.45);
    if (io_fault) {
      spec.site = "checkpoint";
      spec.kind = kIoKinds[rng.NextIndex(std::size(kIoKinds))];
      spec.at_iteration = rng.NextIndex(6);
      spec.max_fires = 1 + rng.NextIndex(2);
    } else {
      spec.site = sites.iter_sites[rng.NextIndex(sites.iter_sites.size())];
      spec.kind = kAlgoKinds[rng.NextIndex(std::size(kAlgoKinds))];
      spec.at_iteration = rng.NextIndex(10);
      spec.max_fires = 1 + rng.NextIndex(3);
    }
    if (rng.NextDouble() < 0.3) {
      spec.probability = 0.25 * static_cast<double>(1 + rng.NextIndex(3));
      spec.seed = rng.NextU64();
    }
    config.schedule.push_back(std::move(spec));
  }
  if (crash_mode) {
    FaultSpec crash;
    crash.site = sites.crash_sites[rng.NextIndex(sites.crash_sites.size())];
    crash.kind = FaultKind::kCrash;
    crash.at_iteration = rng.NextIndex(8);
    crash.max_fires = 1;
    config.schedule.push_back(std::move(crash));
  }
  return config;
}

// ---------------------------------------------------------------------------
// Campaign.
// ---------------------------------------------------------------------------

CampaignResult RunCampaign(const CampaignOptions& options,
                           const std::function<void(size_t, size_t)>&
                               progress) {
  CampaignResult result;
  for (size_t i = 0; i < options.num_seeds; ++i) {
    const RunConfig config =
        GenerateConfig(options.base_seed + i, options.quick,
                       options.workloads);
    auto outcome = RunSchedule(config);
    ++result.runs;
    if (!outcome.ok()) {
      ViolationReport report;
      report.config = config;
      report.minimal = config.schedule;
      report.violations.push_back(
          {"infrastructure", outcome.status().ToString()});
      result.failures.push_back(std::move(report));
    } else {
      result.total_fault_fires += outcome->fault_fires;
      if (!outcome->violations.empty()) {
        ViolationReport report;
        report.config = config;
        report.violations = outcome->violations;
        report.flight_record = outcome->flight_record;
        report.minimal =
            options.shrink ? ShrinkSchedule(config) : config.schedule;
        if (options.shrink) {
          // Re-derive the violations the minimal schedule reproduces, so
          // the report describes the repro it ships — and attach THAT
          // run's flight record, the post-mortem of the exact repro.
          RunConfig minimal_config = config;
          minimal_config.schedule = report.minimal;
          auto minimal_outcome = RunSchedule(minimal_config);
          if (minimal_outcome.ok() && !minimal_outcome->violations.empty()) {
            report.violations = minimal_outcome->violations;
            report.flight_record = minimal_outcome->flight_record;
          }
        }
        result.failures.push_back(std::move(report));
      }
    }
    if (progress) progress(i + 1, options.num_seeds);
  }
  return result;
}

}  // namespace chaos
}  // namespace multiclust
