// Checkpoint/resume suite: artifact fundamentals (CRC, atomic write,
// rotation), the corruption matrix (truncated file, flipped byte, wrong
// schema version, missing field — all fall back to a cold start with an
// attributed warning), and the crash/resume oracle: for every iterative
// algorithm, killing the run at EVERY persistence point and resuming must
// reproduce the uninterrupted run's labels and objectives bit-identically.
// The format suite pins every slot's on-disk checkpoint bytes and checks
// that a payload missing any one field degrades to a cold start.
#include <dirent.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "altspace/coala.h"
#include "altspace/dec_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/runguard.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "multiview/co_em.h"
#include "subspace/orclus.h"
#include "subspace/proclus.h"

namespace multiclust {
namespace {

// ---- scratch-directory helper --------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/multiclust_ckpt_XXXXXX";
    char* got = mkdtemp(tmpl);
    path_ = got != nullptr ? got : "/tmp";
  }
  ~TempDir() {
    // Best-effort cleanup of the flat checkpoint files + the directory.
    Checkpointer(path_).Clear();
    remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Matrix BlobData(uint64_t seed = 21) {
  auto ds = MakeBlobs(
      {{{0, 0}, 0.6, 20}, {{6, 0}, 0.6, 20}, {{3, 5}, 0.6, 20}}, seed);
  return ds->data();
}

// ---- artifact fundamentals -----------------------------------------------

TEST(CheckpointStoreTest, Crc32KnownVectors) {
  // zlib's crc32("123456789") reference value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(CheckpointStoreTest, WriteRestoreRoundTrip) {
  TempDir dir;
  Checkpointer ck(dir.path());
  const Status st = ck.Flush("alg", 42, [](json::Writer* w) {
    w->BeginObject();
    w->Key("x");
    w->Double(0.1 + 0.2);  // a value with a non-trivial shortest form
    w->Key("v");
    ckpt::WriteU64(w, 0xDEADBEEFCAFEBABEULL);
    w->EndObject();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto restored = ck.TryRestore("alg", 42, nullptr);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 1u);
  EXPECT_EQ(restored->payload.GetNumber("x", 0.0), 0.1 + 0.2);
  ASSERT_NE(restored->payload.Find("v"), nullptr);
  auto v = ckpt::ReadU64(*restored->payload.Find("v"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xDEADBEEFCAFEBABEULL);
}

TEST(CheckpointStoreTest, FingerprintMismatchIsStale) {
  TempDir dir;
  Checkpointer ck(dir.path());
  ASSERT_TRUE(ck.Flush("alg", 1, [](json::Writer* w) {
                  w->BeginObject();
                  w->EndObject();
                }).ok());
  RunDiagnostics diag;
  EXPECT_FALSE(ck.TryRestore("alg", 2, &diag).has_value());
  // Stale is a channel note, not a run diagnostic: a composite run's base
  // runs share one slot, and their reports must match uninterrupted runs.
  EXPECT_TRUE(diag.warnings.empty());
  const std::vector<std::string> notes = ck.TakeWarnings();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("different configuration"), std::string::npos);
  // The matching fingerprint still restores.
  EXPECT_TRUE(ck.TryRestore("alg", 1, nullptr).has_value());
}

TEST(CheckpointStoreTest, AlgorithmSlotsAreIndependent) {
  TempDir dir;
  Checkpointer ck(dir.path());
  auto payload = [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  };
  ASSERT_TRUE(ck.Flush("alpha", 7, payload).ok());
  ASSERT_TRUE(ck.Flush("beta", 7, payload).ok());
  EXPECT_TRUE(ck.TryRestore("alpha", 7, nullptr).has_value());
  EXPECT_TRUE(ck.TryRestore("beta", 7, nullptr).has_value());
  EXPECT_FALSE(ck.TryRestore("gamma", 7, nullptr).has_value());
}

TEST(CheckpointStoreTest, RotationKeepsExactlyN) {
  TempDir dir;
  CheckpointPolicy policy;
  policy.keep_last = 3;
  Checkpointer ck(dir.path(), policy);
  auto payload = [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  };
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(ck.Flush("alg", 9, payload).ok());
  EXPECT_EQ(ck.snapshots_written(), 7u);
  // Newest survives with its original (monotonic) sequence number.
  auto restored = ck.TryRestore("alg", 9, nullptr);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 7u);
  // Exactly keep_last files remain: count via a fresh checkpointer's
  // Clear() after deleting — instead, probe the oldest surviving one by
  // corrupting newer files one at a time. Simpler: list via ifstream on
  // the known names.
  int present = 0;
  for (uint64_t seq = 1; seq <= 7; ++seq) {
    char name[128];
    std::snprintf(name, sizeof(name), "%s/alg.%020llu.ckpt.json",
                  dir.path().c_str(), static_cast<unsigned long long>(seq));
    std::ifstream f(name);
    if (f.good()) ++present;
  }
  EXPECT_EQ(present, 3);
}

TEST(CheckpointStoreTest, ClearRemovesEverything) {
  TempDir dir;
  Checkpointer ck(dir.path());
  auto payload = [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  };
  ASSERT_TRUE(ck.Flush("a", 1, payload).ok());
  ASSERT_TRUE(ck.Flush("b", 1, payload).ok());
  ASSERT_TRUE(ck.Clear().ok());
  EXPECT_FALSE(ck.TryRestore("a", 1, nullptr).has_value());
  EXPECT_FALSE(ck.TryRestore("b", 1, nullptr).has_value());
}

TEST(CheckpointStoreTest, MissingDirectoryIsColdStartNotError) {
  Checkpointer ck("/tmp/multiclust_ckpt_does_not_exist_12345");
  RunDiagnostics diag;
  EXPECT_FALSE(ck.TryRestore("alg", 1, &diag).has_value());
  EXPECT_TRUE(diag.warnings.empty());  // absent dir = clean cold start
}

TEST(CheckpointStoreTest, NestedCheckpointDirectoryIsCreatedRecursively) {
  TempDir base;
  // Several missing levels at once — EnsureDir must behave like mkdir -p.
  const std::string nested = base.path() + "/runs/2026/shard-a";
  Checkpointer ck(nested);
  const Status st = ck.Flush("alg", 3, [](json::Writer* w) {
    w->BeginObject();
    w->EndObject();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(ck.TryRestore("alg", 3, nullptr).has_value());
  // Cleanup the nested tree (TempDir only removes its own level).
  ASSERT_TRUE(Checkpointer(nested).Clear().ok());
  remove(nested.c_str());
  remove((base.path() + "/runs/2026").c_str());
  remove((base.path() + "/runs").c_str());
}

// ---- corruption matrix ---------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ck_ = std::make_unique<Checkpointer>(dir_.path());
    const Status st = ck_->Flush("alg", 5, [](json::Writer* w) {
      w->BeginObject();
      w->Key("iter");
      w->Uint(12);
      w->EndObject();
    });
    ASSERT_TRUE(st.ok());
    char name[128];
    std::snprintf(name, sizeof(name), "%s/alg.%020llu.ckpt.json",
                  dir_.path().c_str(), 1ULL);
    path_ = name;
  }

  std::string ReadFile() {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  void WriteFile(const std::string& text) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }

  // Restoring must fail, with exactly one warning mentioning `needle`.
  void ExpectColdStart(const char* needle) {
    RunDiagnostics diag;
    EXPECT_FALSE(ck_->TryRestore("alg", 5, &diag).has_value());
    ASSERT_EQ(diag.warnings.size(), 1u) << "warnings: " << diag.warnings.size();
    EXPECT_NE(diag.warnings[0].find(needle), std::string::npos)
        << diag.warnings[0];
  }

  TempDir dir_;
  std::unique_ptr<Checkpointer> ck_;
  std::string path_;
};

TEST_F(CorruptionTest, TruncatedFile) {
  const std::string text = ReadFile();
  WriteFile(text.substr(0, text.size() / 2));
  ExpectColdStart("corrupt");
}

TEST_F(CorruptionTest, FlippedByteInPayload) {
  std::string text = ReadFile();
  // Flip a digit inside the payload ("iter":12 -> "iter":13): the JSON
  // stays well-formed, only the CRC catches it.
  const size_t pos = text.find("\"iter\":12");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 8] = '3';
  WriteFile(text);
  ExpectColdStart("CRC-32");
}

TEST_F(CorruptionTest, WrongSchemaVersion) {
  std::string text = ReadFile();
  const size_t pos = text.find("\"schema_version\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 18, "\"schema_version\":9");
  WriteFile(text);
  ExpectColdStart("unsupported schema");
}

TEST_F(CorruptionTest, WrongKind) {
  std::string text = ReadFile();
  const size_t pos = text.find("multiclust.checkpoint");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 21, "multiclust.elsewhiche");
  WriteFile(text);
  ExpectColdStart("unsupported schema");
}

TEST_F(CorruptionTest, MissingField) {
  // Drop the crc32 member entirely.
  std::string text = ReadFile();
  const size_t pos = text.find(",\"crc32\":");
  ASSERT_NE(pos, std::string::npos);
  const size_t end = text.find(',', pos + 1);
  ASSERT_NE(end, std::string::npos);
  text.erase(pos, end - pos);
  WriteFile(text);
  ExpectColdStart("missing payload or checksum");
}

TEST_F(CorruptionTest, OlderValidCheckpointStillRestores) {
  // A corrupt newest file falls back to the previous valid one.
  ASSERT_TRUE(ck_->Flush("alg", 5, [](json::Writer* w) {
                  w->BeginObject();
                  w->Key("iter");
                  w->Uint(20);
                  w->EndObject();
                }).ok());
  char newest[128];
  std::snprintf(newest, sizeof(newest), "%s/alg.%020llu.ckpt.json",
                dir_.path().c_str(), 2ULL);
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out << "{garbage";
  }
  RunDiagnostics diag;
  auto restored = ck_->TryRestore("alg", 5, &diag);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 1u);
  EXPECT_EQ(restored->payload.GetNumber("iter", 0.0), 12.0);
  EXPECT_EQ(diag.warnings.size(), 1u);
}

// ---- payload leaves ------------------------------------------------------

// A one-field payload record: the smallest state the archives can carry, so
// one leaf can be round-tripped or fed a malformed encoding in isolation.
template <class T>
struct Leaf {
  T value;
  template <class Ar>
  void Fields(Ar& ar) {
    ar("value", value);
  }
};

struct HexLeaf {
  uint64_t value = 0;
  template <class Ar>
  void Fields(Ar& ar) {
    ar("value", ckpt::Hex{value});
  }
};

template <class T>
T RoundTrip(const T& record) {
  json::Writer w;
  ckpt::WriteArchive::Write(&w, record);
  auto parsed = json::Parse(w.str());
  EXPECT_TRUE(parsed.ok());
  T back;
  const Status read = ckpt::ReadArchive::Read(*parsed, &back);
  EXPECT_TRUE(read.ok()) << read.ToString();
  return back;
}

TEST(CheckpointSerdeTest, RngRoundTripContinuesStream) {
  Leaf<Rng> a{Rng(12345)};
  for (int i = 0; i < 17; ++i) a.value.NextU64();
  a.value.NextGaussian();  // prime the Box-Muller cache

  Leaf<Rng> b = RoundTrip(a);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.value.NextU64(), b.value.NextU64());
  }
  EXPECT_EQ(a.value.NextGaussian(), b.value.NextGaussian());
}

TEST(CheckpointSerdeTest, MatrixRoundTripBitIdentical) {
  Leaf<Matrix> m{Matrix(3, 2)};
  Rng rng(7);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      m.value.at(i, j) = rng.NextGaussian() * 1e-7;
    }
  }
  const Leaf<Matrix> back = RoundTrip(m);
  ASSERT_EQ(back.value.rows(), 3u);
  ASSERT_EQ(back.value.cols(), 2u);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(m.value.at(i, j), back.value.at(i, j));  // bitwise
    }
  }
}

// Each leaf keeps its reader's own rule: a malformed encoding is rejected
// as kComputationError naming the field, which the slot turns into a
// cold start.
template <class Record>
Status ReadLeaf(const std::string& payload) {
  auto parsed = json::Parse(payload);
  EXPECT_TRUE(parsed.ok()) << payload;
  Record record;
  return ckpt::ReadArchive::Read(*parsed, &record);
}

TEST(CheckpointSerdeTest, MalformedLeavesAreRejectedNamingTheField) {
  struct Case {
    const char* name;
    Status status;
    const char* inner_field;  // the leaf's own member, when it has one
  };
  const std::vector<Case> cases = {
      {"null matrix cell",
       ReadLeaf<Leaf<Matrix>>(R"({"value":{"r":1,"c":2,"v":[1,null]}})"),
       "'v'"},
      {"matrix shape whose cell count wraps",
       ReadLeaf<Leaf<Matrix>>(
           R"({"value":{"r":4294967296,"c":4294967296,"v":[]}})"),
       "'v'"},
      {"3-word RNG state",
       ReadLeaf<Leaf<Rng>>(
           R"({"value":{"s":["0x1","0x2","0x3"],"g":false,"gv":0}})"),
       "'s'"},
      {"5-cell trace point",
       ReadLeaf<Leaf<ConvergenceTrace>>(
           R"({"value":{"winner":0,"points":[[0,1,2.5,0.1,0]]}})"),
       "'points'"},
      {"u64 without 0x", ReadLeaf<HexLeaf>(R"({"value":"12"})"), "'value'"},
      {"negative size", ReadLeaf<Leaf<size_t>>(R"({"value":-1})"), "'value'"},
      {"string int label",
       ReadLeaf<Leaf<std::vector<int>>>(R"({"value":[0,"1"]})"), "'value'"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(c.status.code(), StatusCode::kComputationError);
    const std::string& message = c.status.message();
    EXPECT_NE(message.find("'value'"), std::string::npos) << message;
    EXPECT_NE(message.find(c.inner_field), std::string::npos) << message;
  }
  // The same encodings, well formed, are accepted.
  EXPECT_TRUE(ReadLeaf<Leaf<Matrix>>(R"({"value":{"r":1,"c":2,"v":[1,2]}})")
                  .ok());
  EXPECT_TRUE(ReadLeaf<HexLeaf>(R"({"value":"0x12"})").ok());
  EXPECT_TRUE(ReadLeaf<Leaf<ConvergenceTrace>>(
                  R"({"value":{"winner":0,"points":[[0,1,2.5,0.1,0,null]]}})")
                  .ok());
}

TEST(CheckpointSerdeTest, FingerprintSensitivity) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0;
  const uint64_t base =
      Fingerprint().Mix("alg").Mix(uint64_t{3}).Mix(m).value();
  EXPECT_EQ(base, Fingerprint().Mix("alg").Mix(uint64_t{3}).Mix(m).value());
  EXPECT_NE(base, Fingerprint().Mix("alg").Mix(uint64_t{4}).Mix(m).value());
  m.at(1, 1) = 1e-300;
  EXPECT_NE(base, Fingerprint().Mix("alg").Mix(uint64_t{3}).Mix(m).value());
}

// ---- crash/resume oracle -------------------------------------------------

// Runs `run()` killing it at persistence point `crash_step` (snapshot-then-
// abort), then resumes from the checkpoint directory. Returns the number of
// crash points exercised before the run completes without the fault firing.
//
// The oracle: every resumed final result must equal `baseline` bit-for-bit
// (the caller's comparator enforces it).
template <typename RunFn, typename CompareFn>
int CrashAtEveryStep(const std::string& site, RunFn&& run,
                     CompareFn&& compare, int max_steps = 200) {
  int exercised = 0;
  for (int crash_step = 0; crash_step < max_steps; ++crash_step) {
    TempDir dir;
    CheckpointPolicy policy;  // every persistence point
    Checkpointer ck(dir.path(), policy);

    fault::Reset();
    FaultSpec spec;
    spec.site = site;
    spec.kind = FaultKind::kCrash;
    spec.at_iteration = static_cast<size_t>(crash_step);
    spec.max_fires = 1;
    fault::Arm(spec);
    auto crashed = run(&ck);
    fault::Reset();
    if (crashed.ok()) {
      // The run outlived every persistence point: the sweep is complete.
      compare(*crashed);
      return exercised;
    }
    EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
        << crashed.status().ToString();

    // Resume: same directory, no armed fault.
    Checkpointer resume_ck(dir.path(), policy);
    auto resumed = run(&resume_ck);
    if (!resumed.ok()) {
      ADD_FAILURE() << site << ": resume after crash at step " << crash_step
                    << " failed: " << resumed.status().ToString();
      return exercised;
    }
    compare(*resumed);
    ++exercised;
  }
  ADD_FAILURE() << site << ": run still crashing after " << max_steps
                << " persistence points";
  return exercised;
}

TEST(CrashResumeTest, KMeansBitIdenticalAtEveryStep) {
  const Matrix data = BlobData();
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.max_iters = 12;
  opts.seed = 77;

  auto baseline = RunKMeans(data, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    KMeansOptions o = opts;
    o.budget.checkpoint = ck;
    return RunKMeans(data, o);
  };
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.quality, baseline->quality);  // bitwise
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("kmeans", run, compare);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, GmmBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(31);
  GmmOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.max_iters = 10;
  opts.seed = 5;

  auto baseline = RunGmm(data, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    GmmOptions o = opts;
    o.budget.checkpoint = ck;
    return RunGmm(data, o);
  };
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.quality, baseline->quality);  // bitwise log-likelihood
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("gmm", run, compare);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, SpectralBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(11);
  SpectralOptions opts;
  opts.k = 3;
  opts.kmeans_restarts = 2;
  opts.seed = 9;

  auto baseline = RunSpectral(data, opts);
  ASSERT_TRUE(baseline.ok());

  // Spectral checkpoints live in the embedded k-means slot, so the crash
  // site is "kmeans"; the whole front half (affinity, eigensolve, embed)
  // is deterministic recomputation on resume.
  auto run = [&](Checkpointer* ck) {
    SpectralOptions o = opts;
    o.budget.checkpoint = ck;
    return RunSpectral(data, o);
  };
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.quality, baseline->quality);
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("kmeans", run, compare);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, DecKMeansBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(41);
  DecKMeansOptions opts;
  opts.ks = {2, 2};
  opts.restarts = 2;
  opts.max_iters = 8;
  opts.seed = 13;

  auto baseline = RunDecorrelatedKMeans(data, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    DecKMeansOptions o = opts;
    o.budget.checkpoint = ck;
    return RunDecorrelatedKMeans(data, o);
  };
  auto compare = [&](const DecKMeansResult& r) {
    ASSERT_EQ(r.solutions.size(), baseline->solutions.size());
    for (size_t t = 0; t < r.solutions.size(); ++t) {
      EXPECT_EQ(r.solutions.at(t).labels, baseline->solutions.at(t).labels);
      EXPECT_EQ(r.solutions.at(t).quality, baseline->solutions.at(t).quality);
    }
    EXPECT_EQ(r.objective, baseline->objective);  // bitwise
    EXPECT_EQ(r.history, baseline->history);
    EXPECT_EQ(r.iterations, baseline->iterations);
    EXPECT_EQ(r.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("dec-kmeans", run, compare);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, CoalaBitIdenticalAtEveryStep) {
  // Small n: COALA has one persistence point per merge (n - k of them) and
  // the sweep reruns the whole dendrogram per crash point.
  auto ds = MakeBlobs({{{0, 0}, 0.6, 8}, {{6, 0}, 0.6, 8}, {{3, 5}, 0.6, 8}},
                      51);
  const Matrix data = ds->data();
  // Given clustering: the generating blob index (8 points per blob).
  std::vector<int> given(data.rows());
  for (size_t i = 0; i < given.size(); ++i) {
    given[i] = static_cast<int>(i / 8);
  }
  CoalaOptions opts;
  opts.k = 3;
  opts.w = 0.8;

  auto baseline = RunCoala(data, given, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    CoalaOptions o = opts;
    o.budget.checkpoint = ck;
    return RunCoala(data, given, o);
  };
  auto compare = [&](const Clustering& c) {
    EXPECT_EQ(c.labels, baseline->labels);
    EXPECT_EQ(c.iterations, baseline->iterations);
    EXPECT_EQ(c.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("coala", run, compare);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, CoEmBitIdenticalAtEveryStep) {
  const Matrix view1 = BlobData(61);
  const Matrix view2 = BlobData(62);  // same n, independent geometry
  CoEmOptions opts;
  opts.k = 3;
  opts.max_iters = 15;
  opts.patience = 3;
  opts.seed = 17;

  auto baseline = RunCoEm(view1, view2, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    CoEmOptions o = opts;
    o.budget.checkpoint = ck;
    return RunCoEm(view1, view2, o);
  };
  auto compare = [&](const CoEmResult& r) {
    EXPECT_EQ(r.labels_view1, baseline->labels_view1);
    EXPECT_EQ(r.labels_view2, baseline->labels_view2);
    EXPECT_EQ(r.consensus.labels, baseline->consensus.labels);
    EXPECT_EQ(r.log_likelihood_view1, baseline->log_likelihood_view1);
    EXPECT_EQ(r.log_likelihood_view2, baseline->log_likelihood_view2);
    EXPECT_EQ(r.agreement, baseline->agreement);
    EXPECT_EQ(r.iterations, baseline->iterations);
    EXPECT_EQ(r.converged, baseline->converged);
  };
  const int exercised = CrashAtEveryStep("co-em", run, compare);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, OrclusBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(71);
  OrclusOptions opts;
  opts.k = 3;
  opts.l = 2;
  opts.a_factor = 2;
  opts.max_iters = 5;
  opts.restarts = 2;
  opts.seed = 23;

  auto baseline = RunOrclus(data, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    OrclusOptions o = opts;
    o.budget.checkpoint = ck;
    return RunOrclus(data, o);
  };
  auto compare = [&](const OrclusResult& r) {
    EXPECT_EQ(r.clustering.labels, baseline->clustering.labels);
    EXPECT_EQ(r.projected_energy, baseline->projected_energy);  // bitwise
    EXPECT_EQ(r.clustering.iterations, baseline->clustering.iterations);
    EXPECT_EQ(r.clustering.converged, baseline->clustering.converged);
    ASSERT_EQ(r.subspaces.size(), baseline->subspaces.size());
  };
  const int exercised = CrashAtEveryStep("orclus", run, compare);
  EXPECT_GT(exercised, 0);
}

TEST(CrashResumeTest, ProclusBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(81);
  ProclusOptions opts;
  opts.k = 3;
  opts.avg_dims = 2;
  opts.max_iters = 8;
  opts.seed = 29;

  auto baseline = RunProclus(data, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    ProclusOptions o = opts;
    o.budget.checkpoint = ck;
    return RunProclus(data, o);
  };
  auto compare = [&](const ProclusResult& r) {
    EXPECT_EQ(r.clustering.labels, baseline->clustering.labels);
    EXPECT_EQ(r.clustering.quality, baseline->clustering.quality);
    EXPECT_EQ(r.clustering.iterations, baseline->clustering.iterations);
    EXPECT_EQ(r.clustering.converged, baseline->clustering.converged);
    EXPECT_EQ(r.dims, baseline->dims);
  };
  const int exercised = CrashAtEveryStep("proclus", run, compare);
  EXPECT_GT(exercised, 0);
}

// Compares every deterministic field of a DiscoveryReport (wall-clock
// timings excluded) bit-for-bit.
void ExpectReportsEqual(const DiscoveryReport& got,
                        const DiscoveryReport& want) {
  EXPECT_EQ(got.chosen_k, want.chosen_k);
  EXPECT_EQ(got.strategy_name, want.strategy_name);
  EXPECT_EQ(got.warnings, want.warnings);
  EXPECT_EQ(got.degraded, want.degraded);
  ASSERT_EQ(got.solutions.size(), want.solutions.size());
  for (size_t s = 0; s < got.solutions.size(); ++s) {
    EXPECT_EQ(got.solutions.at(s).labels, want.solutions.at(s).labels);
    EXPECT_EQ(got.solutions.at(s).quality, want.solutions.at(s).quality);
    EXPECT_EQ(got.solutions.at(s).algorithm, want.solutions.at(s).algorithm);
  }
  EXPECT_EQ(got.objective.qualities, want.objective.qualities);
  EXPECT_EQ(got.objective.mean_quality, want.objective.mean_quality);
  EXPECT_EQ(got.objective.mean_dissimilarity,
            want.objective.mean_dissimilarity);
  EXPECT_EQ(got.objective.combined, want.objective.combined);
  ASSERT_EQ(got.attempts.size(), want.attempts.size());
  for (size_t a = 0; a < got.attempts.size(); ++a) {
    EXPECT_EQ(got.attempts[a].algorithm, want.attempts[a].algorithm);
    EXPECT_EQ(got.attempts[a].iterations, want.attempts[a].iterations);
    EXPECT_EQ(got.attempts[a].converged, want.attempts[a].converged);
  }
}

// Crash inside the strategy (the inner dec-kmeans persistence points): the
// kAborted must propagate out of the pipeline un-salvaged, and the resumed
// discovery must replay the inner algorithm from its own checkpoint slot.
TEST(CrashResumeTest, PipelineInnerCrashBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(91);
  DiscoveryOptions opts;
  opts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  opts.num_solutions = 2;
  opts.k = 3;
  opts.seed = 43;

  auto baseline = DiscoverMultipleClusterings(data, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    DiscoveryOptions o = opts;
    o.budget.checkpoint = ck;
    return DiscoverMultipleClusterings(data, o);
  };
  auto compare = [&](const DiscoveryReport& r) {
    ExpectReportsEqual(r, *baseline);
  };
  const int exercised = CrashAtEveryStep("dec-kmeans", run, compare);
  EXPECT_GT(exercised, 0);
}

// Crash at the pipeline's own stage boundaries (after model selection, after
// a solved attempt). k = 0 so the restored chosen_k actually carries the
// model-selection stage across the crash.
TEST(CrashResumeTest, PipelineStageCrashBitIdenticalAtEveryStep) {
  const Matrix data = BlobData(92);
  DiscoveryOptions opts;
  opts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  opts.num_solutions = 2;
  opts.k = 0;  // exercise SelectKBySilhouette + the chosen_k snapshot
  opts.max_k = 4;
  opts.seed = 47;

  auto baseline = DiscoverMultipleClusterings(data, opts);
  ASSERT_TRUE(baseline.ok());

  auto run = [&](Checkpointer* ck) {
    DiscoveryOptions o = opts;
    o.budget.checkpoint = ck;
    return DiscoverMultipleClusterings(data, o);
  };
  auto compare = [&](const DiscoveryReport& r) {
    ExpectReportsEqual(r, *baseline);
  };
  const int exercised = CrashAtEveryStep("pipeline", run, compare);
  EXPECT_GT(exercised, 0);
}

// ---- rotation under injected I/O failure ---------------------------------

// The invariant these tests pin down: keep-last-N rotation must never
// delete the last good snapshot when a newer write failed. Every failed
// write is detected (reported error or read-back verification), does not
// count as written, and leaves the previous snapshot restorable.
class RotationUnderIoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    CheckpointPolicy policy;
    policy.keep_last = 1;  // tightest rotation: one bad write is fatal
    ck_ = std::make_unique<Checkpointer>(dir_.path(), policy);
    ASSERT_TRUE(ck_->Flush("alg", 1, Payload()).ok());  // write attempt 0
    ASSERT_EQ(ck_->snapshots_written(), 1u);
  }
  void TearDown() override { fault::Reset(); }

  static FunctionRef<void(json::Writer*)> Payload() {
    static const auto payload = [](json::Writer* w) {
      w->BeginObject();
      w->Key("iter");
      w->Uint(7);
      w->EndObject();
    };
    return payload;
  }

  // Arms `kind` against the second write attempt (io_step 1).
  void ArmAtNextWrite(FaultKind kind) {
    FaultSpec spec;
    spec.site = "checkpoint";
    spec.kind = kind;
    spec.at_iteration = 1;
    spec.max_fires = 1;
    fault::Arm(spec);
  }

  void ExpectLastGoodSnapshotSurvives() {
    EXPECT_EQ(ck_->snapshots_written(), 1u);
    auto restored = ck_->TryRestore("alg", 1, nullptr);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->sequence, 1u);
    // And the channel recovers: the next clean write rotates normally.
    fault::Reset();
    ASSERT_TRUE(ck_->Flush("alg", 1, Payload()).ok());
    auto newest = ck_->TryRestore("alg", 1, nullptr);
    ASSERT_TRUE(newest.has_value());
    EXPECT_GT(newest->sequence, 1u);
  }

  TempDir dir_;
  std::unique_ptr<Checkpointer> ck_;
};

TEST_F(RotationUnderIoFaultTest, FailedWrite) {
  ArmAtNextWrite(FaultKind::kIoWriteFail);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, ShortWrite) {
  ArmAtNextWrite(FaultKind::kIoShortWrite);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, FailedFsync) {
  ArmAtNextWrite(FaultKind::kIoFsyncFail);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, FailedRename) {
  ArmAtNextWrite(FaultKind::kIoRenameFail);
  EXPECT_FALSE(ck_->Flush("alg", 1, Payload()).ok());
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, TornWriteIsCaughtByReadBackVerification) {
  ArmAtNextWrite(FaultKind::kIoTornWrite);
  // The tear itself is silent — the write path reports success — so only
  // read-back verification stands between it and the rotation pass.
  const Status st = ck_->Flush("alg", 1, Payload());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("read-back"), std::string::npos);
  ExpectLastGoodSnapshotSurvives();
}

TEST_F(RotationUnderIoFaultTest, CorruptAfterWriteIsCaughtByRestoreCrc) {
  // kCheckpointCorrupt models post-write bit rot: the snapshot counts (it
  // was genuinely good when written), but restore must reject it and fall
  // back to the previous good snapshot.
  // keep_last = 1 would rotate the good file out before the rot lands, so
  // use a fresh channel (own write-attempt counter) with room for both.
  CheckpointPolicy policy;
  policy.keep_last = 2;
  Checkpointer ck(dir_.path(), policy);
  FaultSpec rot;
  rot.site = "checkpoint";
  rot.kind = FaultKind::kCheckpointCorrupt;
  rot.at_iteration = 0;  // the fresh channel's first write attempt
  rot.max_fires = 1;
  fault::Arm(rot);
  ASSERT_TRUE(ck.Flush("alg", 1, Payload()).ok());  // written, then rotted
  fault::Reset();
  RunDiagnostics diag;
  auto restored = ck.TryRestore("alg", 1, &diag);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sequence, 1u);  // the older, still-good snapshot
  EXPECT_FALSE(diag.warnings.empty());
}

// ---- checkpoint format stability -----------------------------------------

// One checkpoint slot driven on a fixed small input: `run` executes the
// slot's algorithm under `ck` (nullptr = unarmed) with `diag` as the
// diagnostics sink and returns a bit-exact digest of the result. Each
// input has more than one restart/attempt so the crash point lands where
// every conditional payload group (have_best, mid_restart, solved, ...) is
// present.
struct SlotCase {
  std::string slot;
  size_t crash_step;
  std::function<Result<std::string>(Checkpointer*, RunDiagnostics*)> run;
};

std::string Digest(const std::vector<int>& labels) {
  std::string out;
  for (int l : labels) out += std::to_string(l) + ",";
  return out;
}

std::string Digest(const Clustering& c) {
  return json::FormatDouble(c.quality) + "/" + std::to_string(c.iterations) +
         (c.converged ? "/c/" : "/n/") + Digest(c.labels);
}

std::vector<SlotCase> SlotCases() {
  std::vector<SlotCase> cases;
  cases.push_back({"kmeans", 4, [](Checkpointer* ck, RunDiagnostics* diag)
                                      -> Result<std::string> {
    KMeansOptions o;
    o.k = 3;
    o.restarts = 3;
    o.max_iters = 12;
    o.seed = 77;
    o.budget.checkpoint = ck;
    o.diagnostics = diag;
    MC_ASSIGN_OR_RETURN(Clustering c, RunKMeans(BlobData(), o));
    return Digest(c);
  }});
  cases.push_back({"gmm", 5, [](Checkpointer* ck, RunDiagnostics* diag)
                                  -> Result<std::string> {
    GmmOptions o;
    o.k = 3;
    o.restarts = 2;
    o.max_iters = 10;
    o.seed = 5;
    o.budget.checkpoint = ck;
    o.diagnostics = diag;
    MC_ASSIGN_OR_RETURN(Clustering c, RunGmm(BlobData(31), o));
    return Digest(c);
  }});
  cases.push_back({"dec-kmeans", 3, [](Checkpointer* ck, RunDiagnostics* diag)
                                        -> Result<std::string> {
    DecKMeansOptions o;
    o.ks = {2, 2};
    o.restarts = 2;
    o.max_iters = 8;
    o.seed = 13;
    o.budget.checkpoint = ck;
    o.diagnostics = diag;
    MC_ASSIGN_OR_RETURN(DecKMeansResult r,
                        RunDecorrelatedKMeans(BlobData(41), o));
    std::string out = json::FormatDouble(r.objective) + "/" +
                      std::to_string(r.iterations) + "/" +
                      std::to_string(r.history.size());
    for (const Clustering& c : r.solutions.solutions()) out += "|" + Digest(c);
    return out;
  }});
  cases.push_back({"coala", 10, [](Checkpointer* ck, RunDiagnostics* diag)
                                    -> Result<std::string> {
    auto ds = MakeBlobs(
        {{{0, 0}, 0.6, 8}, {{6, 0}, 0.6, 8}, {{3, 5}, 0.6, 8}}, 51);
    std::vector<int> given(ds->data().rows());
    for (size_t i = 0; i < given.size(); ++i) {
      given[i] = static_cast<int>(i / 8);
    }
    CoalaOptions o;
    o.k = 3;
    o.w = 0.8;
    o.budget.checkpoint = ck;
    o.diagnostics = diag;
    MC_ASSIGN_OR_RETURN(Clustering c, RunCoala(ds->data(), given, o));
    return Digest(c);
  }});
  cases.push_back({"co-em", 5, [](Checkpointer* ck, RunDiagnostics* diag)
                                   -> Result<std::string> {
    CoEmOptions o;
    o.k = 3;
    o.max_iters = 15;
    o.patience = 3;
    o.seed = 17;
    o.budget.checkpoint = ck;
    o.diagnostics = diag;
    MC_ASSIGN_OR_RETURN(CoEmResult r, RunCoEm(BlobData(61), BlobData(62), o));
    return Digest(r.consensus) + "|" + Digest(r.labels_view1) + "|" +
           Digest(r.labels_view2) + "|" +
           json::FormatDouble(r.log_likelihood_view1) + "/" +
           json::FormatDouble(r.log_likelihood_view2) + "/" +
           json::FormatDouble(r.agreement) + "/" +
           std::to_string(r.iterations) + (r.converged ? "/c" : "/n");
  }});
  cases.push_back({"orclus", 5, [](Checkpointer* ck, RunDiagnostics* diag)
                                    -> Result<std::string> {
    OrclusOptions o;
    o.k = 3;
    o.l = 2;
    o.a_factor = 2;
    o.max_iters = 5;
    o.restarts = 2;
    o.seed = 23;
    o.budget.checkpoint = ck;
    o.diagnostics = diag;
    MC_ASSIGN_OR_RETURN(OrclusResult r, RunOrclus(BlobData(71), o));
    return Digest(r.clustering) + "|" +
           json::FormatDouble(r.projected_energy) + "/" +
           std::to_string(r.subspaces.size());
  }});
  cases.push_back({"proclus", 4, [](Checkpointer* ck, RunDiagnostics* diag)
                                     -> Result<std::string> {
    ProclusOptions o;
    o.k = 3;
    o.avg_dims = 2;
    o.max_iters = 8;
    o.seed = 29;
    o.budget.checkpoint = ck;
    o.diagnostics = diag;
    MC_ASSIGN_OR_RETURN(ProclusResult r, RunProclus(BlobData(81), o));
    std::string out = Digest(r.clustering);
    for (const std::vector<size_t>& dims : r.dims) {
      out += "|";
      for (size_t j : dims) out += std::to_string(j) + ",";
    }
    return out;
  }});
  cases.push_back({"pipeline", 1, [](Checkpointer* ck, RunDiagnostics* diag)
                                      -> Result<std::string> {
    DiscoveryOptions o;
    o.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
    o.num_solutions = 2;
    o.k = 0;
    o.max_k = 4;
    o.seed = 47;
    o.budget.checkpoint = ck;
    MC_ASSIGN_OR_RETURN(DiscoveryReport r,
                        DiscoverMultipleClusterings(BlobData(92), o));
    // The pipeline reports its restore warnings on the report itself.
    if (diag != nullptr) diag->warnings = r.warnings;
    std::string out = std::to_string(r.chosen_k) + "/" + r.strategy_name +
                      "/" + json::FormatDouble(r.objective.combined);
    for (const Clustering& c : r.solutions.solutions()) out += "|" + Digest(c);
    return out;
  }});
  return cases;
}

// Runs `c` under an armed checkpointer in `dir` with a simulated kill at
// its fixed persistence point.
Status CrashRun(const SlotCase& c, const std::string& dir) {
  Checkpointer ck(dir, CheckpointPolicy{});  // every persistence point
  fault::Reset();
  FaultSpec spec;
  spec.site = c.slot;
  spec.kind = FaultKind::kCrash;
  spec.at_iteration = c.crash_step;
  spec.max_fires = 1;
  fault::Arm(spec);
  RunDiagnostics diag;
  const Result<std::string> crashed = c.run(&ck, &diag);
  fault::Reset();
  return crashed.status();
}

// Path of the newest checkpoint file of `slot` in `dir` ("" when none).
// Sequence numbers are zero-padded, so the lexical maximum is the newest.
std::string NewestCheckpointPath(const std::string& dir,
                                 const std::string& slot) {
  const std::string prefix = slot + ".";
  const size_t name_len = prefix.size() + 20 + sizeof(".ckpt.json") - 1;
  std::string newest;
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() == name_len && name.rfind(prefix, 0) == 0 &&
          name > newest) {
        newest = name;
      }
    }
    closedir(d);
  }
  return newest.empty() ? "" : dir + "/" + newest;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The checkpoint document `doc` with its payload replaced by `payload` and
// the envelope CRC re-stamped to match, exactly as the writer would emit it.
std::string Restamp(const json::Value& doc, const json::Value& payload) {
  json::Writer body;
  json::SerializeValue(payload, &body);
  json::Writer w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(static_cast<int64_t>(doc.GetNumber("schema_version", 0)));
  w.Key("kind");
  w.String(doc.GetString("kind", ""));
  w.Key("algorithm");
  w.String(doc.GetString("algorithm", ""));
  w.Key("sequence");
  w.Uint(static_cast<uint64_t>(doc.GetNumber("sequence", 0)));
  w.Key("fingerprint");
  w.String(doc.GetString("fingerprint", ""));
  w.Key("crc32");
  w.Uint(Crc32(body.str()));
  w.Key("payload");
  w.Raw(body.str());
  w.EndObject();
  return std::move(w).str();
}

// `v` with every member named `key`, at any depth, set to 0 (masks the
// wall-clock `elapsed_ms` of the pipeline's attempt records).
json::Value ZeroMember(const json::Value& v, const std::string& key) {
  if (v.is_array()) {
    std::vector<json::Value> items;
    for (const json::Value& item : v.array_items()) {
      items.push_back(ZeroMember(item, key));
    }
    return json::Value::MakeArray(std::move(items));
  }
  if (!v.is_object()) return v;
  std::vector<std::pair<std::string, json::Value>> members;
  for (const auto& [name, member] : v.object_items()) {
    members.emplace_back(name, name == key ? json::Value::MakeNumber(0)
                                           : ZeroMember(member, key));
  }
  return json::Value::MakeObject(std::move(members));
}

// Golden checkpoint bytes: every slot, crashed at its fixed persistence
// point, must leave a newest checkpoint file of exactly this length and
// CRC-32. Any change to a payload schema — a renamed, reordered, added or
// dropped key, or a changed encoding — changes the bytes and fails here.
// The pipeline's attempt records carry wall-clock `elapsed_ms`, so that
// file is pinned with those members zeroed and its envelope re-stamped.
// The values hold for IEEE-754 doubles and the library's fixed reduction
// orders on x86-64.
TEST(CheckpointFormatTest, GoldenPayloadBytesAreStable) {
  const std::map<std::string, std::pair<size_t, uint32_t>> golden = {
      {"kmeans", {1375, 0x3486a537u}},
      {"gmm", {1588, 0x70eb5100u}},
      {"dec-kmeans", {2156, 0x4882f384u}},
      {"coala", {12416, 0x27f71ba6u}},
      {"co-em", {1269, 0x09f8015du}},
      {"orclus", {2232, 0x47260201u}},
      {"proclus", {847, 0xcb7aa2d1u}},
      {"pipeline", {20862, 0xa35d88d0u}},
  };
  for (const SlotCase& c : SlotCases()) {
    SCOPED_TRACE(c.slot);
    TempDir dir;
    ASSERT_EQ(CrashRun(c, dir.path()).code(), StatusCode::kAborted);
    std::string text = ReadAll(NewestCheckpointPath(dir.path(), c.slot));
    ASSERT_FALSE(text.empty());
    if (text.find("\"elapsed_ms\"") != std::string::npos) {
      auto doc = json::Parse(text);
      ASSERT_TRUE(doc.ok());
      text = Restamp(*doc, ZeroMember(*doc->Find("payload"), "elapsed_ms"));
    }
    const auto& [length, crc] = golden.at(c.slot);
    EXPECT_EQ(text.size(), length);
    EXPECT_EQ(Crc32(text), crc) << std::hex << "0x" << Crc32(text);
  }
}

// Per-field rejection: a payload missing any one of its keys (envelope CRC
// re-stamped, so only the payload reader can notice) must degrade to a
// cold start with a "checkpoint payload rejected" warning, and the run must
// still produce the uninterrupted result bit-for-bit. One crashed run per
// slot provides the files; each case replays them into a fresh directory
// and resumes under a policy that restores but never writes.
TEST(CheckpointFormatTest, EveryMissingPayloadFieldIsAColdStart) {
  CheckpointPolicy restore_only;
  restore_only.every_iterations = 0;
  for (const SlotCase& c : SlotCases()) {
    SCOPED_TRACE(c.slot);
    const Result<std::string> baseline = c.run(nullptr, nullptr);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    std::map<std::string, std::string> files;  // name -> content
    std::string newest;
    {
      TempDir dir;
      ASSERT_EQ(CrashRun(c, dir.path()).code(), StatusCode::kAborted);
      newest = NewestCheckpointPath(dir.path(), c.slot);
      ASSERT_FALSE(newest.empty());
      newest = newest.substr(dir.path().size() + 1);
      DIR* d = opendir(dir.path().c_str());
      ASSERT_NE(d, nullptr);
      while (dirent* entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() > 10 && name.rfind(".ckpt.json") == name.size() - 10) {
          files[name] = ReadAll(dir.path() + "/" + name);
        }
      }
      closedir(d);
    }
    auto doc = json::Parse(files.at(newest));
    ASSERT_TRUE(doc.ok());
    const json::Value& payload = *doc->Find("payload");
    ASSERT_FALSE(payload.object_items().empty());
    for (const auto& [key, unused] : payload.object_items()) {
      SCOPED_TRACE(key);
      std::vector<std::pair<std::string, json::Value>> kept;
      for (const auto& member : payload.object_items()) {
        if (member.first != key) kept.push_back(member);
      }
      TempDir dir;
      for (const auto& [name, content] : files) {
        std::ofstream out(dir.path() + "/" + name, std::ios::binary);
        out << (name == newest
                    ? Restamp(*doc, json::Value::MakeObject(std::move(kept)))
                    : content);
      }
      Checkpointer resume_ck(dir.path(), restore_only);
      RunDiagnostics diag;
      const Result<std::string> resumed = c.run(&resume_ck, &diag);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_EQ(*resumed, *baseline);
      bool rejected = false;
      for (const std::string& w : diag.warnings) {
        if (w.find("checkpoint payload rejected") != std::string::npos) {
          rejected = true;
        }
      }
      EXPECT_TRUE(rejected);
    }
  }
}

}  // namespace
}  // namespace multiclust
