//===- IncrementalTest.cpp - Incremental replay differential suite ---------==//
///
/// The incremental layer (subtree hashing + chained region fingerprints +
/// the persistent fact store) must be *observationally invisible*: with
/// `--incremental on` every analysis — cold store, warm store, warm store
/// built by a different program, tampered store — produces byte-identical
/// facts, output, stats, and exit codes to a plain run. These tests hold
/// that contract across the full workload corpus (paper figures,
/// miniquery, runnable eval-suite overlays, generated fuzz programs) and
/// seed fan-outs at jobs 1 and 8, then probe the store's failure modes
/// directly:
///
///  * warm reuse — a second identical run replays exactly the summaries
///    the first stored;
///  * crash recovery — truncated and bit-flipped segment files degrade to
///    a cold start (skipped segments / dropped records), never to wrong
///    results or a crash;
///  * key hygiene — repeated identical statements chain to distinct keys,
///    cross-program prefix sharing replays only when the hoisted
///    environment really matches, and a checksum-valid-but-wrong summary
///    (the simulated hash collision) is caught by `--incremental strict`;
///  * the tail-edit scenario — editing the last statement of a program
///    replays the whole untouched prefix (the bench acceptance bar).
///
/// Replay-mechanism counters (IncrementalRegions/Replays, SummariesStored,
/// ReplayedFacts) are deliberately *excluded* from the fingerprint, same
/// as the snapshot suite's COW counters: they describe how the answer was
/// obtained, not what the analysis concluded.
///
//===----------------------------------------------------------------------===//

#include "determinacy/Determinacy.h"
#include "determinacy/ParallelAnalysis.h"
#include "incremental/FactStore.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

using namespace dda;

namespace fs = std::filesystem;

namespace {

Program parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return P;
}

/// A stable library of \p Funcs looping functions, each called once at the
/// top level, then a one-statement app tail: the shape the store serves.
std::string loopLibrary(unsigned Funcs, unsigned LoopIters) {
  std::string S = "var acc = 0;\n";
  for (unsigned I = 0; I < Funcs; ++I) {
    std::string F = "f" + std::to_string(I);
    S += "function " + F + "(x) { var s = 0; var i = 0; while (i < " +
         std::to_string(LoopIters) +
         ") { s = s + i; i = i + 1; } return x + s; }\n";
    S += "acc = " + F + "(acc);\n";
  }
  return S + "print(acc + 1);\n";
}

/// The snapshot differential suite's figures, miniquery, eval and fuzz
/// programs, plus a looping library.
std::vector<std::pair<std::string, std::string>> corpus() {
  std::vector<std::pair<std::string, std::string>> Out;
  Out.emplace_back("figure1", workloads::figure1());
  Out.emplace_back("figure2", workloads::figure2());
  Out.emplace_back("figure3", workloads::figure3());
  Out.emplace_back("figure4", workloads::figure4());
  for (int Minor = 0; Minor < 4; ++Minor)
    Out.emplace_back("miniquery1_" + std::to_string(Minor),
                     workloads::miniquery(Minor));
  for (const auto &B : workloads::evalSuite())
    if (B.Runnable) {
      std::string Name = std::string("eval_") + B.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      Out.emplace_back(Name, B.Source);
    }
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Out.emplace_back("fuzz" + std::to_string(Seed),
                     workloads::generateProgram(Seed));
  Out.emplace_back("loop_library", loopLibrary(16, 100));
  return Out;
}

/// Everything replay must reproduce byte-for-byte, rendered to one string
/// so a divergence shows up as a readable diff. Mirrors the snapshot
/// suite's fingerprint; incremental mechanism counters are excluded.
std::string incFingerprint(const AnalysisResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " trap=" << static_cast<int>(R.Trap)
     << " exit=" << serve::analysisExitCode(R)
     << " degraded=" << R.Degradation.degraded()
     << " events=" << R.Degradation.EventsTotal << "\n"
     << "error=" << R.Error << "\n"
     << "steps=" << R.Stats.StepsUsed << " flushes=" << R.Stats.HeapFlushes
     << " cf=" << R.Stats.Counterfactuals
     << " cfAborts=" << R.Stats.CounterfactualAborts
     << " journal=" << R.Stats.JournalEntries
     << " flushlimit=" << R.Stats.FlushLimitHit << "\n"
     << "executedCalls=" << R.ExecutedCalls.size()
     << " executedStmts=" << R.ExecutedStmts.size() << "\n"
     << "factFp=" << serve::factFingerprint(R) << "\n"
     << "--- output ---\n"
     << R.Output << "--- facts ---\n"
     << R.Facts.dump(R.Contexts);
  return OS.str();
}

AnalysisOptions incOptions(IncrementalMode Mode, FactStore *Store) {
  AnalysisOptions Opts;
  Opts.RecordAllExpressions = true; // Max-coverage fact surface.
  Opts.Incremental = Mode;
  Opts.Store = Store;
  return Opts;
}

/// A fresh on-disk store directory, removed on scope exit.
class TempStoreDir {
public:
  TempStoreDir() {
    static std::atomic<unsigned> Counter{0};
    Dir = fs::path(::testing::TempDir()) /
          ("dda-inc-" + std::to_string(static_cast<long>(::getpid())) + "-" +
           std::to_string(Counter.fetch_add(1)));
    fs::create_directories(Dir);
  }
  ~TempStoreDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  std::string path() const { return Dir.string(); }

private:
  fs::path Dir;
};

std::vector<std::string> segmentFiles(const std::string &Dir) {
  std::vector<std::string> Out;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".facts")
      Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void spew(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

uint64_t fnv64(const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// Runs \p Source once with \p Mode against \p Store (which may be null
/// for Off) and returns the result.
AnalysisResult runOnce(const std::string &Source, IncrementalMode Mode,
                       FactStore *Store) {
  Program P = parseOk(Source);
  return runDeterminacyAnalysis(P, incOptions(Mode, Store));
}

/// A deterministic straight-line program whose every top-level statement
/// is a clean region: no eval, no Math.random, no abrupt control.
std::string cleanProgram() {
  return "var lib = {};\n"
         "lib.inc = function (x) { return x + 1; };\n"
         "lib.dbl = function (x) { return x * 2; };\n"
         "var a = lib.inc(4);\n"
         "var b = lib.dbl(a);\n"
         "print(a + b);\n";
}
constexpr uint64_t CleanProgramRegions = 6;

//===----------------------------------------------------------------------===//
// Corpus-wide differential: off == cold == warm == strict
//===----------------------------------------------------------------------===//

class IncrementalDifferentialTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(IncrementalDifferentialTest, OnMatchesOffColdWarmAndStrict) {
  const std::string &Source = GetParam().second;
  AnalysisResult Off = runOnce(Source, IncrementalMode::Off, nullptr);
  const std::string OffFp = incFingerprint(Off);

  TempStoreDir Dir;
  FactStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;

  AnalysisResult Cold = runOnce(Source, IncrementalMode::On, &Store);
  EXPECT_EQ(OffFp, incFingerprint(Cold)) << "cold";
  EXPECT_EQ(0u, Cold.Stats.IncrementalReplays);

  AnalysisResult Warm = runOnce(Source, IncrementalMode::On, &Store);
  EXPECT_EQ(OffFp, incFingerprint(Warm)) << "warm";
  // Warm replay picks up exactly where cold capture stored: every clean
  // region cold persisted replays, and the chain goes cold at the same
  // region both times.
  EXPECT_EQ(Cold.Stats.SummariesStored, Warm.Stats.IncrementalReplays);
  EXPECT_EQ(Cold.Stats.IncrementalRegions, Warm.Stats.IncrementalRegions);

  // Strict re-executes everything and cross-checks against the store:
  // same observable result, no replays counted, no mismatch aborts.
  AnalysisResult Strict = runOnce(Source, IncrementalMode::Strict, &Store);
  EXPECT_EQ(OffFp, incFingerprint(Strict)) << "strict";
  EXPECT_EQ(0u, Strict.Stats.IncrementalReplays);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, IncrementalDifferentialTest, ::testing::ValuesIn(corpus()),
    [](const ::testing::TestParamInfo<std::pair<std::string, std::string>>
           &Info) { return Info.param.first; });

//===----------------------------------------------------------------------===//
// Seed fan-out: jobs 1 and 8 share one store, still byte-identical to off
//===----------------------------------------------------------------------===//

TEST(IncrementalParallelTest, JobsFanoutMatchesOffAcrossModes) {
  const std::string Source = workloads::miniquery(3);
  const std::vector<uint64_t> Seeds = {1, 2, 3, 4, 5, 6};
  Program POff = parseOk(Source);
  AnalysisResult Off = runDeterminacyAnalysisParallel(
      POff, incOptions(IncrementalMode::Off, nullptr), Seeds, 1);
  const std::string OffFp = incFingerprint(Off);

  TempStoreDir Dir;
  FactStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;

  // Cold fan-out at jobs=1 populates the store (per-seed key spaces are
  // disjoint: the option fingerprint folds the seed).
  Program PCold = parseOk(Source);
  AnalysisResult Cold = runDeterminacyAnalysisParallel(
      PCold, incOptions(IncrementalMode::On, &Store), Seeds, 1);
  EXPECT_EQ(OffFp, incFingerprint(Cold)) << "cold jobs=1";

  // Warm fan-out at jobs=8: concurrent seed tasks replay from the shared
  // store, merged result still byte-identical.
  Program PWarm = parseOk(Source);
  AnalysisResult Warm = runDeterminacyAnalysisParallel(
      PWarm, incOptions(IncrementalMode::On, &Store), Seeds, 8);
  EXPECT_EQ(OffFp, incFingerprint(Warm)) << "warm jobs=8";
  EXPECT_GT(Warm.Stats.IncrementalReplays, 0u);
  EXPECT_EQ(Cold.Stats.SummariesStored, Warm.Stats.IncrementalReplays);
}

//===----------------------------------------------------------------------===//
// Store crash-recovery: truncation and bit flips degrade to a cold start
//===----------------------------------------------------------------------===//

/// Runs cleanProgram() cold into a fresh store and commits a segment.
/// Returns the baseline (off-mode) fingerprint.
std::string seedStore(const TempStoreDir &Dir) {
  FactStore Store;
  std::string Err;
  EXPECT_TRUE(Store.open(Dir.path(), Err)) << Err;
  AnalysisResult Cold = runOnce(cleanProgram(), IncrementalMode::On, &Store);
  EXPECT_EQ(CleanProgramRegions, Cold.Stats.SummariesStored);
  EXPECT_TRUE(Store.commit(Err)) << Err;
  EXPECT_EQ(1u, segmentFiles(Dir.path()).size());
  return incFingerprint(
      runOnce(cleanProgram(), IncrementalMode::Off, nullptr));
}

TEST(IncrementalStoreTest, TruncatedSegmentFallsBackToColdStart) {
  TempStoreDir Dir;
  const std::string OffFp = seedStore(Dir);
  const std::string Seg = segmentFiles(Dir.path()).front();
  const std::string Full = slurp(Seg);
  ASSERT_GT(Full.size(), 24u);

  // Mid-record truncation: the intact prefix loads, the torn tail drops.
  spew(Seg, Full.substr(0, Full.size() / 2));
  {
    FactStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;
    EXPECT_EQ(1u, Store.segmentsLoaded());
    EXPECT_GE(Store.recordsDropped(), 1u);
    EXPECT_LT(Store.size(), CleanProgramRegions);
    AnalysisResult R = runOnce(cleanProgram(), IncrementalMode::On, &Store);
    EXPECT_EQ(OffFp, incFingerprint(R));
    // The missing tail is re-captured, so a later commit re-warms it.
    EXPECT_EQ(CleanProgramRegions,
              R.Stats.IncrementalReplays + R.Stats.SummariesStored);
  }

  // Header truncation: the whole segment is skipped; analysis is a clean
  // cold start that re-stores everything.
  spew(Seg, Full.substr(0, 6));
  {
    FactStore Store;
    std::string Err;
    ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;
    EXPECT_EQ(1u, Store.segmentsSkipped());
    EXPECT_EQ(0u, Store.size());
    AnalysisResult R = runOnce(cleanProgram(), IncrementalMode::On, &Store);
    EXPECT_EQ(OffFp, incFingerprint(R));
    EXPECT_EQ(0u, R.Stats.IncrementalReplays);
    EXPECT_EQ(CleanProgramRegions, R.Stats.SummariesStored);
  }
}

TEST(IncrementalStoreTest, BitFlippedRecordIsDroppedNotTrusted) {
  TempStoreDir Dir;
  const std::string OffFp = seedStore(Dir);
  const std::string Seg = segmentFiles(Dir.path()).front();
  std::string Bytes = slurp(Seg);
  ASSERT_GT(Bytes.size(), 40u);
  // Flip one payload byte of the first record (header 12 + frame 12 + 3)
  // without fixing the checksum: the record must be dropped, not decoded.
  Bytes[27] = static_cast<char>(Bytes[27] ^ 0x40);
  spew(Seg, Bytes);

  FactStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;
  EXPECT_GE(Store.recordsDropped(), 1u);
  AnalysisResult R = runOnce(cleanProgram(), IncrementalMode::On, &Store);
  EXPECT_EQ(OffFp, incFingerprint(R));
}

TEST(IncrementalStoreTest, StrictModeCatchesChecksumValidTampering) {
  TempStoreDir Dir;
  const std::string OffFp = seedStore(Dir);
  const std::string Seg = segmentFiles(Dir.path()).front();
  std::string Bytes = slurp(Seg);
  // Record layout: [u32 Len][u64 Sum][payload: StmtKey PreFp OptFp PostFp
  // str Delta]. Corrupt the first record's PostFp *and recompute the
  // frame checksum* — the simulated 64-bit hash collision: a summary the
  // store believes is intact but that disagrees with re-execution.
  uint32_t Len;
  ASSERT_GE(Bytes.size(), 24u + 32u);
  std::memcpy(&Len, Bytes.data() + 12, 4);
  ASSERT_GE(Bytes.size(), 24u + Len);
  Bytes[24 + 24] = static_cast<char>(Bytes[24 + 24] ^ 0x01);
  uint64_t Sum = fnv64(Bytes.data() + 24, Len);
  std::memcpy(Bytes.data() + 16, &Sum, 8);
  spew(Seg, Bytes);

  FactStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;
  EXPECT_EQ(0u, Store.recordsDropped());

  // Mode `on` trusts the record: the delta itself is intact, so region 0
  // replays correctly; only the forward chain breaks, and every later
  // region falls back to plain execution. Observably still identical.
  AnalysisResult On = runOnce(cleanProgram(), IncrementalMode::On, &Store);
  EXPECT_EQ(OffFp, incFingerprint(On));
  EXPECT_GE(On.Stats.IncrementalReplays, 1u);
  EXPECT_LT(On.Stats.IncrementalReplays, CleanProgramRegions);

  // Mode `strict` re-executes and cross-checks: the tampered PostFp is a
  // divergence between store and reality — internal-error abort, exit 4.
  AnalysisResult Strict =
      runOnce(cleanProgram(), IncrementalMode::Strict, &Store);
  EXPECT_FALSE(Strict.Ok);
  EXPECT_EQ(TrapKind::InternalError, Strict.Trap);
  EXPECT_EQ(4, serve::analysisExitCode(Strict));
  EXPECT_NE(std::string::npos, Strict.Error.find("strict mismatch"))
      << Strict.Error;
}

//===----------------------------------------------------------------------===//
// Key hygiene: chained fingerprints, not just subtree hashes
//===----------------------------------------------------------------------===//

TEST(IncrementalKeysTest, RepeatedIdenticalStatementsChainSeparately) {
  // Four byte-identical statements: the subtree hash is the same for all,
  // but position + chained pre-fingerprint must keep their summaries
  // distinct (the second `x = x + 1` starts from x==1, not x==0).
  const std::string Source = "var x = 0;\n"
                             "x = x + 1;\n"
                             "x = x + 1;\n"
                             "x = x + 1;\n"
                             "print(x);\n";
  const std::string OffFp =
      incFingerprint(runOnce(Source, IncrementalMode::Off, nullptr));

  TempStoreDir Dir;
  FactStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;
  AnalysisResult Cold = runOnce(Source, IncrementalMode::On, &Store);
  EXPECT_EQ(OffFp, incFingerprint(Cold));
  EXPECT_EQ(5u, Cold.Stats.SummariesStored);
  AnalysisResult Warm = runOnce(Source, IncrementalMode::On, &Store);
  EXPECT_EQ(OffFp, incFingerprint(Warm));
  EXPECT_EQ(5u, Warm.Stats.IncrementalReplays);
}

TEST(IncrementalKeysTest, SharedPrefixReplaysOnlyWhenHoistedStateMatches) {
  const std::string Prefix = "var n = 3;\n"
                             "var m = n * n;\n"
                             "print(m);\n";

  TempStoreDir Dir;
  FactStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;
  AnalysisResult A = runOnce(Prefix, IncrementalMode::On, &Store);
  EXPECT_EQ(3u, A.Stats.SummariesStored);

  // Program B extends A with a non-hoisting tail: the hoisted environment
  // is unchanged, so B's prefix regions legitimately replay A's summaries
  // — cross-program sharing by construction, and still byte-identical.
  const std::string B = Prefix + "print(m + 1);\n";
  const std::string BOffFp =
      incFingerprint(runOnce(B, IncrementalMode::Off, nullptr));
  AnalysisResult BWarm = runOnce(B, IncrementalMode::On, &Store);
  EXPECT_EQ(BOffFp, incFingerprint(BWarm));
  EXPECT_EQ(3u, BWarm.Stats.IncrementalReplays);

  // Program C extends A with a hoisted declaration: the global environment
  // at region 0 now contains `z`, so replaying A's env images would be
  // unsound. The hoist fingerprint in the chain base must force a miss.
  const std::string C = Prefix + "var z = 9;\n";
  const std::string COffFp =
      incFingerprint(runOnce(C, IncrementalMode::Off, nullptr));
  AnalysisResult CWarm = runOnce(C, IncrementalMode::On, &Store);
  EXPECT_EQ(COffFp, incFingerprint(CWarm));
  EXPECT_EQ(0u, CWarm.Stats.IncrementalReplays);
}

//===----------------------------------------------------------------------===//
// The tail-edit scenario: the acceptance bar for warm re-analysis
//===----------------------------------------------------------------------===//

TEST(IncrementalEditTest, TailEditReplaysWholePrefix) {
  // A library prefix (function decls + calls) and a one-statement app
  // tail. Editing only the tail keeps every prefix statement's subtree
  // hash, position, and the hoist fingerprint intact.
  std::string Lib = "var acc = 0;\n";
  uint64_t PrefixRegions = 1;
  for (int I = 0; I < 12; ++I) {
    Lib += "function f" + std::to_string(I) + "(x) { return x + " +
           std::to_string(I) + "; }\n";
    Lib += "acc = f" + std::to_string(I) + "(acc);\n";
    PrefixRegions += 2;
  }
  const std::string V1 = Lib + "print(acc + 1);\n";
  const std::string V2 = Lib + "print(acc + 2);\n";

  TempStoreDir Dir;
  FactStore Store;
  std::string Err;
  ASSERT_TRUE(Store.open(Dir.path(), Err)) << Err;

  AnalysisResult Cold = runOnce(V1, IncrementalMode::On, &Store);
  EXPECT_EQ(PrefixRegions + 1, Cold.Stats.SummariesStored);

  const std::string V2OffFp =
      incFingerprint(runOnce(V2, IncrementalMode::Off, nullptr));
  AnalysisResult Warm = runOnce(V2, IncrementalMode::On, &Store);
  EXPECT_EQ(V2OffFp, incFingerprint(Warm));
  EXPECT_EQ(PrefixRegions, Warm.Stats.IncrementalReplays);
  EXPECT_EQ(PrefixRegions + 1, Warm.Stats.IncrementalRegions);
  // A one-statement edit must replay at least half of the program's
  // regions.
  EXPECT_GE(2 * Warm.Stats.IncrementalReplays,
            Warm.Stats.IncrementalRegions);

  // The edited tail was captured too: running V2 again is a full replay.
  AnalysisResult Warm2 = runOnce(V2, IncrementalMode::On, &Store);
  EXPECT_EQ(V2OffFp, incFingerprint(Warm2));
  EXPECT_EQ(PrefixRegions + 1, Warm2.Stats.IncrementalReplays);
}

} // namespace
