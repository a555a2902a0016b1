//===- ParallelAnalysisTest.cpp - Parallel engine determinism tests --------==//
///
/// The parallel engine's contract: the merged analysis result is
/// byte-identical for every thread count. These tests fingerprint every
/// user-observable piece of an AnalysisResult (facts, contexts, coverage,
/// statistics, degradation) and compare jobs=1 against jobs=8 across the
/// paper figures, fuzz-generated programs, and seed-dependent eval — the
/// case that exercises the per-task AST overlay. ThreadPool itself is
/// covered at the bottom.
///
//===----------------------------------------------------------------------===//

#include "determinacy/ParallelAnalysis.h"
#include "parser/Parser.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dda;

namespace {

std::string sortedIds(const NodeBitSet &S) {
  // Bitset iteration is already ascending NodeID order.
  std::string Out;
  for (NodeID Id : S)
    Out += std::to_string(Id) + ",";
  return Out;
}

/// Renders everything a client can observe from an AnalysisResult. Two
/// results with equal fingerprints are interchangeable.
std::string fingerprint(const AnalysisResult &R) {
  std::string Out;
  Out += "ok=" + std::to_string(R.Ok);
  Out += " trap=" + std::string(trapKindName(R.Trap));
  Out += " error=" + R.Error;
  Out += "\noutput=" + R.Output;
  Out += "\nfacts:\n" + R.Facts.dump(R.Contexts);
  Out += "calls=" + sortedIds(R.ExecutedCalls);
  Out += "\nstmts=" + sortedIds(R.ExecutedStmts);
  Out += "\nflushes=" + std::to_string(R.Stats.HeapFlushes);
  Out += " cntr=" + std::to_string(R.Stats.Counterfactuals);
  Out += " aborts=" + std::to_string(R.Stats.CounterfactualAborts);
  Out += " journal=" + std::to_string(R.Stats.JournalEntries);
  Out += " steps=" + std::to_string(R.Stats.StepsUsed);
  Out += " flushlimit=" + std::to_string(R.Stats.FlushLimitHit);
  Out += "\ndegradation=" + R.Degradation.str();
  Out += " eventsTotal=" + std::to_string(R.Degradation.EventsTotal);
  return Out;
}

/// Analyzes \p Source with the given seeds at two thread counts and expects
/// identical fingerprints. Parses a fresh Program per engine call, exactly
/// as separate processes would.
void expectThreadCountInvariant(const std::string &Source,
                                const std::vector<uint64_t> &Seeds,
                                const AnalysisOptions &Opts = {}) {
  DiagnosticEngine D1, D8;
  Program P1 = parseProgram(Source, D1);
  Program P8 = parseProgram(Source, D8);
  ASSERT_FALSE(D1.hasErrors()) << D1.str();
  AnalysisResult R1 = runDeterminacyAnalysisParallel(P1, Opts, Seeds, 1);
  AnalysisResult R8 = runDeterminacyAnalysisParallel(P8, Opts, Seeds, 8);
  EXPECT_EQ(fingerprint(R1), fingerprint(R8));
}

TEST(ParallelAnalysis, PaperFiguresAreThreadCountInvariant) {
  std::vector<uint64_t> Seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (const char *Source :
       {workloads::figure1(), workloads::figure2(), workloads::figure3(),
        workloads::figure4()})
    expectThreadCountInvariant(Source, Seeds);
}

TEST(ParallelAnalysis, FuzzCorpusIsThreadCountInvariant) {
  std::vector<uint64_t> Seeds = {11, 22, 33, 44, 55, 66};
  for (uint64_t ProgramSeed : {3u, 17u, 51u, 90u})
    expectThreadCountInvariant(workloads::generateProgram(ProgramSeed), Seeds);
}

TEST(ParallelAnalysis, SeedDependentEvalIsThreadCountInvariant) {
  // The eval'd source differs per seed, so each task parses different code
  // at runtime — into its private overlay context. NodeIDs for the eval'd
  // fragments must come out the same whether tasks run inline or on 8
  // threads racing to parse.
  const char *Source = R"JS(
    var n = Math.floor(Math.random() * 2);
    eval("v" + n + " = 1;");
    var m = Math.floor(Math.random() * 3);
    eval("function f" + m + "() { return " + m + "; } tag = f" + m + "();");
    print(n + m);
  )JS";
  expectThreadCountInvariant(Source, {1, 2, 3, 4, 5, 6, 7, 8});

  // Input-dependent dispatch and eval after enough loop work per seed that
  // the tasks overlap.
  const char *Heavy = R"JS(
    function handleA(x) { this_was_a = x; return "A"; }
    function handleB(x) { this_was_b = x; return "B"; }
    function handleC(x) { this_was_c = x; return "C"; }
    function dispatch(kind, x) {
      if (kind === 0) { return handleA(x); }
      if (kind === 1) { return handleB(x); }
      return handleC(x);
    }
    function churn(n) {
      var acc = 0;
      var obj = {};
      for (var i = 0; i < n; i++) {
        obj["k" + (i % 17)] = i;
        acc = acc + obj["k" + (i % 17)];
        if (i % 97 === 0) { acc = acc + dispatch(i % 3, i); }
      }
      return acc;
    }
    var kind = Math.floor(Math.random() * 3);
    var tag = dispatch(kind, 7);
    var heavy = churn(4000);
    var n = Math.floor(Math.random() * 2);
    eval("dyn" + n + " = heavy;");
    if (Math.random() < 0.34) {
      rare_path = 1;
    } else if (Math.random() < 0.5) {
      mid_path = 1;
    } else {
      common_path = 1;
    }
  )JS";
  std::vector<uint64_t> Seeds;
  for (uint64_t I = 1; I <= 8; ++I)
    Seeds.push_back(I * 7919);
  expectThreadCountInvariant(Heavy, Seeds);
}

TEST(ParallelAnalysis, MiniqueryMergeIsThreadCountInvariant) {
  expectThreadCountInvariant(workloads::miniquery(1), {1, 2, 3, 4});
}

TEST(ParallelAnalysis, SingleSeedMatchesSerialAnalysis) {
  // One seed, one job: the parallel entry point must be the serial analysis
  // exactly (the ddajs fast path relies on this).
  const char *Source = workloads::figure2();
  DiagnosticEngine D1, D2;
  Program PSerial = parseProgram(Source, D1);
  Program PPar = parseProgram(Source, D2);
  AnalysisOptions Opts;
  Opts.RandomSeed = 7;
  AnalysisResult Serial = runDeterminacyAnalysis(PSerial, Opts);
  AnalysisResult Par = runDeterminacyAnalysisParallel(PPar, Opts, {7}, 1);
  EXPECT_EQ(fingerprint(Serial), fingerprint(Par));
}

TEST(ParallelAnalysis, TaskEntryMatchesFanOutOfOne) {
  const char *Source = workloads::figure3();
  DiagnosticEngine D1, D2;
  Program PA = parseProgram(Source, D1);
  Program PB = parseProgram(Source, D2);
  AnalysisResult A = runDeterminacyAnalysisTask(PA, AnalysisOptions(), 5);
  AnalysisResult B =
      runDeterminacyAnalysisParallel(PB, AnalysisOptions(), {5}, 4);
  EXPECT_EQ(fingerprint(A), fingerprint(B));
}

TEST(ParallelAnalysis, EmptySeedListYieldsEmptyResult) {
  DiagnosticEngine Diags;
  Program P = parseProgram("var x = 1;", Diags);
  AnalysisResult R =
      runDeterminacyAnalysisParallel(P, AnalysisOptions(), {}, 4);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Facts.size(), 0u);
}

TEST(ParallelAnalysis, BatchMatchesPerProgramRuns) {
  std::vector<const char *> Sources = {workloads::figure1(),
                                       workloads::figure2(),
                                       workloads::figure4()};
  std::vector<uint64_t> Seeds = {1, 2, 3};

  std::vector<Program> Batch;
  std::vector<std::string> Expected;
  for (const char *Source : Sources) {
    DiagnosticEngine DA, DB;
    Batch.push_back(parseProgram(Source, DA));
    Program Solo = parseProgram(Source, DB);
    Expected.push_back(fingerprint(
        runDeterminacyAnalysisParallel(Solo, AnalysisOptions(), Seeds, 1)));
  }
  std::vector<AnalysisResult> Results =
      runDeterminacyAnalysisBatch(Batch, AnalysisOptions(), Seeds, 4);
  ASSERT_EQ(Results.size(), Sources.size());
  for (size_t I = 0; I < Results.size(); ++I)
    EXPECT_EQ(fingerprint(Results[I]), Expected[I]) << "program " << I;
}

TEST(ParallelAnalysis, BatchDefaultsSeedsToOptsSeed) {
  DiagnosticEngine DA, DB;
  std::vector<Program> Batch;
  Batch.push_back(parseProgram(workloads::figure2(), DA));
  Program Solo = parseProgram(workloads::figure2(), DB);
  AnalysisOptions Opts;
  Opts.RandomSeed = 42;
  std::vector<AnalysisResult> Results =
      runDeterminacyAnalysisBatch(Batch, Opts, {}, 2);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(fingerprint(Results[0]),
            fingerprint(runDeterminacyAnalysis(Solo, Opts)));
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  for (unsigned Jobs : {1u, 2u, 8u}) {
    constexpr size_t N = 1000;
    std::vector<std::atomic<int>> Hits(N);
    ThreadPool::parallelFor(Jobs, N,
                            [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I].load(), 1) << "index " << I << " jobs " << Jobs;
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  EXPECT_THROW(ThreadPool::parallelFor(4, 100,
                                       [&](size_t I) {
                                         if (I == 37)
                                           throw std::runtime_error("boom");
                                       }),
               std::runtime_error);
  // Jobs <= 1 runs inline; exceptions surface directly too.
  EXPECT_THROW(ThreadPool::parallelFor(
                   1, 10, [&](size_t) { throw std::runtime_error("inline"); }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitAndWaitDrainsQueue) {
  ThreadPool Pool(3);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum.fetch_add(I); });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5050);
  // The pool is reusable after a wait.
  Pool.submit([&Sum] { Sum.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5051);
}

TEST(ThreadPool, WaitRethrowsFirstError) {
  ThreadPool Pool(2);
  Pool.submit([] { throw std::runtime_error("first"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // A pool that has thrown still drains subsequent work.
  std::atomic<bool> Ran{false};
  Pool.submit([&] { Ran = true; });
  Pool.wait();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPool, StopDrainCompletesQueuedTasks) {
  ThreadPool Pool(1);
  std::atomic<int> Ran{0};
  Pool.submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  for (int I = 0; I < 10; ++I)
    Pool.submit([&] { Ran.fetch_add(1); });
  EXPECT_EQ(Pool.stop(ThreadPool::StopMode::Drain), 0u);
  EXPECT_EQ(Ran.load(), 10);
}

TEST(ThreadPool, StopCancelDiscardsQueuedTasks) {
  // One worker, pinned on a task that only finishes once stop() has begun;
  // the ten queued tasks behind it must be discarded, not run.
  ThreadPool Pool(1);
  std::atomic<int> Ran{0};
  std::atomic<bool> Pinned{false};
  Pool.submit([&] {
    Pinned = true;
    while (!Pool.stopped())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  // The pin must be *running* (not queued) before work piles up behind it,
  // or Cancel would discard it too.
  while (!Pinned.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int I = 0; I < 10; ++I)
    Pool.submit([&] { Ran.fetch_add(1); });
  EXPECT_EQ(Pool.stop(ThreadPool::StopMode::Cancel), 10u);
  EXPECT_EQ(Ran.load(), 0);
  // Idempotent: a second stop has nothing left to discard.
  EXPECT_EQ(Pool.stop(ThreadPool::StopMode::Drain), 0u);
}

TEST(TaskGroup, StopCancelSettlesGroupBookkeeping) {
  // Queued TaskGroup wrappers discarded by stop(Cancel) must still settle
  // the group's pending count — wait() reports the cancellation instead of
  // blocking forever on tasks that will never run.
  ThreadPool Pool(1);
  std::atomic<bool> Pinned{false};
  Pool.submit([&] {
    Pinned = true;
    while (!Pool.stopped())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (!Pinned.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  TaskGroup Group(Pool);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 3; ++I)
    Group.submit([&] { Ran.fetch_add(1); });
  EXPECT_EQ(Pool.stop(ThreadPool::StopMode::Cancel), 3u);
  EXPECT_THROW(Group.wait(), std::runtime_error);
  EXPECT_EQ(Ran.load(), 0);
  // A second wait() (and the destructor) see the settled count too.
  Group.wait();
}

TEST(ThreadPool, SubmitAfterStopIsRejected) {
  ThreadPool Pool(2);
  EXPECT_FALSE(Pool.stopped());
  EXPECT_EQ(Pool.stop(ThreadPool::StopMode::Drain), 0u);
  EXPECT_TRUE(Pool.stopped());
  std::atomic<bool> Ran{false};
  EXPECT_FALSE(Pool.submit([&] { Ran = true; }));
  EXPECT_FALSE(Ran.load());
}

TEST(ThreadPool, DrainIsNonThrowingAndLeavesPoolUsable) {
  ThreadPool Pool(2);
  Pool.submit([] { throw std::runtime_error("dropped by drain"); });
  Pool.drain(); // Shutdown path: must not throw.
  std::atomic<bool> Ran{false};
  Pool.submit([&] { Ran = true; });
  Pool.drain();
  EXPECT_TRUE(Ran.load());
}

TEST(TaskGroup, WaitCoversOwnTasksOnly) {
  ThreadPool Pool(4);
  std::atomic<int> A{0}, B{0};
  std::atomic<bool> Release{false};
  TaskGroup GA(Pool), GB(Pool);
  GB.submit([&] {
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    B = 1;
  });
  for (int I = 0; I < 8; ++I)
    GA.submit([&] { A.fetch_add(1); });
  GA.wait(); // Returns although GB's task is still blocked.
  EXPECT_EQ(A.load(), 8);
  EXPECT_EQ(B.load(), 0);
  Release = true;
  GB.wait();
  EXPECT_EQ(B.load(), 1);
}

TEST(TaskGroup, ExceptionsStayWithinTheirGroup) {
  ThreadPool Pool(2);
  TaskGroup Bad(Pool), Good(Pool);
  Bad.submit([] { throw std::runtime_error("tenant bug"); });
  std::atomic<bool> Ran{false};
  Good.submit([&] { Ran = true; });
  Good.wait(); // A neighbor's failure is invisible here.
  EXPECT_TRUE(Ran.load());
  EXPECT_THROW(Bad.wait(), std::runtime_error);
  // And the shared pool is not poisoned for later groups.
  std::atomic<bool> Again{false};
  TaskGroup Next(Pool);
  Next.submit([&] { Again = true; });
  Next.wait();
  EXPECT_TRUE(Again.load());
}

TEST(TaskGroup, SubmitToStoppedPoolReturnsFalseWithoutPending) {
  ThreadPool Pool(2);
  Pool.stop(ThreadPool::StopMode::Drain);
  TaskGroup G(Pool);
  EXPECT_FALSE(G.submit([] {}));
  G.wait(); // Nothing pending: must return immediately, not hang.
}

TEST(ParallelAnalysis, OnPoolMatchesParallelEntryPoint) {
  // The serve daemon's entry point: same merged result as the jobs=N CLI
  // path, and the pool is reusable across fan-outs.
  const char *Source = workloads::figure2();
  std::vector<uint64_t> Seeds = {1, 2, 3, 4, 5};
  DiagnosticEngine D1, D2, D3;
  Program PA = parseProgram(Source, D1);
  Program PB = parseProgram(Source, D2);
  Program PC = parseProgram(Source, D3);
  ThreadPool Pool(4);
  AnalysisResult A =
      runDeterminacyAnalysisOnPool(PA, AnalysisOptions(), Seeds, Pool);
  AnalysisResult B =
      runDeterminacyAnalysisParallel(PB, AnalysisOptions(), Seeds, 4);
  EXPECT_EQ(fingerprint(A), fingerprint(B));
  AnalysisResult C =
      runDeterminacyAnalysisOnPool(PC, AnalysisOptions(), Seeds, Pool);
  EXPECT_EQ(fingerprint(A), fingerprint(C));
}

} // namespace
