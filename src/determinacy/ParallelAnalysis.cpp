//===- ParallelAnalysis.cpp -----------------------------------------------==//

#include "determinacy/ParallelAnalysis.h"

#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <utility>

using namespace dda;

namespace {

/// Re-interns a context chain from one table into another (used when merging
/// fact databases from separate runs).
ContextID remapContext(const ContextTable &From, ContextID ID,
                       ContextTable &To) {
  if (ID == ContextTable::Root)
    return ContextTable::Root;
  const ContextEntry &E = From.entry(ID);
  ContextID Parent = remapContext(From, E.Parent, To);
  return To.intern(Parent, E.Site, E.Occurrence, E.Line);
}

} // namespace

void dda::mergeAnalysisResults(AnalysisResult &Merged, AnalysisResult &&R) {
  // Remap the new run's contexts into the merged table, then merge facts
  // point-wise (all facts are sound, so the union -- with value-equality
  // merging -- is sound too).
  for (const auto &[Key, Value] : R.Facts.all()) {
    FactKey Remapped = Key;
    Remapped.Ctx = remapContext(R.Contexts, Key.Ctx, Merged.Contexts);
    Merged.Facts.record(Remapped, Value);
  }
  Merged.ExecutedCalls.insertAll(R.ExecutedCalls);
  Merged.ExecutedStmts.insertAll(R.ExecutedStmts);
  Merged.Stats.HeapFlushes += R.Stats.HeapFlushes;
  Merged.Stats.Counterfactuals += R.Stats.Counterfactuals;
  Merged.Stats.CounterfactualAborts += R.Stats.CounterfactualAborts;
  Merged.Stats.JournalEntries += R.Stats.JournalEntries;
  Merged.Stats.StepsUsed += R.Stats.StepsUsed;
  Merged.Stats.SnapshotForks += R.Stats.SnapshotForks;
  Merged.Stats.CowCopies += R.Stats.CowCopies;
  Merged.Stats.IncrementalRegions += R.Stats.IncrementalRegions;
  Merged.Stats.IncrementalReplays += R.Stats.IncrementalReplays;
  Merged.Stats.ReplayedFacts += R.Stats.ReplayedFacts;
  Merged.Stats.SummariesStored += R.Stats.SummariesStored;
  Merged.Stats.FlushLimitHit |= R.Stats.FlushLimitHit;
  // Degradation merges pessimistically: remember the first trap, fold in
  // every run's weakening events.
  if (Merged.Trap == TrapKind::None && R.Trap != TrapKind::None) {
    Merged.Trap = R.Trap;
    Merged.Degradation.Trap = R.Degradation.Trap;
    Merged.Degradation.Trip = R.Degradation.Trip;
  }
  for (const DegradationEvent &E : R.Degradation.Events)
    Merged.Degradation.addEvent(E.Cause, E.Action, E.Detail);
  Merged.Degradation.EventsTotal +=
      R.Degradation.EventsTotal - R.Degradation.Events.size();
  Merged.Degradation.StepsUsed += R.Degradation.StepsUsed;
  Merged.Degradation.HeapCellsUsed += R.Degradation.HeapCellsUsed;
  Merged.Ok = Merged.Ok && R.Ok;
}

namespace {

/// One worker task: a single seeded run with per-task state. \p EvalBase is
/// the shared program's nextID captured once before the fan-out, so every
/// task bases its eval overlay at the same NodeID.
AnalysisResult runTask(Program &P, const AnalysisOptions &Opts, uint64_t Seed,
                       NodeID EvalBase) {
  AnalysisOptions O = Opts;
  O.RandomSeed = Seed;
  // Nodes parsed by runtime eval land in this task-private overlay instead
  // of the shared program arena. Nothing in AnalysisResult points into it
  // (facts and coverage carry NodeIDs, not pointers), so it can die with
  // the task.
  ASTContext EvalCtx(EvalBase);
  O.EvalContext = &EvalCtx;
  // Each task trips its own injected fault: private checkpoint counters,
  // same spec.
  FaultInjector TaskInjector;
  if (Opts.Injector) {
    TaskInjector = *Opts.Injector;
    TaskInjector.reset();
    O.Injector = &TaskInjector;
  }
  return runDeterminacyAnalysis(P, O);
}

AnalysisResult mergeInSeedOrder(std::vector<AnalysisResult> &Results) {
  AnalysisResult Merged = std::move(Results.front());
  for (size_t I = 1; I < Results.size(); ++I)
    mergeAnalysisResults(Merged, std::move(Results[I]));
  return Merged;
}

} // namespace

AnalysisResult dda::runDeterminacyAnalysisTask(Program &P,
                                               const AnalysisOptions &Opts,
                                               uint64_t Seed) {
  return runTask(P, Opts, Seed, P.Context->nextID());
}

AnalysisResult
dda::runDeterminacyAnalysisParallel(Program &P, const AnalysisOptions &Opts,
                                    const std::vector<uint64_t> &Seeds,
                                    unsigned Jobs) {
  if (Seeds.empty())
    return AnalysisResult();
  NodeID EvalBase = P.Context->nextID();
  std::vector<AnalysisResult> Results(Seeds.size());
  ThreadPool::parallelFor(Jobs, Seeds.size(), [&](size_t I) {
    Results[I] = runTask(P, Opts, Seeds[I], EvalBase);
  });
  // The barrier above makes every per-seed result visible; folding them in
  // seed order makes the merge independent of completion order.
  return mergeInSeedOrder(Results);
}

AnalysisResult
dda::runDeterminacyAnalysisOnPool(Program &P, const AnalysisOptions &Opts,
                                  const std::vector<uint64_t> &Seeds,
                                  ThreadPool &Pool) {
  if (Seeds.empty())
    return AnalysisResult();
  NodeID EvalBase = P.Context->nextID();
  std::vector<AnalysisResult> Results(Seeds.size());
  if (Seeds.size() == 1 || Pool.workers() <= 1) {
    // Inline fast path: one seed (the common service request) or a serial
    // pool — same code path as the Jobs == 1 engine.
    for (size_t I = 0; I < Seeds.size(); ++I)
      Results[I] = runTask(P, Opts, Seeds[I], EvalBase);
    return mergeInSeedOrder(Results);
  }
  TaskGroup Group(Pool);
  for (size_t I = 0; I < Seeds.size(); ++I) {
    bool Accepted = Group.submit(
        [&, I] { Results[I] = runTask(P, Opts, Seeds[I], EvalBase); });
    // A stopping pool rejects new tasks; run the seed inline so a request
    // already past admission still completes during graceful drain.
    if (!Accepted)
      Results[I] = runTask(P, Opts, Seeds[I], EvalBase);
  }
  Group.wait();
  return mergeInSeedOrder(Results);
}

std::vector<AnalysisResult>
dda::runDeterminacyAnalysisBatch(std::vector<Program> &Programs,
                                 const AnalysisOptions &Opts,
                                 const std::vector<uint64_t> &Seeds,
                                 unsigned Jobs) {
  std::vector<uint64_t> SeedList =
      Seeds.empty() ? std::vector<uint64_t>{Opts.RandomSeed} : Seeds;
  const size_t NumPrograms = Programs.size();
  const size_t NumSeeds = SeedList.size();
  std::vector<NodeID> EvalBases(NumPrograms);
  for (size_t P = 0; P < NumPrograms; ++P)
    EvalBases[P] = Programs[P].Context->nextID();
  // Flatten to (program, seed) tasks so one pool load-balances across both
  // axes: a slow program's seeds overlap with everyone else's work.
  std::vector<AnalysisResult> Slots(NumPrograms * NumSeeds);
  ThreadPool::parallelFor(Jobs, Slots.size(), [&](size_t T) {
    size_t P = T / NumSeeds, S = T % NumSeeds;
    Slots[T] = runTask(Programs[P], Opts, SeedList[S], EvalBases[P]);
  });
  std::vector<AnalysisResult> Out;
  Out.reserve(NumPrograms);
  for (size_t P = 0; P < NumPrograms; ++P) {
    std::vector<AnalysisResult> PerSeed(
        std::make_move_iterator(Slots.begin() + P * NumSeeds),
        std::make_move_iterator(Slots.begin() + (P + 1) * NumSeeds));
    Out.push_back(mergeInSeedOrder(PerSeed));
  }
  return Out;
}
