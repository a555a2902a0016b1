//===- Layers.cpp ---------------------------------------------------------==//

#include "Layers.h"

#include <cmath>
#include <fstream>

namespace ddbench {

void LayerReport::addAnalysis(const dda::AnalysisResult &R) {
  Steps += R.Stats.StepsUsed;
  HeapFlushes += R.Stats.HeapFlushes;
  FlushLimitHits += R.Stats.FlushLimitHit ? 1 : 0;
  Counterfactuals += R.Stats.Counterfactuals;
  CfAborts += R.Stats.CounterfactualAborts;
  JournalEntries += R.Stats.JournalEntries;
  SnapshotForks += R.Stats.SnapshotForks;
  CowCopies += R.Stats.CowCopies;
  HeapCells += R.Degradation.HeapCellsUsed;
  Facts += R.Facts.size();
  DeterminateFacts += R.Facts.countDeterminate();
  Regions += R.Stats.IncrementalRegions;
  Replays += R.Stats.IncrementalReplays;
  ReplayedFacts += R.Stats.ReplayedFacts;
  SummariesStored += R.Stats.SummariesStored;
}

namespace {

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

} // namespace

void reportTrace(const Args &Run, const Tracer &T, const LayerReport &L,
                 Outcome &O) {
  const Attribution A = attribute(T.spans());
  const double Ops = static_cast<double>(A.Ops);
  auto PerOp = [&](double V) { return ratio(V, Ops); };
  auto Count = [&](const char *Name, uint64_t V, const char *Unit) {
    O.add(Name, PerOp(static_cast<double>(V)), Unit);
  };
  auto SelfMs = [&](const char *Name, const char *Prefix) {
    O.add(Name, PerOp(A.selfMs(Prefix)), "ms/op");
  };

  SelfMs("parser.self_ms", "parser.");
  Count("parser.nodes", L.ParserNodes, "nodes/op");
  O.add("parser.nodes_per_ms",
        ratio(static_cast<double>(L.ParserNodes), A.selfMs("parser.")),
        "nodes/ms");

  SelfMs("ast.hash_self_ms", "ast.");

  O.add("determinacy.self_ms",
        PerOp(A.selfMs("determinacy.") - A.selfMs("determinacy.merge")),
        "ms/op");
  Count("determinacy.steps", L.Steps, "steps/op");
  Count("determinacy.heap_flushes", L.HeapFlushes, "count/op");
  Count("determinacy.flush_limit_hits", L.FlushLimitHits, "count/op");
  Count("determinacy.counterfactuals", L.Counterfactuals, "count/op");
  Count("determinacy.cf_aborts", L.CfAborts, "count/op");
  Count("determinacy.journal_entries", L.JournalEntries, "count/op");
  Count("determinacy.snapshot_forks", L.SnapshotForks, "count/op");
  Count("determinacy.cow_copies", L.CowCopies, "count/op");
  Count("determinacy.heap_cells", L.HeapCells, "cells/op");
  Count("determinacy.facts", L.Facts, "facts/op");
  O.add("determinacy.determinate_ratio",
        ratio(static_cast<double>(L.DeterminateFacts),
              static_cast<double>(L.Facts)),
        "ratio");
  SelfMs("determinacy.merge_self_ms", "determinacy.merge");
  O.add("determinacy.pool_efficiency", L.PoolEfficiency, "ratio");

  O.add("bytecode.engine_speedup", L.EngineSpeedup, "x");

  SelfMs("specialize.self_ms", "specialize.");
  Count("specialize.branches_pruned", L.BranchesPruned, "count/op");
  Count("specialize.properties_staticized", L.PropertiesStaticized, "count/op");
  Count("specialize.loops_unrolled", L.LoopsUnrolled, "count/op");
  Count("specialize.function_clones", L.FunctionClones, "count/op");
  Count("specialize.evals_spliced", L.EvalsSpliced, "count/op");

  SelfMs("pointsto.self_ms", "pointsto.");
  Count("pointsto.propagation_steps", L.PropagationSteps, "steps/op");
  O.add("pointsto.completed_ratio",
        ratio(static_cast<double>(L.PointsToCompleted),
              static_cast<double>(L.PointsToRuns)),
        "ratio");
  Count("pointsto.constraint_vars", L.ConstraintVars, "count/op");
  Count("pointsto.copy_edges", L.CopyEdges, "count/op");

  SelfMs("evalelim.self_ms", "evalelim.run");
  SelfMs("evalelim.unevalizer_self_ms", "evalelim.unevalizer");
  O.add("evalelim.handled_ratio",
        ratio(static_cast<double>(L.EvalElimHandled),
              static_cast<double>(L.EvalElimRuns)),
        "ratio");

  Count("incremental.regions", L.Regions, "count/op");
  O.add("incremental.replay_ratio",
        ratio(static_cast<double>(L.Replays), static_cast<double>(L.Regions)),
        "ratio");
  Count("incremental.replayed_facts", L.ReplayedFacts, "count/op");
  Count("incremental.summaries_stored", L.SummariesStored, "count/op");
  Count("incremental.store_bytes", L.StoreBytes, "B/op");
  SelfMs("incremental.commit_self_ms", "incremental.commit");
  SelfMs("incremental.treediff_self_ms", "incremental.treediff");
  O.add("incremental.capture_ratio", L.CaptureRatio, "x");

  O.add("serve.overhead_ms_mean", L.OverheadMsMean, "ms");
  O.add("serve.cache_hit_ratio", L.CacheHitRatio, "ratio");
  O.add("serve.ast_hit_ratio", L.AstHitRatio, "ratio");
  O.add("serve.shed", static_cast<double>(L.Shed), "count");
  O.add("serve.edit_p50_ms", L.EditP50Ms, "ms");
  O.add("serve.repeat_p50_ms", L.RepeatP50Ms, "ms");
  O.add("serve.fresh_p50_ms", L.FreshP50Ms, "ms");

  O.add("trace.unattributed_ms", PerOp(A.UnattributedMs), "ms/op");
  O.add("trace.overhead_ratio", L.TraceOverheadRatio, "x");

  // The account must close: layer self times plus the unattributed rest
  // are the traced op time.
  if (A.Ops == 0)
    O.harnessFail("traced run recorded no ops");
  else if (std::fabs(A.residualMs()) > 1e-6 * A.OpMs + 1e-3)
    O.harnessFail("trace attribution does not add up to the op time");

  O.TracePath = Run.OutDir + "/trace-" + Run.Workload + "-seed" +
                std::to_string(Run.Seed) + ".json";
  std::ofstream(O.TracePath) << chromeTraceJson(T.spans(),
                                                "ddbench " + Run.Workload);
}

} // namespace ddbench
