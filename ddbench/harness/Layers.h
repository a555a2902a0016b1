//===- Layers.h - Per-layer metrics of a traced run --------------*- C++ -*-==//
///
/// \file
/// The per-layer metric set every traced run prints, whatever the
/// workload. Times come from the trace's self-time attribution; counts come
/// from what the layers' public calls returned. Both are normalized per
/// traced op, so runs of different lengths compare. A layer a workload does
/// not load reports 0 (for example `pointsto.*` on `corpus`); that is the
/// "no move" prediction, not a missing value.
///
//===----------------------------------------------------------------------===//

#ifndef DDBENCH_LAYERS_H
#define DDBENCH_LAYERS_H

#include "Bench.h"
#include "Trace.h"

#include "determinacy/Determinacy.h"

namespace ddbench {

struct LayerReport {
  uint64_t ParserNodes = 0;

  // determinacy
  uint64_t Steps = 0, HeapFlushes = 0, FlushLimitHits = 0, Counterfactuals = 0,
           CfAborts = 0, JournalEntries = 0, SnapshotForks = 0, CowCopies = 0,
           HeapCells = 0, Facts = 0, DeterminateFacts = 0;
  double PoolEfficiency = 0;
  double EngineSpeedup = 0;

  // specialize
  uint64_t BranchesPruned = 0, PropertiesStaticized = 0, LoopsUnrolled = 0,
           FunctionClones = 0, EvalsSpliced = 0;

  // pointsto
  uint64_t PointsToRuns = 0, PointsToCompleted = 0, PropagationSteps = 0,
           ConstraintVars = 0, CopyEdges = 0;

  // evalelim
  uint64_t EvalElimRuns = 0, EvalElimHandled = 0;

  // incremental
  uint64_t Regions = 0, Replays = 0, ReplayedFacts = 0, SummariesStored = 0,
           StoreBytes = 0;
  double CaptureRatio = 0;

  // serve (measured from the wire)
  double OverheadMsMean = 0, CacheHitRatio = 0, AstHitRatio = 0;
  uint64_t Shed = 0;
  double EditP50Ms = 0, RepeatP50Ms = 0, FreshP50Ms = 0;

  double TraceOverheadRatio = 0;

  /// Adds one analysis result's counters. Facts are counted on the result
  /// as given (a merged result counts its merged facts).
  void addAnalysis(const dda::AnalysisResult &R);
};

/// Appends every per-layer metric to \p O, normalized by the op count of
/// \p T's trace, checks that the attribution accounts for the op time, and
/// writes the trace to `<out-dir>/trace-<workload>-seed<n>.json`.
void reportTrace(const Args &A, const Tracer &T, const LayerReport &L,
                 Outcome &O);

} // namespace ddbench

#endif // DDBENCH_LAYERS_H
