//===- Corpus.cpp - The `corpus` workload ----------------------------------==//
///
/// \file
/// A seeded ProgramGenerator corpus through the multi-seed batch engine
/// (`ddajs analyze --batch`): each program is analyzed under 4 seeds by
/// runDeterminacyAnalysisBatch. One op is one program: its parse plus its
/// merged multi-seed analysis, on one job so that its latency is its own
/// on-CPU time (Bench.h). Each timed pass over the corpus takes the
/// programs in a new seeded order. The traced run also times the engine at
/// kPoolJobs jobs over the whole corpus for the pool efficiency.
///
/// Known answers: every merged result is Ok and undegraded, and its output
/// equals the concrete Interpreter's output under the first seed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Layers.h"
#include "Stats.h"
#include "Trace.h"

#include "determinacy/ParallelAnalysis.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"


namespace ddbench {

namespace {

/// Workers of the traced run's pool-efficiency batch.
constexpr unsigned kPoolJobs = 2;

struct CorpusContext {
  std::vector<std::string> Programs;
  std::vector<uint64_t> Seeds;
  /// Concrete output of program I under seed S: Reference[I][S].
  std::vector<std::vector<std::string>> Reference;
};

/// The independent reference: the concrete interpreter under each seed.
void computeReference(CorpusContext &C, Outcome &O) {
  C.Reference.resize(C.Programs.size());
  for (size_t I = 0; I < C.Programs.size(); ++I) {
    for (size_t S = 0; S < C.Seeds.size(); ++S) {
      dda::DiagnosticEngine Diags;
      dda::Program P = dda::parseProgram(C.Programs[I], Diags);
      dda::InterpOptions IO;
      IO.RandomSeed = C.Seeds[S];
      dda::Interpreter Concrete(P, IO);
      if (Diags.hasErrors() || !Concrete.run())
        O.harnessFail("concrete reference run failed for program " +
                      std::to_string(I));
      C.Reference[I].push_back(Concrete.outputText());
    }
  }
}

/// Checks one result against the reference output of program I, seed S.
void check(const CorpusContext &C, size_t I, size_t S,
           const dda::AnalysisResult &R, Outcome &O) {
  std::string Where = "program " + std::to_string(I);
  if (!R.Ok)
    O.fail(Where + ": analysis not ok: " + R.Error);
  else if (R.Degradation.degraded())
    O.fail(Where + ": analysis degraded");
  else if (R.Output != C.Reference[I][S])
    O.fail(Where + ": output differs from the concrete interpreter");
}

dda::Program parseOrEmpty(const std::string &Source) {
  dda::DiagnosticEngine Diags;
  return dda::parseProgram(Source, Diags);
}

/// One op: parses program \p I and analyzes it on one job; checks the
/// result after the clock stops. Returns the op's on-CPU time in ms.
double runProgram(const CorpusContext &C, size_t I, Outcome &O) {
  double T0 = threadCpuMs();
  std::vector<dda::Program> Programs;
  Programs.push_back(parseOrEmpty(C.Programs[I]));
  std::vector<dda::AnalysisResult> Results = dda::runDeterminacyAnalysisBatch(
      Programs, dda::AnalysisOptions(), C.Seeds, 1);
  double Ms = threadCpuMs() - T0;
  ++O.Attempted;
  check(C, I, 0, Results.front(), O);
  return Ms;
}

/// One pass over the corpus in generation order; returns its on-CPU ms.
double plainPass(const CorpusContext &C, Outcome &O) {
  double Ms = 0;
  for (size_t I = 0; I < C.Programs.size(); ++I)
    Ms += runProgram(C, I, O);
  return Ms;
}

/// Wall time of runDeterminacyAnalysisBatch alone (parse excluded) over
/// the whole corpus at kPoolJobs jobs.
double batchOnlyMs(const CorpusContext &C) {
  std::vector<dda::Program> Programs;
  for (const std::string &Source : C.Programs)
    Programs.push_back(parseOrEmpty(Source));
  Clock::time_point T0 = Clock::now();
  dda::runDeterminacyAnalysisBatch(Programs, dda::AnalysisOptions(), C.Seeds,
                                   kPoolJobs);
  return msSince(T0);
}

/// One traced op: parse, each seed's task, then the seed-order merge —
/// the batch engine's work for one program, with the merge on its own.
void tracedProgram(const CorpusContext &C, size_t I, dda::ExecEngine Engine,
                   Tracer &T, LayerReport *L, Outcome &O) {
  uint32_t Id = T.nextOp();
  SpanScope OpSpan(&T, "op", Id);
  dda::Program P;
  {
    SpanScope S(&T, "parser.parse", Id);
    P = parseOrEmpty(C.Programs[I]);
  }
  dda::AnalysisOptions AO;
  AO.Engine = Engine;
  std::vector<dda::AnalysisResult> PerSeed;
  for (uint64_t Seed : C.Seeds) {
    SpanScope S(&T, "determinacy.task", Id);
    PerSeed.push_back(dda::runDeterminacyAnalysisTask(P, AO, Seed));
  }
  for (size_t S = 0; S < PerSeed.size(); ++S) {
    ++O.Attempted;
    check(C, I, S, PerSeed[S], O);
  }
  dda::AnalysisResult Merged = std::move(PerSeed.front());
  for (size_t S = 1; S < PerSeed.size(); ++S) {
    SpanScope Span(&T, "determinacy.merge", Id);
    dda::mergeAnalysisResults(Merged, std::move(PerSeed[S]));
  }
  if (L) {
    L->ParserNodes += P.Context->nodeCount();
    L->addAnalysis(Merged);
  }
}

/// One pass over the corpus, program by program; returns its ms.
double tracedPass(const CorpusContext &C, dda::ExecEngine Engine, Tracer &T,
                  LayerReport *L, Outcome &O) {
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < C.Programs.size(); ++I)
    tracedProgram(C, I, Engine, T, L, O);
  return msSince(T0);
}

void runTraced(const Args &A, const CorpusContext &C, Outcome &O) {
  plainPass(C, O); // Warm-up.
  const dda::ExecEngine Default = dda::defaultExecEngine();
  const dda::ExecEngine Other = Default == dda::ExecEngine::Bytecode
                                    ? dda::ExecEngine::TreeWalk
                                    : dda::ExecEngine::Bytecode;

  // Passes over the same programs: untraced (P), traced with the default
  // engine (D) and with the other engine (E), in the order P D E D E P.
  // P against the first D gives the tracing overhead; E against D the
  // engine speedup. Only the first D's spans are reported.
  Tracer Off(false), T(true), D2(true), E1(true), E2(true);
  LayerReport L;
  double PlainMs = tracedPass(C, Default, Off, nullptr, O);
  double TracedMs = tracedPass(C, Default, T, &L, O);
  tracedPass(C, Other, E1, nullptr, O);
  tracedPass(C, Default, D2, nullptr, O);
  tracedPass(C, Other, E2, nullptr, O);
  PlainMs += tracedPass(C, Default, Off, nullptr, O);
  L.TraceOverheadRatio = PlainMs > 0 ? 2 * TracedMs / PlainMs : 0;
  auto TaskMs = [](const Tracer &X) {
    return attribute(X.spans()).SelfMs["determinacy.task"];
  };
  double DefaultMs = TaskMs(T) + TaskMs(D2), OtherMs = TaskMs(E1) + TaskMs(E2);
  L.EngineSpeedup = Default == dda::ExecEngine::Bytecode ? OtherMs / DefaultMs
                                                         : DefaultMs / OtherMs;

  // Pool efficiency: sequential task time against the jobs-wide batch wall
  // time on the same programs (median of three).
  std::vector<double> BatchMs;
  for (int Rep = 0; Rep < 3; ++Rep)
    BatchMs.push_back(batchOnlyMs(C));
  L.PoolEfficiency = DefaultMs / 2 / (kPoolJobs * median(BatchMs));

  reportTrace(A, T, L, O);
}

} // namespace

Outcome runCorpus(const Args &A) {
  Outcome O;
  O.InputDigest = corpusDigest(A.Seed);
  if (corpusDigest(A.Seed) != O.InputDigest)
    O.harnessFail("corpus differs between two generations");
  CorpusContext C;
  C.Programs = corpusPrograms(A.Seed);
  C.Seeds = corpusSeeds(A.Seed);
  computeReference(C, O);
  if (A.Trace) {
    runTraced(A, C, O);
    return O;
  }

  // Warm-up: one pass over the corpus, kSetupReps times.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < kSetupReps; ++Rep)
    SetupS.push_back(plainPass(C, O) / 1000.0);

  // Windows of whole passes.
  const size_t PerPass = C.Programs.size();
  const size_t PerWindow = windowSamples(PerPass);
  std::vector<Window> Windows;
  std::vector<double> OpMs;
  double RssMb = 0;
  double Cpu0 = cpuSeconds();
  Clock::time_point Start = Clock::now();
  std::vector<size_t> Order;
  for (size_t Op = 0; keepMeasuring(Start, A.Seconds, OpMs.size(), PerWindow);
       ++Op) {
    if (Op % PerPass == 0)
      Order = corpusPassOrder(A.Seed, Op / PerPass);
    if (Op % PerWindow == 0)
      Windows.emplace_back();
    OpMs.push_back(runProgram(C, Order[Op % PerPass], O));
    Window &W = Windows.back();
    W.LatencyMs.push_back(OpMs.back());
    W.Ms += OpMs.back();
    W.Ops += 1;
    if (OpMs.size() == kMinWindows * PerWindow)
      RssMb = peakRssMb();
  }
  double Cpu = cpuSeconds() - Cpu0;
  O.noteSpread("op", OpMs);
  emitEndToEnd(O, SetupS, Windows, Cpu, OpMs.size(), RssMb);
  return O;
}

} // namespace ddbench
