//===- Paper.cpp - The `paper` workload ------------------------------------==//
///
/// \file
/// The paper's own evaluation as a single-threaded closed loop. One op is
/// one Table 1 cell (parse → determinacy → specialize → points-to under
/// the 40k-step budget; Baseline skips the middle two) or one eval-suite
/// program (unevalizer, then eval elimination under Spec and Spec+DetDOM).
/// A round runs all 40 ops in a seeded order; every op's answer is checked
/// against the paper's Table 1 verdicts and the suite's expected results.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Layers.h"
#include "Stats.h"
#include "Trace.h"

#include "determinacy/Determinacy.h"
#include "evalelim/EvalElim.h"
#include "parser/Parser.h"
#include "pointsto/PointsTo.h"
#include "specialize/Specializer.h"
#include "workloads/Workloads.h"

namespace ddbench {

namespace {

/// The propagation budget standing in for the paper's 10-minute timeout.
constexpr uint64_t kPointsToBudget = 40'000;

struct PaperContext {
  std::vector<PaperOp> Ops = paperOps();
  std::vector<std::string> Miniquery;
  PaperContext() {
    for (int Minor = 0; Minor <= 3; ++Minor)
      Miniquery.push_back(dda::workloads::miniquery(Minor));
  }
};

/// Runs a cell; returns "" when the answer matches Table 1.
std::string runCell(const PaperContext &C, const PaperOp &Op, Tracer *T,
                    uint32_t Id, LayerReport *L) {
  dda::DiagnosticEngine Diags;
  dda::Program P;
  {
    SpanScope S(T, "parser.parse", Id);
    P = dda::parseProgram(C.Miniquery[Op.Minor], Diags);
  }
  if (Diags.hasErrors())
    return "parse error";
  dda::PointsToOptions PT;
  PT.MaxPropagationSteps = kPointsToBudget;
  dda::PointsToResult R;
  if (Op.Config == 0) {
    SpanScope S(T, "pointsto.run", Id);
    R = dda::runPointsToAnalysis(P, PT);
  } else {
    dda::AnalysisOptions AO;
    AO.DeterminateDom = Op.Config == 2;
    dda::AnalysisResult A;
    {
      SpanScope S(T, "determinacy.run", Id);
      A = dda::runDeterminacyAnalysis(P, AO);
    }
    if (!A.Ok)
      return "analysis failed: " + A.Error;
    dda::SpecializeResult Spec;
    {
      SpanScope S(T, "specialize.run", Id);
      Spec = dda::specializeProgram(P, A);
    }
    {
      SpanScope S(T, "pointsto.run", Id);
      R = dda::runPointsToAnalysis(Spec.Residual, PT);
    }
    if (L) {
      L->addAnalysis(A);
      L->BranchesPruned += Spec.Report.BranchesPruned;
      L->PropertiesStaticized += Spec.Report.PropertiesStaticized;
      L->LoopsUnrolled += Spec.Report.LoopsUnrolled;
      L->FunctionClones += Spec.Report.FunctionClones;
      L->EvalsSpliced += Spec.Report.EvalsSpliced;
    }
  }
  if (L) {
    L->ParserNodes += P.Context->nodeCount();
    ++L->PointsToRuns;
    L->PointsToCompleted += R.Completed ? 1 : 0;
    L->PropagationSteps += R.PropagationSteps;
    L->ConstraintVars += R.NumConstraintVars;
    L->CopyEdges += R.NumCopyEdges;
  }
  if (R.Completed != paperCellCompletes(Op.Minor, Op.Config))
    return "Table 1 cell 1." + std::to_string(Op.Minor) + "/" +
           std::to_string(Op.Config) + " verdict differs from the paper";
  return "";
}

/// Runs an eval-suite program; returns "" when every result is expected.
std::string runEval(const PaperOp &Op, Tracer *T, uint32_t Id,
                    LayerReport *L) {
  const dda::workloads::EvalBenchmark &B =
      dda::workloads::evalSuite()[Op.Program];
  dda::UnevalizerResult U;
  {
    SpanScope S(T, "evalelim.unevalizer", Id);
    U = dda::runUnevalizer(B.Source);
  }
  if (!U.ParseOk || U.Handled != B.ExpectedUnevalizer)
    return std::string(B.Name) + ": unevalizer result differs";
  if (!B.Runnable)
    return "";
  for (bool DetDom : {false, true}) {
    if (DetDom && B.MissingCode)
      break;
    dda::EvalElimOptions EO;
    EO.DeterminateDom = DetDom;
    dda::EvalElimResult R;
    {
      SpanScope S(T, "evalelim.run", Id);
      R = dda::runEvalElimination(B.Source, EO);
    }
    if (L) {
      ++L->EvalElimRuns;
      L->EvalElimHandled += R.Ran && R.Handled ? 1 : 0;
    }
    if (B.MissingCode) {
      if (R.Ran)
        return std::string(B.Name) + ": missing-code program ran";
      continue;
    }
    bool Expected = DetDom ? B.ExpectedSpecDetDom : B.ExpectedSpec;
    if (!R.Ran || R.Handled != Expected)
      return std::string(B.Name) + (DetDom ? ": Spec+DetDOM" : ": Spec") +
             " result differs";
  }
  return "";
}

std::string runOp(const PaperContext &C, const PaperOp &Op, Tracer *T,
                  LayerReport *L) {
  uint32_t Id = T ? T->nextOp() : 0;
  SpanScope OpSpan(T, "op", Id);
  return Op.K == PaperOp::Cell ? runCell(C, Op, T, Id, L)
                               : runEval(Op, T, Id, L);
}

/// Runs one round in \p Order; returns its on-CPU time in ms and appends
/// per-op latencies (on-CPU ms) to \p LatencyMs when given.
double runRound(const PaperContext &C, const std::vector<size_t> &Order,
                Outcome &O, Tracer *T, LayerReport *L,
                std::vector<double> *LatencyMs) {
  double Round = threadCpuMs();
  for (size_t I : Order) {
    double T0 = threadCpuMs();
    std::string Failure = runOp(C, C.Ops[I], T, L);
    double Ms = threadCpuMs() - T0;
    ++O.Attempted;
    if (!Failure.empty())
      O.fail(Failure);
    if (LatencyMs)
      LatencyMs->push_back(Ms);
  }
  return threadCpuMs() - Round;
}

/// Speed of the bytecode engine over the tree-walk engine on the
/// determinacy runs of the Spec and Spec+DetDOM cells.
double engineSpeedup(const PaperContext &C) {
  double Ms[2] = {0, 0};
  for (int Rep = 0; Rep < 3; ++Rep)
    for (int Minor = 0; Minor <= 3; ++Minor)
      for (int Config = 1; Config <= 2; ++Config)
        for (int E = 0; E < 2; ++E) {
          dda::DiagnosticEngine Diags;
          dda::Program P = dda::parseProgram(C.Miniquery[Minor], Diags);
          dda::AnalysisOptions AO;
          AO.DeterminateDom = Config == 2;
          AO.Engine =
              E == 0 ? dda::ExecEngine::TreeWalk : dda::ExecEngine::Bytecode;
          double T0 = threadCpuMs();
          dda::AnalysisResult A = dda::runDeterminacyAnalysis(P, AO);
          Ms[E] += threadCpuMs() - T0;
        }
  return Ms[1] > 0 ? Ms[0] / Ms[1] : 0;
}

void runTraced(const Args &A, const PaperContext &C, Outcome &O) {
  const size_t N = C.Ops.size();
  runRound(C, paperRoundOrder(A.Seed, 0, N), O, nullptr, nullptr, nullptr);

  // Alternate untraced and traced rounds over the same orders; the time
  // ratio is the tracing overhead.
  Tracer T(true);
  LayerReport L;
  double PlainMs = 0, TracedMs = 0;
  for (uint64_t Round = 1; Round <= 3; ++Round) {
    std::vector<size_t> Order = paperRoundOrder(A.Seed, Round, N);
    PlainMs += runRound(C, Order, O, nullptr, nullptr, nullptr);
    TracedMs += runRound(C, Order, O, &T, &L, nullptr);
  }
  L.TraceOverheadRatio = PlainMs > 0 ? TracedMs / PlainMs : 0;
  L.EngineSpeedup = engineSpeedup(C);

  reportTrace(A, T, L, O);
}

} // namespace

Outcome runPaper(const Args &A) {
  Outcome O;
  O.InputDigest = paperDigest(A.Seed);
  if (paperDigest(A.Seed) != O.InputDigest)
    O.harnessFail("paper inputs differ between two generations");
  PaperContext C;
  const size_t N = C.Ops.size();
  if (A.Trace) {
    runTraced(A, C, O);
    return O;
  }

  // Warm-up rounds: set-up time is the median of their on-CPU times.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < kSetupReps; ++Rep)
    SetupS.push_back(runRound(C, paperRoundOrder(A.Seed, 1'000'000 + Rep, N),
                              O, nullptr, nullptr, nullptr) /
                     1000.0);

  // Windows of whole rounds.
  const size_t PerWindow = windowSamples(N);
  std::vector<Window> Windows;
  std::vector<double> RoundMs;
  uint64_t TimedOps = 0;
  double RssMb = 0;
  double Cpu0 = cpuSeconds();
  Clock::time_point Start = Clock::now();
  for (uint64_t Round = 0; keepMeasuring(Start, A.Seconds, TimedOps, PerWindow);
       ++Round) {
    if (TimedOps % PerWindow == 0)
      Windows.emplace_back();
    Window &W = Windows.back();
    RoundMs.push_back(runRound(C, paperRoundOrder(A.Seed, Round, N), O,
                               nullptr, nullptr, &W.LatencyMs));
    W.Ms += RoundMs.back();
    W.Ops += static_cast<double>(N);
    TimedOps += N;
    if (TimedOps == kMinWindows * PerWindow)
      RssMb = peakRssMb();
  }
  double Cpu = cpuSeconds() - Cpu0;
  O.noteSpread("round", RoundMs);
  emitEndToEnd(O, SetupS, Windows, Cpu, TimedOps, RssMb);
  return O;
}

} // namespace ddbench
