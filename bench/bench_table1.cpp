//===- bench_table1.cpp - Reproduces the paper's Table 1 -------------------==//
///
/// "Comparison of pointer analysis scalability on several jQuery versions;
/// the number of heap flushes is given in parentheses."
///
/// For each miniquery version (our jQuery stand-ins) and each configuration
/// (Baseline / Spec / Spec+DetDOM), runs the pipeline and prints ✓ when the
/// static pointer analysis completes within the step budget (the stand-in
/// for the paper's 10-minute timeout) and ✗ otherwise, with the dynamic
/// analysis's heap-flush count in parentheses (">1000" once the flush limit
/// is hit, exactly as the paper reports).
///
//===----------------------------------------------------------------------===//

#include "determinacy/Determinacy.h"
#include "parser/Parser.h"
#include "pointsto/PointsTo.h"
#include "specialize/Specializer.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace dda;

namespace {

constexpr uint64_t TimeoutBudget = 40'000;

struct Cell {
  bool Completed = false;
  uint64_t Flushes = 0;
  bool FlushLimitHit = false;
  uint64_t Steps = 0;

  std::string str(bool WithFlushes) const {
    std::string Out = Completed ? "yes" : "NO ";
    if (WithFlushes) {
      Out += " (";
      Out += FlushLimitHit ? ">1000" : std::to_string(Flushes);
      Out += ")";
    }
    return Out;
  }
};

Program parse(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "workload parse error:\n%s", Diags.str().c_str());
    std::exit(1);
  }
  return P;
}

Cell runConfig(const std::string &Source, bool Specialize, bool DetDom) {
  Program P = parse(Source);
  PointsToOptions PTOpts;
  PTOpts.MaxPropagationSteps = TimeoutBudget;

  Cell C;
  if (!Specialize) {
    PointsToResult R = runPointsToAnalysis(P, PTOpts);
    C.Completed = R.Completed;
    C.Steps = R.PropagationSteps;
  } else {
    AnalysisOptions AOpts;
    AOpts.DeterminateDom = DetDom;
    AnalysisResult A = runDeterminacyAnalysis(P, AOpts);
    C.Flushes = A.Stats.HeapFlushes;
    C.FlushLimitHit = A.Stats.FlushLimitHit;
    SpecializeResult S = specializeProgram(P, A);
    PointsToResult R = runPointsToAnalysis(S.Residual, PTOpts);
    C.Completed = R.Completed;
    C.Steps = R.PropagationSteps;
  }
  return C;
}

/// The 12 table cells (4 versions x 3 configs), version-major.
std::vector<Cell> runAllCells() {
  std::vector<Cell> Cells;
  for (int Minor = 0; Minor <= 3; ++Minor)
    for (int Config = 0; Config < 3; ++Config)
      Cells.push_back(runConfig(workloads::miniquery(Minor),
                                /*Specialize=*/Config > 0,
                                /*DetDom=*/Config == 2));
  return Cells;
}

} // namespace

int main() {
  std::printf("Table 1: pointer-analysis scalability on miniquery versions\n");
  std::printf("(stand-in for jQuery 1.0-1.3; budget = %llu propagation "
              "steps ~ the paper's 10-minute timeout)\n\n",
              static_cast<unsigned long long>(TimeoutBudget));

  std::vector<Cell> Cells = runAllCells();
  TextTable T({"Version", "Baseline", "Spec", "Spec+DetDOM",
               "base steps", "spec steps", "detdom steps"});
  for (int Minor = 0; Minor <= 3; ++Minor) {
    const Cell &Base = Cells[Minor * 3 + 0];
    const Cell &Spec = Cells[Minor * 3 + 1];
    const Cell &Det = Cells[Minor * 3 + 2];
    T.addRow({"1." + std::to_string(Minor), Base.str(false),
              Spec.str(true), Det.str(true), std::to_string(Base.Steps),
              std::to_string(Spec.Steps), std::to_string(Det.Steps)});
  }
  std::printf("%s\n", T.str().c_str());

  std::printf("Paper's Table 1 for comparison:\n");
  std::printf("  1.0   NO   yes (82)     yes (2)\n");
  std::printf("  1.1   NO   NO  (107)    yes (4)\n");
  std::printf("  1.2   yes  yes (>1000)  yes (0)\n");
  std::printf("  1.3   NO   NO  (>1000)  NO  (>1000)\n");
  return 0;
}
