//===- bench_multiseed.cpp - Facts vs. number of analyzed inputs -------------==//
///
/// Paper Section 7: "Running the determinacy analysis on different inputs
/// yields more facts, which are all sound and hence can be used together."
/// This bench sweeps the number of merged seeds on an input-sensitive
/// program and reports how the merged fact database evolves: input-dependent
/// facts demote to indeterminate (they were never sound to use), while
/// coverage — call sites and statements the analysis has observed — grows.
///
//===----------------------------------------------------------------------===//

#include "determinacy/Determinacy.h"
#include "parser/Parser.h"
#include "support/Table.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace dda;

namespace {

/// A program whose control flow depends on the input: single runs cover one
/// dispatch path and wrongly-looking-determinate conditions; more seeds
/// cover more paths and demote input-dependent facts.
const char *Workload = R"JS(
function handleA(x) { this_was_a = x; return "A"; }
function handleB(x) { this_was_b = x; return "B"; }
function handleC(x) { this_was_c = x; return "C"; }
function dispatch(kind, x) {
  if (kind === 0) { return handleA(x); }
  if (kind === 1) { return handleB(x); }
  return handleC(x);
}
var kind = Math.floor(Math.random() * 3);
var tag = dispatch(kind, 7);
var stable = dispatch(0, 1);
var alsoStable = "pre" + "fix";
if (Math.random() < 0.34) {
  rare_path = 1;
} else if (Math.random() < 0.5) {
  mid_path = 1;
} else {
  common_path = 1;
}
)JS";

} // namespace

int main() {
  std::printf("Multi-seed fact accumulation (paper Section 7)\n\n");

  TextTable T({"seeds", "facts", "determinate", "covered calls",
               "covered stmts", "flushes"});
  for (unsigned N : {1u, 2u, 4u, 8u, 16u, 32u}) {
    DiagnosticEngine Diags;
    Program P = parseProgram(Workload, Diags);
    std::vector<uint64_t> Seeds;
    for (unsigned I = 1; I <= N; ++I)
      Seeds.push_back(I * 7919);
    AnalysisResult R =
        runDeterminacyAnalysisMultiSeed(P, AnalysisOptions(), Seeds);
    T.addRow({std::to_string(N), std::to_string(R.Facts.size()),
              std::to_string(R.Facts.countDeterminate()),
              std::to_string(R.ExecutedCalls.size()),
              std::to_string(R.ExecutedStmts.size()),
              std::to_string(R.Stats.HeapFlushes)});
  }
  std::printf("%s\n", T.str().c_str());
  std::printf(
      "Expected shape: coverage (calls/statements executed) grows with\n"
      "seeds and saturates. The fact counts barely move because a single\n"
      "run is already sound — input-dependent conditions are indeterminate\n"
      "from taint alone, and counterfactual execution already recorded\n"
      "facts inside untaken branches. What additional inputs buy is\n"
      "*coverage* (the paper's \"not covered\" eval category), and merged\n"
      "databases stay sound (\"which are all sound and hence can be used\n"
      "together\").\n");
  return 0;
}
