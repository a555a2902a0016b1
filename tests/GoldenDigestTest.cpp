//===- GoldenDigestTest.cpp - Pinned analysis digests ----------------------==//
///
/// The regression oracle for the instrumented interpreter: every input below
/// is analyzed and its observable outcome is compared with a digest pinned
/// in tests/data/golden_digests.txt. A line records the fact fingerprint
/// (serve::factFingerprint: facts, contexts, coverage, output, counters and
/// the degradation report), the exit code, the governor's StepsUsed and the
/// degradation class (trap kind, plus whether the run degraded and whether
/// an injected fault fired). The inputs are:
///
///  * the paper's Figures 1-4;
///  * the 12 Table 1 cells (4 miniquery versions x Baseline / Spec /
///    Spec+DetDOM), with the residual program's hash and the points-to
///    outcome of each cell;
///  * the 28-program eval-elimination suite, with and without DetDOM;
///  * a fixed slice of ProgramGenerator programs, each under four
///    Math.random seeds and their multi-seed merge;
///  * a governor matrix of step, counterfactual-fuel and heap budgets and
///    injected faults of every budget class.
///
/// A second group holds the interpreters to results recorded from the
/// retired bytecode VM (tests/data/engine_digests.txt), per corpus program.
///
/// Any change to what the analysis concludes, to the order or number of
/// governor steps, or to how a budget trip degrades shows up as a changed
/// line. To re-pin after an intended semantic change, copy the "actual"
/// section printed by the failing test into the data file.
///
//===----------------------------------------------------------------------===//

#include "GoldenData.h"

#include "ast/ASTPrinter.h"
#include "determinacy/Determinacy.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "pointsto/PointsTo.h"
#include "serve/Protocol.h"
#include "specialize/Specializer.h"
#include "support/FaultInjector.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dda;
using golden::fnv1a;
using golden::hex;

namespace {

/// Matches the Table 1 bench and WorkloadTest: the points-to step budget
/// that stands in for the paper's 10-minute timeout.
constexpr uint64_t TimeoutBudget = 40'000;

Program parse(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return P;
}

/// "<trap>[+degraded][+injected]".
std::string degradationClass(const AnalysisResult &R) {
  std::string Out = trapKindName(R.Trap);
  if (R.Degradation.degraded())
    Out += "+degraded";
  if (R.Trap != TrapKind::None && R.Degradation.Trip.Injected)
    Out += "+injected";
  return Out;
}

std::string digest(const std::string &Name, const AnalysisResult &R) {
  return Name + " fp=" + hex(serve::factFingerprint(R)) +
         " exit=" + std::to_string(serve::analysisExitCode(R)) +
         " steps=" + std::to_string(R.Stats.StepsUsed) +
         " class=" + degradationClass(R);
}

std::string analyzeDigest(const std::string &Name, const std::string &Source,
                          const AnalysisOptions &Opts) {
  Program P = parse(Source);
  return digest(Name, runDeterminacyAnalysis(P, Opts));
}

/// The pinned lines whose name starts with "<Section>/", in file order.
std::vector<std::string> goldenSection(const std::string &Section) {
  std::ifstream In(DDA_TEST_DATA_DIR "/golden_digests.txt");
  EXPECT_TRUE(In.good()) << "cannot open golden_digests.txt";
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Section + "/", 0) == 0)
      Lines.push_back(Line);
  return Lines;
}

void expectGolden(const std::string &Section,
                  const std::vector<std::string> &Actual) {
  std::vector<std::string> Golden = goldenSection(Section);
  bool Same = Golden.size() == Actual.size();
  for (size_t I = 0; I < std::min(Golden.size(), Actual.size()); ++I) {
    EXPECT_EQ(Golden[I], Actual[I]);
    Same = Same && Golden[I] == Actual[I];
  }
  if (!Same) {
    std::ostringstream OS;
    for (const std::string &L : Actual)
      OS << L << "\n";
    ADD_FAILURE() << "section " << Section << " differs (" << Golden.size()
                  << " pinned, " << Actual.size() << " actual); actual:\n"
                  << OS.str();
  }
}

TEST(GoldenDigest, Figures) {
  const char *(*Figures[])() = {workloads::figure1, workloads::figure2,
                                workloads::figure3, workloads::figure4};
  std::vector<std::string> Out;
  for (size_t I = 0; I < 4; ++I) {
    for (bool DetDom : {false, true}) {
      AnalysisOptions Opts;
      Opts.DeterminateDom = DetDom;
      Out.push_back(analyzeDigest("figures/" + std::to_string(I + 1) +
                                      (DetDom ? "/detdom" : "/default"),
                                  Figures[I](), Opts));
    }
  }
  expectGolden("figures", Out);
}

TEST(GoldenDigest, Table1Cells) {
  const char *Configs[] = {"baseline", "spec", "spec-detdom"};
  PointsToOptions PTOpts;
  PTOpts.MaxPropagationSteps = TimeoutBudget;
  std::vector<std::string> Out;
  for (int Minor = 0; Minor < 4; ++Minor) {
    std::string Source = workloads::miniquery(Minor);
    for (int Config = 0; Config < 3; ++Config) {
      std::string Name = "table1/1." + std::to_string(Minor) + "/" +
                         Configs[Config];
      Program P = parse(Source);
      if (Config == 0) {
        PointsToResult PT = runPointsToAnalysis(P, PTOpts);
        Out.push_back(Name + " pt=" + std::to_string(PT.Completed) + ":" +
                      std::to_string(PT.PropagationSteps));
        continue;
      }
      AnalysisOptions Opts;
      Opts.DeterminateDom = Config == 2;
      AnalysisResult R = runDeterminacyAnalysis(P, Opts);
      SpecializeResult S = specializeProgram(P, R);
      PointsToResult PT = runPointsToAnalysis(S.Residual, PTOpts);
      Out.push_back(digest(Name, R) + " flushes=" +
                    std::to_string(R.Stats.HeapFlushes) + " residual=" +
                    hex(fnv1a(printProgram(S.Residual))) +
                    " pt=" + std::to_string(PT.Completed) + ":" +
                    std::to_string(PT.PropagationSteps));
    }
  }
  expectGolden("table1", Out);
}

TEST(GoldenDigest, EvalSuite) {
  std::vector<std::string> Out;
  for (const workloads::EvalBenchmark &B : workloads::evalSuite()) {
    for (bool DetDom : {false, true}) {
      AnalysisOptions Opts;
      Opts.DeterminateDom = DetDom;
      Out.push_back(analyzeDigest(std::string("evalsuite/") + B.Name +
                                      (DetDom ? "/detdom" : "/default"),
                                  B.Source, Opts));
    }
  }
  expectGolden("evalsuite", Out);
}

TEST(GoldenDigest, GeneratedPrograms) {
  const std::vector<uint64_t> Seeds = {1, 2, 3, 4};
  std::vector<std::string> Out;
  for (uint64_t ProgramSeed = 1; ProgramSeed <= 16; ++ProgramSeed) {
    std::string Source = workloads::generateProgram(ProgramSeed);
    std::string Prefix = "generated/" + std::to_string(ProgramSeed);
    for (uint64_t Seed : Seeds) {
      AnalysisOptions Opts;
      Opts.RandomSeed = Seed;
      Out.push_back(analyzeDigest(Prefix + "/seed" + std::to_string(Seed),
                                  Source, Opts));
    }
    Program P = parse(Source);
    Out.push_back(digest(Prefix + "/merged",
                         runDeterminacyAnalysisMultiSeed(P, {}, Seeds)));
  }
  expectGolden("generated", Out);
}

TEST(GoldenDigest, GovernorMatrix) {
  struct Input {
    const char *Name;
    std::string Source;
  };
  const std::vector<Input> Inputs = {
      {"figure2", workloads::figure2()},
      {"figure3", workloads::figure3()},
      {"figure4", workloads::figure4()},
      {"miniquery1.0", workloads::miniquery(0)},
      {"generated7", workloads::generateProgram(7)},
      {"evalsuite0", workloads::evalSuite()[0].Source},
  };
  struct BudgetCase {
    const char *Name;
    void (*Apply)(AnalysisOptions &);
  };
  const BudgetCase Budgets[] = {
      {"max-steps=40", [](AnalysisOptions &O) { O.MaxSteps = 40; }},
      {"max-steps=2000", [](AnalysisOptions &O) { O.MaxSteps = 2000; }},
      {"cf-fuel=1", [](AnalysisOptions &O) { O.CounterfactualFuel = 1; }},
      {"cf-fuel=3", [](AnalysisOptions &O) { O.CounterfactualFuel = 3; }},
      {"max-heap=8", [](AnalysisOptions &O) { O.MaxHeapCells = 8; }},
      {"max-heap=60", [](AnalysisOptions &O) { O.MaxHeapCells = 60; }},
  };
  const char *Faults[] = {"steps:3",    "steps:700",  "heap:5",
                          "deadline:1", "depth:1",    "depth:3",
                          "cf-fuel:1",  "eval-depth:1"};
  std::vector<std::string> Out;
  for (const Input &In : Inputs) {
    std::string Prefix = std::string("governor/") + In.Name + "/";
    for (const BudgetCase &B : Budgets) {
      AnalysisOptions Opts;
      B.Apply(Opts);
      Out.push_back(analyzeDigest(Prefix + B.Name, In.Source, Opts));
    }
    for (const char *Spec : Faults) {
      std::optional<FaultInjector> FI = FaultInjector::parse(Spec);
      ASSERT_TRUE(FI) << Spec;
      AnalysisOptions Opts;
      Opts.Injector = &*FI;
      Out.push_back(analyzeDigest(Prefix + "inject-fault=" + Spec, In.Source,
                                  Opts));
    }
  }
  expectGolden("governor", Out);
}

//===----------------------------------------------------------------------===//
// The retired bytecode VM's recorded results
//===----------------------------------------------------------------------===//

/// The corpus the bytecode VM was held to observational identity on: the
/// paper figures, the four miniquery versions, the runnable eval-suite
/// programs and a band of generated programs.
std::vector<std::pair<std::string, std::string>> engineCorpus() {
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
      for (char &C : Name) // gtest param names must be [A-Za-z0-9_].
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      Out.emplace_back(Name, B.Source);
    }
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    Out.emplace_back("fuzz" + std::to_string(Seed),
                     workloads::generateProgram(Seed));
  return Out;
}

/// Everything observable about an instrumented run, hashed: facts, stats,
/// journal-entry count, executed sets, output and error.
std::string analysisFingerprint(const AnalysisResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " trap=" << static_cast<int>(R.Trap)
     << " degraded=" << R.Degradation.degraded() << "\n"
     << "error=" << R.Error << "\n"
     << "steps=" << R.Stats.StepsUsed << " flushes=" << R.Stats.HeapFlushes
     << " cf=" << R.Stats.Counterfactuals
     << " cfAborts=" << R.Stats.CounterfactualAborts
     << " journal=" << R.Stats.JournalEntries << "\n"
     << "executedCalls=" << R.ExecutedCalls.size()
     << " executedStmts=" << R.ExecutedStmts.size() << "\n"
     << "--- output ---\n"
     << R.Output << "--- facts ---\n"
     << R.Facts.dump(R.Contexts);
  return hex(fnv1a(OS.str()));
}

std::string engineDigest(const std::string &Key) {
  return golden::pinnedLine("engine_digests.txt", Key);
}

/// Before its deletion the bytecode VM ran this corpus side by side with
/// the tree-walk; tests/data/engine_digests.txt holds what the VM produced
/// then. These tests keep the tree-walk, now the only engine, to those
/// recorded results, so the deletion provably changed no observable
/// behaviour on the corpus.
class BytecodeDifferentialTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

/// Concrete interpreter: success, output, error and governor step count.
TEST_P(BytecodeDifferentialTest, ConcreteEnginesAgree) {
  const auto &[Name, Source] = GetParam();
  Program P = parse(Source);
  Interpreter I(P);
  bool Ok = I.run();
  EXPECT_EQ(engineDigest("vm-concrete/" + Name),
            "ok=" + std::to_string(Ok) +
                " steps=" + std::to_string(I.stepsUsed()) +
                " output=" + hex(fnv1a(I.outputText())) +
                " error=" + hex(fnv1a(I.errorMessage())));
}

/// Instrumented interpreter with every expression recorded.
TEST_P(BytecodeDifferentialTest, InstrumentedEnginesAgree) {
  const auto &[Name, Source] = GetParam();
  AnalysisOptions Opts;
  Opts.RecordAllExpressions = true;
  Program P = parse(Source);
  EXPECT_EQ(engineDigest("vm-instrumented/" + Name),
            "fp=" + analysisFingerprint(runDeterminacyAnalysis(P, Opts)));
}

/// Different Math.random and DOM seeds drive different indeterminate
/// branches and counterfactuals.
TEST_P(BytecodeDifferentialTest, InstrumentedEnginesAgreeAcrossSeeds) {
  const auto &[Name, Source] = GetParam();
  std::string Actual;
  for (uint64_t Seed : {7u, 99u}) {
    AnalysisOptions Opts;
    Opts.RecordAllExpressions = true;
    Opts.RandomSeed = Seed;
    Opts.DomSeed = Seed + 1;
    Program P = parse(Source);
    Actual += (Actual.empty() ? "" : " ") + std::string("seed") +
              std::to_string(Seed) + "=" +
              analysisFingerprint(runDeterminacyAnalysis(P, Opts));
  }
  EXPECT_EQ(engineDigest("vm-seeds/" + Name), Actual);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BytecodeDifferentialTest, ::testing::ValuesIn(engineCorpus()),
    [](const ::testing::TestParamInfo<std::pair<std::string, std::string>>
           &Info) { return Info.param.first; });

} // namespace
