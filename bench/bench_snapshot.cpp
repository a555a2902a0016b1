//===- bench_snapshot.cpp - COW snapshot vs journal undo cost --------------==//
///
/// \file
/// Measures what the copy-on-write snapshot engine changed: the cost of
/// forking and undoing a branch write-set. Three experiments:
///
///  1. Undo cost vs write count: a write-set of W writes (over a small
///     touched set) is undone through the real undoSince path under each
///     engine. Journal undo replays W pre-images, so its cost scales with
///     W; snapshot undo restores the touched objects' saved pre-images, so
///     its cost is flat in W. This is the tentpole's asymptotic claim,
///     measured in isolation.
///
///  2. Deeply nested branches: the same measurement when the write-set
///     accumulates across D nested indeterminate branches (the journal
///     holds the whole nested write history; the snapshot frame holds one
///     pre-image per touched location, no matter how deep the nest).
///
///  3. End-to-end: full analysis wall time on counterfactual-heavy
///     workloads and the Table 1 miniquery cells, journal vs snapshot.
///     Undo was never the dominant
///     cost of a whole analysis (execution is), so these report parity
///     plus a modest gain — the honest framing for the isolated wins above.
///
/// Before timing, snapshot and journal runs are verified byte-identical on
/// every workload. Emits BENCH_snapshot.json via --json (run_benches.sh).
///
//===----------------------------------------------------------------------===//

#include "determinacy/InstrumentedInterpreter.h"
#include "parser/Parser.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include "BenchSupport.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

using namespace dda;

namespace {

Program parse(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "parse error:\n%s", Diags.str().c_str());
    std::exit(1);
  }
  return P;
}

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

/// A write-set of \p Writes writes over four object slots and a loop
/// counter. Executed for real (indeterminate-true guard), so the whole set
/// is live in the undo log at the end of the run — exactly the state a
/// counterfactual branch's undo sees.
std::string writeSet(unsigned Writes, const std::string &Pad) {
  std::ostringstream OS;
  OS << Pad << "var i" << Pad.size() << " = 0;\n"
     << Pad << "while (i" << Pad.size() << " < " << Writes << ") { "
     << "o.a = i" << Pad.size() << "; o.b = o.a + 1; o.c = o.b + o.a; "
     << "o.d = o.c - o.b; i" << Pad.size() << " = i" << Pad.size()
     << " + 1; }\n";
  return OS.str();
}

/// Flat workload: one branch body of W writes.
std::string flatWorkload(unsigned Writes) {
  return "var o = {a:0, b:0, c:0, d:0};\n"
         "var r = Math.random() + 2;\n"
         "if (r < 100) {\n" + // Indeterminate, true in this execution.
         writeSet(Writes, "  ") +
         "}\n";
}

/// Deeply nested workload: D nested indeterminate branches, each level
/// contributing W/D writes, so the undo log holds the whole nested
/// history while the snapshot frame still holds one pre-image per touched
/// location.
std::string nestedWorkload(unsigned Depth, unsigned Writes) {
  std::string Out = "var o = {a:0, b:0, c:0, d:0};\n"
                    "var r = Math.random() + 2;\n";
  std::string Pad;
  for (unsigned D = 0; D < Depth; ++D) {
    Out += Pad + "if (r < " + std::to_string(100 * (D + 1)) + ") {\n";
    Pad += "  ";
    Out += writeSet(std::max(1u, Writes / Depth), Pad);
  }
  for (unsigned D = Depth; D-- > 0;) {
    Pad.resize(2 * D);
    Out += Pad + "}\n";
  }
  return Out;
}

/// Counterfactual-heavy end-to-end workload: nested indeterminate-*false*
/// branches, so every level actually runs as a counterfactual (fork,
/// execute, undo, weaken) inside one analysis.
std::string counterfactualWorkload(unsigned Depth, unsigned Writes) {
  std::string Out = "var o = {a:0, b:0, c:0, d:0};\n"
                    "var r = Math.random() + 2;\n";
  std::string Pad;
  for (unsigned D = 0; D < Depth; ++D) {
    Out += Pad + "if (r > " + std::to_string(100 * (D + 1)) + ") {\n";
    Pad += "  ";
    Out += writeSet(std::max(1u, Writes / Depth), Pad);
  }
  for (unsigned D = Depth; D-- > 0;) {
    Pad.resize(2 * D);
    Out += Pad + "}\n";
  }
  return Out;
}

/// Best-of-samples cost of undoing the run's full write-set through
/// undoSince — the exact code path ĈNTR's branch undo takes under the
/// given engine. Construction and the run itself stay outside the timed
/// region; only the unwind is measured.
double timeUnwind(const std::string &Source, UndoEngine Undo, int Samples) {
  double Best = 1e100;
  for (int S = 0; S < Samples; ++S) {
    Program P = parse(Source);
    AnalysisOptions Opts;
    Opts.Undo = Undo;
    InstrumentedInterpreter I(P, Opts);
    if (!I.run()) {
      std::fprintf(stderr, "run failed: %s\n", I.errorMessage().c_str());
      std::exit(1);
    }
    auto T0 = Clock::now();
    I.unwindJournalForTest();
    Best = std::min(Best, nsSince(T0));
  }
  return Best;
}

/// Best-of-samples wall time of a full analysis.
double timeAnalysis(const std::string &Source, const AnalysisOptions &Base,
                    int Iters, int Samples) {
  double Best = 1e100;
  for (int S = 0; S < Samples; ++S) {
    double Total = 0;
    for (int I = 0; I < Iters; ++I) {
      Program P = parse(Source);
      AnalysisOptions Opts = Base;
      auto T0 = Clock::now();
      AnalysisResult R = runDeterminacyAnalysis(P, Opts);
      Total += nsSince(T0);
      if (!R.Ok) {
        std::fprintf(stderr, "analysis error: %s\n", R.Error.c_str());
        std::exit(1);
      }
    }
    Best = std::min(Best, Total / Iters);
  }
  return Best;
}

/// The differential suite's fingerprint (undo-engine counters excluded).
std::string fingerprint(const AnalysisResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " trap=" << static_cast<int>(R.Trap)
     << " degraded=" << R.Degradation.degraded() << "\n"
     << "steps=" << R.Stats.StepsUsed << " flushes=" << R.Stats.HeapFlushes
     << " cf=" << R.Stats.Counterfactuals
     << " journal=" << R.Stats.JournalEntries << "\n"
     << R.Output << R.Facts.dump(R.Contexts);
  return OS.str();
}

bool verifyWorkload(const char *Name, const std::string &Source) {
  auto Run = [&](UndoEngine Undo) {
    Program P = parse(Source);
    AnalysisOptions Opts;
    Opts.Undo = Undo;
    Opts.RecordAllExpressions = true;
    return runDeterminacyAnalysis(P, Opts);
  };
  AnalysisResult Snap = Run(UndoEngine::Snapshot);
  AnalysisResult Jour = Run(UndoEngine::Journal);
  if (fingerprint(Snap) != fingerprint(Jour)) {
    std::fprintf(stderr, "FAIL: %s: snapshot vs journal diverge\n", Name);
    return false;
  }
  return true;
}

struct UndoRow {
  std::string Name;
  unsigned Writes;
  double JournalNs;
  double SnapshotNs;
  double ratio() const { return JournalNs / SnapshotNs; }
};

struct E2ERow {
  std::string Name;
  double JournalNs;
  double SnapshotNs;
};

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = nullptr;
  int Iters = 3, Samples = 5, UndoSamples = 25;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--quick"))
      Iters = 1, Samples = 2, UndoSamples = 5;
  }
  unsigned HostCpus = ThreadPool::hardwareWorkers();

  std::printf("Verifying snapshot/journal identity on every workload...\n");
  bool Verified = true;
  for (unsigned W : {64u, 1024u})
    Verified = Verified &&
               verifyWorkload("flat", flatWorkload(W)) &&
               verifyWorkload("nested", nestedWorkload(4, W)) &&
               verifyWorkload("counterfactual", counterfactualWorkload(4, W));
  for (int Minor = 0; Minor < 4 && Verified; ++Minor)
    Verified = verifyWorkload(("miniquery1_" + std::to_string(Minor)).c_str(),
                              workloads::miniquery(Minor));
  if (!Verified)
    return 1;
  std::printf("ok: undo engines observationally identical\n\n");

  // --- 1/2. Undo cost vs write count, flat and deeply nested ------------
  std::vector<UndoRow> UndoRows;
  for (unsigned W : {16u, 64u, 256u, 1024u, 4096u})
    UndoRows.push_back({"flat", W,
                        timeUnwind(flatWorkload(W), UndoEngine::Journal,
                                   UndoSamples),
                        timeUnwind(flatWorkload(W), UndoEngine::Snapshot,
                                   UndoSamples)});
  for (unsigned D : {2u, 4u, 8u})
    UndoRows.push_back({"nested_d" + std::to_string(D), 1024,
                        timeUnwind(nestedWorkload(D, 1024),
                                   UndoEngine::Journal, UndoSamples),
                        timeUnwind(nestedWorkload(D, 1024),
                                   UndoEngine::Snapshot, UndoSamples)});

  TextTable UT({"workload", "writes", "journal us", "snapshot us", "ratio"});
  for (const UndoRow &R : UndoRows) {
    char J[32], S[32], X[32];
    std::snprintf(J, sizeof(J), "%.2f", R.JournalNs / 1e3);
    std::snprintf(S, sizeof(S), "%.2f", R.SnapshotNs / 1e3);
    std::snprintf(X, sizeof(X), "%.1fx", R.ratio());
    UT.addRow({R.Name, std::to_string(R.Writes), J, S, X});
  }
  std::printf("Branch write-set undo cost (real undoSince path, isolated):\n"
              "%s\n",
              UT.str().c_str());

  // --- 3. End-to-end analyses -------------------------------------------
  auto E2E = [&](const std::string &Name, const std::string &Source) {
    AnalysisOptions Jour;
    Jour.Undo = UndoEngine::Journal;
    AnalysisOptions Snap;
    Snap.Undo = UndoEngine::Snapshot;
    return E2ERow{Name, timeAnalysis(Source, Jour, Iters, Samples),
                  timeAnalysis(Source, Snap, Iters, Samples)};
  };
  std::vector<E2ERow> E2ERows;
  E2ERows.push_back(E2E("cf_deep_nest", counterfactualWorkload(4, 200000)));
  E2ERows.push_back(E2E("cf_wide", [] {
                          std::string Out = "var o = {a:0,b:0,c:0,d:0};\n"
                                            "var r = Math.random() + 2;\n"
                                            "var k = 0;\n"
                                            "while (k < 64) {\n"
                                            "  if (r > 100) {\n" +
                                            writeSet(2000, "    ") +
                                            "  }\n  k = k + 1;\n}\n";
                          return Out;
                        }()));
  for (int Minor = 0; Minor < 4; ++Minor)
    E2ERows.push_back(E2E("table1_miniquery1_" + std::to_string(Minor),
                          workloads::miniquery(Minor)));

  TextTable ET({"bench", "journal ms", "snapshot ms"});
  for (const E2ERow &R : E2ERows) {
    char J[32], S[32];
    std::snprintf(J, sizeof(J), "%.3f", R.JournalNs / 1e6);
    std::snprintf(S, sizeof(S), "%.3f", R.SnapshotNs / 1e6);
    ET.addRow({R.Name, J, S});
  }
  std::printf("End-to-end analysis wall time (host_cpus=%u):\n%s\n", HostCpus,
              ET.str().c_str());

  if (JsonPath) {
    FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"bench\": \"snapshot_vs_journal_undo\",\n"
                 "  \"host_cpus\": %u,\n"
                 "  \"peak_rss_kb\": %ld,\n"
                 "  \"verified\": {\"fact_fingerprints_identical\": true},\n"
                 "  \"undo_cost\": [\n",
                 HostCpus, bench::peakRssKb());
    for (size_t I = 0; I < UndoRows.size(); ++I)
      std::fprintf(F,
                   "    {\"workload\": \"%s\", \"writes\": %u, "
                   "\"journal_ns\": %.1f, \"snapshot_ns\": %.1f, "
                   "\"journal_over_snapshot\": %.2f}%s\n",
                   UndoRows[I].Name.c_str(), UndoRows[I].Writes,
                   UndoRows[I].JournalNs, UndoRows[I].SnapshotNs,
                   UndoRows[I].ratio(), I + 1 < UndoRows.size() ? "," : "");
    std::fprintf(F, "  ],\n  \"end_to_end\": [\n");
    for (size_t I = 0; I < E2ERows.size(); ++I)
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"journal_ns\": %.1f, "
                   "\"snapshot_ns\": %.1f}%s\n",
                   E2ERows[I].Name.c_str(), E2ERows[I].JournalNs,
                   E2ERows[I].SnapshotNs, I + 1 < E2ERows.size() ? "," : "");
    std::fprintf(
        F,
        "  ],\n"
        "  \"notes\": [\n"
        "    \"undo_cost isolates the branch-undo machinery through the "
        "real undoSince path: journal undo replays every write (cost "
        "scales with the write count), snapshot undo restores one saved "
        "pre-image per touched location (flat in the write count and in "
        "the nesting depth)\",\n"
        "    \"end_to_end analyses are execution-dominated, so whole-run "
        "wall time shows parity plus a modest snapshot gain; the isolated "
        "undo_cost rows are where the asymptotic change lives\"\n"
        "  ]\n}\n");
    std::fclose(F);
  }
  return 0;
}
