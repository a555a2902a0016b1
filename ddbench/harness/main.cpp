//===- main.cpp - ddbench entry point --------------------------------------==//
///
/// \file
/// `ddbench --workload paper|corpus|serve --seed N --seconds S --trace 0|1
///          [--out-dir DIR] [--revision REV]`
///
/// Runs one workload in this process, prints each metric with its unit, and
/// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
/// `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
/// ones and writes a Chrome trace to DIR. A detail record with the host and
/// build metadata goes to DIR as well (see compare.py).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "BuildInfo.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

using namespace ddbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ddbench --workload paper|corpus|serve --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--revision REV]\n");
  return 2;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Host and build facts; two results are comparable only when all match.
std::string metadataJson(const Args &A, const Outcome &O) {
  char Digest[24];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(O.InputDigest));
  return std::string("{\"nproc\":") + std::to_string(hostCpus()) +
         ",\"revision\":" + jsonString(A.Revision) +
         ",\"compiler\":" + jsonString(DDBENCH_COMPILER) +
         ",\"build_type\":" + jsonString(DDBENCH_BUILD_TYPE) +
         ",\"flags\":" + jsonString(DDBENCH_CXX_FLAGS) +
         ",\"optimized\":" + (kOptimized ? "true" : "false") +
         ",\"workload\":" + jsonString(A.Workload) +
         ",\"seconds\":" + number(A.Seconds) +
         ",\"trace\":" + (A.Trace ? "true" : "false") +
         ",\"input_digest\":\"" + Digest + "\"}";
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveTrace = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      A.Workload = Val;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10), HaveSeed = true;
    else if (Key == "--seconds")
      A.Seconds = std::strtod(Val.c_str(), nullptr), HaveSeconds = true;
    else if (Key == "--trace")
      A.Trace = Val == "1", HaveTrace = Val == "0" || Val == "1";
    else if (Key == "--out-dir")
      A.OutDir = Val;
    else if (Key == "--revision")
      A.Revision = Val;
    else
      return usage();
  }
  if (Argc % 2 == 0 || !HaveTrace || !HaveSeed || !HaveSeconds ||
      !(A.Seconds > 0))
    return usage();

  Outcome (*Run)(const Args &) = nullptr;
  if (A.Workload == "paper")
    Run = runPaper;
  else if (A.Workload == "corpus")
    Run = runCorpus;
  else if (A.Workload == "serve")
    Run = runServe;
  else
    return usage();

  std::error_code EC;
  std::filesystem::create_directories(A.OutDir, EC);
  if (!kOptimized)
    std::fprintf(stderr, "ddbench: WARNING: unoptimized build; the numbers "
                         "are not comparable with an optimized build\n");

  Outcome O = Run(A);
  if (O.Metrics.empty()) {
    for (const std::string &N : O.Notes)
      std::fprintf(stderr, "ddbench: %s\n", N.c_str());
    std::fprintf(stderr, "ddbench: %s measured nothing\n", A.Workload.c_str());
    return 1;
  }
  for (Metric &M : O.Metrics)
    if (!std::isfinite(M.Value)) {
      O.harnessFail(M.Name + " is not finite");
      M.Value = 0;
    }

  std::string Meta = metadataJson(A, O);
  std::printf("ddbench %s seed=%llu trace=%d: %llu ops attempted, %llu "
              "failed, %zu latency samples\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? 1 : 0, static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed), O.LatencySamples);
  std::printf("metadata %s\n", Meta.c_str());
  for (const std::string &N : O.Notes)
    std::printf("note: %s\n", N.c_str());
  for (const Metric &M : O.Metrics)
    std::printf("  %-36s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  if (!O.TracePath.empty())
    std::printf("trace: %s\n", O.TracePath.c_str());

  std::string Metrics = "{";
  for (size_t I = 0; I < O.Metrics.size(); ++I)
    Metrics += (I ? "," : "") + jsonString(O.Metrics[I].Name) +
               ":{\"value\":" + number(O.Metrics[I].Value) +
               ",\"unit\":" + jsonString(O.Metrics[I].Unit) + "}";
  Metrics += "}";
  std::string Result = std::string("{\"correct\":") +
                       (O.correct() ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(O.Attempted) +
                       ",\"failed\":" + std::to_string(O.Failed) +
                       ",\"metrics\":" + Metrics + "}";

  // Detail record: metadata, notes, sample count and the result.
  std::string Notes = "[";
  for (size_t I = 0; I < O.Notes.size(); ++I)
    Notes += (I ? "," : "") + jsonString(O.Notes[I]);
  Notes += "]";
  std::ofstream(A.OutDir + "/result-" + A.Workload + "-seed" +
                std::to_string(A.Seed) + "-trace" + (A.Trace ? "1" : "0") +
                ".json")
      << "{\"metadata\":" << Meta << ",\"seed\":" << A.Seed
      << ",\"latency_samples\":" << O.LatencySamples
      << ",\"notes\":" << Notes << ",\"trace_file\":" << jsonString(O.TracePath)
      << ",\"result\":" << Result << "}\n";

  std::printf("%s\n", Result.c_str());
  return 0;
}
