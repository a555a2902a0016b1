//===- Inputs.h - Seeded inputs of the three workloads -----------*- C++ -*-==//
///
/// \file
/// Everything a workload feeds the analyzer derives from the workload seed
/// through the harness Rng (Bench.h), so the same seed always gives
/// byte-identical programs and request sequences. Each workload checks
/// that by generating its inputs twice and comparing digests; the digest is
/// also part of the run's metadata, so runs over different inputs are never
/// compared.
///
//===----------------------------------------------------------------------===//

#ifndef DDBENCH_INPUTS_H
#define DDBENCH_INPUTS_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ddbench {

// --- paper -----------------------------------------------------------------

/// One op of the paper workload: a Table 1 cell or an eval-suite program.
struct PaperOp {
  enum Kind : uint8_t { Cell, Eval } K;
  int Minor = 0;      ///< Cell: miniquery 1.<Minor>.
  int Config = 0;     ///< Cell: 0 Baseline, 1 Spec, 2 Spec+DetDOM.
  size_t Program = 0; ///< Eval: index into the eval suite.
};

/// The 12 Table 1 cells followed by the 28 eval-suite programs.
std::vector<PaperOp> paperOps();

/// Whether the pointer analysis completes in a Table 1 cell, as in the
/// paper: 1.0 ✗✓✓, 1.1 ✗✗✓, 1.2 ✓✓✓, 1.3 ✗✗✗.
bool paperCellCompletes(int Minor, int Config);

/// A permutation of [0, N) drawn from \p StreamSeed.
std::vector<size_t> shuffledOrder(uint64_t StreamSeed, size_t N);

/// Op order of round \p Round: a seeded permutation of [0, N).
std::vector<size_t> paperRoundOrder(uint64_t Seed, uint64_t Round, size_t N);

uint64_t paperDigest(uint64_t Seed);

// --- corpus ----------------------------------------------------------------

constexpr size_t kCorpusPrograms = 256;
constexpr unsigned kCorpusStatements = 40;
constexpr size_t kCorpusSeedsPerProgram = 4;

/// ProgramGenerator programs with indeterminacy, eval and dynamic
/// properties on, 40 top-level statements each.
std::vector<std::string> corpusPrograms(uint64_t Seed);
/// Program order of timed pass \p Pass over the corpus: a seeded
/// permutation, so that each pass cuts the corpus into different batches.
std::vector<size_t> corpusPassOrder(uint64_t Seed, uint64_t Pass);
/// The Math.random seeds each corpus program is analyzed under.
std::vector<uint64_t> corpusSeeds(uint64_t Seed);
uint64_t corpusDigest(uint64_t Seed);

// --- serve -----------------------------------------------------------------

/// A request, kept small: its program is rebuilt from (Program, Param) by
/// requestSource, so a long run's log does not hold every source text.
struct ServeRequest {
  enum Kind : uint8_t { Edit, Repeat, Fresh } K = Edit;
  /// Edit: the library with tail Param. Fresh: the generated program of
  /// seed Param. A repeat keeps both from the request it repeats.
  Kind Program = Edit;
  uint64_t Param = 0;
  std::vector<uint64_t> Seeds;
};

const char *serveKindName(ServeRequest::Kind K);

constexpr unsigned kServeLibraryFunctions = 48;

/// The shared library: 48 looping functions, each called once at top
/// level, then a one-statement tail printing `acc + Tail`. An edit changes
/// only the tail.
std::string serveLibrary(uint64_t Seed, uint64_t Tail);
/// The two Math.random seeds every edit request is analyzed under (fixed
/// so the library's regions replay from the fact store).
std::vector<uint64_t> serveEditSeeds(uint64_t Seed);

/// The client's closed-loop request sequence: three quarters edits of the
/// library, an eighth exact repeats of one of the client's last four
/// distinct requests, an eighth fresh generated programs. There is one
/// client, so that one request is in flight at a time and the process's
/// on-CPU time during a round trip is that request's (Bench.h).
class RequestStream {
public:
  explicit RequestStream(uint64_t Seed);
  ServeRequest next();

private:
  uint64_t Seed;
  Rng R;
  std::vector<ServeRequest> Recent;
  /// Kinds left in the current block of eight.
  std::vector<ServeRequest::Kind> Block;
};

/// The requests that warm a fresh server before timing: the library with
/// tail 0, one fresh program, and a repeat of the library request.
std::vector<ServeRequest> serveWarmup(uint64_t Seed);

/// The program text of \p R under workload seed \p Seed.
std::string requestSource(uint64_t Seed, const ServeRequest &R);

/// The analyze request line for \p R (no trailing newline).
std::string requestLine(uint64_t Seed, const ServeRequest &R,
                        const std::string &Id);

uint64_t serveDigest(uint64_t Seed);

} // namespace ddbench

#endif // DDBENCH_INPUTS_H
