//===- Protocol.h - Serve wire protocol and shared response schema -*-C++-*-==//
///
/// \file
/// The line-delimited JSON protocol of `ddajs serve`, and the response
/// schema it shares with `ddajs analyze --batch`.
///
/// One request per line, one response line per request:
///
///   {"id":"r1","cmd":"analyze","source":"print(1);","seeds":[1,2]}
///   → {"id":"r1","cached":false,"elapsed_ms":3,"result":{...}}
///
/// The `result` object is the canonical analysis payload: `--batch` prints
/// the same object (plus a `path` field) one line per file, so a client
/// can diff a served answer against a single-shot CLI run field by field —
/// including the fact fingerprint, a 64-bit FNV-1a hash over everything a
/// client can observe from an AnalysisResult (facts, contexts, coverage,
/// output, stats, degradation). Identical fingerprints ⇔ interchangeable
/// results; the serve tests and the CI soak lean on this.
///
/// Every failure is *typed*: a `status:"error"` payload with a stable
/// `error` kind (`bad_request`, `too_large`, `parse_error`,
/// `program_error`, `resource_trap`, `overloaded`, `shutting_down`,
/// `internal`). Tenant input can select which error it gets, never whether
/// it gets one — the daemon does not die on request input.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_SERVE_PROTOCOL_H
#define DDA_SERVE_PROTOCOL_H

#include "determinacy/Determinacy.h"
#include "support/FaultInjector.h"

#include <optional>
#include <string>
#include <vector>

namespace dda {
namespace serve {

/// Stable error kinds of the wire protocol. Order is meaningless; names
/// (errorKindName) are the contract.
enum class ErrorKind : uint8_t {
  BadRequest,   ///< Malformed JSON, unknown fields, invalid values.
  TooLarge,     ///< Request line exceeded the service's byte budget.
  ParseError,   ///< The submitted program failed to parse.
  ProgramError, ///< The program ran and failed (uncaught exception, ...).
  ResourceTrap, ///< The run was invalidated by a resource trap.
  Overloaded,   ///< Admission queue full; retry later (429 analogue).
  ShuttingDown, ///< Service is draining; no new work accepted.
  Internal,     ///< A bug in the service; the request was isolated.
};

const char *errorKindName(ErrorKind K);

/// A parsed, validated analyze/ping/stats request.
struct Request {
  enum class Command : uint8_t { Analyze, Ping, Stats } Cmd = Command::Analyze;

  /// The client's `id` member re-serialized verbatim ("null" when absent);
  /// echoed in the response so clients can pipeline.
  std::string IdJson = "null";

  std::string Source; ///< Inline program text (exclusive with Path).
  std::string Path;   ///< Server-side file to analyze (exclusive with
                      ///< Source; only honored when the daemon was started
                      ///< with --root, and confined to that directory).

  std::vector<uint64_t> Seeds; ///< Validated, non-empty (defaults to {1}).

  std::optional<bool> DetDom; ///< Absent = service default.

  /// Per-request budget overrides (absent fields keep service defaults).
  /// The server composes these with its ceiling via composeLimits, so a
  /// tenant can only ever tighten the service-level budgets.
  std::optional<uint64_t> MaxSteps, DeadlineMs, MaxHeapCells, CfFuel;
  std::optional<unsigned> MaxCallDepth, MaxEvalDepth;

  std::optional<FaultInjector> Injector; ///< `inject_fault` spec.
  bool NoCache = false;                  ///< Bypass the response cache.
};

/// Hard caps on request shape, beyond byte size (enforced server-side).
constexpr size_t kMaxSeedsPerRequest = 64;
constexpr unsigned kMaxJsonDepth = 64;

/// Parses and validates one request line. Returns false with a typed
/// error: malformed JSON, wrong types, unknown members, out-of-range
/// seeds/budgets. Never throws.
bool parseRequest(const std::string &Line, Request &Out, ErrorKind &EK,
                  std::string &Message);

/// 64-bit FNV-1a over the canonical rendering of everything a client can
/// observe from \p R. Byte-identical results ⇔ equal fingerprints, across
/// undo engines, thread counts, and serve-vs-CLI entry points.
uint64_t factFingerprint(const AnalysisResult &R);

/// Exit code for an analysis outcome, shared by ddajs and the serve
/// payload: 0 ok, 1 program error, 3 resource trap (partial but sound
/// results), 4 internal error.
int analysisExitCode(const AnalysisResult &R);

/// Serializes the canonical result payload for \p R: `status`, `exit_code`,
/// `seeds`, fact counts, `fingerprint` (hex), `trap`,
/// degradation summary, stats, and the program output. Used verbatim by
/// serve responses, `--batch` summary lines, and the tests that compare
/// the two.
std::string analysisPayloadJson(const AnalysisResult &R,
                                const std::vector<uint64_t> &Seeds);

/// Serializes a typed error payload: `{"status":"error","error":<kind>,
/// "message":<msg>}` (+ `exit_code` for request-level failures).
std::string errorPayloadJson(ErrorKind K, const std::string &Message);

/// Wraps a payload into a full response line (no trailing newline):
/// `{"id":<id>,"cached":<b>,"elapsed_ms":<n>,"result":<payload>}`.
std::string responseLine(const std::string &IdJson, bool Cached,
                         uint64_t ElapsedMs, const std::string &Payload);

} // namespace serve
} // namespace dda

#endif // DDA_SERVE_PROTOCOL_H
