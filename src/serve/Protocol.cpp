//===- Protocol.cpp -------------------------------------------------------==//

#include "serve/Protocol.h"

#include "serve/JSON.h"

#include <algorithm>
#include <cstdio>

using namespace dda;
using namespace dda::serve;

const char *dda::serve::errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::BadRequest:
    return "bad_request";
  case ErrorKind::TooLarge:
    return "too_large";
  case ErrorKind::ParseError:
    return "parse_error";
  case ErrorKind::ProgramError:
    return "program_error";
  case ErrorKind::ResourceTrap:
    return "resource_trap";
  case ErrorKind::Overloaded:
    return "overloaded";
  case ErrorKind::ShuttingDown:
    return "shutting_down";
  case ErrorKind::Internal:
    return "internal";
  }
  return "?";
}

namespace {

bool failReq(ErrorKind &EK, std::string &Message, const std::string &Msg) {
  EK = ErrorKind::BadRequest;
  Message = Msg;
  return false;
}

/// Re-serializes a parsed id member for verbatim echo. Only scalar ids are
/// accepted (objects/arrays as correlation ids are a smell, reject them).
bool renderId(const json::Value &V, std::string &Out) {
  switch (V.kind()) {
  case json::Value::Kind::Null:
    Out = "null";
    return true;
  case json::Value::Kind::Bool:
    Out = V.boolean() ? "true" : "false";
    return true;
  case json::Value::Kind::Number:
    Out.clear();
    json::appendNumber(Out, V.number());
    return true;
  case json::Value::Kind::String:
    Out.clear();
    json::appendQuoted(Out, V.str());
    return true;
  default:
    return false;
  }
}

bool readU64Field(const json::Value &V, const char *Name, uint64_t &Out,
                  ErrorKind &EK, std::string &Message) {
  if (!V.asU64(Out))
    return failReq(EK, Message,
                   std::string(Name) + " must be a non-negative integer");
  return true;
}

} // namespace

bool dda::serve::parseRequest(const std::string &Line, Request &Out,
                              ErrorKind &EK, std::string &Message) {
  json::ParseResult P = json::parse(Line, kMaxJsonDepth);
  if (!P.Ok)
    return failReq(EK, Message,
                   "malformed JSON at byte " + std::to_string(P.ErrorAt) +
                       ": " + P.Error);
  if (!P.V.isObject())
    return failReq(EK, Message, "request must be a JSON object");

  // Echo `id` even for invalid requests, so clients can correlate errors.
  if (const json::Value *Id = P.V.get("id"))
    if (!renderId(*Id, Out.IdJson))
      return failReq(EK, Message, "id must be a scalar");

  bool SawCmd = false;
  for (const auto &[Key, V] : P.V.Members) {
    if (Key == "id") {
      continue; // Handled above.
    } else if (Key == "cmd") {
      SawCmd = true;
      if (!V.isString())
        return failReq(EK, Message, "cmd must be a string");
      if (V.str() == "analyze")
        Out.Cmd = Request::Command::Analyze;
      else if (V.str() == "ping")
        Out.Cmd = Request::Command::Ping;
      else if (V.str() == "stats")
        Out.Cmd = Request::Command::Stats;
      else
        return failReq(EK, Message, "unknown cmd: " + V.str());
    } else if (Key == "source") {
      if (!V.isString())
        return failReq(EK, Message, "source must be a string");
      Out.Source = V.str();
    } else if (Key == "path") {
      if (!V.isString() || V.str().empty())
        return failReq(EK, Message, "path must be a non-empty string");
      Out.Path = V.str();
    } else if (Key == "seeds") {
      if (!V.isArray() || V.items().empty())
        return failReq(EK, Message, "seeds must be a non-empty array");
      if (V.items().size() > kMaxSeedsPerRequest)
        return failReq(EK, Message,
                       "too many seeds (max " +
                           std::to_string(kMaxSeedsPerRequest) + ")");
      for (const json::Value &S : V.items()) {
        uint64_t Seed = 0;
        if (!S.asU64(Seed))
          return failReq(EK, Message,
                         "seeds must be non-negative integers");
        Out.Seeds.push_back(Seed);
      }
    } else if (Key == "detdom") {
      if (!V.isBool())
        return failReq(EK, Message, "detdom must be a boolean");
      Out.DetDom = V.boolean();
    } else if (Key == "no_cache") {
      if (!V.isBool())
        return failReq(EK, Message, "no_cache must be a boolean");
      Out.NoCache = V.boolean();
    } else if (Key == "max_steps") {
      uint64_t N;
      if (!readU64Field(V, "max_steps", N, EK, Message))
        return false;
      Out.MaxSteps = N;
    } else if (Key == "deadline_ms") {
      uint64_t N;
      if (!readU64Field(V, "deadline_ms", N, EK, Message))
        return false;
      Out.DeadlineMs = N;
    } else if (Key == "max_heap") {
      uint64_t N;
      if (!readU64Field(V, "max_heap", N, EK, Message))
        return false;
      Out.MaxHeapCells = N;
    } else if (Key == "cf_fuel") {
      uint64_t N;
      if (!readU64Field(V, "cf_fuel", N, EK, Message))
        return false;
      Out.CfFuel = N;
    } else if (Key == "max_call_depth") {
      uint64_t N;
      if (!readU64Field(V, "max_call_depth", N, EK, Message))
        return false;
      Out.MaxCallDepth = static_cast<unsigned>(std::min<uint64_t>(N, 1u << 20));
    } else if (Key == "max_eval_depth") {
      uint64_t N;
      if (!readU64Field(V, "max_eval_depth", N, EK, Message))
        return false;
      Out.MaxEvalDepth = static_cast<unsigned>(std::min<uint64_t>(N, 1u << 20));
    } else if (Key == "inject_fault") {
      if (!V.isString())
        return failReq(EK, Message, "inject_fault must be a string spec");
      std::string Error;
      Out.Injector = FaultInjector::parse(V.str(), &Error);
      if (!Out.Injector)
        return failReq(EK, Message, "inject_fault: " + Error);
    } else {
      // Strict schema: a typo'd budget field silently ignored would run
      // with the wrong limits, so unknown members are an error.
      return failReq(EK, Message, "unknown request member: " + Key);
    }
  }

  if (!SawCmd)
    return failReq(EK, Message, "missing cmd");
  if (Out.Cmd == Request::Command::Analyze) {
    if (Out.Source.empty() == Out.Path.empty())
      return failReq(EK, Message,
                     "analyze needs exactly one of source or path");
  } else if (!Out.Source.empty() || !Out.Path.empty()) {
    return failReq(EK, Message, "source/path only apply to analyze");
  }
  if (Out.Seeds.empty())
    Out.Seeds.push_back(1);
  return true;
}

//===----------------------------------------------------------------------===//
// Fingerprint and payload
//===----------------------------------------------------------------------===//

namespace {

void appendSortedIds(std::string &Out, const NodeBitSet &S) {
  // NodeBitSet iterates in ascending id order — already the sorted order
  // this digest has always rendered.
  for (NodeID Id : S) {
    Out += std::to_string(Id);
    Out += ',';
  }
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

uint64_t dda::serve::factFingerprint(const AnalysisResult &R) {
  // Mirrors the parallel-engine determinism tests: render everything a
  // client can observe, in a fixed order, and hash it. Facts.dump sorts by
  // (node, ctx, kind, index), so the rendering is deterministic.
  std::string Out;
  Out += "ok=" + std::to_string(R.Ok);
  Out += " trap=" + std::string(trapKindName(R.Trap));
  Out += " error=" + R.Error;
  Out += "\noutput=" + R.Output;
  Out += "\nfacts:\n" + R.Facts.dump(R.Contexts);
  Out += "calls=";
  appendSortedIds(Out, R.ExecutedCalls);
  Out += "\nstmts=";
  appendSortedIds(Out, R.ExecutedStmts);
  Out += "\nflushes=" + std::to_string(R.Stats.HeapFlushes);
  Out += " cntr=" + std::to_string(R.Stats.Counterfactuals);
  Out += " aborts=" + std::to_string(R.Stats.CounterfactualAborts);
  Out += " journal=" + std::to_string(R.Stats.JournalEntries);
  Out += " steps=" + std::to_string(R.Stats.StepsUsed);
  Out += " flushlimit=" + std::to_string(R.Stats.FlushLimitHit);
  Out += "\ndegradation=" + R.Degradation.str();
  Out += " eventsTotal=" + std::to_string(R.Degradation.EventsTotal);
  return fnv1a(Out);
}

int dda::serve::analysisExitCode(const AnalysisResult &R) {
  if (R.Ok)
    return R.Trap == TrapKind::None ? 0 : 3;
  if (R.Trap == TrapKind::None)
    return 1; // Program-level failure without a trap.
  return isResourceTrap(R.Trap) ? 3 : 4;
}

std::string dda::serve::analysisPayloadJson(const AnalysisResult &R,
                                            const std::vector<uint64_t> &Seeds) {
  std::string Out;
  Out.reserve(256 + R.Output.size());
  if (!R.Ok) {
    // The run is invalid end to end: report it as a typed error payload,
    // with the trap context preserved.
    ErrorKind K = R.Trap == TrapKind::None ? ErrorKind::ProgramError
                  : isResourceTrap(R.Trap) ? ErrorKind::ResourceTrap
                                           : ErrorKind::Internal;
    Out += "{\"status\":\"error\",\"error\":\"";
    Out += errorKindName(K);
    Out += "\",\"exit_code\":";
    Out += std::to_string(analysisExitCode(R));
    Out += ",\"trap\":\"";
    Out += trapKindName(R.Trap);
    Out += "\",\"message\":";
    json::appendQuoted(Out, R.Error);
    Out += '}';
    return Out;
  }
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(factFingerprint(R)));
  Out += "{\"status\":\"ok\",\"exit_code\":";
  Out += std::to_string(analysisExitCode(R));
  Out += ",\"seeds\":[";
  for (size_t I = 0; I < Seeds.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Seeds[I]);
  }
  Out += "],\"facts\":";
  Out += std::to_string(R.Facts.size());
  Out += ",\"determinate\":";
  Out += std::to_string(R.Facts.countDeterminate());
  Out += ",\"fingerprint\":\"";
  Out += Hex;
  Out += "\",\"trap\":\"";
  Out += trapKindName(R.Trap);
  Out += "\",\"degraded\":";
  Out += R.Degradation.degraded() ? "true" : "false";
  Out += ",\"degradation_events\":";
  Out += std::to_string(R.Degradation.EventsTotal);
  Out += ",\"injected\":";
  Out += (R.Trap != TrapKind::None && R.Degradation.Trip.Injected) ? "true"
                                                                   : "false";
  Out += ",\"steps\":";
  Out += std::to_string(R.Stats.StepsUsed);
  Out += ",\"flushes\":";
  Out += std::to_string(R.Stats.HeapFlushes);
  Out += ",\"counterfactuals\":";
  Out += std::to_string(R.Stats.Counterfactuals);
  // Undo-engine observability. Deliberately NOT part of the fingerprint:
  // these describe how branches were undone, not what the analysis
  // concluded, and legitimately differ between undo engines.
  Out += ",\"snapshot_forks\":";
  Out += std::to_string(R.Stats.SnapshotForks);
  Out += ",\"cow_copies\":";
  Out += std::to_string(R.Stats.CowCopies);
  Out += ",\"output\":";
  json::appendQuoted(Out, R.Output);
  Out += '}';
  return Out;
}

std::string dda::serve::errorPayloadJson(ErrorKind K,
                                         const std::string &Message) {
  std::string Out = "{\"status\":\"error\",\"error\":\"";
  Out += errorKindName(K);
  Out += "\",\"message\":";
  json::appendQuoted(Out, Message);
  Out += '}';
  return Out;
}

std::string dda::serve::responseLine(const std::string &IdJson, bool Cached,
                                     uint64_t ElapsedMs,
                                     const std::string &Payload) {
  std::string Out = "{\"id\":";
  Out += IdJson;
  Out += ",\"cached\":";
  Out += Cached ? "true" : "false";
  Out += ",\"elapsed_ms\":";
  Out += std::to_string(ElapsedMs);
  Out += ",\"result\":";
  Out += Payload;
  Out += '}';
  return Out;
}
