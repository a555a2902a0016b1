//===- Serve.cpp - The `serve` workload ------------------------------------==//
///
/// \file
/// An in-process serve::Server (--jobs 1, fact store on, a fresh store
/// directory per run) driven over loopback TCP by one closed-loop client
/// that waits for each reply, like an IDE caller. The request mix is
/// seeded (Inputs.h): three quarters edits of a shared 48-function library
/// (store replay), an eighth exact repeats (response cache), an eighth
/// fresh programs (store capture). One op is one request; its latency is the
/// process's on-CPU time during the round trip (Bench.h).
///
/// Known answer: every response is ok and its fingerprint equals a direct
/// no-store, no-cache analysis of the same source and seeds, computed after
/// the clock stops.
///
/// The traced run measures the `serve` layer from the wire, then replays
/// the same requests in-process through the calls the server makes per
/// request (parse, top-level hashes and tree diff, the pool analysis on a
/// shared store, the store commit) with a span around each.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Layers.h"
#include "Stats.h"
#include "Trace.h"

#include "ast/StructuralHash.h"
#include "determinacy/ParallelAnalysis.h"
#include "incremental/FactStore.h"
#include "incremental/TreeDiff.h"
#include "parser/Parser.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/ThreadPool.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

namespace ddbench {

namespace {

namespace fs = std::filesystem;

/// One worker: a request's seeds run one after the other, so its on-CPU
/// time is its latency on a dedicated host.
constexpr unsigned kServeJobs = 1;
/// Requests in the traced run's wire phase.
constexpr size_t kTracedRequests = 400;

/// One blocking loopback connection speaking the line protocol.
class Client {
public:
  explicit Client(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_in Addr = {};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    Connected =
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0;
  }
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// One request line out, one response line back; "" on transport failure.
  std::string roundTrip(const std::string &Line) {
    if (!Connected)
      return "";
    std::string Data = Line + "\n";
    for (size_t Off = 0; Off < Data.size();) {
      ssize_t N =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return "";
      Off += static_cast<size_t>(N);
    }
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      char Tmp[16384];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        return "";
      Buf.append(Tmp, static_cast<size_t>(N));
    }
    std::string Out = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    return Out;
  }

private:
  int Fd = -1;
  bool Connected = false;
  std::string Buf;
};

/// One request and what came back, reduced to what the checks need.
struct Exchange {
  ServeRequest Req;
  double RttMs = 0;  ///< Wall time of the round trip.
  double CpuMs = 0;  ///< On-CPU time of the process during the round trip.
  std::string Error; ///< Empty when the response is ok.
  std::string Fingerprint;
  double ElapsedMs = -1; ///< The payload's elapsed_ms; -1 when absent.
};

/// Text of `"Key":` up to the next ',' or '}' (flat scalar members only).
std::string member(const std::string &Json, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  size_t End = Json.find_first_of(",}", At);
  std::string V = Json.substr(At, End - At);
  if (V.size() >= 2 && V.front() == '"')
    V = V.substr(1, V.size() - 2);
  return V;
}

Exchange exchange(ServeRequest Req, const std::string &Response,
                  double RttMs, double CpuMs) {
  Exchange E{std::move(Req), RttMs, CpuMs, "", "", -1};
  if (Response.empty()) {
    E.Error = "transport failure";
    return E;
  }
  if (Response.find("\"result\":{\"status\":\"ok\"") == std::string::npos)
    E.Error = "error response " + Response.substr(0, 160);
  E.Fingerprint = member(Response, "fingerprint");
  std::string Elapsed = member(Response, "elapsed_ms");
  if (!Elapsed.empty())
    E.ElapsedMs = std::stod(Elapsed);
  return E;
}

std::string requestKey(const ServeRequest &R) {
  std::string Key = std::to_string(R.Program) + ":" + std::to_string(R.Param);
  for (uint64_t S : R.Seeds)
    Key += "|" + std::to_string(S);
  return Key;
}

/// Options of a direct analysis equivalent to the server's.
dda::AnalysisOptions directOptions(const ServeRequest &R) {
  dda::AnalysisOptions AO;
  AO.RandomSeed = R.Seeds.front();
  return AO;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Expected fingerprints, by request key: a direct no-store, no-cache,
/// single-job analysis of the same source and seeds.
class Oracle {
public:
  explicit Oracle(uint64_t Seed) : Seed(Seed) {}

  const std::string &expected(const ServeRequest &R) {
    return Known[requestKey(R)];
  }

  /// Computes the fingerprints of every request not seen yet.
  void learn(const std::vector<ServeRequest> &Requests) {
    std::vector<const ServeRequest *> Todo;
    for (const ServeRequest &R : Requests)
      if (Known.emplace(requestKey(R), "").second)
        Todo.push_back(&R);
    std::vector<std::string> Out(Todo.size());
    auto Direct = [&](size_t I) {
      const ServeRequest &R = *Todo[I];
      dda::DiagnosticEngine Diags;
      dda::Program P = dda::parseProgram(requestSource(Seed, R), Diags);
      dda::AnalysisResult A =
          dda::runDeterminacyAnalysisParallel(P, directOptions(R), R.Seeds, 1);
      Out[I] = Diags.hasErrors() ? "parse error"
                                 : hex(dda::serve::factFingerprint(A));
    };
    dda::ThreadPool::parallelFor(std::min(hostCpus(), 4u), Todo.size(), Direct);
    for (size_t I = 0; I < Todo.size(); ++I)
      Known[requestKey(*Todo[I])] = Out[I];
  }

private:
  uint64_t Seed;
  std::map<std::string, std::string> Known;
};

/// Checks every response: ok status and the oracle's fingerprint.
void verify(const std::vector<Exchange> &Log, Oracle &Truth, Outcome &O) {
  std::vector<ServeRequest> Requests;
  for (const Exchange &E : Log)
    Requests.push_back(E.Req);
  Truth.learn(Requests);
  for (const Exchange &E : Log) {
    ++O.Attempted;
    const char *Kind = serveKindName(E.Req.K);
    if (!E.Error.empty())
      O.fail(std::string(Kind) + ": " + E.Error);
    else if (E.Fingerprint != Truth.expected(E.Req))
      O.fail(std::string(Kind) +
             ": fingerprint differs from a direct analysis");
  }
}

/// A per-process fact-store directory under the output directory.
std::string storeDir(const Args &A, const std::string &Tag) {
  return A.OutDir + "/serve-store-" + std::to_string(::getpid()) + "-" + Tag;
}

/// A server on its own fresh store directory, removed on destruction.
class ServeInstance {
public:
  ServeInstance(const Args &A, const std::string &Tag) : Dir(storeDir(A, Tag)) {
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::create_directories(Dir, EC);
  }
  ~ServeInstance() {
    if (S)
      S->stop();
    S.reset();
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  ServeInstance(const ServeInstance &) = delete;
  ServeInstance &operator=(const ServeInstance &) = delete;

  /// Starts the server and sends the warm-up requests; returns the set-up
  /// time in on-CPU seconds (server start, FactStore::open, warm-up pass).
  double startAndWarm(uint64_t Seed, std::vector<Exchange> &Log,
                      Outcome &O) {
    double T0 = processCpuMs();
    dda::serve::ServeOptions SO;
    SO.Port = 0;
    SO.Jobs = kServeJobs;
    SO.FactStoreDir = Dir;
    SO.Incremental = dda::IncrementalMode::On;
    S = std::make_unique<dda::serve::Server>(SO);
    std::string Error;
    if (!S->start(&Error)) {
      O.harnessFail("server did not start: " + Error);
      return 0;
    }
    Client C(S->port());
    for (const ServeRequest &W : serveWarmup(Seed)) {
      std::string Line = requestLine(Seed, W, "warmup");
      Clock::time_point R0 = Clock::now();
      double Cpu0 = processCpuMs();
      std::string Resp = C.roundTrip(Line);
      Log.push_back(exchange(W, Resp, msSince(R0), processCpuMs() - Cpu0));
    }
    return (processCpuMs() - T0) / 1000.0;
  }

  dda::serve::Server &server() { return *S; }

private:
  std::string Dir;
  std::unique_ptr<dda::serve::Server> S;
};

/// The closed-loop client, on the calling thread. With Count == 0 it runs
/// for the timed loop (keepMeasuring, windows of \p PerWindow requests) and
/// \p RssMb gets the peak RSS when kMinWindows windows are done; otherwise
/// it sends exactly Count requests.
std::vector<Exchange> closedLoop(uint16_t Port, uint64_t Seed, double Seconds,
                                 size_t Count, size_t PerWindow = 0,
                                 double *RssMb = nullptr) {
  Client C(Port);
  RequestStream Stream(Seed);
  std::vector<Exchange> Log;
  Clock::time_point Start = Clock::now();
  while (Count ? Log.size() < Count
               : keepMeasuring(Start, Seconds, Log.size(), PerWindow)) {
    ServeRequest Req = Stream.next();
    std::string Line =
        requestLine(Seed, Req, "r" + std::to_string(Log.size()));
    Clock::time_point T0 = Clock::now();
    double Cpu0 = processCpuMs();
    std::string Resp = C.roundTrip(Line);
    double CpuMs = processCpuMs() - Cpu0;
    Log.push_back(exchange(std::move(Req), Resp, msSince(T0), CpuMs));
    if (RssMb && Log.size() == kMinWindows * PerWindow)
      *RssMb = peakRssMb();
  }
  return Log;
}

uint64_t directoryBytes(const std::string &Dir) {
  uint64_t Bytes = 0;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      Bytes += E.file_size(EC);
  return Bytes;
}

/// The wire phase of the traced run: serve.* from round trips and the
/// server's own counters.
void wirePhase(const Args &A, Oracle &Truth, LayerReport &L, Outcome &O) {
  ServeInstance Inst(A, "trace-wire");
  std::vector<Exchange> Warm;
  Inst.startAndWarm(A.Seed, Warm, O);
  verify(Warm, Truth, O);
  if (!O.HarnessOk)
    return;
  const dda::serve::AnalysisCache &Cache = Inst.server().cache();
  uint64_t Hits0 = Cache.resultHits(), Miss0 = Cache.resultMisses();
  uint64_t AstHits0 = Cache.astHits(), AstMiss0 = Cache.astMisses();
  uint64_t Shed0 = Inst.server().stats().Shed.load();
  std::vector<Exchange> Log =
      closedLoop(Inst.server().port(), A.Seed, 0, kTracedRequests);
  auto Ratio = [](uint64_t Hits, uint64_t Misses) {
    return Hits + Misses ? static_cast<double>(Hits) /
                               static_cast<double>(Hits + Misses)
                         : 0;
  };
  L.CacheHitRatio = Ratio(Cache.resultHits() - Hits0,
                          Cache.resultMisses() - Miss0);
  L.AstHitRatio =
      Ratio(Cache.astHits() - AstHits0, Cache.astMisses() - AstMiss0);
  L.Shed = Inst.server().stats().Shed.load() - Shed0;

  std::vector<double> ByKind[3], Overhead;
  for (const Exchange &E : Log) {
    ByKind[E.Req.K].push_back(E.RttMs);
    if (E.ElapsedMs >= 0)
      Overhead.push_back(E.RttMs - E.ElapsedMs);
  }
  double Sum = 0;
  for (double V : Overhead)
    Sum += V;
  L.OverheadMsMean = Overhead.empty() ? 0 : Sum / Overhead.size();
  L.EditP50Ms = median(ByKind[ServeRequest::Edit]);
  L.RepeatP50Ms = median(ByKind[ServeRequest::Repeat]);
  L.FreshP50Ms = median(ByKind[ServeRequest::Fresh]);
  verify(Log, Truth, O);
}

/// The requests of the wire phase, minus those the response cache would
/// answer.
std::vector<ServeRequest> replaySequence(uint64_t Seed) {
  RequestStream Stream(Seed);
  std::vector<ServeRequest> Out;
  std::map<std::string, bool> Seen;
  for (const ServeRequest &W : serveWarmup(Seed))
    Seen[requestKey(W)] = true;
  for (size_t I = 0; I < kTracedRequests; ++I) {
    ServeRequest R = Stream.next();
    if (Seen.emplace(requestKey(R), true).second)
      Out.push_back(std::move(R));
  }
  return Out;
}

struct ReplayStore {
  ReplayStore(const Args &A, const std::string &Tag) : Dir(storeDir(A, Tag)) {
    std::error_code EC;
    fs::remove_all(Dir, EC);
    std::string Error;
    Ok = Store.open(Dir, Error);
  }
  ~ReplayStore() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  ReplayStore(const ReplayStore &) = delete;
  ReplayStore &operator=(const ReplayStore &) = delete;

  std::string Dir;
  dda::FactStore Store;
  bool Ok = false;
};

/// One request the way the server handles a cache miss, each call in a
/// span.
dda::AnalysisResult serveCalls(uint64_t Seed, const ServeRequest &R,
                               dda::FactStore *Store, dda::ThreadPool &Pool,
                               std::vector<uint64_t> &Prev, Tracer &T,
                               uint32_t Id, LayerReport *L) {
  std::string Source = requestSource(Seed, R);
  dda::DiagnosticEngine Diags;
  dda::Program P;
  {
    SpanScope S(&T, "parser.parse", Id);
    P = dda::parseProgram(Source, Diags);
  }
  std::vector<uint64_t> Hashes;
  {
    SpanScope S(&T, "ast.hash", Id);
    Hashes = dda::topLevelHashes(P);
  }
  {
    SpanScope S(&T, "incremental.treediff", Id);
    dda::diffTopLevel(Prev, P);
  }
  Prev = std::move(Hashes);
  dda::AnalysisOptions AO = directOptions(R);
  if (Store) {
    AO.Incremental = dda::IncrementalMode::On;
    AO.Store = Store;
  }
  dda::AnalysisResult A;
  {
    SpanScope S(&T, "determinacy.pool", Id);
    A = dda::runDeterminacyAnalysisOnPool(P, AO, R.Seeds, Pool);
  }
  if (Store && A.Stats.SummariesStored) {
    SpanScope S(&T, "incremental.commit", Id);
    std::string Error;
    (void)Store->commit(Error);
  }
  if (L) {
    L->ParserNodes += P.Context->nodeCount();
    L->addAnalysis(A);
  }
  return A;
}

/// Replays \p Seq on a fresh store (after the warm-up requests); returns
/// the op time in ms. Checks each fingerprint against the oracle.
double replayPass(const Args &A, const std::string &Tag,
                  const std::vector<ServeRequest> &Seq, Oracle &Truth,
                  Tracer &T, LayerReport *L, Outcome &O) {
  ReplayStore RS(A, Tag);
  if (!RS.Ok) {
    O.harnessFail("cannot open replay store");
    return 0;
  }
  dda::ThreadPool Pool(kServeJobs);
  std::vector<uint64_t> Prev;
  Tracer Off(false);
  for (const ServeRequest &W : serveWarmup(A.Seed))
    if (W.K != ServeRequest::Repeat)
      serveCalls(A.Seed, W, &RS.Store, Pool, Prev, Off, 0, nullptr);
  double Ms = 0;
  for (const ServeRequest &R : Seq) {
    uint32_t Id = T.nextOp();
    Clock::time_point T0 = Clock::now();
    dda::AnalysisResult Res;
    {
      SpanScope OpSpan(&T, "op", Id);
      Res = serveCalls(A.Seed, R, &RS.Store, Pool, Prev, T, Id, L);
    }
    Ms += msSince(T0);
    ++O.Attempted;
    if (hex(dda::serve::factFingerprint(Res)) != Truth.expected(R))
      O.fail(std::string("replay ") + serveKindName(R.K) +
             ": fingerprint differs from a direct analysis");
  }
  if (L)
    L->StoreBytes += directoryBytes(RS.Dir);
  return Ms;
}

/// Determinacy time of the fresh programs of \p Seq: with a cold store over
/// store off, and under the tree-walk engine over the bytecode engine.
void captureAndEngineRatios(const Args &A, const std::vector<ServeRequest> &Seq,
                            LayerReport &L) {
  ReplayStore Cold(A, "trace-cold");
  dda::ThreadPool Pool(kServeJobs);
  double OffMs = 0, ColdMs = 0, TreeMs = 0, BytecodeMs = 0;
  for (const ServeRequest &R : Seq) {
    if (R.K != ServeRequest::Fresh)
      continue;
    dda::DiagnosticEngine Diags;
    dda::Program P = dda::parseProgram(requestSource(A.Seed, R), Diags);
    auto Time = [&](dda::AnalysisOptions AO) {
      Clock::time_point T0 = Clock::now();
      dda::AnalysisResult Res =
          dda::runDeterminacyAnalysisOnPool(P, AO, R.Seeds, Pool);
      return msSince(T0);
    };
    dda::AnalysisOptions AO = directOptions(R);
    OffMs += Time(AO);
    dda::AnalysisOptions ColdAO = AO;
    ColdAO.Incremental = dda::IncrementalMode::On;
    ColdAO.Store = &Cold.Store;
    ColdMs += Time(ColdAO);
    AO.Engine = dda::ExecEngine::TreeWalk;
    TreeMs += Time(AO);
    AO.Engine = dda::ExecEngine::Bytecode;
    BytecodeMs += Time(AO);
  }
  L.CaptureRatio = OffMs > 0 ? ColdMs / OffMs : 0;
  L.EngineSpeedup = BytecodeMs > 0 ? TreeMs / BytecodeMs : 0;
}

void runTraced(const Args &A, Outcome &O) {
  Oracle Truth(A.Seed);
  LayerReport L;
  wirePhase(A, Truth, L, O);

  std::vector<ServeRequest> Seq = replaySequence(A.Seed);
  Truth.learn(Seq);
  Tracer T(true), Off(false);
  double PlainMs = replayPass(A, "trace-plain", Seq, Truth, Off, nullptr, O);
  double TracedMs = replayPass(A, "trace-spans", Seq, Truth, T, &L, O);
  L.TraceOverheadRatio = PlainMs > 0 ? TracedMs / PlainMs : 0;
  captureAndEngineRatios(A, Seq, L);

  reportTrace(A, T, L, O);
}

} // namespace

Outcome runServe(const Args &A) {
  Outcome O;
  O.InputDigest = serveDigest(A.Seed);
  if (serveDigest(A.Seed) != O.InputDigest)
    O.harnessFail("request sequence differs between two generations");
  if (A.Trace) {
    runTraced(A, O);
    return O;
  }

  // Set-up kSetupReps times on fresh stores; the last server is measured.
  std::vector<double> SetupS;
  std::vector<Exchange> Warm;
  std::unique_ptr<ServeInstance> Inst;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    Inst.reset();
    Inst = std::make_unique<ServeInstance>(A, "e2e" + std::to_string(Rep));
    SetupS.push_back(Inst->startAndWarm(A.Seed, Warm, O));
    if (!O.HarnessOk)
      return O;
  }

  double RssMb = 0;
  const size_t PerWindow = windowSamples(1);
  double Cpu0 = cpuSeconds();
  std::vector<Exchange> Log = closedLoop(Inst->server().port(), A.Seed,
                                         A.Seconds, 0, PerWindow, &RssMb);
  double Cpu = cpuSeconds() - Cpu0;
  Inst.reset();

  Oracle Truth(A.Seed);
  verify(Warm, Truth, O);
  verify(Log, Truth, O);
  std::vector<double> ByKind[3];
  for (const Exchange &E : Log)
    ByKind[E.Req.K].push_back(E.CpuMs);
  for (auto K : {ServeRequest::Edit, ServeRequest::Repeat, ServeRequest::Fresh})
    O.noteSpread(serveKindName(K), ByKind[K]);

  // Windows of PerWindow consecutive requests.
  std::vector<Window> Windows;
  for (size_t I = 0; I + PerWindow <= Log.size(); I += PerWindow) {
    Window &W = Windows.emplace_back();
    for (size_t J = I; J < I + PerWindow; ++J) {
      W.LatencyMs.push_back(Log[J].CpuMs);
      W.Ms += Log[J].CpuMs;
    }
    W.Ops = static_cast<double>(PerWindow);
  }
  emitEndToEnd(O, SetupS, Windows, Cpu, Log.size(), RssMb);
  return O;
}

} // namespace ddbench
