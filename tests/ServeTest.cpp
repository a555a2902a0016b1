//===- ServeTest.cpp - Analysis service robustness tests --------------------==//
///
/// End-to-end tests of `ddajs serve` run in-process: a real Server bound to
/// an ephemeral port, real sockets, real concurrency. The contract under
/// test, in order of importance:
///
///  1. Served results are *byte-identical* to single-shot CLI runs — the
///     `result` payload of a serve response equals analysisPayloadJson over
///     a serial runDeterminacyAnalysisParallel of the same (source, seeds),
///     across the paper figures and fuzz corpora, from 8 concurrent
///     clients.
///  2. Hostile input gets a *typed* error, never a dead daemon: truncated
///     JSON, wrong types, unknown members, huge payloads, bad seed lists,
///     parse errors, program errors, injected faults.
///  3. Cache hits are byte-identical to the cold response that populated
///     them, and deadline-trapped results are never served from cache.
///  4. Overload sheds with `overloaded` instead of queueing unboundedly;
///     graceful drain finishes in-flight work and answers new requests
///     with `shutting_down`.
///
//===----------------------------------------------------------------------===//

#include "determinacy/ParallelAnalysis.h"
#include "parser/Parser.h"
#include "serve/JSON.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "workloads/ProgramGenerator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace dda;

namespace {

/// Blocking line-protocol client over a raw socket, with receive timeouts
/// so a server bug fails the test instead of hanging it.
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
    timeval Tv = {60, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connected() const { return Connected; }

  bool sendLine(const std::string &Line) {
    std::string Data = Line + "\n";
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  bool recvLine(std::string &Out) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      char Tmp[4096];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        return false;
      Buf.append(Tmp, static_cast<size_t>(N));
    }
    Out = Buf.substr(0, NL);
    Buf.erase(0, NL + 1);
    return true;
  }

  /// Sends one request line and returns the response line ("" on failure).
  std::string roundTrip(const std::string &Line) {
    std::string Out;
    if (!sendLine(Line) || !recvLine(Out))
      return "";
    return Out;
  }

private:
  int Fd = -1;
  bool Connected = false;
  std::string Buf;
};

/// The `result` payload object of a response line, exactly as serialized.
std::string resultOf(const std::string &Response) {
  size_t Pos = Response.find("\"result\":");
  if (Pos == std::string::npos || Response.empty() || Response.back() != '}')
    return "";
  Pos += 9;
  return Response.substr(Pos, Response.size() - Pos - 1);
}

bool cachedFlag(const std::string &Response) {
  return Response.find("\"cached\":true") != std::string::npos;
}

bool hasErrorKind(const std::string &Response, const char *Kind) {
  return resultOf(Response).find(std::string("\"error\":\"") + Kind + "\"") !=
         std::string::npos;
}

std::string analyzeRequest(const std::string &Source,
                           const std::vector<uint64_t> &Seeds,
                           const std::string &Extra = "") {
  std::string Req = "{\"cmd\":\"analyze\",\"source\":";
  json::appendQuoted(Req, Source);
  if (!Seeds.empty()) {
    Req += ",\"seeds\":[";
    for (size_t I = 0; I < Seeds.size(); ++I) {
      if (I)
        Req += ',';
      Req += std::to_string(Seeds[I]);
    }
    Req += ']';
  }
  Req += Extra;
  Req += '}';
  return Req;
}

/// What the daemon must answer: the payload of a *serial single-shot* run
/// of the same source under the same seeds.
std::string expectedPayload(const std::string &Source,
                            const std::vector<uint64_t> &Seeds) {
  DiagnosticEngine Diags;
  Program P = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  AnalysisOptions Opts;
  Opts.RandomSeed = Seeds.front();
  AnalysisResult R = runDeterminacyAnalysisParallel(P, Opts, Seeds, 1);
  return serve::analysisPayloadJson(R, Seeds);
}

serve::ServeOptions testOptions() {
  serve::ServeOptions Opts;
  Opts.Port = 0; // Ephemeral.
  Opts.Jobs = 4;
  return Opts;
}

class RunningServer {
public:
  explicit RunningServer(const serve::ServeOptions &Opts) : S(Opts) {
    std::string Error;
    Ok = S.start(&Error);
    EXPECT_TRUE(Ok) << Error;
  }
  ~RunningServer() { S.stop(); }
  serve::Server &server() { return S; }
  uint16_t port() const { return S.port(); }
  bool ok() const { return Ok; }

private:
  serve::Server S;
  bool Ok = false;
};

TEST(Serve, AnalyzeMatchesSingleShotOnFigures) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());
  std::vector<uint64_t> Seeds = {1, 2, 3};
  for (const char *Source :
       {workloads::figure1(), workloads::figure2(), workloads::figure3(),
        workloads::figure4()}) {
    std::string Resp =
        C.roundTrip(analyzeRequest(Source, Seeds, ",\"no_cache\":true"));
    ASSERT_FALSE(Resp.empty());
    EXPECT_FALSE(cachedFlag(Resp));
    EXPECT_EQ(resultOf(Resp), expectedPayload(Source, Seeds));
  }
}

/// There is one execution engine, so the retired `engine` request member
/// is an unknown member like any other: a typed bad_request, and the
/// connection keeps serving.
TEST(Serve, EngineMemberIsRejectedAsUnknown) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());
  std::string Resp = C.roundTrip(
      "{\"cmd\":\"analyze\",\"source\":\"print(1);\",\"engine\":\"tree\"}");
  ASSERT_FALSE(Resp.empty());
  EXPECT_TRUE(hasErrorKind(Resp, "bad_request")) << Resp;
  EXPECT_NE(Resp.find("unknown request member: engine"), std::string::npos)
      << Resp;
  std::string Good = C.roundTrip(analyzeRequest("print(1);", {1}));
  EXPECT_EQ(resultOf(Good), expectedPayload("print(1);", {1}));
}

TEST(Serve, FuzzCorpusMatchesSingleShot) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());
  std::vector<uint64_t> Seeds = {1, 2};
  for (uint64_t ProgramSeed : {3u, 17u, 51u, 90u}) {
    std::string Source = workloads::generateProgram(ProgramSeed);
    std::string Resp = C.roundTrip(analyzeRequest(Source, Seeds));
    ASSERT_FALSE(Resp.empty());
    EXPECT_EQ(resultOf(Resp), expectedPayload(Source, Seeds))
        << "program seed " << ProgramSeed;
  }
}

TEST(Serve, CacheHitIsByteIdenticalAndDeadlineTrapsAreNotCached) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());

  std::string Req = analyzeRequest(workloads::figure2(), {1, 2, 3, 4});
  std::string Cold = C.roundTrip(Req);
  std::string Warm = C.roundTrip(Req);
  ASSERT_FALSE(Cold.empty());
  ASSERT_FALSE(Warm.empty());
  EXPECT_FALSE(cachedFlag(Cold));
  EXPECT_TRUE(cachedFlag(Warm));
  EXPECT_EQ(resultOf(Cold), resultOf(Warm)); // Byte-identical payloads.
  EXPECT_GE(R.server().cache().resultHits(), 1u);

  // no_cache bypasses the cache in both directions.
  std::string Bypass =
      C.roundTrip(analyzeRequest(workloads::figure2(), {1, 2, 3, 4},
                                 ",\"no_cache\":true"));
  EXPECT_FALSE(cachedFlag(Bypass));
  EXPECT_EQ(resultOf(Bypass), resultOf(Cold));

  // A deadline-trapped result is wall-clock-dependent: never cached.
  std::string Spin =
      analyzeRequest("while (true) { }", {1}, ",\"deadline_ms\":200");
  std::string T1 = C.roundTrip(Spin);
  std::string T2 = C.roundTrip(Spin);
  EXPECT_NE(resultOf(T1).find("\"trap\":\"deadline\""), std::string::npos);
  EXPECT_FALSE(cachedFlag(T1));
  EXPECT_FALSE(cachedFlag(T2));
}

TEST(Serve, MalformedRequestsGetTypedErrorsAndServerSurvives) {
  serve::ServeOptions Opts = testOptions();
  Opts.MaxRequestBytes = 8192;
  RunningServer R(Opts);
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());

  struct Case {
    const char *Line;
    const char *Kind;
  };
  std::string Deep(200, '[');
  const Case Cases[] = {
      {"{", "bad_request"},                      // Truncated JSON.
      {"not json at all", "bad_request"},        // Not JSON.
      {"[1,2,3]", "bad_request"},                // Not an object.
      {"{\"cmd\":\"analyze\"}", "bad_request"},  // No source or path.
      {"{\"cmd\":\"bogus\"}", "bad_request"},    // Unknown command.
      {"{\"cmd\":\"analyze\",\"source\":\"print(1);\",\"wat\":1}",
       "bad_request"},                           // Unknown member.
      {"{\"cmd\":\"analyze\",\"source\":1}", "bad_request"}, // Wrong type.
      {"{\"cmd\":\"analyze\",\"source\":\"print(1);\",\"seeds\":[]}",
       "bad_request"},                           // Empty seed list.
      {"{\"cmd\":\"analyze\",\"source\":\"print(1);\",\"seeds\":[-1]}",
       "bad_request"},                           // Negative seed.
      {"{\"cmd\":\"analyze\",\"source\":\"print(1);\",\"seeds\":[\"x\"]}",
       "bad_request"},                           // Non-numeric seed.
      {"{\"cmd\":\"analyze\",\"source\":\"print(1);\",\"source\":\"x\","
       "\"path\":\"y\"}", "bad_request"},        // Both source and path.
      {"{\"cmd\":\"analyze\",\"source\":\"print(1);\","
       "\"inject_fault\":\"bogus\"}", "bad_request"}, // Bad injector spec.
      {"{\"id\":{},\"cmd\":\"ping\"}", "bad_request"}, // Non-scalar id.
      {"{\"id\":\"\\ud800\",\"cmd\":\"ping\"}",
       "bad_request"},                           // Lone UTF-16 surrogate.
  };
  for (const Case &TC : Cases) {
    std::string Resp = C.roundTrip(TC.Line);
    ASSERT_FALSE(Resp.empty()) << TC.Line;
    EXPECT_TRUE(hasErrorKind(Resp, TC.Kind))
        << "line: " << TC.Line << "\nresponse: " << Resp;
  }

  // A nesting bomb is depth-limited, not a stack overflow.
  std::string Resp = C.roundTrip(Deep);
  ASSERT_FALSE(Resp.empty());
  EXPECT_TRUE(hasErrorKind(Resp, "bad_request"));

  // Too many seeds.
  std::string ManySeeds = "{\"cmd\":\"analyze\",\"source\":\"print(1);\","
                          "\"seeds\":[";
  for (int I = 0; I < 100; ++I)
    ManySeeds += (I ? "," : "") + std::to_string(I + 1);
  ManySeeds += "]}";
  Resp = C.roundTrip(ManySeeds);
  EXPECT_TRUE(hasErrorKind(Resp, "bad_request"));

  // A payload over the byte budget gets a typed too_large.
  std::string Huge =
      analyzeRequest("print(1);" + std::string(9000, ' '), {1});
  Resp = C.roundTrip(Huge);
  ASSERT_FALSE(Resp.empty());
  EXPECT_TRUE(hasErrorKind(Resp, "too_large"));

  // After the whole hostile corpus, the daemon still serves correctly.
  std::string Good = C.roundTrip(analyzeRequest("print(1);", {1}));
  EXPECT_EQ(resultOf(Good), expectedPayload("print(1);", {1}));
}

TEST(Serve, ParseAndProgramErrorsAreTyped) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());

  std::string Resp = C.roundTrip(analyzeRequest("var x = (((", {1}));
  EXPECT_TRUE(hasErrorKind(Resp, "parse_error")) << Resp;

  Resp = C.roundTrip(analyzeRequest("missingFunction();", {1}));
  EXPECT_TRUE(hasErrorKind(Resp, "program_error")) << Resp;

  // Without --root, every path request is refused outright — even one
  // naming a file that does not exist.
  Resp = C.roundTrip("{\"cmd\":\"analyze\",\"path\":\"/nonexistent.js\"}");
  EXPECT_TRUE(hasErrorKind(Resp, "bad_request")) << Resp;
}

std::string pathRequest(const std::string &Path,
                        const std::string &Extra = "") {
  std::string Req = "{\"cmd\":\"analyze\",\"path\":";
  json::appendQuoted(Req, Path);
  Req += Extra;
  Req += '}';
  return Req;
}

TEST(Serve, PathRequestMatchesInlineSource) {
  std::string Root = ::testing::TempDir() + "serve_path_root";
  ::mkdir(Root.c_str(), 0755);
  serve::ServeOptions Opts = testOptions();
  Opts.Root = Root;
  RunningServer R(Opts);
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());

  std::string Path = Root + "/serve_path_test.js";
  std::string Source = workloads::figure1();
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << Source;
  }
  std::string ByPath = C.roundTrip(pathRequest(Path, ",\"seeds\":[1,2]"));
  std::string Inline = C.roundTrip(analyzeRequest(Source, {1, 2}));
  ASSERT_FALSE(ByPath.empty());
  EXPECT_EQ(resultOf(ByPath), resultOf(Inline));
  std::remove(Path.c_str());
}

TEST(Serve, PathRequestsAreConfinedToRootAndBounded) {
  std::string Root = ::testing::TempDir() + "serve_confine_root";
  ::mkdir(Root.c_str(), 0755);
  std::string Ok = Root + "/ok.js";
  std::string Big = Root + "/big.js";
  std::string Fifo = Root + "/pipe.js";
  std::string Outside = ::testing::TempDir() + "serve_confine_outside.js";
  {
    std::ofstream(Ok, std::ios::binary) << "print(1);";
    std::ofstream(Big, std::ios::binary) << std::string(5000, ' ');
    std::ofstream(Outside, std::ios::binary) << "print(2);";
  }
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);

  serve::ServeOptions Opts = testOptions();
  Opts.Root = Root;
  Opts.MaxRequestBytes = 4096;
  RunningServer R(Opts);
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());

  // Inside the root: served normally.
  std::string Good = C.roundTrip(pathRequest(Ok));
  EXPECT_EQ(resultOf(Good), expectedPayload("print(1);", {1}));

  // `..` escapes resolve outside the canonical root and are refused; the
  // file's contents are never reflected back.
  std::string Escape =
      C.roundTrip(pathRequest(Root + "/../serve_confine_outside.js"));
  EXPECT_TRUE(hasErrorKind(Escape, "bad_request")) << Escape;
  EXPECT_EQ(Escape.find("print(2)"), std::string::npos);

  // Absolute paths outside the root (including unbounded device files
  // like /dev/zero, which must never be drained into memory).
  EXPECT_TRUE(hasErrorKind(C.roundTrip(pathRequest("/etc/hostname")),
                           "bad_request"));
  EXPECT_TRUE(hasErrorKind(C.roundTrip(pathRequest("/dev/zero")),
                           "bad_request"));

  // A FIFO inside the root answers promptly (the open must not block the
  // connection thread) with a typed refusal.
  EXPECT_TRUE(hasErrorKind(C.roundTrip(pathRequest(Fifo)), "bad_request"));

  // A regular file over the byte budget is too_large, not an OOM.
  EXPECT_TRUE(hasErrorKind(C.roundTrip(pathRequest(Big)), "too_large"));

  // The daemon survived the whole hostile tour.
  EXPECT_EQ(resultOf(C.roundTrip(pathRequest(Ok))),
            expectedPayload("print(1);", {1}));

  std::remove(Ok.c_str());
  std::remove(Big.c_str());
  std::remove(Fifo.c_str());
  std::remove(Outside.c_str());
}

TEST(Serve, EightConcurrentClientsGetSingleShotResults) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());

  // Precompute expected payloads serially, then hammer concurrently.
  struct Job {
    std::string Request;
    std::string Expected;
  };
  std::vector<Job> Jobs;
  std::vector<uint64_t> Seeds = {1, 2};
  for (const char *Source :
       {workloads::figure1(), workloads::figure2(), workloads::figure3(),
        workloads::figure4()})
    Jobs.push_back({analyzeRequest(Source, Seeds),
                    expectedPayload(Source, Seeds)});
  for (uint64_t ProgramSeed : {7u, 23u}) {
    std::string Source = workloads::generateProgram(ProgramSeed);
    Jobs.push_back({analyzeRequest(Source, Seeds),
                    expectedPayload(Source, Seeds)});
  }

  constexpr int NumClients = 8;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumClients; ++T) {
    Threads.emplace_back([&, T] {
      Client C(R.port());
      if (!C.connected()) {
        Failures.fetch_add(1);
        return;
      }
      // Each client walks the job list from its own offset, so at any
      // moment different clients are on different programs.
      for (size_t I = 0; I < Jobs.size(); ++I) {
        const Job &J = Jobs[(I + static_cast<size_t>(T)) % Jobs.size()];
        std::string Resp = C.roundTrip(J.Request);
        if (resultOf(Resp) != J.Expected)
          Failures.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  // MaxActiveRequests would show the overlap, but whether sub-millisecond
  // requests ever coincide is up to the scheduler (on a loaded single-CPU
  // host they can fully serialize), so it is not asserted here.
  EXPECT_GE(R.server().stats().RequestsReceived.load(),
            static_cast<uint64_t>(NumClients) * Jobs.size());
}

TEST(Serve, InjectedFaultDegradesWithoutKillingNeighbors) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());

  std::string CleanReq = analyzeRequest(workloads::figure2(), {1, 2});
  std::string CleanExpected =
      expectedPayload(workloads::figure2(), {1, 2});
  std::string FaultReq = analyzeRequest(workloads::figure2(), {1, 2},
                                        ",\"inject_fault\":\"steps:3\","
                                        "\"no_cache\":true");

  std::atomic<int> CleanFailures{0}, FaultFailures{0};
  std::thread Faulty([&] {
    Client C(R.port());
    for (int I = 0; I < 6; ++I) {
      std::string Result = resultOf(C.roundTrip(FaultReq));
      // The injected trip degrades this request — visibly — but the
      // response is still a well-formed ok payload with partial facts.
      if (Result.find("\"injected\":true") == std::string::npos ||
          Result.find("\"status\":\"ok\"") == std::string::npos)
        FaultFailures.fetch_add(1);
    }
  });
  std::thread Healthy([&] {
    Client C(R.port());
    for (int I = 0; I < 6; ++I)
      if (resultOf(C.roundTrip(CleanReq)) != CleanExpected)
        CleanFailures.fetch_add(1);
  });
  Faulty.join();
  Healthy.join();
  EXPECT_EQ(FaultFailures.load(), 0);
  EXPECT_EQ(CleanFailures.load(), 0); // Neighbors never saw the faults.
  EXPECT_GE(R.server().stats().InjectedTrips.load(), 6u);
}

TEST(Serve, OverloadShedsWithTypedResponse) {
  serve::ServeOptions Opts = testOptions();
  Opts.Jobs = 1;
  Opts.QueueDepth = 1; // One in-flight request; everything else sheds.
  RunningServer R(Opts);
  ASSERT_TRUE(R.ok());

  Client Slow(R.port());
  Client Fast(R.port());
  ASSERT_TRUE(Slow.connected());
  ASSERT_TRUE(Fast.connected());

  // Occupy the only admission ticket with a deadline-bounded spin...
  ASSERT_TRUE(Slow.sendLine(
      analyzeRequest("while (true) { }", {1}, ",\"deadline_ms\":1500")));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...so a concurrent request is shed immediately with a typed response.
  std::string Shed = Fast.roundTrip(analyzeRequest("print(1);", {1}));
  ASSERT_FALSE(Shed.empty());
  EXPECT_TRUE(hasErrorKind(Shed, "overloaded")) << Shed;
  EXPECT_GE(R.server().stats().Shed.load(), 1u);

  // The slow request still completes, degraded by whichever ceiling bites
  // first (the 50M-step budget can fire before a 1.5s deadline).
  std::string SlowResp;
  ASSERT_TRUE(Slow.recvLine(SlowResp));
  EXPECT_NE(resultOf(SlowResp).find("\"exit_code\":3"), std::string::npos)
      << SlowResp;

  // ...and capacity frees up for the shed client to retry.
  std::string Retry = Fast.roundTrip(analyzeRequest("print(1);", {1}));
  EXPECT_EQ(resultOf(Retry), expectedPayload("print(1);", {1}));
}

TEST(Serve, GracefulDrainFinishesInFlightWork) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());

  // Put a deadline-bounded request in flight, then ask for shutdown while
  // it runs; pipeline one more request behind it.
  ASSERT_TRUE(C.sendLine(
      analyzeRequest("while (true) { }", {1}, ",\"deadline_ms\":800")));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  R.server().requestShutdown();
  ASSERT_TRUE(C.sendLine(analyzeRequest("print(1);", {1})));

  // The in-flight request finishes with its real (degraded) result; the
  // request that arrived during the drain gets a typed shutting_down.
  std::string First, Second;
  ASSERT_TRUE(C.recvLine(First));
  EXPECT_NE(resultOf(First).find("\"exit_code\":3"), std::string::npos)
      << First;
  ASSERT_TRUE(C.recvLine(Second));
  EXPECT_TRUE(hasErrorKind(Second, "shutting_down")) << Second;

  R.server().wait();

  // The listen socket is gone: new connections are refused.
  Client After(R.port());
  EXPECT_FALSE(After.connected());
}

TEST(Serve, DrainConvergesUnderSustainedTraffic) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());

  // A client that never goes idle: each response immediately triggers the
  // next request, so the connection's poll always has data waiting. The
  // drain must still close the connection (after answering what was
  // buffered) instead of waiting for an idle timeout that never comes.
  std::thread Busy([&] {
    Client C(R.port());
    if (!C.connected())
      return;
    while (!C.roundTrip("{\"cmd\":\"ping\"}").empty()) {
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto T0 = std::chrono::steady_clock::now();
  R.server().requestShutdown();
  R.server().wait(); // Hangs forever if a busy client can stall the drain.
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  Busy.join();
  EXPECT_LT(ElapsedMs, 5000) << "drain took " << ElapsedMs << "ms";
}

TEST(ServeJson, SurrogatePairsDecodeToUtf8) {
  // \ud83d\ude00 is U+1F600: one 4-byte UTF-8 code point, not two 3-byte
  // CESU-8 halves.
  json::ParseResult R = json::parse("\"\\ud83d\\ude00\"", 8);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.V.Str, "\xF0\x9F\x98\x80");

  // Round-tripping the decoded string (as response echoing does with the
  // id member) emits the same valid UTF-8 bytes.
  std::string Echo;
  json::appendQuoted(Echo, R.V.Str);
  EXPECT_EQ(Echo, "\"\xF0\x9F\x98\x80\"");

  // Basic-plane escapes are unaffected.
  json::ParseResult Bmp = json::parse("\"\\u00e9\"", 8);
  ASSERT_TRUE(Bmp.Ok);
  EXPECT_EQ(Bmp.V.Str, "\xC3\xA9");
}

TEST(ServeJson, LoneSurrogatesAreRejected) {
  EXPECT_FALSE(json::parse("\"\\ud83d\"", 8).Ok);        // Lone high.
  EXPECT_FALSE(json::parse("\"\\ude00\"", 8).Ok);        // Lone low.
  EXPECT_FALSE(json::parse("\"\\ud83dxx\"", 8).Ok);      // High + raw text.
  EXPECT_FALSE(json::parse("\"\\ud83d\\n\"", 8).Ok);     // High + escape.
  EXPECT_FALSE(json::parse("\"\\ud83d\\u0041\"", 8).Ok); // High + non-low.
  EXPECT_FALSE(json::parse("\"\\ud83d\\ud83d\"", 8).Ok); // High + high.
}

TEST(Serve, PingAndStats) {
  RunningServer R(testOptions());
  ASSERT_TRUE(R.ok());
  Client C(R.port());
  ASSERT_TRUE(C.connected());

  std::string Pong = C.roundTrip("{\"id\":42,\"cmd\":\"ping\"}");
  EXPECT_NE(Pong.find("\"id\":42"), std::string::npos);
  EXPECT_NE(Pong.find("\"pong\":true"), std::string::npos);

  C.roundTrip(analyzeRequest("print(1);", {1}));
  std::string Stats = C.roundTrip("{\"cmd\":\"stats\"}");
  EXPECT_NE(Stats.find("\"requests\":"), std::string::npos);
  EXPECT_NE(Stats.find("\"responses_ok\":"), std::string::npos);
  EXPECT_NE(Stats.find("\"cache_misses\":"), std::string::npos);
}

} // namespace
