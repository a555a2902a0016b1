//===- Server.cpp - The ddajs analysis daemon ------------------------------==//

#include "serve/Server.h"

#include "ast/StructuralHash.h"
#include "determinacy/ParallelAnalysis.h"
#include "parser/Parser.h"
#include "serve/JSON.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

using namespace dda;
using namespace dda::serve;

//===----------------------------------------------------------------------===//
// Connection: one socket, one reader thread, requests handled serially.
//===----------------------------------------------------------------------===//

class Server::Connection {
public:
  Connection(Server &S, int Fd) : S(S), Fd(Fd), T([this] { run(); }) {}
  ~Connection() { join(); }

  bool done() const { return Done.load(std::memory_order_acquire); }
  void join() {
    if (T.joinable())
      T.join();
  }

private:
  /// Outcome of one poll+recv+respond round.
  enum class Step : uint8_t { Progress, Idle, Closed };

  void run() {
    std::string Buf;
    while (true) {
      Step St = step(Buf, /*TimeoutMs=*/200);
      if (St == Step::Closed)
        break;
      if (S.Draining.load(std::memory_order_acquire)) {
        // Drain: requests already on the wire still get their answers
        // (handleLine turns new analysis work into shutting_down), but
        // only for a bounded grace window — a client that keeps the
        // socket hot must not be able to postpone the close, or wait()
        // and the SIGTERM drain never converge.
        auto Grace = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(200);
        while (std::chrono::steady_clock::now() < Grace &&
               step(Buf, /*TimeoutMs=*/20) == Step::Progress) {
        }
        break;
      }
    }
    ::close(Fd);
    Done.store(true, std::memory_order_release);
  }

  /// One round: wait up to \p TimeoutMs for bytes, answer every complete
  /// line received. Returns Idle on timeout, Closed when the peer is gone
  /// or the connection must drop, Progress otherwise.
  Step step(std::string &Buf, int TimeoutMs) {
    struct pollfd P = {Fd, POLLIN, 0};
    int N = ::poll(&P, 1, TimeoutMs);
    if (N < 0)
      return errno == EINTR ? Step::Idle : Step::Closed;
    if (N == 0)
      return Step::Idle;
    char Tmp[64 * 1024];
    ssize_t Got = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (Got <= 0)
      return Step::Closed; // EOF or error: client went away.
    Buf.append(Tmp, static_cast<size_t>(Got));
    size_t NL;
    while ((NL = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      std::string Resp;
      if (Line.size() > S.Opts.MaxRequestBytes) {
        S.Stats.RequestsReceived.fetch_add(1, std::memory_order_relaxed);
        S.Stats.ResponsesError.fetch_add(1, std::memory_order_relaxed);
        Resp = responseLine(
            "null", false, 0,
            errorPayloadJson(ErrorKind::TooLarge,
                             "request line exceeds " +
                                 std::to_string(S.Opts.MaxRequestBytes) +
                                 " bytes"));
      } else {
        Resp = S.handleLine(Line);
      }
      Resp += '\n';
      if (!writeAll(Resp))
        return Step::Closed;
    }
    if (Buf.size() > S.Opts.MaxRequestBytes) {
      // A partial line already over budget: answer with the typed error
      // and drop the connection — buffering further would hand the
      // sender unbounded memory.
      S.Stats.RequestsReceived.fetch_add(1, std::memory_order_relaxed);
      S.Stats.ResponsesError.fetch_add(1, std::memory_order_relaxed);
      writeAll(responseLine(
                   "null", false, 0,
                   errorPayloadJson(ErrorKind::TooLarge,
                                    "request line exceeds " +
                                        std::to_string(
                                            S.Opts.MaxRequestBytes) +
                                        " bytes")) +
               "\n");
      return Step::Closed;
    }
    return Step::Progress;
  }

  bool writeAll(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      // MSG_NOSIGNAL: a client that disconnects mid-response must surface
      // as a write error on this connection, not SIGPIPE for the daemon.
      ssize_t N =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  Server &S;
  int Fd;
  std::atomic<bool> Done{false};
  std::thread T; // Last member: starts after everything else is built.
};

//===----------------------------------------------------------------------===//
// Server lifecycle
//===----------------------------------------------------------------------===//

Server::Server(const ServeOptions &Opts)
    : Opts(Opts), Cache(Opts.CacheAsts, Opts.CacheResults), Pool(Opts.Jobs),
      QueueDepth(Opts.QueueDepth ? Opts.QueueDepth : 4 * Pool.workers()) {}

Server::~Server() {
  if (Started)
    stop();
  for (int Fd : WakePipe)
    if (Fd >= 0)
      ::close(Fd);
}

bool Server::start(std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  if (!Opts.Root.empty()) {
    // Resolve the served root once, up front: every path request is
    // checked against this canonical prefix, so a bad root must be a
    // startup error, not a per-request surprise.
    std::error_code EC;
    std::filesystem::path Canon = std::filesystem::canonical(Opts.Root, EC);
    if (!EC && !std::filesystem::is_directory(Canon, EC))
      EC = std::make_error_code(std::errc::not_a_directory);
    if (EC) {
      if (Error)
        *Error = "--root " + Opts.Root + ": " + EC.message();
      return false;
    }
    RootCanon = Canon.string();
  }

  if (!Opts.FactStoreDir.empty()) {
    // An unusable store directory is an operator error, not a per-request
    // surprise; corrupt *contents* are tolerated (forgiving segment load).
    std::string StoreErr;
    if (!Store.open(Opts.FactStoreDir, StoreErr)) {
      if (Error)
        *Error = "--fact-store " + Opts.FactStoreDir + ": " + StoreErr;
      return false;
    }
    StoreOpen = true;
  }

  if (::pipe(WakePipe) != 0)
    return Fail("pipe");
  // The write end is poked from signal handlers: never let it block.
  ::fcntl(WakePipe[0], F_SETFL, O_NONBLOCK);
  ::fcntl(WakePipe[1], F_SETFL, O_NONBLOCK);

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opts.Port);
  if (::inet_pton(AF_INET, Opts.Host.c_str(), &Addr.sin_addr) != 1)
    return Fail("bad host " + Opts.Host);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return Fail("bind " + Opts.Host + ":" + std::to_string(Opts.Port));
  if (::listen(ListenFd, 64) != 0)
    return Fail("listen");

  sockaddr_in Bound = {};
  socklen_t Len = sizeof(Bound);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len);
  BoundPort = ntohs(Bound.sin_port);

  StartedAt = std::chrono::steady_clock::now();
  Started = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  Watchdog = std::thread([this] { watchdogLoop(); });
  return true;
}

void Server::requestShutdown() {
  Draining.store(true, std::memory_order_release);
  if (WakePipe[1] >= 0) {
    char B = 'x';
    [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &B, 1);
  }
}

void Server::wait() {
  if (!Started || Waited)
    return;
  if (Acceptor.joinable())
    Acceptor.join();
  // Acceptor is gone: no new connections. Existing ones finish their
  // in-flight request (bounded by the composed deadline ceiling) and
  // close within one poll interval.
  reapConnections(/*JoinAll=*/true);
  Pool.stop(ThreadPool::StopMode::Drain);
  Exiting.store(true, std::memory_order_release);
  WatchdogCv.notify_all();
  if (Watchdog.joinable())
    Watchdog.join();
  Waited = true;
}

void Server::stop() {
  requestShutdown();
  wait();
}

void Server::reapConnections(bool JoinAll) {
  std::vector<std::unique_ptr<Connection>> Dead;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    auto It = Connections.begin();
    while (It != Connections.end()) {
      if (JoinAll || (*It)->done()) {
        Dead.push_back(std::move(*It));
        It = Connections.erase(It);
      } else {
        ++It;
      }
    }
  }
  // Join outside the lock: a connection thread may be inside handleLine,
  // which never takes ConnMu, but keeping join() lock-free is cheap
  // insurance.
  for (auto &C : Dead)
    C->join();
}

void Server::acceptLoop() {
  while (true) {
    struct pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    int N = ::poll(P, 2, 500);
    reapConnections(/*JoinAll=*/false);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (P[1].revents != 0)
      break; // Shutdown wake (signal handler or requestShutdown).
    if (Draining.load(std::memory_order_acquire))
      break;
    if (N == 0 || (P[0].revents & POLLIN) == 0)
      continue;
    int Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0)
      continue;
    Stats.ConnectionsAccepted.fetch_add(1, std::memory_order_relaxed);
    size_t Active;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      Active = Connections.size();
    }
    if (Active >= Opts.MaxConnections) {
      // Shed at the connection level too: one typed line, then close.
      Stats.ConnectionsRejected.fetch_add(1, std::memory_order_relaxed);
      std::string Resp =
          responseLine("null", false, 0,
                       errorPayloadJson(ErrorKind::Overloaded,
                                        "connection limit reached")) +
          "\n";
      [[maybe_unused]] ssize_t W =
          ::send(Fd, Resp.data(), Resp.size(), MSG_NOSIGNAL);
      ::close(Fd);
      continue;
    }
    std::lock_guard<std::mutex> Lock(ConnMu);
    Connections.push_back(std::make_unique<Connection>(*this, Fd));
  }
  Draining.store(true, std::memory_order_release);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
}

void Server::watchdogLoop() {
  std::unique_lock<std::mutex> Lock(WatchdogMu);
  while (!Exiting.load(std::memory_order_acquire)) {
    WatchdogCv.wait_for(Lock,
                        std::chrono::milliseconds(Opts.WatchdogIntervalMs));
    auto Now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> InLock(InflightMu);
    for (auto &[Id, F] : InflightMap) {
      if (F.DeadlineMs == 0 || F.OverdueReported)
        continue;
      uint64_t ElapsedMs =
          (uint64_t)std::chrono::duration_cast<std::chrono::milliseconds>(
              Now - F.Start)
              .count();
      // The governor samples its deadline periodically, so some overshoot
      // is normal; 2x + 1s means the budget failed to bite and the fleet
      // should know.
      if (ElapsedMs > 2 * F.DeadlineMs + 1000) {
        F.OverdueReported = true;
        Stats.OverdueObserved.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "ddajs serve: watchdog: request %llu overdue "
                     "(%llums elapsed, %llums deadline)\n",
                     (unsigned long long)Id, (unsigned long long)ElapsedMs,
                     (unsigned long long)F.DeadlineMs);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

namespace {

/// RAII admission ticket over an atomic counter with a hard cap.
class Ticket {
public:
  Ticket(std::atomic<uint64_t> &Count, size_t Cap) : Count(Count) {
    uint64_t Cur = Count.load(std::memory_order_relaxed);
    while (Cur < Cap) {
      if (Count.compare_exchange_weak(Cur, Cur + 1,
                                      std::memory_order_acq_rel))
        return;
    }
    Denied = true;
  }
  ~Ticket() {
    if (!Denied)
      Count.fetch_sub(1, std::memory_order_acq_rel);
  }
  bool admitted() const { return !Denied; }

private:
  std::atomic<uint64_t> &Count;
  bool Denied = false;
};

uint64_t elapsedMsSince(std::chrono::steady_clock::time_point T) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - T)
      .count();
}

} // namespace

std::string Server::handleLine(const std::string &Line) {
  auto T0 = std::chrono::steady_clock::now();
  Stats.RequestsReceived.fetch_add(1, std::memory_order_relaxed);

  Request Req;
  ErrorKind EK;
  std::string Message;
  if (!parseRequest(Line, Req, EK, Message)) {
    Stats.ResponsesError.fetch_add(1, std::memory_order_relaxed);
    return responseLine(Req.IdJson, false, elapsedMsSince(T0),
                        errorPayloadJson(EK, Message));
  }

  // Ops introspection stays answerable under load and during drains.
  if (Req.Cmd == Request::Command::Ping) {
    Stats.ResponsesOk.fetch_add(1, std::memory_order_relaxed);
    return responseLine(Req.IdJson, false, elapsedMsSince(T0),
                        "{\"status\":\"ok\",\"pong\":true}");
  }
  if (Req.Cmd == Request::Command::Stats) {
    Stats.ResponsesOk.fetch_add(1, std::memory_order_relaxed);
    return responseLine(Req.IdJson, false, elapsedMsSince(T0),
                        "{\"status\":\"ok\",\"stats\":" + statsJson() + "}");
  }

  if (Draining.load(std::memory_order_acquire)) {
    Stats.Rejected.fetch_add(1, std::memory_order_relaxed);
    Stats.ResponsesError.fetch_add(1, std::memory_order_relaxed);
    return responseLine(
        Req.IdJson, false, elapsedMsSince(T0),
        errorPayloadJson(ErrorKind::ShuttingDown, "service is draining"));
  }

  Ticket Admission(AdmissionTickets, QueueDepth);
  if (!Admission.admitted()) {
    // Load shedding: a full admission gate answers immediately instead of
    // queueing without bound. The 429 analogue.
    Stats.Shed.fetch_add(1, std::memory_order_relaxed);
    Stats.ResponsesError.fetch_add(1, std::memory_order_relaxed);
    return responseLine(
        Req.IdJson, false, elapsedMsSince(T0),
        errorPayloadJson(ErrorKind::Overloaded,
                         "admission queue full (depth " +
                             std::to_string(QueueDepth) + "); retry"));
  }

  uint64_t Active = Stats.ActiveRequests.fetch_add(1) + 1;
  uint64_t MaxSeen = Stats.MaxActiveRequests.load(std::memory_order_relaxed);
  while (Active > MaxSeen &&
         !Stats.MaxActiveRequests.compare_exchange_weak(MaxSeen, Active)) {
  }

  // Crash isolation: whatever a tenant's program does to the analysis —
  // parser blowups, budget trips, injected faults, allocation failure —
  // becomes a typed response on this connection. The daemon never exits
  // on request input.
  bool Cached = false;
  std::string Payload;
  try {
    Payload = handleAnalyze(Req, Cached);
  } catch (const std::exception &E) {
    Payload = errorPayloadJson(ErrorKind::Internal, E.what());
  } catch (...) {
    Payload = errorPayloadJson(ErrorKind::Internal, "unknown exception");
  }
  Stats.ActiveRequests.fetch_sub(1);

  if (Payload.rfind("{\"status\":\"ok\"", 0) == 0)
    Stats.ResponsesOk.fetch_add(1, std::memory_order_relaxed);
  else
    Stats.ResponsesError.fetch_add(1, std::memory_order_relaxed);
  return responseLine(Req.IdJson, Cached, elapsedMsSince(T0), Payload);
}

bool Server::readConfinedFile(const std::string &Path, std::string &Source,
                              std::string &ErrorPayload) {
  auto Reject = [&](ErrorKind K, const std::string &Msg) {
    ErrorPayload = errorPayloadJson(K, Msg);
    return false;
  };
  if (RootCanon.empty())
    return Reject(ErrorKind::BadRequest,
                  "path requests are disabled (serve started without --root)");

  // Canonicalize (symlinks resolved) and require the result to stay under
  // the served root: a tenant must not be able to read arbitrary
  // server-side files through the daemon.
  std::error_code EC;
  std::filesystem::path Canon =
      std::filesystem::weakly_canonical(std::filesystem::path(Path), EC);
  if (EC)
    return Reject(ErrorKind::BadRequest, "cannot resolve " + Path);
  std::string CanonStr = Canon.string();
  bool Inside = RootCanon == "/" || CanonStr == RootCanon ||
                (CanonStr.size() > RootCanon.size() &&
                 CanonStr.compare(0, RootCanon.size(), RootCanon) == 0 &&
                 CanonStr[RootCanon.size()] == '/');
  if (!Inside)
    return Reject(ErrorKind::BadRequest,
                  Path + " is outside the served --root");

  // O_NONBLOCK so opening a FIFO cannot park this connection thread (and
  // its admission ticket) forever; regular-file reads never short-read
  // because of it.
  int Fd = ::open(CanonStr.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (Fd < 0)
    return Reject(ErrorKind::BadRequest, "cannot open " + Path);
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode)) {
    ::close(Fd);
    return Reject(ErrorKind::BadRequest, Path + " is not a regular file");
  }

  // Read at most MaxRequestBytes + 1: one extra byte distinguishes "fits"
  // from "too large" without ever buffering an unbounded stream (a
  // /dev/zero-shaped file must cost the daemon one buffer, not its RSS).
  Source.clear();
  char Tmp[64 * 1024];
  while (Source.size() <= Opts.MaxRequestBytes) {
    size_t Want = std::min(sizeof(Tmp), Opts.MaxRequestBytes + 1 - Source.size());
    ssize_t N = ::read(Fd, Tmp, Want);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return Reject(ErrorKind::BadRequest, "cannot read " + Path);
    }
    if (N == 0)
      break;
    Source.append(Tmp, static_cast<size_t>(N));
  }
  ::close(Fd);
  if (Source.size() > Opts.MaxRequestBytes)
    return Reject(ErrorKind::TooLarge,
                  Path + " exceeds " + std::to_string(Opts.MaxRequestBytes) +
                      " bytes");
  return true;
}

std::string Server::handleAnalyze(const Request &Req, bool &Cached) {
  // Resolve the program text.
  std::string Source;
  if (!Req.Path.empty()) {
    std::string Err;
    if (!readConfinedFile(Req.Path, Source, Err))
      return Err; // Already a typed error payload.
  } else {
    Source = Req.Source;
  }

  // Effective options: request overrides folded under the service ceiling.
  bool DetDom = Req.DetDom.value_or(Opts.DetDom);
  AnalysisOptions AOpts;
  GovernorLimits ReqLimits = AOpts.governorLimits();
  if (Req.MaxSteps)
    ReqLimits.MaxSteps = *Req.MaxSteps;
  if (Req.DeadlineMs)
    ReqLimits.DeadlineMs = *Req.DeadlineMs;
  if (Req.MaxHeapCells)
    ReqLimits.MaxHeapCells = *Req.MaxHeapCells;
  if (Req.CfFuel)
    ReqLimits.CfFuel = *Req.CfFuel;
  if (Req.MaxCallDepth)
    ReqLimits.MaxCallDepth = *Req.MaxCallDepth;
  if (Req.MaxEvalDepth)
    ReqLimits.MaxEvalDepth = *Req.MaxEvalDepth;
  GovernorLimits Limits = composeLimits(ReqLimits, Opts.Ceiling);

  // The service injector applies to every request (the end-to-end fault
  // drill); a request-level spec overrides it. Each request gets a fresh
  // clone with zeroed checkpoint counters, and the parallel engine clones
  // again per seed task, so trips are deterministic per (request, seed).
  FaultInjector LocalInjector;
  bool HasInjector = false;
  if (Req.Injector) {
    LocalInjector = *Req.Injector;
    HasInjector = true;
  } else if (Opts.Injector) {
    LocalInjector = *Opts.Injector;
    HasInjector = true;
  }
  if (HasInjector)
    LocalInjector.reset();

  AOpts.DomSeed = Opts.DomSeed;
  AOpts.DeterminateDom = DetDom;
  AOpts.MaxSteps = Limits.MaxSteps;
  AOpts.DeadlineMs = Limits.DeadlineMs;
  AOpts.MaxHeapCells = Limits.MaxHeapCells;
  AOpts.MaxCallDepth = Limits.MaxCallDepth;
  AOpts.MaxEvalDepth = Limits.MaxEvalDepth;
  AOpts.CounterfactualFuel = Limits.CfFuel;
  AOpts.Injector = HasInjector ? &LocalInjector : nullptr;
  // The incremental layer never changes what a request answers — replayed
  // regions are byte-identical to executed ones — so it is deliberately
  // absent from the result-cache key (and from optionVectorFingerprint).
  if (StoreOpen) {
    AOpts.Incremental = Opts.Incremental;
    AOpts.Store = &Store;
  }

  uint64_t SourceHash = hashBytes(Source);
  std::string Key;
  {
    // Everything that can change the result participates: the program
    // bytes, and the one shared definition of "same options"
    // (optionVectorFingerprint, which covers DOM mode and seed,
    // every composed budget, and the injector spec) folded with the
    // request's seed list.
    uint64_t OptFold = optionVectorFingerprint(
        AOpts, HasInjector ? LocalInjector.str() : std::string());
    for (uint64_t S : Req.Seeds)
      OptFold = mixHash(OptFold, S);
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%016llx:%016llx",
                  (unsigned long long)SourceHash,
                  (unsigned long long)OptFold);
    Key = Buf;
  }

  std::string Payload;
  if (!Req.NoCache && Cache.lookupResult(Key, Payload)) {
    Cached = true;
    return Payload;
  }

  // Parse (or reuse the cached AST — safe to share across concurrent
  // requests: analysis never mutates the program arena, eval'd nodes go to
  // per-task overlays).
  std::shared_ptr<Program> P =
      Req.NoCache ? nullptr : Cache.lookupAst(SourceHash);
  if (!P) {
    DiagnosticEngine Diags;
    auto Parsed = std::make_shared<Program>(parseProgram(Source, Diags));
    if (Diags.hasErrors()) {
      Payload = errorPayloadJson(ErrorKind::ParseError, Diags.str());
      if (!Req.NoCache)
        Cache.insertResult(Key, Payload);
      return Payload;
    }
    P = std::move(Parsed);
    if (!Req.NoCache)
      Cache.insertAst(SourceHash, P);
  }

  AOpts.RandomSeed = Req.Seeds.front();

  // Register with the watchdog for the duration of the run.
  uint64_t InflightId;
  {
    std::lock_guard<std::mutex> Lock(InflightMu);
    InflightId = NextInflightId++;
    InflightMap[InflightId] = {std::chrono::steady_clock::now(),
                               Limits.DeadlineMs, false};
  }
  AnalysisResult R;
  try {
    R = runDeterminacyAnalysisOnPool(*P, AOpts, Req.Seeds, Pool);
  } catch (...) {
    std::lock_guard<std::mutex> Lock(InflightMu);
    InflightMap.erase(InflightId);
    throw;
  }
  {
    std::lock_guard<std::mutex> Lock(InflightMu);
    InflightMap.erase(InflightId);
  }

  if (R.Trap != TrapKind::None) {
    Stats.Trapped.fetch_add(1, std::memory_order_relaxed);
    if (R.Degradation.Trip.Injected)
      Stats.InjectedTrips.fetch_add(1, std::memory_order_relaxed);
  }
  Stats.SnapshotForks.fetch_add(R.Stats.SnapshotForks,
                                std::memory_order_relaxed);
  Stats.CowCopies.fetch_add(R.Stats.CowCopies, std::memory_order_relaxed);
  Stats.IncrementalHits.fetch_add(R.Stats.IncrementalReplays,
                                  std::memory_order_relaxed);
  Stats.ReplayedFacts.fetch_add(R.Stats.ReplayedFacts,
                                std::memory_order_relaxed);
  Stats.SummariesStored.fetch_add(R.Stats.SummariesStored,
                                  std::memory_order_relaxed);
  if (StoreOpen && R.Stats.SummariesStored) {
    // Persist what this request captured right away: a crash loses at most
    // the current request's summaries, and commits of identical content
    // are idempotent. I/O failure is non-fatal — pending summaries stay
    // queued and retry on the next request's commit.
    std::string CommitErr;
    (void)Store.commit(CommitErr);
  }

  Payload = analysisPayloadJson(R, Req.Seeds);
  // Deadline traps depend on wall-clock scheduling, not on the key — the
  // one outcome that must never be replayed from cache.
  if (!Req.NoCache && R.Trap != TrapKind::Deadline)
    Cache.insertResult(Key, Payload);
  return Payload;
}

std::string Server::statsJson() const {
  std::string Out = "{";
  auto Add = [&](const char *Name, uint64_t V, bool First = false) {
    if (!First)
      Out += ',';
    Out += '"';
    Out += Name;
    Out += "\":";
    Out += std::to_string(V);
  };
  Add("uptime_ms", Started ? elapsedMsSince(StartedAt) : 0, true);
  Add("jobs", Pool.workers());
  Add("queue_depth", QueueDepth);
  Add("connections_accepted", Stats.ConnectionsAccepted.load());
  Add("connections_rejected", Stats.ConnectionsRejected.load());
  Add("requests", Stats.RequestsReceived.load());
  Add("responses_ok", Stats.ResponsesOk.load());
  Add("responses_error", Stats.ResponsesError.load());
  Add("shed", Stats.Shed.load());
  Add("rejected_draining", Stats.Rejected.load());
  Add("trapped", Stats.Trapped.load());
  Add("injected_trips", Stats.InjectedTrips.load());
  Add("active_requests", Stats.ActiveRequests.load());
  Add("max_active_requests", Stats.MaxActiveRequests.load());
  Add("overdue_observed", Stats.OverdueObserved.load());
  Add("snapshot_forks", Stats.SnapshotForks.load());
  Add("cow_copies", Stats.CowCopies.load());
  Add("incremental_hits", Stats.IncrementalHits.load());
  Add("replayed_facts", Stats.ReplayedFacts.load());
  Add("summaries_stored", Stats.SummariesStored.load());
  Add("store_summaries", StoreOpen ? Store.size() : 0);
  Add("store_segments_skipped", StoreOpen ? Store.segmentsSkipped() : 0);
  Add("store_records_dropped", StoreOpen ? Store.recordsDropped() : 0);
  Add("cache_hits", Cache.resultHits());
  Add("cache_misses", Cache.resultMisses());
  Add("ast_hits", Cache.astHits());
  Add("ast_misses", Cache.astMisses());
  Out += '}';
  return Out;
}
