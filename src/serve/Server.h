//===- Server.h - The ddajs analysis daemon ----------------------*- C++ -*-==//
///
/// \file
/// `ddajs serve`: a long-lived, multi-tenant analysis service over a
/// line-delimited JSON socket protocol (Protocol.h). The robustness model,
/// layer by layer:
///
///  * **Admission control.** A bounded ticket gate caps how many requests
///    may be past parsing at once. When the gate is full the request gets
///    an immediate typed `overloaded` response (the 429 analogue) instead
///    of queueing — memory stays bounded no matter the offered load.
///    Connections above the connection cap are likewise turned away with a
///    one-line `overloaded` response.
///  * **Per-request budgets + service ceiling.** Every request's governor
///    limits are composed with the service-level ceiling (composeLimits),
///    so a tenant can tighten but never exceed the fleet's budgets; the
///    ceiling's wall-clock deadline is the watchdog that guarantees a
///    hostile program cannot hold a worker forever. A watchdog thread
///    additionally observes requests running past their composed deadline
///    (a governor bug would show up here) and counts them in stats.
///  * **Filesystem confinement.** `path` requests are disabled unless the
///    operator opts in with `--root DIR`; when enabled, the canonicalized
///    path must stay inside the root, name a regular file (no FIFOs or
///    device files that block or never end), and reads stop at
///    MaxRequestBytes — tenant input can neither disclose server-side
///    files nor grow the daemon's memory without bound.
///  * **Crash isolation.** Request handling is wrapped so every parser
///    blowup, trap, or injected fault becomes a typed error or degraded-ok
///    response. The daemon never exits on tenant input.
///  * **Caching.** Content-hash-keyed LRUs of parsed ASTs and serialized
///    result payloads (Cache.h): identical program + seed set + options →
///    the byte-identical cached answer.
///  * **Shared worker fleet.** One ThreadPool sized by --jobs runs every
///    request's seed fan-out as a request-scoped TaskGroup
///    (runDeterminacyAnalysisOnPool), so results are byte-identical to
///    single-shot CLI runs while stragglers from one request overlap with
///    other requests' work.
///  * **Graceful drain.** SIGTERM/SIGINT (via the signal-safe wake pipe)
///    or requestShutdown(): stop accepting, answer new requests with
///    `shutting_down`, let in-flight requests finish, drain the pool, and
///    flush a final stats line. Exit code 0.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_SERVE_SERVER_H
#define DDA_SERVE_SERVER_H

#include "determinacy/Determinacy.h"
#include "incremental/FactStore.h"
#include "serve/Cache.h"
#include "serve/Protocol.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace dda {
namespace serve {

struct ServeOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;    ///< 0 = ephemeral; port() reports the bound one.
  unsigned Jobs = 0;    ///< Worker-pool size; 0 = one per hardware thread.
  size_t QueueDepth = 0;      ///< Admission tickets; 0 = 4 * workers.
  size_t MaxConnections = 64; ///< Concurrent connections before shedding.
  size_t MaxRequestBytes = 1 << 20; ///< Per-line (and per-file) byte cap.
  size_t CacheAsts = 64;      ///< AST LRU entries; 0 disables.
  size_t CacheResults = 256;  ///< Result LRU entries; 0 disables.

  /// Directory that `path` requests are confined to (`--root`). Empty —
  /// the default — disables the `path` member entirely: a multi-tenant
  /// daemon must never let tenants read arbitrary server-side files.
  /// When set, requested paths are canonicalized (symlinks resolved) and
  /// must stay inside this directory, name a regular file, and fit the
  /// MaxRequestBytes budget.
  std::string Root;

  /// Service-level budget ceiling, composed into every request. The
  /// deadline here is the fleet-protection watchdog: requests can only
  /// tighten it.
  GovernorLimits Ceiling;

  bool DetDom = false; ///< Default request DOM mode.
  uint64_t DomSeed = 1;

  /// Service-level fault injection (`ddajs serve --inject-fault`): cloned
  /// into every request, so each request trips deterministically at its
  /// own Nth checkpoint — the end-to-end soundness-under-faults drill.
  std::optional<FaultInjector> Injector;

  /// Region-summary store directory (`--fact-store`). Empty disables the
  /// incremental layer regardless of Incremental. The store is shared by
  /// every request and seed task (FactStore is thread-safe), so one
  /// tenant's cold run warms every later byte-identical region — across
  /// requests, connections, and daemon restarts.
  std::string FactStoreDir;

  /// Service-level incremental mode (`--incremental`), applied to every
  /// request. Replay-vs-execute never changes a response payload, so the
  /// result cache and cross-mode diffs stay byte-identical.
  IncrementalMode Incremental = IncrementalMode::Off;

  /// Watchdog scan interval.
  uint64_t WatchdogIntervalMs = 200;
};

/// Monotonic service counters. Everything is atomic so the stats command
/// can read while workers write; the JSON rendering is a point-in-time
/// sample, not a consistent snapshot.
struct ServeStats {
  std::atomic<uint64_t> ConnectionsAccepted{0};
  std::atomic<uint64_t> ConnectionsRejected{0};
  std::atomic<uint64_t> RequestsReceived{0};
  std::atomic<uint64_t> ResponsesOk{0};
  std::atomic<uint64_t> ResponsesError{0};
  std::atomic<uint64_t> Shed{0};        ///< `overloaded` responses.
  std::atomic<uint64_t> Rejected{0};    ///< `shutting_down` responses.
  std::atomic<uint64_t> Trapped{0};     ///< Degraded-but-ok responses.
  std::atomic<uint64_t> InjectedTrips{0};
  std::atomic<uint64_t> ActiveRequests{0};
  std::atomic<uint64_t> MaxActiveRequests{0};
  std::atomic<uint64_t> OverdueObserved{0}; ///< Watchdog sightings.
  // Snapshot undo-engine observability, summed over every analysis the
  // service ran (all seeds of all requests).
  std::atomic<uint64_t> SnapshotForks{0};  ///< COW snapshot frames opened.
  std::atomic<uint64_t> CowCopies{0};      ///< Pre-images saved by COW writes.
  // Incremental-replay observability (same mechanism-not-conclusions
  // contract): regions warm-started from the fact store, facts replayed
  // from summaries, and fresh summaries captured.
  std::atomic<uint64_t> IncrementalHits{0};
  std::atomic<uint64_t> ReplayedFacts{0};
  std::atomic<uint64_t> SummariesStored{0};
};

class Server {
public:
  explicit Server(const ServeOptions &Opts);

  /// Joins everything; equivalent to requestShutdown() + wait().
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, and starts the acceptor + watchdog threads. Returns
  /// false with \p Error set when the socket cannot be set up.
  bool start(std::string *Error);

  /// The bound port (useful with Port = 0).
  uint16_t port() const { return BoundPort; }

  /// Asks the service to drain: stop accepting, finish in-flight work,
  /// reject new requests with `shutting_down`. Thread-safe, idempotent,
  /// returns immediately. NOT async-signal-safe — signal handlers must
  /// write a byte to wakeFd() instead.
  void requestShutdown();

  /// Write end of the self-pipe; `write(wakeFd(), "x", 1)` from a signal
  /// handler triggers the same drain as requestShutdown().
  int wakeFd() const { return WakePipe[1]; }

  /// Blocks until the drain completes: acceptor joined, every connection
  /// closed, pool drained. Safe to call from one thread only.
  void wait();

  /// requestShutdown() + wait().
  void stop();

  const ServeStats &stats() const { return Stats; }
  const AnalysisCache &cache() const { return Cache; }

  /// Point-in-time stats rendering (the `stats` command's payload body and
  /// the final drain line).
  std::string statsJson() const;

private:
  class Connection;

  void acceptLoop();
  void watchdogLoop();
  void reapConnections(bool JoinAll);

  /// Handles one request line end to end; returns the full response line.
  /// Never throws (crash isolation lives here).
  std::string handleLine(const std::string &Line);
  std::string handleAnalyze(const Request &Req, bool &Cached);

  /// Loads a `path` request's file under the --root confinement rules:
  /// root configured, canonical path inside it, regular file, at most
  /// MaxRequestBytes read. On failure returns false with \p ErrorPayload
  /// set to the typed error payload.
  bool readConfinedFile(const std::string &Path, std::string &Source,
                        std::string &ErrorPayload);

  ServeOptions Opts;
  ServeStats Stats;
  AnalysisCache Cache;
  ThreadPool Pool;
  size_t QueueDepth; ///< Resolved admission capacity.

  /// Shared region-summary store; open iff Opts.FactStoreDir was set and
  /// open() succeeded at start().
  FactStore Store;
  bool StoreOpen = false;

  /// Canonicalized Opts.Root (set by start(); empty = path requests off).
  std::string RootCanon;

  int ListenFd = -1;
  int WakePipe[2] = {-1, -1};
  uint16_t BoundPort = 0;
  std::chrono::steady_clock::time_point StartedAt;

  std::atomic<bool> Draining{false};
  std::atomic<bool> Exiting{false}; ///< Watchdog/acceptor teardown flag.
  std::atomic<uint64_t> AdmissionTickets{0};

  std::thread Acceptor;
  std::thread Watchdog;
  std::mutex WatchdogMu;
  std::condition_variable WatchdogCv;

  std::mutex ConnMu;
  std::vector<std::unique_ptr<Connection>> Connections;

  /// Active-request registry for the watchdog: start time + composed
  /// deadline per in-flight analysis.
  struct Inflight {
    std::chrono::steady_clock::time_point Start;
    uint64_t DeadlineMs;
    bool OverdueReported;
  };
  std::mutex InflightMu;
  uint64_t NextInflightId = 0;
  std::unordered_map<uint64_t, Inflight> InflightMap;

  bool Started = false;
  bool Waited = false;
};

} // namespace serve
} // namespace dda

#endif // DDA_SERVE_SERVER_H
