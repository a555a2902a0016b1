//===- Bench.h - Shared plumbing of the ddbench harness ----------*- C++ -*-==//
///
/// \file
/// Command-line arguments, the per-run outcome (metrics, failure count,
/// notes), clocks, process resource probes and the harness's own seeded
/// generator. The generator is deliberately separate from the analyzer's
/// `Math.random` RNG so that changing the program under test can never
/// change the benchmark's inputs.
///
/// The end-to-end timings are on-CPU times of ops that run on one thread
/// at a time (threadCpuMs, processCpuMs). On a dedicated host that is the
/// op's wall time; on a shared VM it leaves out the time the hypervisor
/// lends the vCPUs to other guests (steal), which moved wall-clock
/// throughput of the multi-threaded workloads by 25-45% from run to run.
///
//===----------------------------------------------------------------------===//

#ifndef DDBENCH_BENCH_H
#define DDBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ddbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point T) {
  return msBetween(T, Clock::now());
}

/// SplitMix64 over an explicit state: the only source of randomness in the
/// harness. Every input derives from the workload seed through it.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t Bound) { return next() % Bound; }

private:
  uint64_t State;
};

/// Derives an independent stream seed from (Seed, Stream).
inline uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed ^ (Stream * 0xd1b54a32d192ed03ULL));
  R.next();
  return R.next();
}

/// FNV-1a, used for input digests (seed-determinism check) only.
inline uint64_t fnv1a(const std::string &S,
                      uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// \p S as a JSON string literal (control characters dropped).
std::string jsonString(const std::string &S);

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_build/out";
  std::string Revision = "unknown";
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run of one workload produced.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when something other than an op failed: inputs not
  /// seed-deterministic, too few tail samples, a broken trace account.
  bool HarnessOk = true;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
  uint64_t InputDigest = 0;
  /// Samples behind op_p50_ms / op_p99_ms (0 in a traced run).
  size_t LatencySamples = 0;
  std::string TracePath;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Records one failed op with the reason (kept to the first few).
  void fail(const std::string &Why) {
    ++Failed;
    if (Failed <= 8)
      Notes.push_back("failed: " + Why);
  }
  /// Records the spread of a timed sample set as a note.
  void noteSpread(const std::string &What, const std::vector<double> &Ms);
  void harnessFail(const std::string &Why) {
    HarnessOk = false;
    Notes.push_back("harness: " + Why);
  }
  bool correct() const { return HarnessOk && Failed == 0; }
};

/// User plus system CPU seconds of this process (all threads).
double cpuSeconds();
/// On-CPU milliseconds of the calling thread.
double threadCpuMs();
/// On-CPU milliseconds of the whole process, all threads.
double processCpuMs();
/// Peak resident set size of this process in MiB.
double peakRssMb();
/// Hardware threads available to the process.
unsigned hostCpus();

/// Warm-up repetitions behind the setup_s median.
constexpr int kSetupReps = 9;
/// A run never measures longer than this, however slow the build is.
constexpr double kMaxTimedSeconds = 90;
/// p99 is reported only with at least this many samples beyond it.
constexpr size_t kMinTailSamples = 10;
/// A timed loop fills at least this many windows. Each window has its own
/// rate, p50 and p99, and the run reports their medians: a stretch in which
/// the host runs this guest slower then moves at most a minority of
/// windows, instead of every tail sample and the whole run's rate.
constexpr size_t kMinWindows = 5;

/// Latency samples per window: the fewest that put kMinTailSamples beyond
/// p99, rounded up to a whole number of \p RoundSamples (one pass over a
/// workload's inputs), so that every window sees the same inputs.
size_t windowSamples(size_t RoundSamples);

/// Whether a timed loop begun at \p Start with \p Samples latency samples
/// goes on: for at least \p Seconds, then until the samples fill at least
/// kMinWindows whole windows of \p WindowSamples (never past
/// kMaxTimedSeconds).
bool keepMeasuring(Clock::time_point Start, double Seconds, size_t Samples,
                   size_t WindowSamples);

/// One window of a timed loop: the ops it completed, the on-CPU time they
/// took, and their latency samples.
struct Window {
  double Ops = 0;
  double Ms = 0;
  std::vector<double> LatencyMs;
};

/// Appends the end-to-end metrics every workload reports: setup_s (median
/// of the warm-up repetitions), ops_per_s (median window rate: ops per
/// second of on-CPU time), op_p50_ms and op_p99_ms (median window p50 and
/// p99), cpu_ms_per_op, peak_rss_mb (\p RssMb, the peak when kMinWindows
/// windows were done, so that it does not grow with the host's speed) and
/// ok_ratio (1 - failed / attempted).
void emitEndToEnd(Outcome &O, const std::vector<double> &SetupS,
                  const std::vector<Window> &Windows, double CpuSeconds,
                  uint64_t TimedOps, double RssMb);

Outcome runPaper(const Args &A);
Outcome runCorpus(const Args &A);
Outcome runServe(const Args &A);

} // namespace ddbench

#endif // DDBENCH_BENCH_H
