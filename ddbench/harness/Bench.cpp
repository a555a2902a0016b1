//===- Bench.cpp ----------------------------------------------------------==//

#include "Bench.h"
#include "Stats.h"

#include <cstdio>
#include <ctime>
#include <sys/resource.h>
#include <thread>

namespace ddbench {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

double cpuSeconds() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(RU.ru_utime) + Sec(RU.ru_stime);
}

static double cpuClockMs(clockid_t Id) {
  timespec T;
  clock_gettime(Id, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

double threadCpuMs() { return cpuClockMs(CLOCK_THREAD_CPUTIME_ID); }

double processCpuMs() { return cpuClockMs(CLOCK_PROCESS_CPUTIME_ID); }

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // Linux reports KiB.
}

unsigned hostCpus() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

void Outcome::noteSpread(const std::string &What,
                         const std::vector<double> &Ms) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%s: n=%zu p10=%.4f p50=%.4f p90=%.4f p99=%.4f ms",
                What.c_str(), Ms.size(), percentile(Ms, 1000),
                percentile(Ms, 5000), percentile(Ms, 9000),
                percentile(Ms, 9900));
  Notes.push_back(Buf);
}

size_t windowSamples(size_t RoundSamples) {
  size_t Min = minSamplesFor(9900, kMinTailSamples);
  return (Min + RoundSamples - 1) / RoundSamples * RoundSamples;
}

bool keepMeasuring(Clock::time_point Start, double Seconds, size_t Samples,
                   size_t WindowSamples) {
  double Elapsed = msSince(Start) / 1000.0;
  if (Elapsed >= kMaxTimedSeconds)
    return false;
  return Elapsed < Seconds || Samples < kMinWindows * WindowSamples ||
         Samples % WindowSamples != 0;
}

void emitEndToEnd(Outcome &O, const std::vector<double> &SetupS,
                  const std::vector<Window> &Windows, double CpuSeconds,
                  uint64_t TimedOps, double RssMb) {
  std::vector<double> Rates, P50s, P99s;
  O.LatencySamples = 0;
  for (const Window &W : Windows) {
    if (samplesBeyond(W.LatencyMs.size(), 9900) < kMinTailSamples)
      O.harnessFail("a window of only " + std::to_string(W.LatencyMs.size()) +
                    " latency samples: fewer than " +
                    std::to_string(kMinTailSamples) + " beyond p99");
    O.LatencySamples += W.LatencyMs.size();
    Rates.push_back(W.Ms > 0 ? 1000.0 * W.Ops / W.Ms : 0);
    P50s.push_back(percentile(W.LatencyMs, 5000));
    P99s.push_back(percentile(W.LatencyMs, 9900));
  }
  O.Notes.push_back(std::to_string(Windows.size()) + " windows of " +
                    std::to_string(Windows.empty()
                                       ? 0
                                       : Windows.front().LatencyMs.size()) +
                    " latency samples");
  if (Windows.size() < kMinWindows)
    O.harnessFail("only " + std::to_string(Windows.size()) + " windows");
  if (TimedOps == 0)
    O.harnessFail("no timed ops");
  O.add("setup_s", median(SetupS), "s");
  O.add("ops_per_s", median(Rates), "1/s");
  O.add("op_p50_ms", median(P50s), "ms");
  O.add("op_p99_ms", median(P99s), "ms");
  O.add("cpu_ms_per_op",
        TimedOps ? CpuSeconds * 1000.0 / static_cast<double>(TimedOps) : 0,
        "ms");
  O.add("peak_rss_mb", RssMb, "MiB");
  O.add("ok_ratio",
        O.Attempted ? 1.0 - static_cast<double>(O.Failed) /
                                static_cast<double>(O.Attempted)
                    : 0,
        "ratio");
}

} // namespace ddbench
