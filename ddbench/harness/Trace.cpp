//===- Trace.cpp ----------------------------------------------------------==//

#include "Trace.h"

#include <algorithm>
#include <cstdio>

namespace ddbench {

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

int32_t Tracer::begin(const char *Name, uint32_t Op) {
  if (!Enabled)
    return -1;
  Spans.push_back({Name, nowNs(), -1, Open, Op});
  Open = static_cast<int32_t>(Spans.size() - 1);
  return Open;
}

void Tracer::end(int32_t Index) {
  if (Index < 0)
    return;
  Span &S = Spans[static_cast<size_t>(Index)];
  S.EndNs = nowNs();
  Open = S.Parent;
}

std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::vector<size_t>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[static_cast<size_t>(Spans[I].Parent)].push_back(I);

  std::vector<int64_t> Self(Spans.size());
  std::vector<std::pair<int64_t, int64_t>> Cover;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Cover.clear();
    for (size_t C : Children[I]) {
      int64_t B = std::max(S.StartNs, Spans[C].StartNs);
      int64_t E = std::min(S.EndNs, Spans[C].EndNs);
      if (B < E)
        Cover.push_back({B, E});
    }
    std::sort(Cover.begin(), Cover.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (auto [B, E] : Cover) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    Self[I] = (S.EndNs - S.StartNs) - Covered;
  }
  return Self;
}

double Attribution::selfMs(const std::string &Prefix) const {
  double Sum = 0;
  for (const auto &[Name, Ms] : SelfMs)
    if (Name.compare(0, Prefix.size(), Prefix) == 0)
      Sum += Ms;
  return Sum;
}

double Attribution::residualMs() const {
  return OpMs - selfMs("") - UnattributedMs;
}

Attribution attribute(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self = selfTimesNs(Spans);
  Attribution A;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Ms = static_cast<double>(Self[I]) / 1e6;
    if (Spans[I].Parent < 0) {
      ++A.Ops;
      A.OpMs += static_cast<double>(Spans[I].EndNs - Spans[I].StartNs) / 1e6;
      A.UnattributedMs += Ms;
    } else {
      A.SelfMs[Spans[I].Name] += Ms;
    }
  }
  return A;
}

std::string chromeTraceJson(const std::vector<Span> &Spans,
                            const std::string &ProcessName) {
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":" +
         jsonString(ProcessName) + "}}";
  char Buf[320];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Name = S.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    std::snprintf(Buf, sizeof(Buf),
                  ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%u}}",
                  jsonString(Name).c_str(), jsonString(Cat).c_str(),
                  static_cast<double>(S.StartNs) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3, I, S.Parent,
                  S.Op);
    Out += Buf;
  }
  Out += "\n]}\n";
  return Out;
}

} // namespace ddbench
