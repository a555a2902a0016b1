//===- Trace.h - In-memory spans around layer calls --------------*- C++ -*-==//
///
/// \file
/// The traced run wraps every call into a layer of the analyzer in a span:
/// name (`<layer>.<call>`), start, end, parent span and op id. Spans are
/// appended to an in-memory vector and written once, at the end, as Chrome
/// trace-event JSON (loadable in Perfetto or chrome://tracing).
///
/// A span with no parent is an op. A span's self time is its duration
/// minus the part of it covered by its children, so the self times of all
/// spans under an op add up to the op's duration exactly; the op's own
/// self time is the part no layer span covers (`trace.unattributed_ms`).
///
/// Spans are recorded from one thread: the traced passes call the layers
/// one at a time, so no span ever runs concurrently with another.
///
//===----------------------------------------------------------------------===//

#ifndef DDBENCH_TRACE_H
#define DDBENCH_TRACE_H

#include "Bench.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ddbench {

struct Span {
  const char *Name; ///< Static string, `<layer>.<call>`, or "op".
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent; ///< Index of the enclosing span, -1 for an op.
  uint32_t Op;
};

class Tracer {
public:
  /// A disabled tracer records nothing; it lets one pass run untraced and
  /// traced through the same code to measure the tracing overhead.
  explicit Tracer(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return Enabled; }
  int32_t begin(const char *Name, uint32_t Op);
  void end(int32_t Index);
  const std::vector<Span> &spans() const { return Spans; }

  /// Starts a new op (a root span); returns its id.
  uint32_t nextOp() { return NextOp++; }

private:
  int64_t nowNs() const;

  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  int32_t Open = -1;
  uint32_t NextOp = 0;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, uint32_t Op)
      : T(T), Index(T ? T->begin(Name, Op) : -1) {}
  ~SpanScope() {
    if (T)
      T->end(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
  int32_t Index;
};

/// Self time of every span, in ns: duration minus the union of its
/// children's intervals clipped to the span.
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Where a trace's op time went.
struct Attribution {
  std::map<std::string, double> SelfMs; ///< By span name; ops excluded.
  double OpMs = 0;           ///< Sum of op durations.
  double UnattributedMs = 0; ///< Op time no layer span covers.
  size_t Ops = 0;

  /// Self time of every span whose name starts with \p Prefix.
  double selfMs(const std::string &Prefix) const;
  /// OpMs minus every attributed self time and the unattributed rest; 0 up
  /// to rounding when the account is complete.
  double residualMs() const;
};

Attribution attribute(const std::vector<Span> &Spans);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps,
/// category = layer) for \p Spans.
std::string chromeTraceJson(const std::vector<Span> &Spans,
                            const std::string &ProcessName);

} // namespace ddbench

#endif // DDBENCH_TRACE_H
