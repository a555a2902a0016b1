//===- SelfTest.cpp - Tests of the harness's own helpers -------------------==//
///
/// \file
/// Percentile choice, window sizing, self-time subtraction for nested
/// spans, trace JSON well-formedness and seed determinism of the generated
/// inputs. Run with `ctest` in the ddbench build directory, or
/// `python3 ddbench/run.py --selftest`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Stats.h"
#include "Trace.h"

#include "serve/JSON.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

using namespace ddbench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

void percentileChoice() {
  // p99 of N samples is the ceil(0.99 N)-th smallest; 1000 samples leave
  // exactly 10 beyond it, 999 only 9.
  CHECK(nearestRank(1000, 9900) == 990);
  CHECK(samplesBeyond(1000, 9900) == 10);
  CHECK(samplesBeyond(999, 9900) == 9);
  CHECK(minSamplesFor(9900, 10) == 1000);
  CHECK(minSamplesFor(5000, 10) == 20);
  CHECK(samplesBeyond(minSamplesFor(9990, 10), 9990) >= 10);
  CHECK(samplesBeyond(minSamplesFor(9990, 10) - 1, 9990) < 10);

  // A window holds whole rounds and keeps p99's ten tail samples.
  for (size_t Round : {1, 40, 64, 333}) {
    size_t W = windowSamples(Round);
    CHECK(W % Round == 0);
    CHECK(samplesBeyond(W, 9900) >= kMinTailSamples);
    CHECK(samplesBeyond(W - Round, 9900) < kMinTailSamples);
  }
  CHECK(windowSamples(40) == 1000);
  CHECK(windowSamples(64) == 1024);

  std::vector<double> V;
  for (int I = 1000; I >= 1; --I)
    V.push_back(I);
  CHECK(percentile(V, 9900) == 990);
  CHECK(percentile(V, 5000) == 500);
  CHECK(percentile({4, 1, 3, 2}, 5000) == 2);
  CHECK(percentile({7}, 9900) == 7);
  CHECK(percentile({}, 9900) == 0);
}

Span span(const char *Name, int64_t B, int64_t E, int32_t Parent) {
  return {Name, B, E, Parent, 0};
}

void selfTimeSubtraction() {
  // op [0,100] > a [10,40] > a1 [20,30]; op > b [50,90].
  std::vector<Span> S = {span("op", 0, 100, -1), span("x.a", 10, 40, 0),
                         span("x.a1", 20, 30, 1), span("y.b", 50, 90, 0)};
  std::vector<int64_t> Self = selfTimesNs(S);
  CHECK(Self[0] == 30);
  CHECK(Self[1] == 20);
  CHECK(Self[2] == 10);
  CHECK(Self[3] == 40);

  // Overlapping children are covered once; a child sticking out of its
  // parent is clipped to it.
  std::vector<Span> O = {span("op", 0, 100, -1), span("x.a", 10, 40, 0),
                         span("x.b", 30, 60, 0), span("x.c", 90, 120, 0)};
  CHECK(selfTimesNs(O)[0] == 100 - 50 - 10);

  auto Near = [](double A, double B) { return std::abs(A - B) < 1e-12; };
  Attribution A = attribute(S);
  CHECK(A.Ops == 1);
  CHECK(Near(A.OpMs, 100e-6));
  CHECK(Near(A.UnattributedMs, 30e-6));
  CHECK(Near(A.selfMs("x."), 30e-6));
  CHECK(Near(A.selfMs("y.b"), 40e-6));
  CHECK(Near(A.residualMs(), 0));

  // The live tracer links nested scopes and its account closes.
  Tracer T(true);
  for (int Op = 0; Op < 3; ++Op) {
    uint32_t Id = T.nextOp();
    SpanScope Root(&T, "op", Id);
    {
      SpanScope Outer(&T, "layer.outer", Id);
      SpanScope Inner(&T, "layer.inner", Id);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    SpanScope Sibling(&T, "other.call", Id);
  }
  const std::vector<Span> &Live = T.spans();
  CHECK(Live.size() == 12);
  CHECK(Live[0].Parent == -1 && Live[1].Parent == 0 && Live[2].Parent == 1 &&
        Live[3].Parent == 0);
  CHECK(Live[4].Parent == -1 && Live[4].Op == 1);
  Attribution LA = attribute(Live);
  CHECK(LA.Ops == 3);
  CHECK(LA.selfMs("layer.inner") >= 3 * 0.05);
  CHECK(std::abs(LA.residualMs()) < 1e-9);

  Tracer Off(false);
  { SpanScope S(&Off, "op", Off.nextOp()); }
  CHECK(Off.spans().empty());
}

void traceJsonWellFormed() {
  std::vector<Span> S = {span("op", 0, 2500, -1),
                         span("parser.parse", 100, 900, 0),
                         span("determinacy.task", 1000, 2400, 0)};
  std::string Text = chromeTraceJson(S, "selftest \"quoted\"");
  dda::json::ParseResult P = dda::json::parse(Text);
  CHECK(P.Ok);
  if (!P.Ok)
    return;
  const dda::json::Value *Events = P.V.get("traceEvents");
  CHECK(Events && Events->isArray());
  if (!Events || !Events->isArray())
    return;
  CHECK(Events->items().size() == S.size() + 1);
  size_t Complete = 0;
  for (const dda::json::Value &E : Events->items()) {
    CHECK(E.isObject());
    for (const char *Key : {"name", "ph", "pid", "tid"})
      CHECK(E.get(Key) != nullptr);
    const dda::json::Value *Ph = E.get("ph");
    if (!Ph || Ph->str() != "X")
      continue;
    ++Complete;
    CHECK(E.get("ts") && E.get("ts")->isNumber());
    CHECK(E.get("dur") && E.get("dur")->isNumber() &&
          E.get("dur")->number() >= 0);
    CHECK(E.get("cat") && E.get("cat")->isString());
  }
  CHECK(Complete == S.size());
  // Microsecond units: the parse span lasts 0.8 us.
  CHECK(Events->items()[2].get("dur")->number() == 0.8);
  CHECK(Events->items()[2].get("cat")->str() == "parser");
}

void seedDeterminism() {
  CHECK(corpusPrograms(7) == corpusPrograms(7));
  CHECK(corpusPrograms(7) != corpusPrograms(8));
  CHECK(corpusSeeds(7) == corpusSeeds(7));
  CHECK(corpusDigest(7) == corpusDigest(7));
  CHECK(corpusDigest(7) != corpusDigest(8));
  CHECK(serveDigest(7) == serveDigest(7));
  CHECK(serveDigest(7) != serveDigest(8));
  CHECK(paperDigest(7) == paperDigest(7));
  CHECK(paperDigest(7) != paperDigest(8));

  std::vector<size_t> Order = paperRoundOrder(7, 3, 40);
  CHECK(Order == paperRoundOrder(7, 3, 40));
  CHECK(std::set<size_t>(Order.begin(), Order.end()).size() == 40);

  std::vector<size_t> Pass = corpusPassOrder(7, 2);
  CHECK(Pass == corpusPassOrder(7, 2));
  CHECK(Pass != corpusPassOrder(7, 3));
  CHECK(std::set<size_t>(Pass.begin(), Pass.end()).size() == kCorpusPrograms);

  // The request mix, exact in every block of eight: six edits, a repeat of
  // a recent distinct request, a fresh program. (A repeat drawn before
  // anything was sent becomes an edit.)
  RequestStream A(7), B(7);
  size_t Count[3] = {0, 0, 0};
  std::vector<ServeRequest> Distinct;
  const size_t N = 2000;
  for (size_t I = 0; I < N; ++I) {
    ServeRequest R = A.next(), S = B.next();
    CHECK(requestLine(7, R, "x") == requestLine(7, S, "x"));
    ++Count[R.K];
    if (R.K == ServeRequest::Repeat) {
      bool Recent = false;
      for (size_t J = Distinct.size() > 4 ? Distinct.size() - 4 : 0;
           J < Distinct.size(); ++J)
        Recent |= requestSource(7, Distinct[J]) == requestSource(7, R) &&
                  Distinct[J].Seeds == R.Seeds;
      CHECK(Recent);
    } else {
      Distinct.push_back(R);
    }
  }
  CHECK(Count[ServeRequest::Fresh] == N / 8);
  CHECK(Count[ServeRequest::Repeat] + 1 >= N / 8 &&
        Count[ServeRequest::Repeat] <= N / 8);
  CHECK(Count[ServeRequest::Edit] + Count[ServeRequest::Repeat] == N * 7 / 8);
  CHECK(requestLine(7, RequestStream(8).next(), "x") !=
        requestLine(7, RequestStream(7).next(), "x"));
}

} // namespace

int main() {
  percentileChoice();
  selfTimeSubtraction();
  traceJsonWellFormed();
  seedDeterminism();
  if (Failures) {
    std::fprintf(stderr, "ddbench_selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("ddbench_selftest: all checks passed\n");
  return 0;
}
