//===- SoundnessTest.cpp - Property-based validation of Theorem 1 ----------==//
///
/// The paper's soundness theorem: a value the instrumented semantics tags
/// determinate is the value every concrete execution computes at that point.
/// We validate the final-state projection of the theorem over a corpus of
/// adversarial programs: run the instrumented interpreter once, then run the
/// concrete interpreter under a grid of (Math.random seed, DOM seed)
/// environments, and check that
///
///   1. every user global tagged `!` has the identical concrete value in
///      every concrete run, and
///   2. for globals bound to objects, every property tagged `!` matches too
///      (objects are matched by allocation site).
///
/// The corpus deliberately targets the analysis's hard cases: counterfactual
/// branches, early returns/breaks/throws under indeterminate control,
/// indeterminate callees, eval, for-in, DOM reads, and event handlers.
///
//===----------------------------------------------------------------------===//

#include "determinacy/InstrumentedInterpreter.h"

#include "interp/Interpreter.h"
#include "interp/Ops.h"
#include "parser/Parser.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace dda;

namespace {

struct Scenario {
  const char *Name;
  const char *Source;
};

/// Lists a scenario by name rather than by its raw (pointer) bytes, which
/// would make the test's listed name differ between runs.
void PrintTo(const Scenario &S, std::ostream *OS) { *OS << S.Name; }

const Scenario Corpus[] = {
    {"straight_line", R"JS(
var a = 1 + 2;
var b = "x" + a;
var o = {k: a * 2};
)JS"},

    {"indet_true_branch", R"JS(
var w = 0;
var o = {};
if (Math.random() < 2) { w = 1; o.g = 42; }
var after = w + 1;
)JS"},

    {"counterfactual_branch", R"JS(
var z = {f: 1, h: true};
var keep = 5;
if (Math.random() > 2) { z.g = 42; z.f = 9; keep = 0; }
var sum = z.f + keep;
)JS"},

    {"figure2", R"JS(
function checkf(p) { if (p.f < 32) setg(p, 42); }
function setg(r, v) { r.g = v; }
var x = { f: 23 }, y = { f: Math.random() * 100 };
checkf(x);
checkf(y);
(y.f > 50 ? checkf : setg)(x, 72);
var z = { f: x.g - 16, h: true };
checkf(z);
)JS"},

    {"early_return", R"JS(
var g = 0;
function setG() { g = 1; }
function f() {
  if (Math.random() < 2) { return 7; }
  setG();
  return 8;
}
var r = f();
)JS"},

    {"early_break", R"JS(
var total = 0;
for (var i = 0; i < 10; i++) {
  if (Math.random() < 2) { break; }
  total += i;
}
var after = 3;
)JS"},

    {"indet_throw", R"JS(
var g = 0;
var caught = 0;
try {
  if (Math.random() < 2) { throw "x"; }
  g = 1;
} catch (e) {
  caught = 1;
}
var done = 9;
)JS"},

    {"closures_over_indet", R"JS(
function mk(n) { return function() { return n; }; }
var f = mk(Math.random());
var gfn = mk(10);
var det = gfn();
var indet = f();
)JS"},

    {"closure_mutation_in_branch", R"JS(
var bump;
var n = 0;
function install() { bump = function() { n = n + 1; }; }
install();
if (Math.random() < 2) { bump(); }
var after = 1;
)JS"},

    {"indet_callee_flush", R"JS(
function a(o) { o.p = 1; }
function b(o) { o.p = 2; }
var x = {q: 7};
(Math.random() < 0.5 ? a : b)(x);
var fresh = {r: 3};
)JS"},

    {"computed_names", R"JS(
var o = {};
var names = ["alpha", "beta"];
for (var i = 0; i < names.length; i++) {
  o["get" + names[i]] = i;
}
var k = Math.random() < 0.5 ? "a" : "b";
var p = {x: 1};
p[k] = 2;
var det = o.getalpha;
)JS"},

    {"eval_det_and_indet", R"JS(
var a = eval("1 + 2");
var which = Math.random() < 0.5 ? "3" : "4";
var b = eval("10 + " + which);
var c = 100;
)JS"},

    {"eval_declares_vars", R"JS(
eval("var viaEval = 42;");
var copy = viaEval;
)JS"},

    {"forin_det", R"JS(
var o = {a: 1, b: 2, c: 3};
var ks = "";
var sum = 0;
for (var k in o) { ks += k; sum += o[k]; }
)JS"},

    {"forin_efter_open", R"JS(
var o = {a: 1};
o[Math.random() < 0.5 ? "x" : "y"] = 2;
var ks = "";
for (var k in o) { ks += k; }
var stable = 7;
)JS"},

    {"dom_reads", R"JS(
var t = document.title;
var el = document.getElementById("main");
var attr = el.getAttribute("data-x");
var stable = "ok";
)JS"},

    {"event_handlers", R"JS(
var before = {v: 1};
var hits = 0;
document.addEventListener("ready", function() { hits += 1; });
document.addEventListener("load", function() { hits += 2; });
var mid = before.v;
)JS"},

    {"delete_in_branch", R"JS(
var o = {a: 1, b: 2};
if (Math.random() > 2) { delete o.a; }
var stillA = o.a;
var stillB = o.b;
)JS"},

    {"nested_counterfactuals", R"JS(
var r = Math.random() + 2;
var a = 0, b = 0, c = 0;
if (r > 100) {
  a = 1;
  if (r > 200) {
    b = 1;
    if (r > 300) { c = 1; }
  }
}
var done = a + b + c;
)JS"},

    {"logical_and_ternary", R"JS(
var side = 0;
function bump() { side = 1; return 5; }
var v1 = Math.random() < 2 ? 7 : bump();
var v2 = Math.random() < 2 && bump();
var v3 = true && 3;
var v4 = false || "fb";
)JS"},

    {"prototype_chain", R"JS(
function A() { this.own = 1; }
A.prototype.shared = 10;
var a = new A();
var s = a.shared;
var miss = a.nothing;
if (Math.random() > 2) { A.prototype.shared = 99; }
var s2 = a.shared;
)JS"},

    {"arrays_and_natives", R"JS(
var xs = [3, 1, 2];
xs.push(Math.random());
var len = xs.length;
var j = [5, 6].join("-");
var idx = [7, 8, 9].indexOf(8);
)JS"},

    {"string_ops", R"JS(
var s = "width";
var cap = s[0].toUpperCase() + s.substr(1);
var r = Math.random() < 0.5 ? "a" : "b";
var mixed = ("get" + r).toUpperCase();
)JS"},

    {"while_with_indet_bound", R"JS(
var n = Math.floor(Math.random() * 4);
var i = 0;
var acc = 0;
while (i < n) { acc += i; i++; }
var detLoop = 0;
var j = 0;
while (j < 3) { detLoop += j; j++; }
)JS"},

    {"update_and_compound", R"JS(
var i = 0;
i++;
i += 10;
var o = {n: 1};
if (Math.random() < 2) { o.n *= 3; }
var done = i;
)JS"},
};

class SoundnessTest : public ::testing::TestWithParam<Scenario> {};

/// Compares an instrumented tagged value against a concrete value; objects
/// are matched by allocation site (the cross-execution identity the fact
/// domain uses).
void expectValueMatches(const TaggedValue &Tagged, const Heap &IHeap,
                        const Value &Concrete, const Heap &CHeap,
                        const std::string &What, uint64_t Seed,
                        uint64_t DomSeed) {
  std::string Where = What + " (seed=" + std::to_string(Seed) +
                      ", domSeed=" + std::to_string(DomSeed) + ")";
  if (Tagged.V.isObject()) {
    ASSERT_TRUE(Concrete.isObject()) << Where;
    EXPECT_EQ(IHeap.get(Tagged.V.Obj).AllocSite,
              CHeap.get(Concrete.Obj).AllocSite)
        << Where;
    return;
  }
  EXPECT_TRUE(strictEquals(Tagged.V, Concrete))
      << Where << ": instrumented=" << toStringValue(Tagged.V, IHeap)
      << " concrete=" << toStringValue(Concrete, CHeap);
}

TEST_P(SoundnessTest, DeterminateGlobalsHoldInAllExecutions) {
  const Scenario &S = GetParam();
  DiagnosticEngine Diags;
  Program IP = parseProgram(S.Source, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();

  AnalysisOptions AOpts;
  AOpts.RandomSeed = 1;
  AOpts.DomSeed = 1;
  InstrumentedInterpreter I(IP, AOpts);
  ASSERT_TRUE(I.run()) << I.errorMessage();

  std::vector<std::string> Globals = I.userGlobalNames();

  for (uint64_t Seed : {1, 2, 3, 7, 1234, 999999}) {
    for (uint64_t DomSeed : {1, 5, 42}) {
      // Fresh parse per run: eval may extend the AST context during a run.
      DiagnosticEngine D2;
      Program CP = parseProgram(S.Source, D2);
      ASSERT_FALSE(D2.hasErrors());
      InterpOptions COpts;
      COpts.RandomSeed = Seed;
      COpts.DomSeed = DomSeed;
      Interpreter C(CP, COpts);
      ASSERT_TRUE(C.run()) << S.Name << ": " << C.errorMessage();

      // 1. Instrumented run must be a real execution: under the *same*
      // seeds its observable output matches the concrete interpreter.
      if (Seed == AOpts.RandomSeed && DomSeed == AOpts.DomSeed) {
        EXPECT_EQ(I.outputText(), C.outputText()) << S.Name;
      }

      // 2. Every determinate global matches in every execution.
      for (const std::string &G : Globals) {
        TaggedValue TV = I.globalVariable(G);
        if (!TV.isDet())
          continue;
        Value CV = C.globalVariable(G);
        expectValueMatches(TV, I.heap(), CV, C.heap(), S.Name + ("::" + G),
                           Seed, DomSeed);

        // 3. Determinate properties of determinate objects match as well.
        if (!TV.V.isObject() || !CV.isObject())
          continue;
        const JSObject &IO = I.heap().get(TV.V.Obj);
        if (IO.Class != ObjectClass::Plain && IO.Class != ObjectClass::Array)
          continue;
        for (StringId KeyId : IO.ownKeys()) {
          std::string Key(atomText(KeyId));
          TaggedValue PropTV = I.taggedProperty(TV, Key);
          if (!PropTV.isDet())
            continue;
          Value PropCV = C.property(CV, Key);
          expectValueMatches(PropTV, I.heap(), PropCV, C.heap(),
                             S.Name + ("::" + G + "." + Key), Seed, DomSeed);
        }
      }
    }
  }
}

TEST_P(SoundnessTest, DeterminateFactsSurviveInjectedFaults) {
  // The degradation half of the governor's contract: trip *every* budget
  // class at several checkpoints; the analysis must neither crash nor hang,
  // and whatever it still tags determinate must hold in every concrete
  // execution. (A run that trips mid-flight taints its variable domain, so
  // most final-state facts disappear — but any that remain must be sound.)
  const Scenario &S = GetParam();
  const Budget Classes[] = {Budget::Steps,     Budget::Deadline,
                            Budget::HeapCells, Budget::CallDepth,
                            Budget::CfFuel,    Budget::EvalDepth};
  for (Budget B : Classes) {
    for (uint64_t At : {1u, 5u, 60u}) {
      std::string Label =
          std::string(S.Name) + " inject " + budgetName(B) + ":" +
          std::to_string(At);
      DiagnosticEngine Diags;
      Program IP = parseProgram(S.Source, Diags);
      ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
      AnalysisOptions AOpts;
      FaultInjector FI(B, At);
      AOpts.Injector = &FI;
      InstrumentedInterpreter I(IP, AOpts);
      ASSERT_TRUE(I.run()) << Label << ": " << I.errorMessage();
      if (I.trapKind() != TrapKind::None) {
        EXPECT_TRUE(isResourceTrap(I.trapKind())) << Label;
        EXPECT_TRUE(I.degradation().Trip.Injected) << Label;
        EXPECT_EQ(I.degradation().Trip.Which, B) << Label;
      }

      for (uint64_t Seed : {1, 7, 1234}) {
        DiagnosticEngine D2;
        Program CP = parseProgram(S.Source, D2);
        ASSERT_FALSE(D2.hasErrors());
        InterpOptions COpts;
        COpts.RandomSeed = Seed;
        Interpreter C(CP, COpts);
        ASSERT_TRUE(C.run()) << Label << ": " << C.errorMessage();
        for (const std::string &G : I.userGlobalNames()) {
          TaggedValue TV = I.globalVariable(G);
          if (!TV.isDet())
            continue;
          Value CV = C.globalVariable(G);
          expectValueMatches(TV, I.heap(), CV, C.heap(), Label + "::" + G,
                             Seed, 1);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, SoundnessTest, ::testing::ValuesIn(Corpus),
                         [](const ::testing::TestParamInfo<Scenario> &Info) {
                           return std::string(Info.param.Name);
                         });

} // namespace
