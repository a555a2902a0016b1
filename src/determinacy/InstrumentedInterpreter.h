//===- InstrumentedInterpreter.h - The determinacy semantics -----*- C++ -*-==//
///
/// \file
/// The instrumented big-step evaluator (paper Figure 9). It executes the
/// program concretely — same values, same output as the concrete
/// Interpreter under the same seeds — while shadowing every value with a
/// determinacy flag and implementing:
///
///  * the tagging rules for loads, stores, operators and calls (L̂D, ŜTO,
///    P̂RIMOP, ÎNV),
///  * post-branch marking for indeterminate-but-true conditions (ÎF1),
///  * counterfactual execution with undo for indeterminate-but-false
///    conditions (ĈNTR) and its nesting cutoff (ĈNTRABORT),
///  * epoch-based heap flushes with per-property recency (Section 4),
///  * native-function models, DOM handling, and recursive instrumentation
///    of eval'd code (Section 4).
///
/// Counterfactual execution snapshots the RNG tapes, suppresses output, and
/// undoes all journaled writes, so the *concrete projection* of an
/// instrumented run is exactly the concrete interpreter's run.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_DETERMINACY_INSTRUMENTEDINTERPRETER_H
#define DDA_DETERMINACY_INSTRUMENTEDINTERPRETER_H

#include "ast/ASTContext.h"
#include "determinacy/Determinacy.h"
#include "determinacy/Journal.h"
#include "interp/Builtins.h"
#include "interp/Environment.h"
#include "interp/Heap.h"
#include "support/BitSet.h"
#include "support/FlatMap.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace dda {

/// Abrupt-completion record over tagged values.
///
/// IndetControl marks a completion whose *occurrence* is control-dependent on
/// indeterminate data (e.g. a `return` inside a branch with an indeterminate
/// condition): other executions may not perform this transfer, so as the
/// completion unwinds, every block counterfactually executes the statements
/// it skips — the full-JavaScript generalization of the paper's "adjust
/// determinacy information at every control flow merge point" (Section 4).
struct IComp {
  enum Kind : uint8_t { Normal, Return, Break, Continue, Throw, Fatal } K =
      Normal;
  TaggedValue V;
  bool IndetControl = false;
  /// Set iff K == Fatal: distinguishes resource-budget trips (recoverable;
  /// the analysis degrades soundly) from internal errors (genuine bugs).
  TrapKind Trap = TrapKind::None;

  bool isAbrupt() const { return K != Normal; }
  static IComp normal() { return IComp(); }
  static IComp ret(TaggedValue V) { return {Return, std::move(V), false}; }
  static IComp thrown(TaggedValue V) { return {Throw, std::move(V), false}; }
  /// An interpreter bug (malformed AST, broken invariant).
  static IComp fatal(std::string Message) {
    return {Fatal, TaggedValue(Value::string(std::move(Message))), false,
            TrapKind::InternalError};
  }
  /// A typed resource trap; carries a message for human output.
  static IComp trap(TrapKind Kind, std::string Message) {
    return {Fatal, TaggedValue(Value::string(std::move(Message))), false,
            Kind};
  }
};

/// Expression result over tagged values.
struct IRes {
  IComp C;
  TaggedValue V;

  bool abrupt() const { return C.isAbrupt(); }
  static IRes value(TaggedValue V) { return {IComp::normal(), std::move(V)}; }
  static IRes abruptly(IComp C) { return {std::move(C), TaggedValue()}; }
};

/// The instrumented interpreter. One instance = one analyzed execution.
class InstrumentedInterpreter : public NativeHost {
public:
  InstrumentedInterpreter(Program &P, const AnalysisOptions &Opts);
  ~InstrumentedInterpreter() override;

  bool run();

  // Result access (after run()).
  FactDB &facts() { return Facts; }
  ContextTable &contexts() { return Contexts; }
  const AnalysisStats &stats() const { return Stats; }
  /// Stats with the derived CowCopies counter filled in (pre-image copies
  /// across this interpreter's arenas); what the analysis result publishes.
  AnalysisStats finalStats() const {
    AnalysisStats S = Stats;
    S.CowCopies = TheHeap.cowSaves() + Envs.cowSaves();
    return S;
  }
  const std::string &outputText() const { return Output; }
  const std::string &errorMessage() const { return Error; }
  const NodeBitSet &executedCalls() const { return ExecutedCalls; }
  const NodeBitSet &executedStmts() const { return ExecutedStmts; }

  /// Reads a global variable with its determinacy flag (test hook).
  TaggedValue globalVariable(const std::string &Name);
  /// Names of all user-created global variables (test hook).
  std::vector<std::string> userGlobalNames();
  /// Reads a property with the L̂D determinacy rules (test hook).
  TaggedValue taggedProperty(const TaggedValue &Base, const std::string &Name);
  /// Current global epoch (test hook).
  uint32_t currentEpoch() const { return Epoch; }

  /// Why run() stopped early: TrapKind::None for a clean run, a resource
  /// trap when a budget tripped (run() still returns true after degrading
  /// soundly), InternalError for genuine bugs (run() returns false).
  TrapKind trapKind() const { return Trap; }
  /// Structured account of budget trips and sound weakenings (after run()).
  const DegradationReport &degradation() const { return Degradation; }
  const ResourceGovernor &governor() const { return Gov; }

  /// Number of live journal entries (test hook: journal-undo integrity).
  size_t journalSize() const { return J.size(); }
  /// Reverts *every* journaled write back to the pre-run state (test hook:
  /// after this, no user-visible binding or property mutation survives —
  /// FuzzTest uses it to prove undo integrity after mid-counterfactual
  /// aborts).
  void unwindJournalForTest() { undoSince(0); }

  // NativeHost implementation.
  Heap &heap() override { return TheHeap; }
  RNG &randomRng() override { return RandomRng; }
  RNG &domRng() override { return DomRng; }
  void nativeWriteProperty(ObjectRef O, StringId Name,
                           TaggedValue TV) override;
  TaggedValue nativeReadProperty(ObjectRef O, StringId Name) override;
  void output(const std::string &Text) override;
  void registerEventHandler(StringId Event, Value Handler) override;
  ObjectRef domElement(StringId Key) override;
  uint64_t domSeed() const override { return Opts.DomSeed; }
  ObjectRef newArray() override;
  Det recordSetDeterminacy(ObjectRef O) override;

private:
  // --- Setup -------------------------------------------------------------
  void installGlobals();
  ObjectRef makeNative(NativeFn Fn);
  ObjectRef makeFunction(const FunctionExpr *Fn, EnvRef Closure);

  // --- Journaled state mutation -------------------------------------------
  /// Resolves and writes a variable (creating a global when undeclared).
  void setVar(StringId Name, TaggedValue TV);
  /// Declares/overwrites a binding in a specific environment.
  void declareVar(EnvRef Env, StringId Name, TaggedValue TV);
  /// Marks an existing binding indeterminate (journaled).
  void weakenVar(EnvRef Env, StringId Name);
  /// The ŜTO rule: journaled property write honoring base/name determinacy.
  void writeProp(ObjectRef Obj, StringId Name, TaggedValue TV,
                 Det BaseDet, Det NameDet);
  /// Journaled property deletion; returns whether it existed.
  bool eraseProp(ObjectRef Obj, StringId Name);
  /// Opens a record (journaled) and marks all its properties indeterminate.
  void openRecord(ObjectRef Obj);
  /// Marks \p Name as possibly-present-in-other-executions on \p Obj
  /// (journaled).
  void addMaybeAbsent(ObjectRef Obj, StringId Name);
  /// Marks \p Name as present-here-but-possibly-absent-elsewhere (created
  /// under an indeterminate condition); journaled.
  void addMaybePresent(ObjectRef Obj, StringId Name);

  bool recordClosed(const JSObject &O) const {
    return !O.ExplicitlyOpen && O.ClosedEpoch == Epoch;
  }
  Det slotDet(const Slot &S) const {
    return (S.D == Det::Determinate && (S.Epoch == Epoch || S.Immune))
               ? Det::Determinate
               : Det::Indeterminate;
  }

  /// Bumps the global epoch: every property everywhere becomes stale and
  /// every record opens.
  void flushHeap();

  // --- Branch machinery ----------------------------------------------------
  /// Marks every location journaled since \p M indeterminate (ÎF1's
  /// post-branch weakening). Values are kept.
  void markIndetSince(Journal::Mark M);
  /// Reverts every journaled change since \p M and truncates the journal.
  void undoSince(Journal::Mark M);
  /// ĈNTR: runs \p Exec counterfactually (bounded by CounterfactualDepth),
  /// undoes its writes, and weakens the touched locations. \p AbortVd is the
  /// syntactic variable domain used by the ĈNTRABORT fallback. Returns only
  /// Normal or Fatal.
  IComp counterfactualBranch(const std::vector<StringId> &AbortVd,
                             const std::function<IComp()> &Exec);
  /// ĈNTRABORT: flush the heap and taint every name in \p AbortVd.
  void cntrAbort(const std::vector<StringId> &AbortVd);
  /// Conservative env taint: code we could not explore (an unexplored
  /// counterfactual suffix, or alternative-world catch handlers) may write
  /// any reachable binding. Journaled; builtin bindings are immune.
  void taintAllEnvironments();
  /// Registers the consequences of non-local control escaping a
  /// counterfactual branch (alt-world return/throw/break).
  void noteCounterfactualEscape(IComp::Kind K, bool UnexploredSuffix);

  bool inCounterfactual() const { return CfDepth > 0; }

  // --- Snapshot undo engine (UndoEngine::Snapshot) -------------------------
  /// Opens a paired journal mark + copy-on-write frame on both arenas and
  /// returns the mark, which is what undoSince() later receives. \p Charged
  /// frames bill each pre-image copy to the heap-cell budget (counterfactual
  /// branches model real alternative-world allocations of undo state); the
  /// base frame is free.
  Journal::Mark beginUndoFrame(bool Charged);
  /// Copy-on-write write barriers, called by every journaled-mutation site
  /// immediately before mutating. No-ops under the journal engine, where the
  /// pre-image rides in the journal entry instead.
  void envBarrier(EnvRef Env) {
    if (SnapMode)
      Envs.ensureSaved(Env);
  }
  void heapBarrier(ObjectRef Obj) {
    if (SnapMode)
      TheHeap.ensureSaved(Obj);
  }

  /// Per-activation call-site occurrence counters. Most activations execute
  /// a handful of distinct sites, so eight inline slots keep frame setup off
  /// the allocator.
  using SiteCountMap = FlatMap<NodeID, uint32_t, FlatHash<NodeID>, 8>;

  struct Frame {
    ContextID Ctx = ContextTable::Root;
    SiteCountMap SiteCounts;
    TaggedValue ThisV;
    /// Set when a counterfactually explored `return` escaped a branch in
    /// this activation: other executions may leave the function early, so
    /// everything written from the mark to the function's exit is weakened
    /// and the return value is indeterminate.
    std::optional<Journal::Mark> ReturnEscape;
  };

  // --- Incremental region replay (IncrementalRegions.cpp) ------------------
  /// True when this run consults/feeds the persistent fact store.
  bool incrementalActive() const;
  /// Drives Prog.Body with per-statement ("region") replay/capture; the
  /// semantics are exactly execStmtsFrom(Prog.Body, 0) — abrupt completions
  /// take the identical counterfactual-suffix path — but each region whose
  /// key hits the store is warm-started from its stored effect delta
  /// instead of executing.
  IComp execProgramBody();
  /// The interpreter is at the base toplevel state from which a region's
  /// effect delta is meaningful: no branch in flight, no
  /// pending cross-world control transfer, base frames only.
  bool regionBoundaryClean() const;
  /// Mirrors hoist(Prog.Body)'s recursion over declarations (names and the
  /// full content+position identity of hoisted functions), so the chain
  /// fingerprint covers everything installGlobals+hoist put in scope.
  uint64_t hoistFingerprint() const;
  /// (subtree hash, position hash, NodeID) of one top-level statement.
  uint64_t stmtKeyFor(const Stmt *S) const;
  /// Serializes the region's net effect since the capture began into
  /// Delta. Returns false when the effect is not replayable (a function
  /// value escaped whose FunctionExpr is not a program node, eval parsed
  /// new code, ...).
  bool buildRegionDelta(const struct RegionCaptureState &RC,
                        std::string &Delta);
  /// Validates Delta against the live pre-state and applies it. Returns
  /// false — before mutating anything — when validation fails.
  bool applyRegionDelta(const std::string &Delta);

  // --- Statements ----------------------------------------------------------
  IComp execStmt(const Stmt *S);
  IComp execBlockBody(const std::vector<Stmt *> &Body);
  /// Executes Body[From..]; on an IndetControl abrupt completion,
  /// counterfactually executes the statements it skips.
  IComp execStmtsFrom(const std::vector<Stmt *> &Body, size_t From);
  IComp execIf(const IfStmt *If);
  IComp execLoop(const Stmt *LoopNode, const Expr *Cond, const Stmt *Body,
                 const Expr *Update, bool CondFirst);
  IComp execForIn(const ForInStmt *F);
  IComp execSwitch(const SwitchStmt *Sw);
  void hoist(const std::vector<Stmt *> &Body, EnvRef Env);
  void hoistStmt(const Stmt *S, EnvRef Env);

  // --- Expressions -----------------------------------------------------------
  IRes evalExpr(const Expr *E);
  IRes evalCall(const CallExpr *E);
  IRes evalNew(const NewExpr *E);
  IRes evalMember(const MemberExpr *E);
  IRes evalAssign(const AssignExpr *E);
  IRes evalUpdate(const UpdateExpr *E);
  IRes evalEval(NodeID Site, const std::vector<TaggedValue> &Args,
                ContextID ChildCtx);

  /// Expression-level conditional branches (?:, &&, ||) follow the same
  /// indeterminate-condition discipline as if statements: with an
  /// indeterminate condition, the untaken side is counterfactually evaluated
  /// first, then the taken side is evaluated and its writes marked. When
  /// \p Taken is null the result is \p CondV itself (short-circuit).
  IRes evalBranchExpr(const TaggedValue &CondV, const Expr *Taken,
                      const Expr *Untaken);

  // --- Helpers ----------------------------------------------------------------
  IRes readProperty(const TaggedValue &Base, StringId Name, Det NameDet);
  IComp setPropertyTagged(const TaggedValue &Base, StringId Name,
                          Det NameDet, TaggedValue V);
  IRes callValueTagged(const TaggedValue &Callee, const TaggedValue &ThisV,
                       const std::vector<TaggedValue> &Args,
                       ContextID ChildCtx);
  IRes callClosure(ObjectRef FnObj, Det CalleeDet, const TaggedValue &ThisV,
                   const std::vector<TaggedValue> &Args, ContextID ChildCtx);
  /// Interns the child context for an execution of call site \p Site in the
  /// current activation (bumping its occurrence counter).
  ContextID enterSite(NodeID Site, uint32_t Line);
  IRes resolveKey(const MemberExpr *M, StringId &Key, Det &KeyDet);

  ContextID currentCtx() const { return Frames.back().Ctx; }
  void recordFact(FactKind Kind, NodeID Node, const TaggedValue &TV,
                  uint16_t Index = 0);
  void recordFactAt(FactKind Kind, NodeID Node, ContextID Ctx,
                    const TaggedValue &TV, uint16_t Index = 0);
  void recordFactValue(FactKind Kind, NodeID Node, FactValue FV,
                       uint16_t Index = 0);
  /// Single sink behind the recordFact family: records into the FactDB and,
  /// while a region capture is in flight, mirrors into the region delta.
  void commitFactRecord(const FactKey &K, const FactValue &FV);
  /// Coverage sinks with the same region-capture mirror.
  void noteExecutedStmt(NodeID N) {
    ExecutedStmts.insert(N);
    if (IncCapturing)
      IncStmts.push_back(N);
  }
  void noteExecutedCall(NodeID N) {
    ExecutedCalls.insert(N);
    if (IncCapturing)
      IncCalls.push_back(N);
  }
  /// Per-step governor checkpoint; defined inline because the evaluator
  /// calls it once per AST node.
  bool tick(IComp &C) {
    if (Gov.tickStep())
      return true;
    C = trapCompletion();
    return false;
  }
  /// Renders the governor's latched trip as a typed trap completion.
  IComp trapCompletion();
  /// Sound degradation after a resource trap unwound to the driver: flush
  /// the heap, taint the variable domain, and fill the DegradationReport.
  void degradeAfterTrap(const IComp &C);
  IComp throwString(const std::string &Message);
  Det domDet() const {
    return Opts.DeterminateDom ? Det::Determinate : Det::Indeterminate;
  }
  /// Applies StrictTaint (information-flow ablation) to a to-be-written
  /// value.
  Det taintAdjust(Det D) const {
    return (Opts.StrictTaint && IndetBranchDepth > 0) ? Det::Indeterminate : D;
  }

  Program &Prog;
  AnalysisOptions Opts;
  ResourceGovernor Gov;
  Heap TheHeap;
  EnvArena Envs;
  RNG RandomRng;
  RNG DomRng;
  Journal J;
  /// Undo engine selected at construction (Opts.Undo == Snapshot).
  bool SnapMode = false;
  /// Journal marks of the open snapshot frames, innermost last — a parallel
  /// array to the arenas' frame stacks (one mark per paired heap+env frame).
  /// Frame 0 is the base frame opened at construction so undoSince(0) can
  /// restore the pristine globals.
  std::vector<Journal::Mark> SnapMarks;

  FactDB Facts;
  ContextTable Contexts;
  AnalysisStats Stats;
  /// Dense bitsets: NodeIDs are allocated sequentially per ASTContext, so a
  /// coverage probe per executed statement is a bit test, and iteration is
  /// naturally in the sorted order the serve digest and the seed merge want.
  NodeBitSet ExecutedCalls;
  NodeBitSet ExecutedStmts;

  EnvRef GlobalEnv = 0;
  EnvRef CurrentEnv = 0;
  std::vector<Frame> Frames;
  uint32_t Epoch = 0;
  TrapKind Trap = TrapKind::None;
  DegradationReport Degradation;

  unsigned CfDepth = 0;
  bool CfAbortRequested = false;
  unsigned IndetBranchDepth = 0;
  /// Pending "another execution throws from here": consumed by the
  /// dynamically enclosing try statement (its catch may run in the other
  /// world, and everything until then may be skipped there).
  std::optional<Journal::Mark> CfThrowMark;
  /// Pending "another execution breaks/continues here": consumed by the
  /// dynamically enclosing loop (its remaining iterations may be skipped in
  /// the other world).
  std::optional<Journal::Mark> CfBreakMark;

  ObjectRef ObjectProto = 0;
  ObjectRef StringProto = 0;
  ObjectRef ArrayProto = 0;
  ObjectRef EvalFn = 0;
  ObjectRef WindowObj = 0;
  ObjectRef DocumentObj = 0;

  FlatMap<StringId, ObjectRef> DomElements;
  std::vector<std::pair<StringId, Value>> EventHandlers;

  std::string Output;
  std::string Error;
  TaggedValue LastStmtValue;

  // --- Incremental-replay state --------------------------------------------
  /// A region capture is in flight: the fact/coverage sinks mirror their
  /// commits into IncFacts/IncStmts/IncCalls so the delta can spell them
  /// out (the FactDB itself has no per-region provenance).
  bool IncCapturing = false;
  /// Sticky off-switch: once any region ends abrupt, dirty, or
  /// non-replayable, later regions are neither replayed nor captured (their
  /// reaching state is no longer certified by the chain fingerprint alone).
  bool IncStop = false;
  /// Set by buildRegionDelta when the effect references something summaries
  /// cannot carry across processes.
  bool IncUnserializable = false;
  uint64_t IncChainFp = 0; ///< Chained fingerprint of the replayed history.
  uint64_t IncOptFp = 0;   ///< optionVectorFingerprint + RandomSeed.
  std::vector<std::pair<FactKey, FactValue>> IncFacts;
  std::vector<NodeID> IncStmts, IncCalls;
  /// Program FunctionExprs by NodeID, for serializing escaped function
  /// values as stable IDs (and refusing anything else).
  FlatMap<NodeID, const FunctionExpr *> IncFnIndex;
  /// DomElements keys present when the capture began (additions diff base).
  std::vector<StringId> IncPreDomKeys;
  /// Top-frame SiteCounts when the capture began (changed-entry diff base).
  SiteCountMap IncPreSiteCounts;
};

/// Syntactic vd(s): names assigned anywhere in \p S, not descending into
/// nested function bodies (paper Section 3.1). Exposed for tests.
std::vector<StringId> collectAssignedVars(const Stmt *S);

} // namespace dda

#endif // DDA_DETERMINACY_INSTRUMENTEDINTERPRETER_H
