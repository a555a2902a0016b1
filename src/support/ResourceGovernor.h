//===- ResourceGovernor.h - Unified analysis budgets -------------*- C++ -*-==//
///
/// \file
/// One checkpointed budget authority for everything that can run away:
/// interpreter steps, wall-clock deadline, heap cells, call depth,
/// counterfactual fuel, and eval re-parse depth.
///
/// The governor turns "limit exceeded" from a fatal condition into a
/// *latched trip*: the first budget that trips is recorded (which budget,
/// how much was used, at which checkpoint) and every subsequent checkpoint
/// of an unwinding kind reports the trip again so callers can propagate a
/// trap completion outward without ever losing the original cause. The
/// instrumented analysis pairs a trip with the paper's ĈNTRABORT-style
/// degradation (flush + taint) so the facts it already recorded stay sound;
/// see DESIGN.md "Resource governance".
///
/// Checkpoints are deliberately cheap — a counter increment, a compare, and
/// a branch that is almost always not-taken — so the governor can sit on
/// the interpreter's per-step hot path (EXPERIMENTS.md "Retired
/// micro-benchmarks" records the overhead budget). The wall clock is only
/// sampled every `kDeadlineStride` steps to keep `now()` syscalls off the
/// hot path.
///
/// A deterministic FaultInjector (FaultInjector.h) can be attached to trip
/// any budget at the Nth checkpoint of its class, so every degradation path
/// is drivable from tests without constructing pathological inputs.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_SUPPORT_RESOURCEGOVERNOR_H
#define DDA_SUPPORT_RESOURCEGOVERNOR_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dda {

class FaultInjector;

/// The budget classes the governor meters. Also the checkpoint classes the
/// FaultInjector can target.
enum class Budget : uint8_t {
  Steps,     ///< Interpreter small-steps (statement/expression ticks).
  Deadline,  ///< Wall-clock milliseconds for the whole run.
  HeapCells, ///< Objects allocated in the Heap arena.
  CallDepth, ///< Nested closure invocations.
  CfFuel,    ///< Total counterfactual branch executions per run.
  EvalDepth, ///< Nested eval re-parse/execute levels.
};

/// Stable short name ("steps", "deadline", ...) used by --inject-fault specs
/// and reports.
const char *budgetName(Budget B);

/// How a run ended when it did not end normally. `None` means no trap;
/// `InternalError` is reserved for genuine interpreter bugs (malformed AST,
/// broken invariants) and is the only kind that should be treated as a
/// defect rather than a resource condition.
enum class TrapKind : uint8_t {
  None,
  InternalError,
  StepLimit,
  Deadline,
  HeapLimit,
  CallDepthLimit,
  CfFuelExhausted,
  EvalDepthLimit,
};

/// Human-readable trap name for messages and reports.
const char *trapKindName(TrapKind K);

/// The trap a tripped budget maps to.
TrapKind trapForBudget(Budget B);

/// True for traps caused by a resource budget (everything except None and
/// InternalError).
inline bool isResourceTrap(TrapKind K) {
  return K != TrapKind::None && K != TrapKind::InternalError;
}

/// All limits in one place. Zero means "unlimited" for every field except
/// MaxCallDepth (a hard 0 call depth would make every call fail; callers
/// that want that can still set 1).
struct GovernorLimits {
  uint64_t MaxSteps = 50'000'000;
  uint64_t DeadlineMs = 0;    ///< 0 = no wall-clock deadline.
  uint64_t MaxHeapCells = 0;  ///< 0 = unlimited heap cells.
  unsigned MaxCallDepth = 600;
  uint64_t CfFuel = 0;        ///< 0 = unlimited counterfactual executions.
  unsigned MaxEvalDepth = 64; ///< Nested evals; 0 = unlimited.
};

/// Composes two budget values where 0 means "unlimited": the tighter
/// (smaller nonzero) one wins. The serve layer uses this to fold the
/// service-level watchdog ceiling into every request's own deadline.
uint64_t composeBudget(uint64_t A, uint64_t B);

/// Folds a service-level \p Ceiling into a \p Request's limits, field by
/// field, via composeBudget: a tenant can tighten its own budgets but can
/// never exceed the service ceiling. A zero ceiling field imposes no bound
/// on that budget class.
GovernorLimits composeLimits(const GovernorLimits &Request,
                             const GovernorLimits &Ceiling);

/// What tripped, with enough context to reproduce and report.
struct TripInfo {
  Budget Which = Budget::Steps;
  uint64_t Used = 0;       ///< Amount consumed when the trip fired.
  uint64_t Limit = 0;      ///< The configured limit (0 if injected w/o limit).
  uint64_t Checkpoint = 0; ///< Ordinal of the tripping checkpoint in its class.
  bool Injected = false;   ///< True when a FaultInjector forced the trip.
};

/// One sound-degradation action the analysis took in response to a trip (or
/// to fuel exhaustion). Collected into a DegradationReport.
struct DegradationEvent {
  TrapKind Cause = TrapKind::None;
  /// What was weakened: "cntr-abort", "heap-flush", "env-taint", ...
  std::string Action;
  /// Where (node id / variable names), best effort.
  std::string Detail;
};

/// Structured account of a degraded run: which budget tripped, what the
/// analysis weakened in response, and how much of the run completed. A
/// report with `Trap == TrapKind::None` means the run completed within
/// budget (Events may still record cf-fuel degradations, which never
/// abandon the run).
struct DegradationReport {
  TrapKind Trap = TrapKind::None;
  TripInfo Trip;
  std::vector<DegradationEvent> Events; ///< Capped at kMaxEvents.
  uint64_t EventsTotal = 0;             ///< Including dropped ones.
  uint64_t StepsUsed = 0;
  uint64_t HeapCellsUsed = 0;

  static constexpr size_t kMaxEvents = 32;

  bool degraded() const { return Trap != TrapKind::None || EventsTotal != 0; }
  void addEvent(TrapKind Cause, std::string Action, std::string Detail);
  /// Multi-line human-readable rendering (for ddajs --verbose output).
  std::string str() const;
};

/// The checkpointed budget authority. One instance per interpreter run.
///
/// Checkpoint API (each returns/indicates whether the caller must unwind):
///   - tickStep()        per interpreter small-step; also samples deadline
///                       (strided) and observes latched heap trips.
///   - noteHeapCell()    per Heap::allocate; latches (allocation cannot
///                       fail), observed by the next tickStep.
///   - enterCall()       per closure invocation; tri-state so natural
///                       overflow can keep its catchable-RangeError
///                       semantics while injected trips become traps.
///   - enterEval()       per eval re-parse level.
///   - spendCfFuel()     per counterfactual execution; never unwinds —
///                       exhaustion degrades locally via cntrAbort.
///
/// Once any budget trips, the governor latches: `tripped()` stays true and
/// `trip()` describes the *first* cause.
class ResourceGovernor {
public:
  using Clock = std::chrono::steady_clock;

  explicit ResourceGovernor(const GovernorLimits &L = GovernorLimits());

  /// Attach a deterministic fault injector (not owned; may be null).
  void setInjector(FaultInjector *FI) {
    Injector = FI;
    recomputeArmed();
  }

  /// (Re)start the wall clock. Called once at the top of a run.
  void startClock() { Start = Clock::now(); }

  /// Per-step checkpoint. Returns false when the run must unwind (step
  /// limit, deadline, or a latched heap trip). Hot path.
  bool tickStep() {
    ++Steps;
    if (Steps > Limits.MaxSteps && Limits.MaxSteps != 0)
      return tripNow(Budget::Steps, Steps, Limits.MaxSteps, Steps, false);
    if (Armed)
      return slowTick();
    return true;
  }

  /// Per-allocation checkpoint. Cannot refuse the allocation; latches a
  /// heap trip for the next tickStep to observe. Returns false if the heap
  /// budget is (now) tripped, for callers that can check.
  bool noteHeapCell();

  /// Per-COW-copy checkpoint: a snapshot frame saving a private copy of an
  /// object or environment charges the same heap-cell budget as an
  /// allocation, so snapshots cannot bypass the memory ceiling a
  /// journal-based run respected. Unlike noteHeapCell this is *not* an
  /// injector checkpoint: `--inject-fault heap:N` keeps meaning "the Nth
  /// allocation" regardless of undo engine.
  bool noteCowSave();

  /// Result of a call-depth checkpoint.
  enum class CallGate : uint8_t {
    Ok,       ///< Proceed with the call.
    Overflow, ///< Natural limit hit: surface as a catchable RangeError.
    Trip,     ///< Injected/governed trip: unwind as a trap completion.
  };

  /// Per-call checkpoint, before pushing the frame. On Ok the caller must
  /// pair with exitCall().
  CallGate enterCall();
  void exitCall() { --CallDepth; }

  /// Per-eval checkpoint. Returns false when nesting exceeds the budget
  /// (or an injected trip fires); on true the caller must pair with
  /// exitEval().
  bool enterEval();
  void exitEval() { --EvalDepth; }

  /// Per-counterfactual checkpoint. Returns true when fuel remains; false
  /// means the caller should degrade locally (cntrAbort), not unwind.
  /// Never latches a run-ending trip.
  bool spendCfFuel();

  /// True once any budget (other than cf-fuel) tripped; the run should be
  /// unwinding.
  bool tripped() const { return Tripped; }
  const TripInfo &trip() const { return Trip; }
  TrapKind trapKind() const {
    return Tripped ? trapForBudget(Trip.Which) : TrapKind::None;
  }

  uint64_t stepsUsed() const { return Steps; }
  uint64_t heapCellsUsed() const { return HeapCells; }
  uint64_t cfFuelUsed() const { return CfFuelUsed; }
  uint64_t evalsEntered() const { return EvalsEntered; }
  uint64_t callsEntered() const { return CallsEntered; }
  unsigned callDepth() const { return CallDepth; }
  unsigned evalDepth() const { return EvalDepth; }
  const GovernorLimits &limits() const { return Limits; }

  /// The budget counters at one instant. Incremental region capture diffs
  /// two checkpoints to record a region's governor spend, and refuses to
  /// capture once a budget tripped.
  struct Checkpoint {
    uint64_t Steps = 0;
    uint64_t HeapCells = 0;
    uint64_t CfFuelUsed = 0;
    uint64_t EvalsEntered = 0;
    uint64_t CallsEntered = 0;
    bool HeapTripLatched = false;
    bool Tripped = false;
  };

  Checkpoint checkpoint() const {
    Checkpoint C;
    C.Steps = Steps;
    C.HeapCells = HeapCells;
    C.CfFuelUsed = CfFuelUsed;
    C.EvalsEntered = EvalsEntered;
    C.CallsEntered = CallsEntered;
    C.HeapTripLatched = HeapTripLatched;
    C.Tripped = Tripped;
    return C;
  }

  /// Folds spend observed elsewhere (a replayed region summary, whose
  /// execution was metered when it was captured) into this governor's
  /// counters, so totals match what executing the region would have
  /// consumed. The summary was captured under the same limits without a
  /// trip, so the combined totals stay within them; this never trips.
  void applyExternalSpend(uint64_t DSteps, uint64_t DHeapCells,
                          uint64_t DCfFuel, uint64_t DEvals, uint64_t DCalls) {
    Steps += DSteps;
    HeapCells += DHeapCells;
    CfFuelUsed += DCfFuel;
    EvalsEntered += DEvals;
    CallsEntered += DCalls;
  }

  /// Milliseconds elapsed since startClock().
  uint64_t elapsedMs() const {
    return (uint64_t)std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - Start)
        .count();
  }

  /// Deadline sampling stride, in steps. Public so the overhead benchmark
  /// and tests can reason about it.
  static constexpr uint64_t kDeadlineStride = 4096;

private:
  bool slowTick();
  bool tripNow(Budget B, uint64_t Used, uint64_t Limit, uint64_t Checkpoint,
               bool Injected);
  void recomputeArmed();

  GovernorLimits Limits;
  FaultInjector *Injector = nullptr;
  Clock::time_point Start = Clock::now();

  uint64_t Steps = 0;
  uint64_t HeapCells = 0;
  uint64_t CfFuelUsed = 0;
  uint64_t EvalsEntered = 0;
  uint64_t CallsEntered = 0;
  unsigned CallDepth = 0;
  unsigned EvalDepth = 0;

  /// True when the strided slow path must run: a deadline is set, an
  /// injector is armed, or a heap trip is latched.
  bool Armed = false;
  bool HeapTripLatched = false;
  bool HeapTripInjected = false;
  bool Tripped = false;
  TripInfo Trip;
};

} // namespace dda

#endif // DDA_SUPPORT_RESOURCEGOVERNOR_H
