//===- Interpreter.cpp ----------------------------------------------------==//

#include "interp/Interpreter.h"

#include "ast/ASTPrinter.h"
#include "interp/Ops.h"
#include "parser/Parser.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace dda;

Interpreter::Interpreter(Program &P, InterpOptions Options)
    : Prog(P), Opts(Options), Gov(Options.governorLimits()),
      RandomRng(Options.RandomSeed), DomRng(Options.DomSeed) {
  Gov.setInjector(Opts.Injector);
  installGlobals();
  // Builtin setup above is free; only program-driven allocations count.
  TheHeap.setGovernor(&Gov);
}

Interpreter::~Interpreter() = default;

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

ObjectRef Interpreter::makeNative(NativeFn Fn) {
  ObjectRef Ref = TheHeap.allocate(ObjectClass::Native);
  TheHeap.get(Ref).Native = Fn;
  return Ref;
}

ObjectRef Interpreter::makeFunction(const FunctionExpr *Fn, EnvRef Closure) {
  ObjectRef Ref = TheHeap.allocate(ObjectClass::Function, Fn->getID());
  JSObject &O = TheHeap.get(Ref);
  O.Fn = Fn;
  O.Closure = Closure;
  // Eagerly create the .prototype object so `new` and method definitions on
  // Fn.prototype work.
  ObjectRef ProtoObj = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ProtoObj).Proto = ObjectProto;
  TheHeap.get(ProtoObj).set(atoms().Constructor, Slot{Value::object(Ref)});
  TheHeap.get(Ref).set(atoms().Prototype, Slot{Value::object(ProtoObj)});
  return Ref;
}

void Interpreter::installGlobals() {
  GlobalEnv = Envs.allocate(0);
  CurrentEnv = GlobalEnv;

  ObjectProto = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ObjectProto)
      .set(intern("hasOwnProperty"),
           Slot{Value::object(makeNative(NativeFn::ObjHasOwnProperty))});

  StringProto = TheHeap.allocate(ObjectClass::Plain);
  auto AddStringMethod = [&](const char *Name, NativeFn Fn) {
    TheHeap.get(StringProto)
        .set(intern(Name), Slot{Value::object(makeNative(Fn))});
  };
  AddStringMethod("charAt", NativeFn::StrCharAt);
  AddStringMethod("charCodeAt", NativeFn::StrCharCodeAt);
  AddStringMethod("toUpperCase", NativeFn::StrToUpperCase);
  AddStringMethod("toLowerCase", NativeFn::StrToLowerCase);
  AddStringMethod("substr", NativeFn::StrSubstr);
  AddStringMethod("substring", NativeFn::StrSubstring);
  AddStringMethod("indexOf", NativeFn::StrIndexOf);
  AddStringMethod("slice", NativeFn::StrSlice);
  AddStringMethod("split", NativeFn::StrSplit);
  AddStringMethod("concat", NativeFn::StrConcat);
  AddStringMethod("replace", NativeFn::StrReplace);

  ArrayProto = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ArrayProto).Proto = ObjectProto;
  auto AddArrayMethod = [&](const char *Name, NativeFn Fn) {
    TheHeap.get(ArrayProto)
        .set(intern(Name), Slot{Value::object(makeNative(Fn))});
  };
  AddArrayMethod("push", NativeFn::ArrPush);
  AddArrayMethod("pop", NativeFn::ArrPop);
  AddArrayMethod("shift", NativeFn::ArrShift);
  AddArrayMethod("join", NativeFn::ArrJoin);
  AddArrayMethod("indexOf", NativeFn::ArrIndexOf);
  AddArrayMethod("slice", NativeFn::ArrSlice);
  AddArrayMethod("concat", NativeFn::ArrConcat);

  Environment &G = Envs.get(GlobalEnv);
  auto DefineGlobal = [&](const char *Name, Value V) {
    G.Vars[intern(Name)] = Binding{std::move(V), Det::Determinate};
  };

  // Math.
  ObjectRef MathObj = TheHeap.allocate(ObjectClass::Plain);
  auto AddMath = [&](const char *Name, NativeFn Fn) {
    TheHeap.get(MathObj).set(intern(Name),
                             Slot{Value::object(makeNative(Fn))});
  };
  AddMath("random", NativeFn::MathRandom);
  AddMath("floor", NativeFn::MathFloor);
  AddMath("ceil", NativeFn::MathCeil);
  AddMath("round", NativeFn::MathRound);
  AddMath("abs", NativeFn::MathAbs);
  AddMath("max", NativeFn::MathMax);
  AddMath("min", NativeFn::MathMin);
  AddMath("pow", NativeFn::MathPow);
  AddMath("sqrt", NativeFn::MathSqrt);
  DefineGlobal("Math", Value::object(MathObj));

  // console.
  ObjectRef ConsoleObj = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ConsoleObj)
      .set(intern("log"), Slot{Value::object(makeNative(NativeFn::Print))});
  DefineGlobal("console", Value::object(ConsoleObj));
  DefineGlobal("alert", Value::object(makeNative(NativeFn::Print)));
  DefineGlobal("print", Value::object(makeNative(NativeFn::Print)));

  // Global utilities.
  DefineGlobal("parseInt", Value::object(makeNative(NativeFn::ParseInt)));
  DefineGlobal("parseFloat", Value::object(makeNative(NativeFn::ParseFloat)));
  DefineGlobal("isNaN", Value::object(makeNative(NativeFn::IsNaN)));
  DefineGlobal("String", Value::object(makeNative(NativeFn::StringCtor)));
  DefineGlobal("Number", Value::object(makeNative(NativeFn::NumberCtor)));
  DefineGlobal("Boolean", Value::object(makeNative(NativeFn::BooleanCtor)));
  EvalFn = makeNative(NativeFn::Eval);
  DefineGlobal("eval", Value::object(EvalFn));

  // String.prototype is reachable for monkey-patching (paper Figure 3 adds
  // String.prototype.cap); expose it via the String constructor object.
  TheHeap.get(EvalFn); // (no-op; keeps object ids stable across edits)
  // The String global is a native function object; give it a prototype prop.
  Binding *StringB = Envs.lookup(GlobalEnv, intern("String"));
  TheHeap.get(StringB->V.Obj)
      .set(atoms().Prototype, Slot{Value::object(StringProto)});
  Binding *NumberB = Envs.lookup(GlobalEnv, intern("Number"));
  (void)NumberB;

  // Object global with Object.keys and Object.prototype.
  ObjectRef ObjectCtor = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ObjectCtor)
      .set(intern("keys"), Slot{Value::object(makeNative(NativeFn::ObjKeys))});
  TheHeap.get(ObjectCtor)
      .set(atoms().Prototype, Slot{Value::object(ObjectProto)});
  DefineGlobal("Object", Value::object(ObjectCtor));

  ObjectRef ArrayCtor = TheHeap.allocate(ObjectClass::Plain);
  TheHeap.get(ArrayCtor).set(atoms().Prototype,
                             Slot{Value::object(ArrayProto)});
  DefineGlobal("Array", Value::object(ArrayCtor));

  // DOM: window is a plain object (absent properties read as undefined, so
  // idioms like `window.ivymap || {}` behave); document is a DOM object whose
  // unwritten properties read as synthetic environment content.
  WindowObj = TheHeap.allocate(ObjectClass::Plain);
  DocumentObj = TheHeap.allocate(ObjectClass::Dom);
  JSObject &Doc = TheHeap.get(DocumentObj);
  Doc.set(intern("getElementById"),
          Slot{Value::object(makeNative(NativeFn::DomGetElementById))});
  Doc.set(intern("createElement"),
          Slot{Value::object(makeNative(NativeFn::DomCreateElement))});
  Doc.set(intern("write"),
          Slot{Value::object(makeNative(NativeFn::DomWrite))});
  Doc.set(intern("addEventListener"),
          Slot{Value::object(makeNative(NativeFn::DomAddEventListener))});
  JSObject &Win = TheHeap.get(WindowObj);
  Win.set(intern("document"), Slot{Value::object(DocumentObj)});
  Win.set(intern("addEventListener"),
          Slot{Value::object(makeNative(NativeFn::DomAddEventListener))});
  DefineGlobal("window", Value::object(WindowObj));
  DefineGlobal("document", Value::object(DocumentObj));
  DefineGlobal("undefined", Value::undefined());
}

//===----------------------------------------------------------------------===//
// NativeHost
//===----------------------------------------------------------------------===//

void Interpreter::nativeWriteProperty(ObjectRef O, StringId Name,
                                      TaggedValue TV) {
  TheHeap.get(O).set(Name, Slot{std::move(TV.V), TV.D, 0});
}

TaggedValue Interpreter::nativeReadProperty(ObjectRef O, StringId Name) {
  const Slot *S = TheHeap.get(O).get(Name);
  if (!S)
    return TaggedValue(Value::undefined());
  return TaggedValue(S->V, S->D);
}

void Interpreter::output(const std::string &Text) {
  Output += Text;
  Output += '\n';
}

void Interpreter::registerEventHandler(StringId Event, Value Handler) {
  EventHandlers.emplace_back(Event, std::move(Handler));
}

ObjectRef Interpreter::domElement(StringId Key) {
  auto It = DomElements.find(Key);
  if (It != DomElements.end())
    return It->second;
  ObjectRef El = TheHeap.allocate(ObjectClass::Dom);
  JSObject &O = TheHeap.get(El);
  O.set(intern("getAttribute"),
        Slot{Value::object(makeNative(NativeFn::DomGetAttribute))});
  O.set(intern("setAttribute"),
        Slot{Value::object(makeNative(NativeFn::DomSetAttribute))});
  O.set(intern("appendChild"),
        Slot{Value::object(makeNative(NativeFn::DomAppendChild))});
  O.set(intern("addEventListener"),
        Slot{Value::object(makeNative(NativeFn::DomAddEventListener))});
  DomElements.emplace(Key, El);
  return El;
}

ObjectRef Interpreter::newArray() {
  ObjectRef Arr = TheHeap.allocate(ObjectClass::Array);
  TheHeap.get(Arr).Proto = ArrayProto;
  return Arr;
}

Det Interpreter::recordSetDeterminacy(ObjectRef) { return Det::Determinate; }

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

bool Interpreter::run() {
  Gov.startClock();
  CurrentEnv = GlobalEnv;
  CurrentThis = Value::object(WindowObj);
  hoist(Prog.Body, GlobalEnv);
  Completion C = execBlockBody(Prog.Body);
  if (C.K == Completion::Throw) {
    Error = "uncaught exception: " + toStringValue(C.V, TheHeap);
    return false;
  }
  if (C.K == Completion::Fatal) {
    Error = toStringValue(C.V, TheHeap);
    Trap = C.Trap;
    return false;
  }

  if (Opts.RunEventHandlers) {
    // Only "ready"/"load" handlers fire in this synthetic environment;
    // handlers for other events model the paper's *unexercised* handlers
    // (statically reachable, dynamically never covered).
    std::vector<std::pair<StringId, Value>> Firable;
    for (auto &H : EventHandlers)
      if (H.first == atoms().Ready || H.first == atoms().Load)
        Firable.push_back(H);
    EventHandlers = std::move(Firable);
    size_t Fired = 0;
    while (Fired < EventHandlers.size()) {
      // Choose the next handler among the unfired ones.
      size_t Remaining = EventHandlers.size() - Fired;
      size_t Pick = Opts.ShuffleEventHandlers
                        ? Fired + DomRng.nextBelow(Remaining)
                        : Fired;
      std::swap(EventHandlers[Fired], EventHandlers[Pick]);
      Value Handler = EventHandlers[Fired].second;
      StringId EventName = EventHandlers[Fired].first;
      ++Fired;
      std::vector<Value> Args = {Value::atom(EventName)};
      EvalResult R = callValue(Handler, Value::object(DocumentObj), Args);
      if (R.C.K == Completion::Throw) {
        Error = "uncaught exception in event handler: " +
                toStringValue(R.C.V, TheHeap);
        return false;
      }
      if (R.C.K == Completion::Fatal) {
        Error = toStringValue(R.C.V, TheHeap);
        Trap = R.C.Trap;
        return false;
      }
    }
  }
  return true;
}


static bool isBuiltinGlobalName(const std::string &Name) {
  static const char *Builtins[] = {
      "Math",   "console", "alert",    "print",  "parseInt", "parseFloat",
      "isNaN",  "String",  "Number",   "Boolean", "eval",    "Object",
      "Array",  "window",  "document", "undefined"};
  for (const char *B : Builtins)
    if (Name == B)
      return true;
  return false;
}

Value Interpreter::globalVariable(const std::string &Name) {
  Binding *B = Envs.lookup(GlobalEnv, intern(Name));
  return B ? B->V : Value::undefined();
}

std::vector<std::string> Interpreter::userGlobalNames() {
  std::vector<std::string> Names;
  for (const auto &[Name, B] : Envs.get(GlobalEnv).Vars) {
    std::string Text(atomText(Name));
    if (!isBuiltinGlobalName(Text))
      Names.push_back(std::move(Text));
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

Value Interpreter::property(const Value &Base, const std::string &Name) {
  EvalResult R = getProperty(Base, intern(Name));
  return R.abrupt() ? Value::undefined() : R.V;
}

/// Renders the governor's latched trip as a typed trap completion. The
/// step-limit message text is load-bearing: callers historically matched
/// on "step limit".
Completion Interpreter::trapCompletion() {
  TrapKind K = Gov.trapKind();
  std::string Msg;
  switch (K) {
  case TrapKind::StepLimit:
    Msg = "step limit exceeded";
    break;
  case TrapKind::Deadline:
    Msg = "deadline exceeded";
    break;
  case TrapKind::HeapLimit:
    Msg = "heap cell limit exceeded";
    break;
  case TrapKind::CallDepthLimit:
    Msg = "call depth limit exceeded";
    break;
  case TrapKind::EvalDepthLimit:
    Msg = "eval depth limit exceeded";
    break;
  default:
    return Completion::fatal("governor trap without a tripped budget");
  }
  if (Gov.trip().Injected)
    Msg += " (injected)";
  return Completion::trap(K, std::move(Msg));
}

Completion Interpreter::throwTypeError(const std::string &Message) {
  return Completion::thrown(Value::string("TypeError: " + Message));
}

//===----------------------------------------------------------------------===//
// Hoisting
//===----------------------------------------------------------------------===//

void Interpreter::hoistStmt(const Stmt *S, EnvRef Env) {
  Environment &E = Envs.get(Env);
  switch (S->getKind()) {
  case NodeKind::VarDeclStmt:
    for (const auto &D : cast<VarDeclStmt>(S)->getDeclarators())
      if (!E.Vars.count(D.Atom))
        E.Vars[D.Atom] = Binding{Value::undefined(), Det::Determinate};
    return;
  case NodeKind::FunctionDeclStmt: {
    const FunctionExpr *Fn = cast<FunctionDeclStmt>(S)->getFunction();
    ObjectRef FnObj = makeFunction(Fn, Env);
    E.Vars[Fn->getNameAtom()] =
        Binding{Value::object(FnObj), Det::Determinate};
    return;
  }
  case NodeKind::BlockStmt:
    for (const Stmt *Inner : cast<BlockStmt>(S)->getBody())
      hoistStmt(Inner, Env);
    return;
  case NodeKind::IfStmt:
    hoistStmt(cast<IfStmt>(S)->getThen(), Env);
    if (const Stmt *Else = cast<IfStmt>(S)->getElse())
      hoistStmt(Else, Env);
    return;
  case NodeKind::WhileStmt:
    hoistStmt(cast<WhileStmt>(S)->getBody(), Env);
    return;
  case NodeKind::DoWhileStmt:
    hoistStmt(cast<DoWhileStmt>(S)->getBody(), Env);
    return;
  case NodeKind::ForStmt:
    if (const Stmt *Init = cast<ForStmt>(S)->getInit())
      hoistStmt(Init, Env);
    hoistStmt(cast<ForStmt>(S)->getBody(), Env);
    return;
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(S);
    if (F->declaresVar() && !E.Vars.count(F->getVarAtom()))
      E.Vars[F->getVarAtom()] = Binding{Value::undefined(), Det::Determinate};
    hoistStmt(F->getBody(), Env);
    return;
  }
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    hoistStmt(T->getBlock(), Env);
    if (T->getCatchBlock())
      hoistStmt(T->getCatchBlock(), Env);
    if (T->getFinallyBlock())
      hoistStmt(T->getFinallyBlock(), Env);
    return;
  }
  case NodeKind::SwitchStmt:
    for (const auto &Clause : cast<SwitchStmt>(S)->getClauses())
      for (const Stmt *Inner : Clause.Body)
        hoistStmt(Inner, Env);
    return;
  default:
    return;
  }
}

void Interpreter::hoist(const std::vector<Stmt *> &Body, EnvRef Env) {
  for (const Stmt *S : Body)
    hoistStmt(S, Env);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Completion Interpreter::execBlockBody(const std::vector<Stmt *> &Body) {
  for (const Stmt *S : Body) {
    Completion C = execStmt(S);
    if (C.isAbrupt())
      return C;
  }
  return Completion::normal();
}

Completion Interpreter::execStmt(const Stmt *S) {
  Completion Tick;
  if (!tick(Tick))
    return Tick;

  switch (S->getKind()) {
  case NodeKind::ExpressionStmt: {
    EvalResult R = evalExpr(cast<ExpressionStmt>(S)->getExpr());
    if (R.abrupt())
      return R.C;
    LastStmtValue = R.V;
    return Completion::normal();
  }
  case NodeKind::VarDeclStmt: {
    for (const auto &D : cast<VarDeclStmt>(S)->getDeclarators()) {
      if (!D.Init)
        continue;
      EvalResult R = evalExpr(D.Init);
      if (R.abrupt())
        return R.C;
      // The variable was hoisted into the nearest function scope.
      Binding *B = Envs.lookup(CurrentEnv, D.Atom);
      if (B)
        B->V = R.V;
      else {
        Envs.get(GlobalEnv).Vars[D.Atom] = Binding{R.V, Det::Determinate};
      }
    }
    return Completion::normal();
  }
  case NodeKind::FunctionDeclStmt:
    return Completion::normal(); // Bound during hoisting.
  case NodeKind::BlockStmt:
    return execBlockBody(cast<BlockStmt>(S)->getBody());
  case NodeKind::IfStmt: {
    const auto *If = cast<IfStmt>(S);
    EvalResult Cond = evalExpr(If->getCond());
    if (Cond.abrupt())
      return Cond.C;
    if (toBoolean(Cond.V))
      return execStmt(If->getThen());
    if (If->getElse())
      return execStmt(If->getElse());
    return Completion::normal();
  }
  case NodeKind::WhileStmt: {
    const auto *W = cast<WhileStmt>(S);
    for (;;) {
      Completion T;
      if (!tick(T))
        return T;
      EvalResult Cond = evalExpr(W->getCond());
      if (Cond.abrupt())
        return Cond.C;
      if (!toBoolean(Cond.V))
        return Completion::normal();
      Completion C = execStmt(W->getBody());
      if (C.K == Completion::Break)
        return Completion::normal();
      if (C.K == Completion::Continue)
        continue;
      if (C.isAbrupt())
        return C;
    }
  }
  case NodeKind::DoWhileStmt: {
    const auto *W = cast<DoWhileStmt>(S);
    for (;;) {
      Completion T;
      if (!tick(T))
        return T;
      Completion C = execStmt(W->getBody());
      if (C.K == Completion::Break)
        return Completion::normal();
      if (C.isAbrupt() && C.K != Completion::Continue)
        return C;
      EvalResult Cond = evalExpr(W->getCond());
      if (Cond.abrupt())
        return Cond.C;
      if (!toBoolean(Cond.V))
        return Completion::normal();
    }
  }
  case NodeKind::ForStmt: {
    const auto *F = cast<ForStmt>(S);
    if (F->getInit()) {
      Completion C = execStmt(F->getInit());
      if (C.isAbrupt())
        return C;
    }
    for (;;) {
      Completion T;
      if (!tick(T))
        return T;
      if (F->getCond()) {
        EvalResult Cond = evalExpr(F->getCond());
        if (Cond.abrupt())
          return Cond.C;
        if (!toBoolean(Cond.V))
          return Completion::normal();
      }
      Completion C = execStmt(F->getBody());
      if (C.K == Completion::Break)
        return Completion::normal();
      if (C.isAbrupt() && C.K != Completion::Continue)
        return C;
      if (F->getUpdate()) {
        EvalResult U = evalExpr(F->getUpdate());
        if (U.abrupt())
          return U.C;
      }
    }
  }
  case NodeKind::ForInStmt: {
    const auto *F = cast<ForInStmt>(S);
    EvalResult Obj = evalExpr(F->getObject());
    if (Obj.abrupt())
      return Obj.C;
    if (!Obj.V.isObject())
      return Completion::normal();
    std::vector<StringId> Keys = TheHeap.get(Obj.V.Obj).ownKeys();
    for (StringId Key : Keys) {
      if (!TheHeap.get(Obj.V.Obj).has(Key))
        continue; // Deleted during iteration.
      Binding *B = Envs.lookup(CurrentEnv, F->getVarAtom());
      if (B)
        B->V = Value::atom(Key);
      else {
        Envs.get(GlobalEnv).Vars[F->getVarAtom()] =
            Binding{Value::atom(Key), Det::Determinate};
      }
      Completion C = execStmt(F->getBody());
      if (C.K == Completion::Break)
        return Completion::normal();
      if (C.isAbrupt() && C.K != Completion::Continue)
        return C;
    }
    return Completion::normal();
  }
  case NodeKind::ReturnStmt: {
    const auto *R = cast<ReturnStmt>(S);
    if (!R->getArg())
      return Completion::ret(Value::undefined());
    EvalResult V = evalExpr(R->getArg());
    if (V.abrupt())
      return V.C;
    return Completion::ret(V.V);
  }
  case NodeKind::BreakStmt:
    return {Completion::Break, Value()};
  case NodeKind::ContinueStmt:
    return {Completion::Continue, Value()};
  case NodeKind::ThrowStmt: {
    EvalResult V = evalExpr(cast<ThrowStmt>(S)->getArg());
    if (V.abrupt())
      return V.C;
    return Completion::thrown(V.V);
  }
  case NodeKind::TryStmt: {
    const auto *T = cast<TryStmt>(S);
    Completion C = execStmt(T->getBlock());
    if (C.K == Completion::Throw && T->getCatchBlock()) {
      // Catch parameter gets a fresh scope.
      EnvRef CatchEnv = Envs.allocate(CurrentEnv);
      Envs.get(CatchEnv).Vars[T->getCatchAtom()] =
          Binding{C.V, Det::Determinate};
      EnvRef Saved = CurrentEnv;
      CurrentEnv = CatchEnv;
      C = execStmt(T->getCatchBlock());
      CurrentEnv = Saved;
    }
    if (T->getFinallyBlock()) {
      Completion F = execStmt(T->getFinallyBlock());
      if (F.isAbrupt())
        return F; // finally overrides.
    }
    return C;
  }
  case NodeKind::EmptyStmt:
    return Completion::normal();
  case NodeKind::SwitchStmt: {
    const auto *Sw = cast<SwitchStmt>(S);
    EvalResult Disc = evalExpr(Sw->getDisc());
    if (Disc.abrupt())
      return Disc.C;
    // Case tests evaluate in order until a strict-equality match; the
    // default clause is chosen only if nothing matches.
    const auto &Clauses = Sw->getClauses();
    size_t Selected = Clauses.size();
    for (size_t I = 0; I < Clauses.size(); ++I) {
      if (!Clauses[I].Test)
        continue;
      EvalResult T = evalExpr(Clauses[I].Test);
      if (T.abrupt())
        return T.C;
      if (strictEquals(Disc.V, T.V)) {
        Selected = I;
        break;
      }
    }
    if (Selected == Clauses.size())
      for (size_t I = 0; I < Clauses.size(); ++I)
        if (!Clauses[I].Test) {
          Selected = I;
          break;
        }
    // Fall through from the selected clause until break.
    for (size_t I = Selected; I < Clauses.size(); ++I) {
      Completion C = execBlockBody(Clauses[I].Body);
      if (C.K == Completion::Break)
        return Completion::normal();
      if (C.isAbrupt())
        return C;
    }
    return Completion::normal();
  }
  default:
    return Completion::fatal("expression node in statement position");
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

StringId Interpreter::propertyKey(const Value &V) {
  return toStringAtom(V, TheHeap);
}

EvalResult Interpreter::getProperty(const Value &Base, StringId Name) {
  switch (Base.Kind) {
  case ValueKind::Undefined:
  case ValueKind::Null:
    return EvalResult::abruptly(throwTypeError(
        "cannot read property '" + Interner::global().str(Name) + "' of " +
        (Base.isNull() ? "null" : "undefined")));
  case ValueKind::String: {
    std::string_view Chars = Base.strView();
    if (Name == atoms().Length)
      return EvalResult::value(
          Value::number(static_cast<double>(Chars.size())));
    // Numeric index: precomputed at intern time, no digit re-parse.
    uint32_t I = Interner::global().arrayIndex(Name);
    if (I != Interner::NotAnIndex && I < Chars.size())
      return EvalResult::value(
          Value::atom(Interner::global().internChar(Chars[I])));
    const Slot *S = TheHeap.get(StringProto).get(Name);
    return EvalResult::value(S ? S->V : Value::undefined());
  }
  case ValueKind::Number:
  case ValueKind::Boolean:
    return EvalResult::value(Value::undefined());
  case ValueKind::Object: {
    ObjectRef O = Base.Obj;
    while (O) {
      JSObject &Obj = TheHeap.get(O);
      if (const Slot *S = Obj.get(Name))
        return EvalResult::value(S->V);
      if (Obj.Class == ObjectClass::Dom && O == Base.Obj) {
        // Unwritten DOM property: synthetic environment content.
        return EvalResult::value(
            domSyntheticValue(Opts.DomSeed, O, Name));
      }
      O = Obj.Proto;
    }
    return EvalResult::value(Value::undefined());
  }
  }
  return EvalResult::value(Value::undefined());
}

Completion Interpreter::setProperty(const Value &Base, StringId Name,
                                    Value V) {
  if (!Base.isObject())
    return throwTypeError("cannot set property '" +
                          Interner::global().str(Name) + "' on a non-object");
  JSObject &O = TheHeap.get(Base.Obj);
  O.set(Name, Slot{std::move(V), Det::Determinate, 0});
  // Keep array length in sync with index writes.
  if (O.Class == ObjectClass::Array) {
    uint32_t I = Interner::global().arrayIndex(Name);
    if (I != Interner::NotAnIndex) {
      const Slot *Len = O.get(atoms().Length);
      double N = Len && Len->V.isNumber() ? Len->V.Num : 0;
      if (I + 1 > N)
        O.set(atoms().Length, Slot{Value::number(I + 1.0)});
    }
  }
  return Completion::normal();
}

EvalResult Interpreter::evalExpr(const Expr *E) {
  Completion Tick;
  if (!tick(Tick))
    return EvalResult::abruptly(Tick);

  switch (E->getKind()) {
  case NodeKind::NumberLiteral:
    return EvalResult::value(Value::number(cast<NumberLiteral>(E)->getValue()));
  case NodeKind::StringLiteral:
    return EvalResult::value(Value::atom(cast<StringLiteral>(E)->getAtom()));
  case NodeKind::BooleanLiteral:
    return EvalResult::value(
        Value::boolean(cast<BooleanLiteral>(E)->getValue()));
  case NodeKind::NullLiteral:
    return EvalResult::value(Value::null());
  case NodeKind::UndefinedLiteral:
    return EvalResult::value(Value::undefined());
  case NodeKind::This:
    return EvalResult::value(CurrentThis);
  case NodeKind::Identifier: {
    const auto *Id = cast<Identifier>(E);
    Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
    if (!B)
      return EvalResult::abruptly(Completion::thrown(Value::string(
          "ReferenceError: " + Id->getName() + " is not defined")));
    return EvalResult::value(B->V);
  }
  case NodeKind::ArrayLiteral: {
    const auto *A = cast<ArrayLiteral>(E);
    ObjectRef Arr = TheHeap.allocate(ObjectClass::Array, A->getID());
    TheHeap.get(Arr).Proto = ArrayProto;
    size_t N = A->getElements().size();
    for (size_t I = 0; I < N; ++I) {
      EvalResult R = evalExpr(A->getElements()[I]);
      if (R.abrupt())
        return R;
      TheHeap.get(Arr).set(Interner::global().internIndex(I), Slot{R.V});
    }
    TheHeap.get(Arr).set(atoms().Length,
                         Slot{Value::number(static_cast<double>(N))});
    return EvalResult::value(Value::object(Arr));
  }
  case NodeKind::ObjectLiteral: {
    const auto *OL = cast<ObjectLiteral>(E);
    ObjectRef O = TheHeap.allocate(ObjectClass::Plain, OL->getID());
    TheHeap.get(O).Proto = ObjectProto;
    for (const auto &P : OL->getProperties()) {
      EvalResult R = evalExpr(P.Value);
      if (R.abrupt())
        return R;
      TheHeap.get(O).set(P.KeyAtom, Slot{R.V});
    }
    return EvalResult::value(Value::object(O));
  }
  case NodeKind::Function: {
    const auto *F = cast<FunctionExpr>(E);
    ObjectRef FnObj = makeFunction(F, CurrentEnv);
    // Named function expressions can refer to themselves; bind the name in a
    // small wrapper scope captured by the closure.
    if (!F->getName().empty()) {
      EnvRef Wrapper = Envs.allocate(CurrentEnv);
      Envs.get(Wrapper).Vars[F->getNameAtom()] =
          Binding{Value::object(FnObj), Det::Determinate};
      TheHeap.get(FnObj).Closure = Wrapper;
    }
    return EvalResult::value(Value::object(FnObj));
  }
  case NodeKind::Member:
    return evalMember(cast<MemberExpr>(E));
  case NodeKind::Call:
    return evalCall(cast<CallExpr>(E));
  case NodeKind::New:
    return evalNew(cast<NewExpr>(E));
  case NodeKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->getOp() == UnaryOp::Delete) {
      const auto *M = dyn_cast<MemberExpr>(U->getOperand());
      if (!M)
        return EvalResult::value(Value::boolean(false));
      EvalResult Base = evalExpr(M->getObject());
      if (Base.abrupt())
        return Base;
      StringId Key;
      if (M->isComputed()) {
        EvalResult I = evalExpr(M->getIndex());
        if (I.abrupt())
          return I;
        Key = propertyKey(I.V);
      } else {
        Key = M->getPropertyAtom();
      }
      if (!Base.V.isObject())
        return EvalResult::value(Value::boolean(true));
      return EvalResult::value(
          Value::boolean(TheHeap.get(Base.V.Obj).erase(Key)));
    }
    if (U->getOp() == UnaryOp::Typeof) {
      // typeof tolerates undeclared identifiers.
      if (const auto *Id = dyn_cast<Identifier>(U->getOperand())) {
        Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
        if (!B)
          return EvalResult::value(Value::atom(atoms().Undefined));
        return EvalResult::value(
            Value::string(typeofString(B->V, TheHeap)));
      }
    }
    EvalResult R = evalExpr(U->getOperand());
    if (R.abrupt())
      return R;
    switch (U->getOp()) {
    case UnaryOp::Not:
      return EvalResult::value(Value::boolean(!toBoolean(R.V)));
    case UnaryOp::Minus:
      return EvalResult::value(Value::number(-toNumber(R.V)));
    case UnaryOp::Plus:
      return EvalResult::value(Value::number(toNumber(R.V)));
    case UnaryOp::Typeof:
      return EvalResult::value(Value::string(typeofString(R.V, TheHeap)));
    case UnaryOp::Void:
      return EvalResult::value(Value::undefined());
    case UnaryOp::Delete:
      return EvalResult::value(Value::boolean(true));
    }
    return EvalResult::value(Value::undefined());
  }
  case NodeKind::Update:
    return evalUpdate(cast<UpdateExpr>(E));
  case NodeKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    EvalResult L = evalExpr(B->getLHS());
    if (L.abrupt())
      return L;
    EvalResult R = evalExpr(B->getRHS());
    if (R.abrupt())
      return R;
    if (B->getOp() == BinaryOp::In) {
      if (!R.V.isObject())
        return EvalResult::abruptly(
            throwTypeError("'in' requires an object"));
      StringId Key = propertyKey(L.V);
      for (ObjectRef O = R.V.Obj; O; O = TheHeap.get(O).Proto)
        if (TheHeap.get(O).has(Key))
          return EvalResult::value(Value::boolean(true));
      return EvalResult::value(Value::boolean(false));
    }
    if (B->getOp() == BinaryOp::Instanceof) {
      if (!R.V.isObject())
        return EvalResult::abruptly(
            throwTypeError("'instanceof' requires a function"));
      EvalResult Proto = getProperty(R.V, atoms().Prototype);
      if (Proto.abrupt())
        return Proto;
      if (!L.V.isObject() || !Proto.V.isObject())
        return EvalResult::value(Value::boolean(false));
      for (ObjectRef O = TheHeap.get(L.V.Obj).Proto; O;
           O = TheHeap.get(O).Proto)
        if (O == Proto.V.Obj)
          return EvalResult::value(Value::boolean(true));
      return EvalResult::value(Value::boolean(false));
    }
    return EvalResult::value(applyBinaryOp(B->getOp(), L.V, R.V, TheHeap));
  }
  case NodeKind::Logical: {
    const auto *L = cast<LogicalExpr>(E);
    EvalResult LHS = evalExpr(L->getLHS());
    if (LHS.abrupt())
      return LHS;
    bool Truthy = toBoolean(LHS.V);
    if (L->isAnd() ? !Truthy : Truthy)
      return LHS;
    return evalExpr(L->getRHS());
  }
  case NodeKind::Assign:
    return evalAssign(cast<AssignExpr>(E));
  case NodeKind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    EvalResult Cond = evalExpr(C->getCond());
    if (Cond.abrupt())
      return Cond;
    return evalExpr(toBoolean(Cond.V) ? C->getThen() : C->getElse());
  }
  default:
    return EvalResult::abruptly(
        Completion::fatal("statement node in expression position"));
  }
}

EvalResult Interpreter::evalMember(const MemberExpr *E) {
  EvalResult Base = evalExpr(E->getObject());
  if (Base.abrupt())
    return Base;
  StringId Key;
  if (E->isComputed()) {
    EvalResult I = evalExpr(E->getIndex());
    if (I.abrupt())
      return I;
    Key = propertyKey(I.V);
  } else {
    Key = E->getPropertyAtom();
  }
  return getProperty(Base.V, Key);
}

EvalResult Interpreter::evalAssign(const AssignExpr *E) {
  // Compute the new value; for compound assignment, read-modify-write.
  auto Compute = [&](const Value &Old, bool &Failed,
                     Completion &C) -> Value {
    EvalResult R = evalExpr(E->getValue());
    if (R.abrupt()) {
      Failed = true;
      C = R.C;
      return Value::undefined();
    }
    if (E->getOp() == AssignOp::Assign)
      return R.V;
    BinaryOp Op;
    switch (E->getOp()) {
    case AssignOp::Add:
      Op = BinaryOp::Add;
      break;
    case AssignOp::Sub:
      Op = BinaryOp::Sub;
      break;
    case AssignOp::Mul:
      Op = BinaryOp::Mul;
      break;
    case AssignOp::Div:
      Op = BinaryOp::Div;
      break;
    default:
      Op = BinaryOp::Mod;
      break;
    }
    return applyBinaryOp(Op, Old, R.V, TheHeap);
  };

  if (const auto *Id = dyn_cast<Identifier>(E->getTarget())) {
    Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
    Value Old = B ? B->V : Value::undefined();
    if (!B && E->getOp() != AssignOp::Assign)
      return EvalResult::abruptly(Completion::thrown(Value::string(
          "ReferenceError: " + Id->getName() + " is not defined")));
    bool Failed = false;
    Completion C;
    Value NewV = Compute(Old, Failed, C);
    if (Failed)
      return EvalResult::abruptly(C);
    // Assignment to an undeclared name creates a global (sloppy mode).
    B = Envs.lookup(CurrentEnv, Id->getAtom());
    if (B) {
      B->V = NewV;
    } else {
      Envs.get(GlobalEnv).Vars[Id->getAtom()] =
          Binding{NewV, Det::Determinate};
    }
    return EvalResult::value(NewV);
  }

  const auto *M = cast<MemberExpr>(E->getTarget());
  EvalResult Base = evalExpr(M->getObject());
  if (Base.abrupt())
    return Base;
  StringId Key;
  if (M->isComputed()) {
    EvalResult I = evalExpr(M->getIndex());
    if (I.abrupt())
      return I;
    Key = propertyKey(I.V);
  } else {
    Key = M->getPropertyAtom();
  }
  Value Old;
  if (E->getOp() != AssignOp::Assign) {
    EvalResult OldR = getProperty(Base.V, Key);
    if (OldR.abrupt())
      return OldR;
    Old = OldR.V;
  }
  bool Failed = false;
  Completion C;
  Value NewV = Compute(Old, Failed, C);
  if (Failed)
    return EvalResult::abruptly(C);
  Completion W = setProperty(Base.V, Key, NewV);
  if (W.isAbrupt())
    return EvalResult::abruptly(W);
  return EvalResult::value(NewV);
}

EvalResult Interpreter::evalUpdate(const UpdateExpr *E) {
  double Delta = E->isIncrement() ? 1 : -1;
  if (const auto *Id = dyn_cast<Identifier>(E->getOperand())) {
    Binding *B = Envs.lookup(CurrentEnv, Id->getAtom());
    if (!B)
      return EvalResult::abruptly(Completion::thrown(Value::string(
          "ReferenceError: " + Id->getName() + " is not defined")));
    double Old = toNumber(B->V);
    B->V = Value::number(Old + Delta);
    return EvalResult::value(Value::number(E->isPrefix() ? Old + Delta : Old));
  }
  const auto *M = dyn_cast<MemberExpr>(E->getOperand());
  if (!M)
    return EvalResult::abruptly(throwTypeError("invalid update target"));
  EvalResult Base = evalExpr(M->getObject());
  if (Base.abrupt())
    return Base;
  StringId Key;
  if (M->isComputed()) {
    EvalResult I = evalExpr(M->getIndex());
    if (I.abrupt())
      return I;
    Key = propertyKey(I.V);
  } else {
    Key = M->getPropertyAtom();
  }
  EvalResult OldR = getProperty(Base.V, Key);
  if (OldR.abrupt())
    return OldR;
  double Old = toNumber(OldR.V);
  Completion W = setProperty(Base.V, Key, Value::number(Old + Delta));
  if (W.isAbrupt())
    return EvalResult::abruptly(W);
  return EvalResult::value(Value::number(E->isPrefix() ? Old + Delta : Old));
}

EvalResult Interpreter::evalCall(const CallExpr *E) {
  // Method calls bind `this` to the receiver.
  Value ThisV = Value::undefined();
  Value Callee;
  if (const auto *M = dyn_cast<MemberExpr>(E->getCallee())) {
    EvalResult Base = evalExpr(M->getObject());
    if (Base.abrupt())
      return Base;
    StringId Key;
    if (M->isComputed()) {
      EvalResult I = evalExpr(M->getIndex());
      if (I.abrupt())
        return I;
      Key = propertyKey(I.V);
    } else {
      Key = M->getPropertyAtom();
    }
    EvalResult Fn = getProperty(Base.V, Key);
    if (Fn.abrupt())
      return Fn;
    ThisV = Base.V;
    Callee = Fn.V;
  } else {
    EvalResult Fn = evalExpr(E->getCallee());
    if (Fn.abrupt())
      return Fn;
    Callee = Fn.V;
  }

  std::vector<Value> Args;
  Args.reserve(E->getArgs().size());
  for (const Expr *A : E->getArgs()) {
    EvalResult R = evalExpr(A);
    if (R.abrupt())
      return R;
    Args.push_back(R.V);
  }

  // eval is intercepted: it runs in the caller's scope.
  if (Callee.isObject() && Callee.Obj == EvalFn)
    return evalEval(Args);

  return callValue(Callee, ThisV, Args);
}

EvalResult Interpreter::evalEval(const std::vector<Value> &Args) {
  if (Args.empty() || !Args[0].isString())
    return EvalResult::value(Args.empty() ? Value::undefined() : Args[0]);
  if (!Gov.enterEval())
    return EvalResult::abruptly(trapCompletion());
  DiagnosticEngine Diags;
  std::vector<Stmt *> Body = parseIntoContext(
      Interner::global().str(Args[0].Str), *Prog.Context, Diags);
  if (Diags.hasErrors()) {
    Gov.exitEval();
    return EvalResult::abruptly(Completion::thrown(
        Value::string("SyntaxError: " + Diags.diagnostics()[0].Message)));
  }
  hoist(Body, CurrentEnv);
  Value Saved = LastStmtValue;
  LastStmtValue = Value::undefined();
  Completion C = execBlockBody(Body);
  Value Result = LastStmtValue;
  LastStmtValue = Saved;
  Gov.exitEval();
  if (C.K == Completion::Return)
    return EvalResult::abruptly(
        Completion::thrown(Value::string("SyntaxError: illegal return")));
  if (C.isAbrupt())
    return EvalResult::abruptly(C);
  return EvalResult::value(Result);
}

EvalResult Interpreter::evalNew(const NewExpr *E) {
  EvalResult Fn = evalExpr(E->getCallee());
  if (Fn.abrupt())
    return Fn;
  std::vector<Value> Args;
  Args.reserve(E->getArgs().size());
  for (const Expr *A : E->getArgs()) {
    EvalResult R = evalExpr(A);
    if (R.abrupt())
      return R;
    Args.push_back(R.V);
  }
  if (!Fn.V.isObject())
    return EvalResult::abruptly(throwTypeError("not a constructor"));
  JSObject &FnObj = TheHeap.get(Fn.V.Obj);
  if (FnObj.Class == ObjectClass::Native) {
    // `new String(x)` etc. degrade to the plain call.
    NativeFn N = FnObj.Native;
    std::vector<TaggedValue> TArgs;
    for (const Value &V : Args)
      TArgs.emplace_back(V);
    NativeResult R = callNative(*this, N, TaggedValue(Value::undefined()),
                                TArgs);
    if (R.Threw)
      return EvalResult::abruptly(Completion::thrown(R.Thrown));
    return EvalResult::value(R.Result.V);
  }
  if (FnObj.Class != ObjectClass::Function)
    return EvalResult::abruptly(throwTypeError("not a constructor"));

  ObjectRef Fresh = TheHeap.allocate(ObjectClass::Plain, E->getID());
  const Slot *ProtoSlot = TheHeap.get(Fn.V.Obj).get(atoms().Prototype);
  TheHeap.get(Fresh).Proto = ProtoSlot && ProtoSlot->V.isObject()
                                 ? ProtoSlot->V.Obj
                                 : ObjectProto;
  EvalResult R = callClosure(Fn.V.Obj, Value::object(Fresh), Args);
  if (R.abrupt())
    return R;
  // If the constructor returned an object, that wins.
  if (R.V.isObject())
    return R;
  return EvalResult::value(Value::object(Fresh));
}

EvalResult Interpreter::callValue(const Value &Callee, const Value &ThisV,
                                  const std::vector<Value> &Args) {
  if (!Callee.isObject())
    return EvalResult::abruptly(
        throwTypeError(toStringValue(Callee, TheHeap) + " is not a function"));
  JSObject &O = TheHeap.get(Callee.Obj);
  if (O.Class == ObjectClass::Native) {
    std::vector<TaggedValue> TArgs;
    TArgs.reserve(Args.size());
    for (const Value &V : Args)
      TArgs.emplace_back(V);
    NativeResult R = callNative(*this, O.Native, TaggedValue(ThisV), TArgs);
    if (R.Threw)
      return EvalResult::abruptly(Completion::thrown(R.Thrown));
    return EvalResult::value(R.Result.V);
  }
  if (O.Class != ObjectClass::Function)
    return EvalResult::abruptly(throwTypeError("not a function"));
  return callClosure(Callee.Obj, ThisV, Args);
}

EvalResult Interpreter::callClosure(ObjectRef FnObj, const Value &ThisV,
                                    const std::vector<Value> &Args) {
  switch (Gov.enterCall()) {
  case ResourceGovernor::CallGate::Ok:
    break;
  case ResourceGovernor::CallGate::Overflow:
    // Natural overflow stays a catchable JS exception, as before.
    return EvalResult::abruptly(Completion::thrown(
        Value::string("RangeError: maximum call depth exceeded")));
  case ResourceGovernor::CallGate::Trip:
    return EvalResult::abruptly(trapCompletion());
  }

  const JSObject &O = TheHeap.get(FnObj);
  const FunctionExpr *Fn = O.Fn;
  EnvRef CallEnv = Envs.allocate(O.Closure);
  Environment &E = Envs.get(CallEnv);
  const std::vector<StringId> &Params = Fn->getParamAtoms();
  for (size_t I = 0; I < Params.size(); ++I) {
    Value V = I < Args.size() ? Args[I] : Value::undefined();
    E.Vars[Params[I]] = Binding{std::move(V), Det::Determinate};
  }

  const auto *Body = cast<BlockStmt>(Fn->getBody());
  hoist(Body->getBody(), CallEnv);

  EnvRef SavedEnv = CurrentEnv;
  Value SavedThis = CurrentThis;
  CurrentEnv = CallEnv;
  CurrentThis = ThisV;
  Completion C = execBlockBody(Body->getBody());
  Gov.exitCall();
  CurrentEnv = SavedEnv;
  CurrentThis = SavedThis;

  switch (C.K) {
  case Completion::Normal:
    return EvalResult::value(Value::undefined());
  case Completion::Return:
    return EvalResult::value(C.V);
  case Completion::Break:
  case Completion::Continue:
    return EvalResult::abruptly(
        Completion::fatal("break/continue escaped a function body"));
  case Completion::Throw:
  case Completion::Fatal:
    return EvalResult::abruptly(C);
  }
  return EvalResult::value(Value::undefined());
}
