//===- Environment.h - Scope chains for MiniJS -------------------*- C++ -*-==//
///
/// \file
/// Environments form the lexical scope chain. Like the heap, slots carry a
/// determinacy flag used only by the instrumented interpreter. Environments
/// live in an arena (deque for reference stability) and are referenced by
/// EnvRef; closures capture an EnvRef. Bindings are keyed on interned atoms,
/// so a variable lookup hashes a 32-bit id instead of the name's characters.
///
//===----------------------------------------------------------------------===//

#ifndef DDA_INTERP_ENVIRONMENT_H
#define DDA_INTERP_ENVIRONMENT_H

#include "interp/Value.h"
#include "support/Arena.h"
#include "support/ResourceGovernor.h"

#include <cassert>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dda {

/// A variable binding: value plus determinacy flag.
struct Binding {
  Value V;
  Det D = Det::Determinate;
  /// Builtin globals installed before the program runs are immune to the
  /// conservative whole-environment taint (mirrors Slot::Immune); a user
  /// write replaces the binding and clears the flag.
  bool Immune = false;
};

/// One scope: bindings plus a parent link.
struct Environment {
  EnvRef Parent = 0;
  std::unordered_map<StringId, Binding> Vars;
  /// Copy-on-write stamp; see EnvArena::ensureSaved (mirrors
  /// JSObject::SaveGen).
  uint32_t SaveGen = 0;
};

/// Arena of environments. Reference 0 is invalid; reference 1 is created by
/// the interpreter as the global scope.
class EnvArena {
public:
  EnvArena() { Envs.push(); } // Index 0 invalid.

  EnvRef allocate(EnvRef Parent) {
    Envs.push().Parent = Parent;
    return static_cast<EnvRef>(Envs.size() - 1);
  }

  Environment &get(EnvRef Ref) {
    assert(Ref != 0 && Ref < Envs.size() && "invalid environment reference");
    return Envs[Ref];
  }

  /// Finds the environment in \p Start's chain that declares \p Name, or 0.
  EnvRef lookupEnv(EnvRef Start, StringId Name) {
    for (EnvRef E = Start; E != 0; E = Envs[E].Parent)
      if (Envs[E].Vars.count(Name))
        return E;
    return 0;
  }

  /// Finds the binding for \p Name starting at \p Start, or null. One hash
  /// probe per environment on the chain (no lookupEnv + operator[] re-probe).
  /// \p FoundIn (optional) receives the declaring environment on a hit.
  Binding *lookup(EnvRef Start, StringId Name, EnvRef *FoundIn = nullptr) {
    for (EnvRef E = Start; E != 0; E = Envs[E].Parent) {
      auto It = Envs[E].Vars.find(Name);
      if (It != Envs[E].Vars.end()) {
        if (FoundIn)
          *FoundIn = E;
        return &It->second;
      }
    }
    return nullptr;
  }

  size_t size() const { return Envs.size() - 1; }

  /// Iterates every environment (conservative whole-environment taint).
  template <typename Fn> void forEach(Fn F) {
    for (size_t I = 1; I < Envs.size(); ++I)
      F(static_cast<EnvRef>(I), Envs[I]);
  }

  /// Attaches a budget governor (not owned; may be null) so charged
  /// snapshot frames can bill pre-image copies, mirroring Heap.
  void setGovernor(ResourceGovernor *G) { Gov = G; }

  // --- Copy-on-write snapshots (see Heap for the full contract) ----------

  void beginSnapshot(bool Charged) {
    Snapshots.push_back(SnapshotFrame{++SnapGen, Charged, {}});
  }

  void ensureSaved(EnvRef Ref) {
    if (Snapshots.empty())
      return;
    SnapshotFrame &F = Snapshots.back();
    Environment &E = Envs[Ref];
    if (E.SaveGen == F.Gen)
      return;
    F.Saved.emplace_back(Ref, E);
    E.SaveGen = F.Gen;
    ++CowSaveCount;
    if (F.Charged && Gov)
      Gov->noteCowSave();
  }

  /// Restores pre-images in reverse save order.
  void restoreSnapshot() {
    assert(!Snapshots.empty() && "no snapshot frame to restore");
    SnapshotFrame &F = Snapshots.back();
    for (auto It = F.Saved.rbegin(); It != F.Saved.rend(); ++It)
      Envs[It->first] = std::move(It->second);
    Snapshots.pop_back();
  }

  size_t snapshotDepth() const { return Snapshots.size(); }
  uint64_t cowSaves() const { return CowSaveCount; }

private:
  struct SnapshotFrame {
    uint32_t Gen;
    bool Charged;
    std::vector<std::pair<EnvRef, Environment>> Saved;
  };

  // Chunked arena (was std::deque): same reference stability, chunk size
  // tuned to the element.
  ChunkedArena<Environment> Envs;
  ResourceGovernor *Gov = nullptr;
  std::vector<SnapshotFrame> Snapshots;
  uint32_t SnapGen = 0;
  uint64_t CowSaveCount = 0;
};

} // namespace dda

#endif // DDA_INTERP_ENVIRONMENT_H
