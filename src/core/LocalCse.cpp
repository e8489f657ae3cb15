//===- core/LocalCse.cpp ---------------------------------------------------===//

#include "core/LocalCse.h"

#include <cstdint>

#include "analysis/BlockDefs.h"

using namespace lcm;

namespace {

/// Per-expression walk state, stamped with the walk that wrote it so no
/// per-block reset touches the whole expression universe.
struct ExprSlot {
  uint32_t CompWalk = 0;   ///< Walk of the last computation seen...
  uint32_t CompPos = 0;    ///< ...and its position in the block.
  uint32_t ReusedWalk = 0; ///< First walk of the block that saw a reuse.
  uint32_t TempWalk = 0;   ///< Second walk of the block that made Temp.
  VarId Temp = InvalidVar;
};

} // namespace

uint64_t lcm::runLocalCse(Function &Fn) {
  uint64_t Replaced = 0;
  const ExprPool &Pool = Fn.exprs();
  const size_t NumVars = Fn.numVars();

  // Per-thread scratch: every container below retains its high-water
  // capacity, so a warm steady-state pass allocates nothing.
  thread_local BlockDefs Defs;
  thread_local std::vector<ExprSlot> Slots;
  thread_local uint32_t Walk = 0;
  thread_local std::vector<Instr> NewInstrs;
  if (Slots.size() < Pool.size())
    Slots.resize(Pool.size());

  // One forward walk step: E is available at an occurrence iff its last
  // computation so far is still downward exposed (no operand defined at
  // or after it), then the instruction's own definition and computation
  // are recorded.
  auto available = [&](ExprId E, uint32_t W) {
    const ExprSlot &S = Slots[E];
    return S.CompWalk == W && Defs.downwardExposed(Pool.expr(E), S.CompPos);
  };
  auto record = [&](const Instr &I, uint32_t Pos, uint32_t W) {
    Defs.noteDef(I.dest(), Pos);
    if (I.isOperation()) {
      Slots[I.exprId()].CompWalk = W;
      Slots[I.exprId()].CompPos = Pos;
    }
  };

  for (BasicBlock &B : Fn.blocks()) {
    auto &Instrs = B.instrs();
    if (Walk > UINT32_MAX - 2) { // Wrapped: forget every stale stamp.
      for (ExprSlot &S : Slots)
        S = ExprSlot();
      Walk = 0;
    }
    const uint32_t Find = ++Walk, Rewrite = ++Walk;

    // Walk 1: find the expressions recomputed while still available.
    // These need a holder temp: the original destination may itself be
    // overwritten.
    Defs.beginBlock(NumVars);
    size_t NumReused = 0;
    for (uint32_t Pos = 0; Pos != Instrs.size(); ++Pos) {
      const Instr &I = Instrs[Pos];
      if (I.isOperation() && available(I.exprId(), Find) &&
          Slots[I.exprId()].ReusedWalk != Find) {
        Slots[I.exprId()].ReusedWalk = Find;
        ++NumReused;
      }
      record(I, Pos, Find);
    }
    if (NumReused == 0)
      continue;

    // Walk 2: compute each reused expression into a block-local temp at
    // its defining occurrences and copy from the temp at reuses.  Temps
    // are created lazily at the first occurrence, preserving the original
    // creation (and thus naming) order.
    auto tempFor = [&](ExprId E) {
      ExprSlot &S = Slots[E];
      if (S.TempWalk != Rewrite) {
        S.TempWalk = Rewrite;
        S.Temp = Fn.addTempVar("cse");
      }
      return S.Temp;
    };

    NewInstrs.clear();
    NewInstrs.reserve(Instrs.size() + NumReused);
    Defs.beginBlock(NumVars);
    for (uint32_t Pos = 0; Pos != Instrs.size(); ++Pos) {
      const Instr &I = Instrs[Pos];
      if (I.isOperation() && Slots[I.exprId()].ReusedWalk == Find) {
        ExprId E = I.exprId();
        VarId T = tempFor(E);
        if (available(E, Rewrite)) {
          NewInstrs.push_back(Instr::makeCopy(I.dest(), Operand::makeVar(T)));
          ++Replaced;
        } else {
          NewInstrs.push_back(Instr::makeOperation(T, E));
          NewInstrs.push_back(Instr::makeCopy(I.dest(), Operand::makeVar(T)));
        }
      } else {
        NewInstrs.push_back(I);
      }
      record(I, Pos, Rewrite);
    }
    // Copy-assign (not move) so the block's vector reuses its capacity and
    // NewInstrs keeps its buffer for the next block.
    Instrs = NewInstrs;
  }
  return Replaced;
}
