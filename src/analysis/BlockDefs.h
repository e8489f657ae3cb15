//===- analysis/BlockDefs.h - Where each variable is defined in a block --===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one local kill rule.  Every block-local fact the optimizer needs --
/// ANTLOC, COMP and TRANSP (analysis/LocalProperties.h), per-occurrence
/// exposure (core/Placement.cpp) and local availability (core/LocalCse.cpp)
/// -- depends only on *where* in the block each operand variable is
/// defined.  BlockDefs records, per variable, the position of its first
/// and last definition in the current block, and answers:
///
/// - upwardExposed(e, p): no operand of e is defined before position p;
/// - downwardExposed(e, p): no operand of e is defined at or after p.
///
/// Recording the whole block first (scanBlock) gives the block-level
/// predicates; recording definitions as a forward walk reaches them
/// (noteDef) makes downwardExposed(e, p) mean "the computation at p is
/// still available here".  A definition at p itself counts as "at or
/// after p", so an occurrence that overwrites its own operand (`x = x + 1`)
/// is never downward exposed.
///
/// Entries are stamped with a per-block epoch instead of being cleared, so
/// starting a block costs O(1) and a block's work is O(instructions):
/// no full-universe bit-vector sweep per instruction.  Storage grows to the
/// largest variable count seen and is then reused; callers keep one
/// instance per thread.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_ANALYSIS_BLOCKDEFS_H
#define LCM_ANALYSIS_BLOCKDEFS_H

#include <cstdint>
#include <vector>

#include "ir/Instr.h"

namespace lcm {

class BlockDefs {
public:
  /// Starts a new block in a function with \p NumVars variables; every
  /// variable reads as undefined.
  void beginBlock(size_t NumVars) {
    if (Vars.size() < NumVars)
      Vars.resize(NumVars);
    if (++Epoch == 0) { // Wrapped: forget every stale stamp.
      for (Entry &E : Vars)
        E.Epoch = 0;
      Epoch = 1;
    }
  }

  /// Records that the instruction at \p Pos defines \p V.  Positions must
  /// be noted in increasing order within a block.
  void noteDef(VarId V, uint32_t Pos) {
    Entry &E = Vars[V];
    if (E.Epoch != Epoch) {
      E.Epoch = Epoch;
      E.First = Pos;
    }
    E.Last = Pos;
  }

  /// Starts a block and records every definition in \p Instrs.
  void scanBlock(const std::vector<Instr> &Instrs, size_t NumVars) {
    beginBlock(NumVars);
    for (uint32_t Pos = 0; Pos != Instrs.size(); ++Pos)
      noteDef(Instrs[Pos].dest(), Pos);
  }

  /// True if \p Pos holds the block's first definition of \p V.
  bool isFirstDef(VarId V, uint32_t Pos) const {
    const Entry &E = Vars[V];
    return E.Epoch == Epoch && E.First == Pos;
  }

  /// True if no operand of \p Ex is defined before \p Pos.
  bool upwardExposed(const Expr &Ex, uint32_t Pos) const {
    return !definedBefore(Ex.Lhs, Pos) &&
           !(Ex.isBinary() && definedBefore(Ex.Rhs, Pos));
  }

  /// True if no operand of \p Ex is defined at or after \p Pos.
  bool downwardExposed(const Expr &Ex, uint32_t Pos) const {
    return !definedFrom(Ex.Lhs, Pos) &&
           !(Ex.isBinary() && definedFrom(Ex.Rhs, Pos));
  }

private:
  struct Entry {
    uint32_t Epoch = 0;
    uint32_t First = 0;
    uint32_t Last = 0;
  };

  bool definedBefore(Operand O, uint32_t Pos) const {
    if (!O.isVar())
      return false;
    const Entry &E = Vars[O.var()];
    return E.Epoch == Epoch && E.First < Pos;
  }

  bool definedFrom(Operand O, uint32_t Pos) const {
    if (!O.isVar())
      return false;
    const Entry &E = Vars[O.var()];
    return E.Epoch == Epoch && E.Last >= Pos;
  }

  std::vector<Entry> Vars;
  uint32_t Epoch = 0;
};

} // namespace lcm

#endif // LCM_ANALYSIS_BLOCKDEFS_H
