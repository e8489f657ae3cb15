//===- analysis/LocalProperties.cpp ----------------------------------------===//

#include "analysis/LocalProperties.h"

#include "analysis/BlockDefs.h"

using namespace lcm;

void LocalProperties::recompute(const Function &Fn) {
  NumExprs = Fn.exprs().size();
  NumBlocks = Fn.numBlocks();
  const ExprPool &Pool = Fn.exprs();
  reshapeRows(AntLoc, Fn.numBlocks(), NumExprs);
  reshapeRows(Comp, Fn.numBlocks(), NumExprs);
  reshapeRows(Transp, Fn.numBlocks(), NumExprs, true);

  // Per block O(instructions + readers of the variables it defines): the
  // kill facts come from definition positions (analysis/BlockDefs.h).
  thread_local BlockDefs Defs;
  for (const BasicBlock &B : Fn.blocks()) {
    const auto &Instrs = B.instrs();
    Defs.scanBlock(Instrs, Fn.numVars());
    BitVector &Tr = Transp[B.id()];
    for (uint32_t Pos = 0; Pos != Instrs.size(); ++Pos) {
      const Instr &I = Instrs[Pos];
      // TRANSP: each variable the block defines kills its readers, once.
      if (Defs.isFirstDef(I.dest(), Pos))
        for (ExprId E : Pool.readersOf(I.dest()))
          Tr.reset(E);
      if (!I.isOperation())
        continue;
      const ExprId E = I.exprId();
      const Expr &Ex = Pool.expr(E);
      if (Defs.upwardExposed(Ex, Pos))
        AntLoc[B.id()].set(E);
      if (Defs.downwardExposed(Ex, Pos))
        Comp[B.id()].set(E);
    }
  }
}
