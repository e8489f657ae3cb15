//===- core/Placement.cpp --------------------------------------------------===//

#include "core/Placement.h"

#include "analysis/BlockDefs.h"
#include "support/Stats.h"

using namespace lcm;

namespace {

uint64_t totalBits(const std::vector<BitVector> &Sets) {
  uint64_t N = 0;
  for (const BitVector &BV : Sets)
    N += BV.count();
  return N;
}

} // namespace

uint64_t PrePlacement::numEdgeInsertions() const {
  return totalBits(InsertEdge);
}

uint64_t PrePlacement::numNodeInsertions() const {
  return totalBits(InsertEndOfBlock);
}

uint64_t PrePlacement::numDeletions() const { return totalBits(Delete); }

uint64_t PrePlacement::numSaves() const { return totalBits(Save); }

PrePlacement lcm::filterPlacementForCodeSize(const PrePlacement &P,
                                             uint64_t *DroppedExprs) {
  // Per-expression insertion and deletion totals.
  std::vector<uint64_t> Ins(P.NumExprs, 0), Del(P.NumExprs, 0);
  for (const BitVector &BV : P.InsertEdge)
    for (size_t E : BV)
      ++Ins[E];
  for (const BitVector &BV : P.InsertEndOfBlock)
    for (size_t E : BV)
      ++Ins[E];
  for (const BitVector &BV : P.Delete)
    for (size_t E : BV)
      ++Del[E];

  BitVector Drop(P.NumExprs);
  uint64_t NumDropped = 0;
  for (size_t E = 0; E != P.NumExprs; ++E) {
    if (Ins[E] > Del[E]) {
      Drop.set(E);
      ++NumDropped;
    }
  }
  if (DroppedExprs)
    *DroppedExprs = NumDropped;

  PrePlacement Out = P;
  auto mask = [&Drop](std::vector<BitVector> &Sets) {
    for (BitVector &BV : Sets)
      if (!BV.empty()) // skip inert high-water rows (see reshapeRows)
        BV.andNot(Drop);
  };
  mask(Out.InsertEdge);
  mask(Out.InsertEndOfBlock);
  mask(Out.Delete);
  mask(Out.Save);
  return Out;
}

void lcm::computeExposureInto(const Function &Fn, const BasicBlock &B,
                              Exposure &X) {
  const ExprPool &Pool = Fn.exprs();
  const auto &Instrs = B.instrs();
  X.Upward.assign(Instrs.size(), false);
  X.Downward.assign(Instrs.size(), false);

  thread_local BlockDefs Defs;
  Defs.scanBlock(Instrs, Fn.numVars());
  for (uint32_t I = 0; I != Instrs.size(); ++I) {
    if (!Instrs[I].isOperation())
      continue;
    const Expr &Ex = Pool.expr(Instrs[I].exprId());
    X.Upward[I] = Defs.upwardExposed(Ex, I);
    X.Downward[I] = Defs.downwardExposed(Ex, I);
  }
}

void lcm::applyPlacement(Function &Fn, const CfgEdges &Edges,
                         const PrePlacement &P, ApplyReport &R) {
  R.TempOfExpr.assign(P.NumExprs, InvalidVar);
  R.EdgeInsertions = 0;
  R.NodeInsertions = 0;
  R.Replacements = 0;
  R.Saves = 0;
  R.SplitBlocks = 0;
  R.AppendedToPred = 0;
  R.PrependedToSucc = 0;

  auto tempFor = [&Fn, &R](ExprId E) {
    if (R.TempOfExpr[E] == InvalidVar)
      R.TempOfExpr[E] = Fn.addTempVar("h");
    return R.TempOfExpr[E];
  };

  // Phase 1: rewrite deletions and saves inside the original blocks.  This
  // must precede the insertions so exposure scans see the original code.
  const size_t NumOriginalBlocks = Fn.numBlocks();
  for (BlockId B = 0; B != NumOriginalBlocks; ++B) {
    const BitVector &Del = P.Delete[B];
    const BitVector &Sav = P.Save[B];
    if (Del.none() && Sav.none())
      continue;
    thread_local Exposure X;
    computeExposureInto(Fn, Fn.block(B), X);
    thread_local std::vector<Instr> NewInstrs;
    NewInstrs.clear();
    const auto &Instrs = Fn.block(B).instrs();
    NewInstrs.reserve(Instrs.size() + Sav.count());
    for (size_t I = 0; I != Instrs.size(); ++I) {
      const Instr &In = Instrs[I];
      if (In.isOperation()) {
        ExprId E = In.exprId();
        if (X.Upward[I] && Del.test(E)) {
          // Replaced computation: x = h.
          NewInstrs.push_back(
              Instr::makeCopy(In.dest(), Operand::makeVar(tempFor(E))));
          ++R.Replacements;
          continue;
        }
        if (X.Downward[I] && Sav.test(E)) {
          // Save: h = e; x = h.
          VarId H = tempFor(E);
          NewInstrs.push_back(Instr::makeOperation(H, E));
          NewInstrs.push_back(
              Instr::makeCopy(In.dest(), Operand::makeVar(H)));
          ++R.Saves;
          continue;
        }
      }
      NewInstrs.push_back(In);
    }
    // Copy-assign (not move) so the block's vector reuses its capacity and
    // NewInstrs keeps its buffer for the next block.
    Fn.block(B).instrs() = NewInstrs;
  }

  // Phase 2: end-of-block insertions (Morel–Renvoise style).
  if (!P.InsertEndOfBlock.empty()) {
    for (BlockId B = 0; B != NumOriginalBlocks; ++B) {
      for (size_t E : P.InsertEndOfBlock[B]) {
        Fn.block(B).instrs().push_back(
            Instr::makeOperation(tempFor(ExprId(E)), ExprId(E)));
        ++R.NodeInsertions;
      }
    }
  }

  // Phase 3: edge insertions, splitting only edges that receive code.
  if (!P.InsertEdge.empty()) {
    for (EdgeId EId = 0; EId != Edges.numEdges(); ++EId) {
      const BitVector &Ins = P.InsertEdge[EId];
      if (Ins.none())
        continue;
      const CfgEdge &Edge = Edges.edge(EId);
      BasicBlock &From = Fn.block(Edge.From);
      BasicBlock &To = Fn.block(Edge.To);
      if (From.succs().size() == 1) {
        // The edge point coincides with From's exit.
        for (size_t E : Ins) {
          From.instrs().push_back(
              Instr::makeOperation(tempFor(ExprId(E)), ExprId(E)));
          ++R.EdgeInsertions;
        }
        ++R.AppendedToPred;
      } else if (To.preds().size() == 1) {
        // The edge point coincides with To's entry.
        thread_local std::vector<Instr> Prefix;
        Prefix.clear();
        for (size_t E : Ins) {
          Prefix.push_back(
              Instr::makeOperation(tempFor(ExprId(E)), ExprId(E)));
          ++R.EdgeInsertions;
        }
        To.instrs().insert(To.instrs().begin(), Prefix.begin(), Prefix.end());
        ++R.PrependedToSucc;
      } else {
        // Critical edge: split it and fill the fresh block.
        BlockId Mid = Fn.splitEdge(Edge.From, Edge.SuccIdx);
        for (size_t E : Ins) {
          Fn.block(Mid).instrs().push_back(
              Instr::makeOperation(tempFor(ExprId(E)), ExprId(E)));
          ++R.EdgeInsertions;
        }
        ++R.SplitBlocks;
      }
    }
  }

  Stats::bump("transform.insertions", R.EdgeInsertions + R.NodeInsertions);
  Stats::bump("transform.replacements", R.Replacements);
  Stats::bump("transform.saves", R.Saves);
  Stats::bump("transform.splits", R.SplitBlocks);
}

ApplyReport lcm::applyPlacement(Function &Fn, const CfgEdges &Edges,
                                const PrePlacement &P) {
  ApplyReport R;
  applyPlacement(Fn, Edges, P, R);
  return R;
}
