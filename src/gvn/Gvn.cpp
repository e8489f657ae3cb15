//===- gvn/Gvn.cpp -------------------------------------------------------===//

#include "gvn/Gvn.h"

#include <algorithm>

#include "baseline/Canonicalize.h"
#include "graph/Dfs.h"
#include "support/InternTable.h"
#include "support/Stats.h"

using namespace lcm;
using namespace lcm::gvn;

namespace {

/// A hashed congruence term: a constant, an operator application or a
/// store.  Block-entry values are not terms: each (block, variable) pair
/// is entered exactly once, so its class is minted fresh and never
/// looked up.
struct TermKey {
  enum Kind : uint8_t { Entry, Const, Op, Store };
  uint8_t K;
  uint8_t Opc;      ///< Opcode for Kind::Op, else 0.
  int64_t A, B, C;  ///< Payload (see makers below).

  bool operator==(const TermKey &R) const {
    return K == R.K && Opc == R.Opc && A == R.A && B == R.B && C == R.C;
  }
  uint64_t hash() const {
    return mixHash64((uint64_t(K) << 8 | Opc) ^
                     uint64_t(A) * 0x9e3779b97f4a7c15ull ^
                     uint64_t(B) * 0xc2b2ae3d27d4eb4full ^
                     uint64_t(C) * 0x165667b19e3779f9ull);
  }
};

TermKey constKey(int64_t Val) { return {TermKey::Const, 0, Val, 0, 0}; }
TermKey opKey(Opcode Opc, ClassId L, ClassId R) {
  return {TermKey::Op, uint8_t(Opc), int64_t(L), int64_t(R), 0};
}
TermKey storeKey(ClassId Addr, ClassId Val, ClassId PrevMem) {
  return {TermKey::Store, 0, int64_t(Addr), int64_t(Val), int64_t(PrevMem)};
}

/// The class table: hashed term -> dense id, plus per-class facts.  The
/// dense ClassId order is creation order along the RPO walk, so runs are
/// deterministic.
struct Numbering {
  InternTable Table;          ///< Term hash -> index into Terms.
  std::vector<TermKey> Terms; ///< Hashed terms, in creation order.
  std::vector<ClassId> TermClass;
  std::vector<uint8_t> KindOf;
  std::vector<int64_t> ConstOf; ///< Value for Const classes, else 0.
  /// First variable observed holding the class (RPO order).  A rewrite to
  /// the home is legal only where the flow state still maps it to the
  /// class; call sites check that.
  std::vector<VarId> HomeOf;
  /// Whether some instruction result has landed in the class.
  std::vector<char> IsResult;

  void clearRetaining() {
    Table.clearRetaining();
    Terms.clear();
    TermClass.clear();
    KindOf.clear();
    ConstOf.clear();
    HomeOf.clear();
    IsResult.clear();
  }

  ClassId mint(uint8_t Kind, int64_t Const) {
    KindOf.push_back(Kind);
    ConstOf.push_back(Const);
    HomeOf.push_back(InvalidVar);
    IsResult.push_back(0);
    return ClassId(KindOf.size() - 1);
  }

  /// A fresh block-entry class.
  ClassId entry() { return mint(TermKey::Entry, 0); }

  ClassId intern(const TermKey &Key) {
    const uint64_t H = Key.hash();
    const uint32_t T =
        Table.find(H, [&](uint32_t Id) { return Terms[Id] == Key; });
    if (T != InternTable::npos)
      return TermClass[T];
    Table.insert(H, uint32_t(Terms.size()));
    Terms.push_back(Key);
    TermClass.push_back(mint(Key.K, Key.K == TermKey::Const ? Key.A : 0));
    return TermClass.back();
  }

  bool isConst(ClassId C) const { return KindOf[C] == TermKey::Const; }
  int64_t constVal(ClassId C) const { return ConstOf[C]; }
};

/// One operation occurrence: where it sits, what it read, and the
/// canonical form that was valid at that point.
struct OpSite {
  BlockId Blk;
  uint32_t Idx;
  ExprId Orig;
  Expr Canon;
};

/// Everything one run needs, kept per thread and reused across calls so
/// a warm run allocates nothing.
struct GvnScratch {
  Numbering N;
  std::vector<BlockId> Order;
  std::vector<char> Processed;
  /// ExitState[B * NumVars + V]: the class of V at the end of block B
  /// (while B is being numbered, its row is the running state).
  std::vector<ClassId> ExitState;
  std::vector<OpSite> Sites;
  std::vector<char> HasForm, FormOk, Adopted;
  std::vector<Expr> Form;
};

/// Ordered comparisons flip to their mirrored mnemonic so `a > b` and
/// `b < a` share a class (and, after rewriting, a lexical form).
bool flipsToMirror(Opcode Opc, Opcode &Mirror) {
  switch (Opc) {
  case Opcode::CmpGt:
    Mirror = Opcode::CmpLt;
    return true;
  case Opcode::CmpGe:
    Mirror = Opcode::CmpLe;
    return true;
  default:
    return false;
  }
}

} // namespace

GvnReport gvn::runGvn(Function &Fn, ValueNumbering *VN) {
  GvnReport R;
  ExprPool &Pool = Fn.exprs();
  const size_t NumVars = Fn.numVars();
  const size_t NumBlocks = Fn.numBlocks();
  const VarId MemVar = Fn.findMemoryVar();

  thread_local GvnScratch S;
  Numbering &N = S.N;
  N.clearRetaining();
  reversePostOrderInto(Fn, S.Order);
  S.Processed.assign(NumBlocks, 0);
  S.ExitState.assign(NumBlocks * NumVars, InvalidClass);
  S.Sites.clear();

  if (VN) {
    VN->ClassOf.assign(NumBlocks, {});
    VN->NumClasses = 0;
  }

  for (BlockId BId : S.Order) {
    BasicBlock &B = Fn.block(BId);
    ClassId *State = S.ExitState.data() + BId * NumVars;

    // Block-entry state: inherit a variable's class only when every
    // predecessor has been processed and they all agree; otherwise the
    // variable pessimistically starts a fresh entry class (this covers
    // loop headers and disagreeing joins — the no-SSA analogue of a phi).
    bool AllPreds = BId != Fn.entry() && !B.preds().empty();
    for (BlockId P : B.preds())
      AllPreds = AllPreds && S.Processed[P];
    const ClassId *First =
        AllPreds ? S.ExitState.data() + B.preds().front() * NumVars : nullptr;
    for (VarId V = 0; V != NumVars; ++V) {
      ClassId C = InvalidClass;
      if (AllPreds) {
        C = First[V];
        for (BlockId P : B.preds())
          if (S.ExitState[P * NumVars + V] != C)
            C = InvalidClass;
      }
      State[V] = C != InvalidClass ? C : N.entry();
      if (N.HomeOf[State[V]] == InvalidVar)
        N.HomeOf[State[V]] = V;
    }

    auto classOfOperand = [&](Operand O) {
      return O.isConst() ? N.intern(constKey(O.constVal())) : State[O.var()];
    };
    // The congruent representative that is valid *here*: the class
    // constant, or the class home while it still holds the class.
    auto repOperand = [&](Operand O) {
      if (O.isConst())
        return O;
      ClassId C = State[O.var()];
      if (N.isConst(C))
        return Operand::makeConst(N.constVal(C));
      VarId H = N.HomeOf[C];
      if (H != InvalidVar && H != O.var() && H != MemVar && State[H] == C)
        return Operand::makeVar(H);
      return O;
    };

    auto &Instrs = B.instrs();
    for (uint32_t Idx = 0; Idx != Instrs.size(); ++Idx) {
      Instr &I = Instrs[Idx];
      ClassId Result;
      if (I.isOperation()) {
        const Expr &E = Pool.expr(I.exprId());
        Expr Canon = E;
        Canon.Lhs = repOperand(E.Lhs);
        // A load's Rhs is the `@mem` pseudo-variable and must stay so.
        if (E.isBinary() && E.Op != Opcode::Load)
          Canon.Rhs = repOperand(E.Rhs);
        Opcode Mirror;
        if (flipsToMirror(Canon.Op, Mirror)) {
          Canon.Op = Mirror;
          std::swap(Canon.Lhs, Canon.Rhs);
        }
        if (isCommutativeOpcode(Canon.Op) && Canon.Rhs < Canon.Lhs)
          std::swap(Canon.Lhs, Canon.Rhs);

        ClassId CL = classOfOperand(Canon.Lhs);
        ClassId CR =
            Canon.isBinary() ? classOfOperand(Canon.Rhs) : InvalidClass;
        if (Canon.Op != Opcode::Load && N.isConst(CL) &&
            (!Canon.isBinary() || N.isConst(CR))) {
          int64_t Val = evalOpcode(Canon.Op, N.constVal(CL),
                                   Canon.isBinary() ? N.constVal(CR) : 0);
          Result = N.intern(constKey(Val));
        } else {
          ClassId KL = CL, KR = CR;
          if (isCommutativeOpcode(Canon.Op) && KR < KL)
            std::swap(KL, KR);
          Result = N.intern(opKey(Canon.Op, KL, KR));
        }
        S.Sites.push_back({BId, Idx, I.exprId(), Canon});
      } else if (I.isStore()) {
        Operand Addr = repOperand(I.storeAddr());
        Operand Val = repOperand(I.storeValue());
        if (!(Addr == I.storeAddr()) || !(Val == I.storeValue())) {
          I.setStoreOperands(Addr, Val);
          ++R.OperandsRewritten;
        }
        Result = N.intern(
            storeKey(classOfOperand(Addr), classOfOperand(Val), State[MemVar]));
      } else {
        Operand Src = repOperand(I.src());
        if (!(Src == I.src())) {
          I = Instr::makeCopy(I.dest(), Src);
          ++R.OperandsRewritten;
        }
        Result = classOfOperand(Src);
      }
      State[I.dest()] = Result;
      if (N.HomeOf[Result] == InvalidVar)
        N.HomeOf[Result] = I.dest();
      if (!N.IsResult[Result]) {
        N.IsResult[Result] = 1;
        ++R.Classes;
      }
      if (VN)
        VN->ClassOf[BId].push_back(Result);
      ++R.InstrsNumbered;
    }

    S.Processed[BId] = 1;
  }

  // Rewrite phase, grouped by original expression: adopt the canonical
  // form only when every occurrence canonicalized identically, so a
  // lexical class is merged whole or left untouched — never split.
  const size_t PoolSize = Pool.size();
  S.HasForm.assign(PoolSize, 0);
  S.FormOk.assign(PoolSize, 1);
  S.Adopted.assign(PoolSize, 0);
  S.Form.resize(PoolSize);
  for (const OpSite &Site : S.Sites) {
    if (!S.HasForm[Site.Orig]) {
      S.HasForm[Site.Orig] = 1;
      S.Form[Site.Orig] = Site.Canon;
    } else if (!(S.Form[Site.Orig] == Site.Canon)) {
      S.FormOk[Site.Orig] = 0;
    }
  }
  uint64_t OldDistinct = 0;
  for (ExprId E = 0; E != PoolSize; ++E) {
    if (!S.HasForm[E])
      continue;
    ++OldDistinct;
    if (S.FormOk[E] && !(S.Form[E] == Pool.expr(E)))
      S.Adopted[E] = 1;
    else
      S.Form[E] = Pool.expr(E); // keep the original form everywhere
  }

  // Rebuild the pool: every surviving form is re-interned, dead lexical
  // forms vanish, and every bit vector downstream narrows accordingly.
  Pool.clearRetaining();
  for (const OpSite &Site : S.Sites) {
    Instr &I = Fn.block(Site.Blk).instrs()[Site.Idx];
    I = Instr::makeOperation(I.dest(), Pool.intern(S.Form[Site.Orig]));
    R.OperandsRewritten += S.Adopted[Site.Orig];
  }
  R.MergedExprs = OldDistinct - Pool.size();

  if (VN)
    VN->NumClasses = uint32_t(N.KindOf.size());
  Stats::bump("gvn.classes", R.Classes);
  Stats::bump("gvn.merged_exprs", R.MergedExprs);
  return R;
}
