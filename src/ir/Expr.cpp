//===- ir/Expr.cpp ---------------------------------------------------------===//

#include "ir/Expr.h"

using namespace lcm;

bool lcm::isBinaryOpcode(Opcode Op) {
  return Op != Opcode::Neg && Op != Opcode::Not;
}

const char *lcm::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Mod:
    return "mod";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::CmpEq:
    return "cmpeq";
  case Opcode::CmpNe:
    return "cmpne";
  case Opcode::CmpLt:
    return "cmplt";
  case Opcode::CmpLe:
    return "cmple";
  case Opcode::CmpGt:
    return "cmpgt";
  case Opcode::CmpGe:
    return "cmpge";
  case Opcode::Min:
    return "min";
  case Opcode::Max:
    return "max";
  case Opcode::Neg:
    return "neg";
  case Opcode::Not:
    return "not";
  case Opcode::Load:
    return "load";
  }
  return "?";
}

const char *lcm::opcodeSymbol(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "+";
  case Opcode::Sub:
    return "-";
  case Opcode::Mul:
    return "*";
  case Opcode::Div:
    return "/";
  case Opcode::Mod:
    return "%";
  case Opcode::And:
    return "&";
  case Opcode::Or:
    return "|";
  case Opcode::Xor:
    return "^";
  case Opcode::Shl:
    return "<<";
  case Opcode::Shr:
    return ">>";
  case Opcode::CmpEq:
    return "==";
  case Opcode::CmpNe:
    return "!=";
  case Opcode::CmpLt:
    return "<";
  case Opcode::CmpLe:
    return "<=";
  case Opcode::CmpGt:
    return ">";
  case Opcode::CmpGe:
    return ">=";
  case Opcode::Min:
    return "min";
  case Opcode::Max:
    return "max";
  case Opcode::Neg:
    return "-";
  case Opcode::Not:
    return "~";
  case Opcode::Load:
    return "load";
  }
  return "?";
}

int64_t lcm::evalOpcode(Opcode Op, int64_t A, int64_t B) {
  // Arithmetic wraps: compute in uint64_t and cast back.
  uint64_t UA = uint64_t(A), UB = uint64_t(B);
  switch (Op) {
  case Opcode::Add:
    return int64_t(UA + UB);
  case Opcode::Sub:
    return int64_t(UA - UB);
  case Opcode::Mul:
    return int64_t(UA * UB);
  case Opcode::Div:
    if (B == 0)
      return 0;
    if (A == INT64_MIN && B == -1)
      return A;
    return A / B;
  case Opcode::Mod:
    if (B == 0)
      return 0;
    if (A == INT64_MIN && B == -1)
      return 0;
    return A % B;
  case Opcode::And:
    return int64_t(UA & UB);
  case Opcode::Or:
    return int64_t(UA | UB);
  case Opcode::Xor:
    return int64_t(UA ^ UB);
  case Opcode::Shl:
    return int64_t(UA << (UB & 63));
  case Opcode::Shr:
    return int64_t(UA >> (UB & 63));
  case Opcode::CmpEq:
    return A == B;
  case Opcode::CmpNe:
    return A != B;
  case Opcode::CmpLt:
    return A < B;
  case Opcode::CmpLe:
    return A <= B;
  case Opcode::CmpGt:
    return A > B;
  case Opcode::CmpGe:
    return A >= B;
  case Opcode::Min:
    return A < B ? A : B;
  case Opcode::Max:
    return A > B ? A : B;
  case Opcode::Neg:
    return int64_t(0 - UA);
  case Opcode::Not:
    return int64_t(~UA);
  case Opcode::Load:
    // Only reachable when folding a load from provably-unwritten memory;
    // the interpreter evaluates loads against its memory map instead.
    return memDefault(A);
  }
  return 0;
}

int64_t lcm::memDefault(int64_t Addr) {
  return int64_t(mixHash64(uint64_t(Addr) ^ 0x6d656d6465666175ULL));
}

uint64_t ExprPool::hashExpr(const Expr &E) {
  auto OperandBits = [](Operand O) {
    return O.isVar() ? (uint64_t(O.var()) << 1) | 1
                     : uint64_t(O.constVal()) << 1;
  };
  uint64_t H = mixHash64(uint64_t(E.Op));
  H = mixHash64(H ^ OperandBits(E.Lhs));
  H = mixHash64(H ^ OperandBits(E.Rhs));
  return H;
}

ExprId ExprPool::intern(const Expr &E, size_t Cap) {
  Expr Canonical = E;
  if (!isBinaryOpcode(E.Op))
    Canonical.Rhs = Operand::makeConst(0); // Normalize the unused slot.
  const uint64_t H = hashExpr(Canonical);
  ExprId Existing =
      Index.find(H, [&](uint32_t Id) { return Exprs[Id] == Canonical; });
  if (Existing != InternTable::npos)
    return Existing;
  if (Exprs.size() >= Cap)
    return InvalidExpr;
  ExprId Id = ExprId(Exprs.size());
  Exprs.push_back(Canonical);
  Index.insert(H, Id);
  if (Canonical.Lhs.isVar())
    noteReader(Canonical.Lhs.var(), Id);
  if (Canonical.isBinary() && Canonical.Rhs.isVar() &&
      !(Canonical.Lhs == Canonical.Rhs))
    noteReader(Canonical.Rhs.var(), Id);
  return Id;
}

ExprId ExprPool::lookup(const Expr &E) const {
  Expr Canonical = E;
  if (!isBinaryOpcode(E.Op))
    Canonical.Rhs = Operand::makeConst(0);
  ExprId Found = Index.find(hashExpr(Canonical), [&](uint32_t Id) {
    return Exprs[Id] == Canonical;
  });
  return Found == InternTable::npos ? InvalidExpr : Found;
}

void ExprPool::clearRetaining() {
  Exprs.clear();
  Index.clearRetaining();
  Ends.clear();
  Links.clear();
}

void ExprPool::noteReader(VarId V, ExprId E) {
  if (Ends.size() <= V)
    Ends.resize(V + 1);
  const uint32_t L = uint32_t(Links.size());
  Links.push_back({E, NoLink});
  ReaderEnds &R = Ends[V];
  if (R.Tail == NoLink)
    R.Head = L;
  else
    Links[R.Tail].Next = L;
  R.Tail = L;
}

bool ExprPool::reads(ExprId Id, VarId V) const {
  const Expr &E = expr(Id);
  if (E.Lhs.isVar() && E.Lhs.var() == V)
    return true;
  return E.isBinary() && E.Rhs.isVar() && E.Rhs.var() == V;
}

std::vector<VarId> ExprPool::varsRead(ExprId Id) const {
  const Expr &E = expr(Id);
  std::vector<VarId> Vars;
  if (E.Lhs.isVar())
    Vars.push_back(E.Lhs.var());
  if (E.isBinary() && E.Rhs.isVar() &&
      (Vars.empty() || Vars[0] != E.Rhs.var()))
    Vars.push_back(E.Rhs.var());
  return Vars;
}
