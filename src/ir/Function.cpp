//===- ir/Function.cpp -----------------------------------------------------===//

#include "ir/Function.h"

#include <algorithm>
#include <charconv>

using namespace lcm;

namespace {

/// Appends the decimal rendering of \p N to \p Out without temporaries.
void appendUInt(std::string &Out, uint64_t N) {
  char Buf[20];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), N);
  (void)Ec;
  Out.append(Buf, size_t(End - Buf));
}

} // namespace

void Function::resetRetainingStorage(std::string_view NewName) {
  Name.assign(NewName);
  // Park every block for reuse; clear contents but keep vector capacity.
  // Parked in reverse so addBlock's LIFO pop hands block id I the object
  // that was block I last time: each role reuses the same few objects, so
  // per-role capacity (instr/succ/pred vectors) converges during warm-up
  // instead of rotating through the whole pool and reallocating forever.
  for (size_t I = Blocks.size(); I-- != 0;) {
    BasicBlock &B = Blocks[I];
    B.Instrs.clear();
    B.Succs.clear();
    B.Preds.clear();
    B.CondVar.reset();
    B.Label.clear();
    SpareBlocks.push_back(std::move(B));
  }
  Blocks.clear();
  EntryId = InvalidBlock;
  NumVars = 0;
  VarIndex.clearRetaining();
  Exprs.clearRetaining();
  NextTempSuffix = 0;
}

VarId Function::getOrAddVar(std::string_view VarName, size_t Cap) {
  const uint64_t H = InternTable::hashBytes(VarName);
  uint32_t Found =
      VarIndex.find(H, [&](uint32_t Id) { return VarNames[Id] == VarName; });
  if (Found != InternTable::npos)
    return Found;
  if (NumVars >= Cap)
    return InvalidVar;
  VarId Id = VarId(NumVars);
  if (NumVars < VarNames.size())
    VarNames[NumVars].assign(VarName); // Reuse a retired string's capacity.
  else
    VarNames.emplace_back(VarName);
  ++NumVars;
  VarIndex.insert(H, Id);
  return Id;
}

VarId Function::addTempVar(std::string_view Hint) {
  while (true) {
    ScratchName.assign(Hint);
    ScratchName.push_back('.');
    appendUInt(ScratchName, NextTempSuffix++);
    const size_t Before = NumVars;
    const VarId V = getOrAddVar(ScratchName);
    if (NumVars != Before)
      return V;
  }
}

VarId Function::findVar(std::string_view VarName) const {
  uint32_t Found =
      VarIndex.find(InternTable::hashBytes(VarName),
                    [&](uint32_t Id) { return VarNames[Id] == VarName; });
  return Found == InternTable::npos ? InvalidVar : Found;
}

BlockId Function::addBlock(std::string_view Label) {
  BlockId Id = BlockId(Blocks.size());
  if (!SpareBlocks.empty()) {
    BasicBlock Recycled = std::move(SpareBlocks.back());
    SpareBlocks.pop_back();
    Recycled.Id = Id;
    Recycled.Label.assign(Label);
    Blocks.push_back(std::move(Recycled));
  } else {
    Blocks.emplace_back(Id, Label);
  }
  if (Label.empty()) {
    std::string &L = Blocks.back().Label;
    L.assign("b");
    appendUInt(L, Id);
  }
  if (EntryId == InvalidBlock)
    EntryId = Id;
  return Id;
}

BlockId Function::exit() const {
  BlockId Exit = InvalidBlock;
  for (const BasicBlock &B : Blocks) {
    if (!B.succs().empty())
      continue;
    assert(Exit == InvalidBlock && "multiple exit blocks");
    Exit = B.id();
  }
  assert(Exit != InvalidBlock && "no exit block");
  return Exit;
}

void Function::addEdge(BlockId From, BlockId To) {
  assert(From < Blocks.size() && To < Blocks.size() && "bad block id");
  Blocks[From].Succs.push_back(To);
  Blocks[To].Preds.push_back(From);
}

void Function::redirectEdge(BlockId From, size_t SuccIdx, BlockId NewTo) {
  assert(From < Blocks.size() && NewTo < Blocks.size() && "bad block id");
  BasicBlock &FromBlock = Blocks[From];
  assert(SuccIdx < FromBlock.Succs.size() && "bad successor index");
  BlockId OldTo = FromBlock.Succs[SuccIdx];
  FromBlock.Succs[SuccIdx] = NewTo;

  // Remove exactly one occurrence of From from OldTo's preds.
  auto &OldPreds = Blocks[OldTo].Preds;
  auto It = std::find(OldPreds.begin(), OldPreds.end(), From);
  assert(It != OldPreds.end() && "pred/succ lists out of sync");
  OldPreds.erase(It);

  Blocks[NewTo].Preds.push_back(From);
}

BlockId Function::splitEdge(BlockId From, size_t SuccIdx) {
  BlockId OldTo = Blocks[From].Succs[SuccIdx];
  // Parallel edges (one branch listing the same successor twice) split
  // into distinct blocks that would share the From.To label hint;
  // uniquify so printed labels stay distinct and the function
  // round-trips through the parser.
  ScratchName.assign(Blocks[From].label());
  ScratchName.push_back('.');
  ScratchName.append(Blocks[OldTo].label());
  const size_t HintLen = ScratchName.size();
  auto Taken = [&](const std::string &L) {
    for (const BasicBlock &B : Blocks)
      if (B.label() == L)
        return true;
    return false;
  };
  for (unsigned N = 2; Taken(ScratchName); ++N) {
    ScratchName.resize(HintLen);
    ScratchName.push_back('.');
    appendUInt(ScratchName, N);
  }
  BlockId Mid = addBlock(ScratchName);
  redirectEdge(From, SuccIdx, Mid);
  addEdge(Mid, OldTo);
  return Mid;
}

std::string Function::operandText(Operand O) const {
  if (O.isConst())
    return std::to_string(O.constVal());
  return varName(O.var());
}

std::string Function::exprText(ExprId E) const {
  const Expr &Ex = Exprs.expr(E);
  if (!Ex.isBinary())
    return std::string(opcodeSymbol(Ex.Op)) + " " + operandText(Ex.Lhs);
  if (Ex.Op == Opcode::Load)
    // The `@mem` operand is implicit in the surface syntax.
    return std::string(opcodeSymbol(Ex.Op)) + " " + operandText(Ex.Lhs);
  if (Ex.Op == Opcode::Min || Ex.Op == Opcode::Max)
    return std::string(opcodeSymbol(Ex.Op)) + " " + operandText(Ex.Lhs) +
           " " + operandText(Ex.Rhs);
  return operandText(Ex.Lhs) + " " + opcodeSymbol(Ex.Op) + " " +
         operandText(Ex.Rhs);
}

std::string Function::instrText(const Instr &I) const {
  if (I.isStore())
    return "store " + operandText(I.storeAddr()) + " " +
           operandText(I.storeValue());
  std::string Out = varName(I.dest()) + " = ";
  if (I.isOperation())
    Out += exprText(I.exprId());
  else
    Out += operandText(I.src());
  return Out;
}

size_t Function::countOperations() const {
  size_t N = 0;
  for (const BasicBlock &B : Blocks)
    for (const Instr &I : B.instrs())
      if (I.isOperation())
        ++N;
  return N;
}
