//===- tests/ir_test.cpp - Expression pool, function, builder tests ------===//

#include "ir/Function.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace lcm;

namespace {

/// Variable \p V's reader list, materialized for comparison.
std::vector<ExprId> readers(const ExprPool &Pool, VarId V) {
  std::vector<ExprId> Out;
  for (ExprId E : Pool.readersOf(V))
    Out.push_back(E);
  return Out;
}

TEST(Opcode, BinaryClassification) {
  EXPECT_TRUE(isBinaryOpcode(Opcode::Add));
  EXPECT_TRUE(isBinaryOpcode(Opcode::CmpLe));
  EXPECT_TRUE(isBinaryOpcode(Opcode::Max));
  EXPECT_FALSE(isBinaryOpcode(Opcode::Neg));
  EXPECT_FALSE(isBinaryOpcode(Opcode::Not));
}

TEST(Opcode, TotalEvalSemantics) {
  EXPECT_EQ(evalOpcode(Opcode::Add, 2, 3), 5);
  EXPECT_EQ(evalOpcode(Opcode::Sub, 2, 3), -1);
  EXPECT_EQ(evalOpcode(Opcode::Mul, -4, 3), -12);
  // Division and modulo by zero are total.
  EXPECT_EQ(evalOpcode(Opcode::Div, 7, 0), 0);
  EXPECT_EQ(evalOpcode(Opcode::Mod, 7, 0), 0);
  EXPECT_EQ(evalOpcode(Opcode::Div, INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(evalOpcode(Opcode::Mod, INT64_MIN, -1), 0);
  // Shifts mask the amount.
  EXPECT_EQ(evalOpcode(Opcode::Shl, 1, 64), 1);
  EXPECT_EQ(evalOpcode(Opcode::Shl, 1, 65), 2);
  EXPECT_EQ(evalOpcode(Opcode::Shr, -1, 63), 1);
  // Comparisons yield 0/1.
  EXPECT_EQ(evalOpcode(Opcode::CmpLt, 1, 2), 1);
  EXPECT_EQ(evalOpcode(Opcode::CmpGe, 1, 2), 0);
  EXPECT_EQ(evalOpcode(Opcode::Min, 4, -2), -2);
  EXPECT_EQ(evalOpcode(Opcode::Max, 4, -2), 4);
  EXPECT_EQ(evalOpcode(Opcode::Neg, 5, 0), -5);
  EXPECT_EQ(evalOpcode(Opcode::Not, 0, 0), -1);
  // Wrapping arithmetic does not trap.
  EXPECT_EQ(evalOpcode(Opcode::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(evalOpcode(Opcode::Neg, INT64_MIN, 0), INT64_MIN);
}

TEST(ExprPool, InternsStructurally) {
  ExprPool Pool;
  Expr E1{Opcode::Add, Operand::makeVar(0), Operand::makeVar(1)};
  Expr E2{Opcode::Add, Operand::makeVar(0), Operand::makeVar(1)};
  Expr E3{Opcode::Add, Operand::makeVar(1), Operand::makeVar(0)};
  ExprId A = Pool.intern(E1);
  ExprId B = Pool.intern(E2);
  ExprId C = Pool.intern(E3);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C); // Not commutatively normalized: a+b != b+a.
  EXPECT_EQ(Pool.size(), 2u);
}

TEST(ExprPool, UnaryNormalizesUnusedOperand) {
  ExprPool Pool;
  Expr E1{Opcode::Neg, Operand::makeVar(3), Operand::makeConst(7)};
  Expr E2{Opcode::Neg, Operand::makeVar(3), Operand::makeConst(99)};
  EXPECT_EQ(Pool.intern(E1), Pool.intern(E2));
}

TEST(ExprPool, ReadersIndex) {
  ExprPool Pool;
  ExprId AB =
      Pool.intern(Expr{Opcode::Add, Operand::makeVar(0), Operand::makeVar(1)});
  ExprId AC =
      Pool.intern(Expr{Opcode::Mul, Operand::makeVar(0), Operand::makeVar(2)});
  ExprId C5 = Pool.intern(
      Expr{Opcode::Add, Operand::makeVar(2), Operand::makeConst(5)});

  EXPECT_EQ(readers(Pool, 0), (std::vector<ExprId>{AB, AC}));
  EXPECT_EQ(readers(Pool, 1), (std::vector<ExprId>{AB}));
  EXPECT_EQ(readers(Pool, 2), (std::vector<ExprId>{AC, C5}));

  // A variable no expression reads.
  EXPECT_TRUE(Pool.readersOf(57).empty());
  EXPECT_TRUE(readers(Pool, 57).empty());

  // Re-interning an existing expression adds no reader entry.
  EXPECT_EQ(Pool.intern(Expr{Opcode::Add, Operand::makeVar(0),
                             Operand::makeVar(1)}),
            AB);
  EXPECT_EQ(readers(Pool, 0), (std::vector<ExprId>{AB, AC}));

  EXPECT_TRUE(Pool.reads(AB, 0));
  EXPECT_FALSE(Pool.reads(AB, 2));
  EXPECT_EQ(Pool.varsRead(AB), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(Pool.varsRead(C5), (std::vector<VarId>{2}));
}

TEST(ExprPool, VarsReadDeduplicates) {
  ExprPool Pool;
  ExprId XX =
      Pool.intern(Expr{Opcode::Mul, Operand::makeVar(4), Operand::makeVar(4)});
  EXPECT_EQ(Pool.varsRead(XX), (std::vector<VarId>{4}));
}

TEST(ExprPool, ReadersListSelfProductOnce) {
  ExprPool Pool;
  ExprId XX =
      Pool.intern(Expr{Opcode::Mul, Operand::makeVar(4), Operand::makeVar(4)});
  ExprId X1 = Pool.intern(
      Expr{Opcode::Add, Operand::makeVar(4), Operand::makeConst(1)});
  EXPECT_EQ(readers(Pool, 4), (std::vector<ExprId>{XX, X1}));
}

TEST(ExprPool, ReadersAfterClearRetaining) {
  ExprPool Pool;
  Pool.intern(Expr{Opcode::Add, Operand::makeVar(0), Operand::makeVar(9)});
  Pool.intern(Expr{Opcode::Sub, Operand::makeVar(9), Operand::makeVar(3)});
  ASSERT_EQ(readers(Pool, 9).size(), 2u);

  Pool.clearRetaining();
  EXPECT_EQ(Pool.size(), 0u);
  for (VarId V : {0u, 3u, 9u})
    EXPECT_TRUE(Pool.readersOf(V).empty()) << "var " << V;

  // Fresh ids, fresh lists: nothing from before the clear leaks through.
  ExprId A = Pool.intern(
      Expr{Opcode::Neg, Operand::makeVar(3), Operand::makeConst(0)});
  ExprId B =
      Pool.intern(Expr{Opcode::Add, Operand::makeVar(0), Operand::makeVar(9)});
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(readers(Pool, 3), (std::vector<ExprId>{A}));
  EXPECT_EQ(readers(Pool, 0), (std::vector<ExprId>{B}));
  EXPECT_EQ(readers(Pool, 9), (std::vector<ExprId>{B}));
}

TEST(ExprPool, InternRespectsCap) {
  ExprPool Pool;
  Expr AB{Opcode::Add, Operand::makeVar(0), Operand::makeVar(1)};
  Expr AC{Opcode::Add, Operand::makeVar(0), Operand::makeVar(2)};
  EXPECT_EQ(Pool.intern(AB, 1), 0u);
  EXPECT_EQ(Pool.intern(AC, 1), InvalidExpr);
  EXPECT_EQ(Pool.intern(AB, 1), 0u) << "existing expressions pass the cap";
  EXPECT_EQ(Pool.size(), 1u);
  EXPECT_EQ(readers(Pool, 2), std::vector<ExprId>{});
}

TEST(Function, VariableTable) {
  Function Fn("f");
  VarId A = Fn.getOrAddVar("a");
  VarId B = Fn.getOrAddVar("b");
  EXPECT_NE(A, B);
  EXPECT_EQ(Fn.getOrAddVar("a"), A);
  EXPECT_EQ(Fn.varName(B), "b");
  EXPECT_EQ(Fn.findVar("b"), B);
  EXPECT_EQ(Fn.findVar("zz"), InvalidVar);
  VarId T = Fn.addTempVar("h");
  EXPECT_EQ(Fn.varName(T), "h.0");
  // Temps dodge collisions with existing names.
  Fn.getOrAddVar("h.1");
  VarId T2 = Fn.addTempVar("h");
  EXPECT_EQ(Fn.varName(T2), "h.2");
}

TEST(Function, GetOrAddVarRespectsCap) {
  Function Fn("f");
  VarId A = Fn.getOrAddVar("a", 1);
  EXPECT_EQ(Fn.getOrAddVar("b", 1), InvalidVar);
  EXPECT_EQ(Fn.getOrAddVar("a", 1), A) << "existing names pass the cap";
  EXPECT_EQ(Fn.memoryVar(1), InvalidVar);
  EXPECT_EQ(Fn.numVars(), 1u);
  EXPECT_EQ(Fn.findVar("b"), InvalidVar);
}

TEST(Function, EntryAndExit) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  EXPECT_EQ(Fn.entry(), B0);
  EXPECT_EQ(Fn.exit(), B1);
}

TEST(Function, EdgeSymmetry) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  BlockId B2 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  Fn.addEdge(B0, B2);
  Fn.addEdge(B1, B2);
  EXPECT_EQ(Fn.block(B0).succs(), (std::vector<BlockId>{B1, B2}));
  EXPECT_EQ(Fn.block(B2).preds(), (std::vector<BlockId>{B0, B1}));
}

TEST(Function, RedirectEdgePreservesSlots) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  BlockId B2 = Fn.addBlock();
  BlockId B3 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  Fn.addEdge(B0, B2);
  Fn.addEdge(B1, B3);
  Fn.addEdge(B2, B3);
  Fn.redirectEdge(B0, 1, B3);
  EXPECT_EQ(Fn.block(B0).succs(), (std::vector<BlockId>{B1, B3}));
  EXPECT_EQ(Fn.block(B2).preds().size(), 0u);
  // B3 now has three preds: B1, B2, B0.
  EXPECT_EQ(Fn.block(B3).preds().size(), 3u);
}

TEST(Function, SplitEdge) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock("x");
  BlockId B1 = Fn.addBlock("y");
  Fn.addEdge(B0, B1);
  BlockId Mid = Fn.splitEdge(B0, 0);
  EXPECT_EQ(Fn.block(B0).succs(), (std::vector<BlockId>{Mid}));
  EXPECT_EQ(Fn.block(Mid).succs(), (std::vector<BlockId>{B1}));
  EXPECT_EQ(Fn.block(Mid).preds(), (std::vector<BlockId>{B0}));
  EXPECT_EQ(Fn.block(B1).preds(), (std::vector<BlockId>{Mid}));
  EXPECT_EQ(Fn.block(Mid).label(), "x.y");
}

TEST(Function, SplitParallelEdges) {
  Function Fn("f");
  BlockId B0 = Fn.addBlock();
  BlockId B1 = Fn.addBlock();
  Fn.addEdge(B0, B1);
  Fn.addEdge(B0, B1); // Parallel edge.
  BlockId Mid = Fn.splitEdge(B0, 0);
  EXPECT_EQ(Fn.block(B0).succs(), (std::vector<BlockId>{Mid, B1}));
  EXPECT_EQ(Fn.block(B1).preds().size(), 2u);
}

TEST(Function, TextRendering) {
  Function Fn("f");
  IRBuilder B(Fn);
  B.startBlock("b0");
  B.op("x", Opcode::Add, B.var("a"), B.var("b"));
  B.op("y", Opcode::Min, B.var("a"), IRBuilder::cst(3));
  B.unop("z", Opcode::Neg, B.var("x"));
  B.copy("w", IRBuilder::cst(-7));

  const auto &I = Fn.block(0).instrs();
  EXPECT_EQ(Fn.instrText(I[0]), "x = a + b");
  EXPECT_EQ(Fn.instrText(I[1]), "y = min a 3");
  EXPECT_EQ(Fn.instrText(I[2]), "z = - x");
  EXPECT_EQ(Fn.instrText(I[3]), "w = -7");
  EXPECT_EQ(Fn.countOperations(), 3u);
}

TEST(IRBuilder, BranchSetsCondVar) {
  Function Fn("f");
  IRBuilder B(Fn);
  BlockId B0 = B.startBlock();
  BlockId T = B.startBlock();
  BlockId F = B.startBlock();
  B.setBlock(B0);
  B.branch("c", T, F);
  EXPECT_TRUE(Fn.block(B0).hasConditionalBranch());
  EXPECT_EQ(*Fn.block(B0).condVar(), Fn.findVar("c"));
}

} // namespace
