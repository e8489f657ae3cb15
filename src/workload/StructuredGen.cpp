//===- workload/StructuredGen.cpp ------------------------------------------===//

#include "workload/StructuredGen.h"

#include "ir/IRBuilder.h"
#include "support/Rng.h"

using namespace lcm;

namespace {

/// Generator state threaded through the recursive construction.
class Generator {
public:
  Generator(Function &Fn, const StructuredGenOptions &Opts)
      : Fn(Fn), B(Fn), Opts(Opts), R(Opts.Seed) {}

  void run() {
    Cur = B.startBlock("entry");
    genSeq(0);
    // The block we end in becomes the exit (no successors added).
    Fn.block(Cur).setLabel(Fn.block(Cur).label());
  }

private:
  Function &Fn;
  IRBuilder B;
  StructuredGenOptions Opts;
  Rng R;
  BlockId Cur = InvalidBlock;
  unsigned NextLabel = 0;
  unsigned NextCounter = 0;
  /// Previously drawn expressions, re-drawn to induce redundancy.
  std::vector<Expr> ExprMemo;

  std::string freshLabel(const char *Hint) {
    return std::string(Hint) + std::to_string(NextLabel++);
  }

  std::string varName(unsigned I) const { return "v" + std::to_string(I); }

  Operand randomOperand() {
    if (R.chance(1, 5))
      return Operand::makeConst(R.range(0, 7));
    return B.var(varName(unsigned(R.below(Opts.NumVars))));
  }

  Expr randomExpr() {
    if (!ExprMemo.empty() && R.chance(Opts.ReusePercent, 100))
      return ExprMemo[R.below(ExprMemo.size())];
    static const Opcode Pool[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                  Opcode::And, Opcode::Xor, Opcode::Shl,
                                  Opcode::CmpLt, Opcode::Min};
    Expr E{Pool[R.below(std::size(Pool))], randomOperand(), randomOperand()};
    ExprMemo.push_back(E);
    return E;
  }

  void genAssign() {
    Expr E = randomExpr();
    B.setBlock(Cur);
    B.op(varName(unsigned(R.below(Opts.NumVars))), E.Op, E.Lhs, E.Rhs);
  }

  void genIf(unsigned Depth) {
    // Condition computed from program state: c = x < y.
    std::string Cond = "c" + std::to_string(NextCounter++);
    B.setBlock(Cur);
    // Drawn in sequence: the evaluation order of function arguments is
    // unspecified, and the program must not depend on the compiler.  Rhs
    // first is the order GCC used, so the seeded programs (and every
    // figure pinned on them) stay as they were.
    const Operand Rhs = randomOperand();
    const Operand Lhs = randomOperand();
    B.op(Cond, Opcode::CmpLt, Lhs, Rhs);

    BlockId Then = B.startBlock(freshLabel("t"));
    BlockId Else = B.startBlock(freshLabel("e"));
    BlockId Join = B.startBlock(freshLabel("j"));

    B.setBlock(Cur);
    B.branch(Cond, Then, Else);

    Cur = Then;
    genSeq(Depth + 1);
    B.setBlock(Cur);
    B.jump(Join);

    Cur = Else;
    genSeq(Depth + 1);
    B.setBlock(Cur);
    B.jump(Join);

    Cur = Join;
  }

  void genWhile(unsigned Depth) {
    std::string Counter = "n" + std::to_string(NextCounter++);
    B.setBlock(Cur);
    B.copy(Counter, Operand::makeConst(R.range(0, Opts.MaxTripCount)));

    BlockId Header = B.startBlock(freshLabel("h"));
    BlockId Body = B.startBlock(freshLabel("w"));
    BlockId After = B.startBlock(freshLabel("a"));

    B.setBlock(Cur);
    B.jump(Header);

    B.setBlock(Header);
    B.branch(Counter, Body, After);

    Cur = Body;
    genSeq(Depth + 1);
    B.setBlock(Cur);
    B.op(Counter, Opcode::Sub, B.var(Counter), IRBuilder::cst(1));
    B.jump(Header);

    Cur = After;
  }

  void genSeq(unsigned Depth) {
    unsigned NumStmts = 1 + unsigned(R.below(Opts.MaxStmtsPerSeq));
    for (unsigned I = 0; I != NumStmts; ++I) {
      if (Depth < Opts.MaxDepth && R.chance(Opts.ControlPercent, 100)) {
        if (R.chance(1, 2))
          genIf(Depth);
        else
          genWhile(Depth);
      } else {
        genAssign();
      }
    }
  }
};

} // namespace

Function lcm::generateStructured(const StructuredGenOptions &Opts) {
  Function Fn("structured." + std::to_string(Opts.Seed));
  Generator G(Fn, Opts);
  G.run();
  return Fn;
}
