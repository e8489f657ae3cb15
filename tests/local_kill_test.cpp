//===- tests/local_kill_test.cpp - Local kills vs the dense reference ----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
// Every local kill fact (ANTLOC/COMP/TRANSP, per-occurrence exposure and
// local availability in runLocalCse) is computed from per-variable
// definition positions (analysis/BlockDefs.h).  This test keeps the
// algorithm those replaced as a reference: per instruction, OR a dense
// full-universe bit vector of "expressions reading dest" into a kill set.
// The reference builds its reader rows from ExprPool::reads() alone, so it
// shares no code with the lists and stamps under test.
//
// The rewrite in runPreInto depends on kills only through LocalProperties
// and computeExposureInto, so matching both on the function runPreInto
// sees (the LCSE-cleaned one) pins its output as well; runPreInto is then
// run and the same facts rechecked on the program it produces.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/LocalProperties.h"
#include "core/Lcm.h"
#include "core/LocalCse.h"
#include "core/Placement.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/BitVector.h"
#include "workload/AddressGen.h"
#include "workload/Corpus.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

using namespace lcm;

namespace {

//===----------------------------------------------------------------------===//
// Reference: dense kill sets per instruction
//===----------------------------------------------------------------------===//

/// Per variable, the expressions reading it, from ExprPool::reads().
std::vector<BitVector> denseReaders(const Function &Fn) {
  const ExprPool &Pool = Fn.exprs();
  std::vector<BitVector> Rows(Fn.numVars(), BitVector(Pool.size()));
  for (VarId V = 0; V != Fn.numVars(); ++V)
    for (ExprId E = 0; E != Pool.size(); ++E)
      if (Pool.reads(E, V))
        Rows[V].set(E);
  return Rows;
}

struct RefProps {
  std::vector<BitVector> AntLoc, Comp, Transp;
};

RefProps refLocalProperties(const Function &Fn,
                            const std::vector<BitVector> &Readers) {
  const ExprPool &Pool = Fn.exprs();
  RefProps P;
  for (const BasicBlock &B : Fn.blocks()) {
    BitVector AntLoc(Pool.size()), Comp(Pool.size()),
        Transp(Pool.size(), true), Killed(Pool.size());
    const auto &Instrs = B.instrs();
    for (const Instr &I : Instrs) {
      if (I.isOperation() && !Killed.test(I.exprId()))
        AntLoc.set(I.exprId());
      Killed |= Readers[I.dest()];
      Transp.andNot(Readers[I.dest()]);
    }
    Killed.resetAll();
    for (size_t I = Instrs.size(); I-- != 0;) {
      const Instr &In = Instrs[I];
      if (In.isOperation() && !Killed.test(In.exprId()) &&
          !Pool.reads(In.exprId(), In.dest()))
        Comp.set(In.exprId());
      Killed |= Readers[In.dest()];
    }
    P.AntLoc.push_back(AntLoc);
    P.Comp.push_back(Comp);
    P.Transp.push_back(Transp);
  }
  return P;
}

Exposure refExposure(const Function &Fn, const BasicBlock &B,
                     const std::vector<BitVector> &Readers) {
  const ExprPool &Pool = Fn.exprs();
  const auto &Instrs = B.instrs();
  Exposure X;
  X.Upward.assign(Instrs.size(), false);
  X.Downward.assign(Instrs.size(), false);
  BitVector Killed(Pool.size());
  for (size_t I = 0; I != Instrs.size(); ++I) {
    if (Instrs[I].isOperation() && !Killed.test(Instrs[I].exprId()))
      X.Upward[I] = true;
    Killed |= Readers[Instrs[I].dest()];
  }
  Killed.resetAll();
  for (size_t I = Instrs.size(); I-- != 0;) {
    const Instr &In = Instrs[I];
    if (In.isOperation() && !Killed.test(In.exprId()) &&
        !Pool.reads(In.exprId(), In.dest()))
      X.Downward[I] = true;
    Killed |= Readers[In.dest()];
  }
  return X;
}

uint64_t refLocalCse(Function &Fn) {
  const ExprPool &Pool = Fn.exprs();
  const size_t Universe = Pool.size();
  // Temps created below read nothing, so rows for the original variables
  // cover every kill.
  const std::vector<BitVector> Readers = denseReaders(Fn);
  uint64_t Replaced = 0;
  for (BasicBlock &B : Fn.blocks()) {
    auto &Instrs = B.instrs();
    BitVector Avail(Universe), Reused(Universe);
    size_t NumReused = 0;
    for (const Instr &I : Instrs) {
      if (I.isOperation() && Avail.test(I.exprId()) &&
          !Reused.test(I.exprId())) {
        Reused.set(I.exprId());
        ++NumReused;
      }
      Avail.andNot(Readers[I.dest()]);
      if (I.isOperation() && !Pool.reads(I.exprId(), I.dest()))
        Avail.set(I.exprId());
    }
    if (NumReused == 0)
      continue;
    std::vector<VarId> TempOf(Universe, InvalidVar);
    std::vector<Instr> NewInstrs;
    Avail.resetAll();
    for (const Instr &I : Instrs) {
      if (I.isOperation() && Reused.test(I.exprId())) {
        ExprId E = I.exprId();
        if (TempOf[E] == InvalidVar)
          TempOf[E] = Fn.addTempVar("cse");
        VarId T = TempOf[E];
        if (Avail.test(E)) {
          NewInstrs.push_back(Instr::makeCopy(I.dest(), Operand::makeVar(T)));
          ++Replaced;
        } else {
          NewInstrs.push_back(Instr::makeOperation(T, E));
          NewInstrs.push_back(Instr::makeCopy(I.dest(), Operand::makeVar(T)));
        }
      } else {
        NewInstrs.push_back(I);
      }
      Avail.andNot(Readers[I.dest()]);
      if (I.isOperation() && !Pool.reads(I.exprId(), I.dest()))
        Avail.set(I.exprId());
    }
    Instrs = NewInstrs;
  }
  return Replaced;
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

/// Number of disagreements between the implementation and the reference
/// on \p Fn's local predicates and exposure flags; details go to \p Log.
unsigned countFactMismatches(const Function &Fn, std::string &Log) {
  unsigned Bad = 0;
  const LocalProperties LP(Fn);
  const std::vector<BitVector> Readers = denseReaders(Fn);
  const RefProps Ref = refLocalProperties(Fn, Readers);
  for (const BasicBlock &B : Fn.blocks()) {
    const BlockId Id = B.id();
    const bool Rows = LP.antloc(Id) == Ref.AntLoc[Id] &&
                      LP.comp(Id) == Ref.Comp[Id] &&
                      LP.transp(Id) == Ref.Transp[Id];
    Exposure X;
    computeExposureInto(Fn, B, X);
    const Exposure RX = refExposure(Fn, B, Readers);
    const bool Flags = X.Upward == RX.Upward && X.Downward == RX.Downward;
    if (!Rows || !Flags) {
      ++Bad;
      Log += Fn.name() + " block " + B.label() +
             (Rows ? "" : ": ANTLOC/COMP/TRANSP differ") +
             (Flags ? "" : ": exposure flags differ") + "\n";
    }
  }
  return Bad;
}

/// Checks \p Fn end to end against the reference: local facts on the
/// input, LCSE output, facts on the cleaned function, then runPreInto
/// under each strategy and the facts on its result.
unsigned countMismatches(const Function &Fn, std::string &Log) {
  unsigned Bad = countFactMismatches(Fn, Log);
  Function Mine = Fn, Ref = Fn;
  const uint64_t N = runLocalCse(Mine);
  const uint64_t RefN = refLocalCse(Ref);
  const std::string Out = printFunction(Mine);
  if (N != RefN || Out != printFunction(Ref)) {
    ++Bad;
    Log += Fn.name() + ": runLocalCse output differs from the reference\n";
  }
  Bad += countFactMismatches(Mine, Log);
  for (PreStrategy S :
       {PreStrategy::Busy, PreStrategy::AlmostLazy, PreStrategy::Lazy}) {
    Function After = Mine;
    PreRunResult R;
    runPreInto(After, S, SolverStrategy::Sparse, R);
    Bad += countFactMismatches(After, Log);
  }
  return Bad;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// GVN's randomized harness draw: memory kernels, structured programs and
/// random CFGs in turn.
Function makeHarnessProgram(unsigned Index) {
  unsigned Seed = Index / 3 + 1;
  switch (Index % 3) {
  case 0: {
    MemoryGenOptions Opts;
    Opts.Seed = Seed;
    Opts.Depth = 1 + Seed % 3;
    Opts.StmtsPerBody = 4 + Seed % 6;
    return generateMemoryKernel(Opts);
  }
  case 1: {
    StructuredGenOptions Opts;
    Opts.Seed = Seed;
    Opts.MaxDepth = 2 + Seed % 3;
    Opts.NumVars = 4 + Seed % 4;
    return generateStructured(Opts);
  }
  default: {
    RandomCfgOptions Opts;
    Opts.Seed = Seed;
    Opts.NumBlocks = 6 + Seed % 14;
    Opts.NumVars = 3 + Seed % 4;
    return generateRandomCfg(Opts);
  }
  }
}

/// A memory kernel of lcmbench's Wide shape: 7 blocks, ~2,000
/// instructions, well over 512 expressions.
Function makeWideKernel(uint64_t Seed) {
  MemoryGenOptions Opts;
  Opts.Seed = Seed;
  Opts.Depth = 2;
  Opts.TripCount = 3;
  Opts.NumArrays = 24;
  Opts.StmtsPerBody = 480 + 40 * unsigned(Seed % 3);
  Opts.ReusePercent = 20;
  return generateMemoryKernel(Opts);
}

Function parse(const char *Source) {
  ParseResult R = parseFunction(Source);
  EXPECT_TRUE(R) << R.Error;
  return std::move(R.Fn);
}

/// The shapes where a position-based rule could most easily go wrong.
std::vector<Function> handCases() {
  std::vector<Function> Fns;
  // An occurrence that overwrites its own operand.
  Fns.push_back(parse("func self_inc\nblock b0\n  x = x + 1\n"
                      "  y = x + 1\n  x = x + 1\n  exit\n"));
  // An operand read twice, then overwritten by the occurrence.
  Fns.push_back(parse("func self_sq\nblock b0\n  y = x * x\n  x = x * x\n"
                      "  z = x * x\n  exit\n"));
  // A variable defined twice in one block, around occurrences.
  Fns.push_back(parse("func twice\nblock b0\n  u = a + b\n  a = 1\n"
                      "  v = a + b\n  a = 2\n  w = a + b\n  t = a + b\n"
                      "  exit\n"));
  // A store between two loads of the same address.
  Fns.push_back(parse("func mem\nblock b0\n  x = load p\n  store p x\n"
                      "  y = load p\n  z = load p\n  exit\n"));
  // A recomputation after an operand is redefined, in a loop.
  Fns.push_back(parse("func redef\nblock b0\n  x = a + b\n  goto b1\n"
                      "block b1\n  y = a + b\n  b = y - 1\n  z = a + b\n"
                      "  w = a + b\n  if z then b1 else b2\n"
                      "block b2\n  r = a + b\n  exit\n"));
  return Fns;
}

std::vector<Function> allInputs() {
  std::vector<Function> Fns = handCases();
  for (const CorpusEntry &E : makeDefaultCorpus())
    Fns.push_back(E.Make());
  for (unsigned I = 0; I != 72; ++I)
    Fns.push_back(makeHarnessProgram(I));
  for (unsigned Seed = 1; Seed <= 40; ++Seed) {
    RandomCfgOptions Opts;
    Opts.Seed = 1000 + Seed;
    Opts.NumBlocks = 4 + Seed % 20;
    Opts.NumVars = 2 + Seed % 6;
    Fns.push_back(generateRandomCfg(Opts));
  }
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    Fns.push_back(makeWideKernel(Seed));
  return Fns;
}

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(LocalKill, AgreesWithDenseReference) {
  std::string Log;
  unsigned Bad = 0;
  for (const Function &Fn : allInputs())
    Bad += countMismatches(Fn, Log);
  EXPECT_EQ(Bad, 0u) << Log;
}

TEST(LocalKill, HandCasePredicates) {
  // x = x + 1 is upward exposed but overwrites its operand: ANTLOC, not
  // COMP, not TRANSP.
  {
    Function Fn = parse("block b0\n  x = x + 1\n  exit\n");
    LocalProperties LP(Fn);
    EXPECT_TRUE(LP.antloc(0).test(0));
    EXPECT_FALSE(LP.comp(0).test(0));
    EXPECT_FALSE(LP.transp(0).test(0));
  }
  // y = x * x; x = 5: the product is listed once among x's readers and
  // killed once; the occurrence is ANTLOC but not COMP.
  {
    Function Fn = parse("block b0\n  y = x * x\n  x = 5\n  exit\n");
    LocalProperties LP(Fn);
    EXPECT_TRUE(LP.antloc(0).test(0));
    EXPECT_FALSE(LP.comp(0).test(0));
    EXPECT_FALSE(LP.transp(0).test(0));
  }
  // A store separates two loads: neither load is available at the next,
  // but the last one is downward exposed.
  {
    Function Fn = parse("block b0\n  x = load p\n  store p 1\n"
                        "  y = load p\n  exit\n");
    EXPECT_EQ(runLocalCse(Fn), 0u);
    LocalProperties LP(Fn);
    EXPECT_TRUE(LP.antloc(0).test(0));
    EXPECT_TRUE(LP.comp(0).test(0));
    EXPECT_FALSE(LP.transp(0).test(0));
  }
  // Recomputed after a redefinition, then reused: one replacement, and
  // the temp is recomputed after the kill.
  {
    Function Fn = parse("block b0\n  x = a + b\n  a = 1\n  y = a + b\n"
                        "  z = a + b\n  exit\n");
    EXPECT_EQ(runLocalCse(Fn), 1u);
    EXPECT_EQ(printFunction(Fn), "func f\n"
                                 "block b0\n"
                                 "  cse.0 = a + b\n"
                                 "  x = cse.0\n"
                                 "  a = 1\n"
                                 "  cse.0 = a + b\n"
                                 "  y = cse.0\n"
                                 "  z = cse.0\n"
                                 "  exit\n");
  }
}

// The stamp arrays are thread_local; four threads running the same checks
// at once must each see their own (run under TSan in CI).
TEST(LocalKill, AgreesWithReferenceAcrossThreads) {
  const std::vector<Function> Fns = allInputs();
  constexpr unsigned NumThreads = 4;
  std::vector<unsigned> Bad(NumThreads, 0);
  std::vector<std::string> Logs(NumThreads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != NumThreads; ++T)
    Workers.emplace_back([&, T] {
      for (size_t I = T; I < Fns.size(); I += NumThreads)
        Bad[T] += countMismatches(Fns[I], Logs[T]);
    });
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Bad[T], 0u) << Logs[T];
}

// The local analyses do no full-universe sweep per instruction: on a Wide
// kernel, local CSE plus ANTLOC/COMP/TRANSP cost at most four bit-vector
// word operations per (block, word of the universe), where one sweep per
// instruction costs ~2.4 * 10^5.  An exact count, not a timing.
TEST(LocalKill, WideKernelWordOpsAreLinearInBlocks) {
  if (!LCM_COUNT_WORDOPS)
    GTEST_SKIP() << "word-op counting compiled out";
  Function Fn = makeWideKernel(1);
  const uint64_t Words = (Fn.exprs().size() + 63) / 64;
  const uint64_t Bound = 4 * Fn.numBlocks() * Words;
  LocalProperties LP;
  const uint64_t Before = BitVectorOps::snapshot();
  runLocalCse(Fn);
  LP.recompute(Fn);
  const uint64_t Spent = BitVectorOps::snapshot() - Before;
  EXPECT_GT(Fn.exprs().size(), 512u) << "not a Wide kernel";
  EXPECT_LE(Spent, Bound) << "blocks=" << Fn.numBlocks()
                          << " words=" << Words;
}

} // namespace
