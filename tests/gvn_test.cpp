//===- tests/gvn_test.cpp - Value numbering front end ---------------------===//
//
// Unit coverage for the gvn pass (commutative canonicalization, copy-chain
// congruence, the @mem load/store model) plus the randomized
// GVN-vs-lexical harness: over generated corpora — memory kernels
// included — `lcse,gvn,lcm` must preserve semantics against the
// interpreter oracle (name-aligned on the original variables) and never
// evaluate more than lexical `lcse,lcm`.
//
//===----------------------------------------------------------------------===//

#include "baseline/Cleanup.h"
#include "cache/ContentHash.h"
#include "core/LocalCse.h"
#include "driver/CorpusDriver.h"
#include "driver/Pipeline.h"
#include "gvn/Gvn.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "metrics/Cost.h"
#include "workload/AddressGen.h"
#include "workload/Corpus.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

#include <gtest/gtest.h>

using namespace lcm;

namespace {

Function parse(const std::string &Text) {
  ParseResult P = parseFunction(Text);
  EXPECT_TRUE(P.Ok) << P.Error;
  return std::move(P.Fn);
}

/// Distinct expression ids referenced by operations.
size_t distinctExprs(const Function &Fn) {
  std::vector<char> Seen(Fn.exprs().size(), 0);
  size_t N = 0;
  for (const BasicBlock &B : Fn.blocks())
    for (const Instr &I : B.instrs())
      if (I.isOperation() && !Seen[I.exprId()]) {
        Seen[I.exprId()] = 1;
        ++N;
      }
  return N;
}

InterpResult runSeeded(const Function &Fn, uint64_t Seed, size_t NumInputVars,
                       uint32_t OriginalBlockCount) {
  RandomOracle Oracle(Seed ^ 0x94d049bb133111ebULL);
  Interpreter::Options Opts;
  Opts.MaxOriginalBlockVisits = 3000;
  Opts.OriginalBlockCount = OriginalBlockCount;
  return Interpreter::run(Fn, makeSeededInputs(Seed, NumInputVars), Oracle,
                          Opts);
}

TEST(GvnUnit, CommutativeOperandsMerge) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  t1 = x + y\n"
                      "  t2 = y + x\n"
                      "  t3 = x * y\n"
                      "  t4 = y * x\n"
                      "  exit\n");
  gvn::ValueNumbering VN;
  gvn::GvnReport R = gvn::runGvn(Fn, &VN);
  EXPECT_TRUE(isValidFunction(Fn)) << printFunction(Fn);
  EXPECT_EQ(distinctExprs(Fn), 2u) << printFunction(Fn);
  EXPECT_EQ(R.MergedExprs, 2u);
  const auto &Entry = VN.ClassOf[Fn.entry()];
  EXPECT_EQ(Entry[0], Entry[1]);
  EXPECT_EQ(Entry[2], Entry[3]);
  EXPECT_NE(Entry[0], Entry[2]);
}

TEST(GvnUnit, OrderedComparisonsFlipToMirror) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  t1 = a < b\n"
                      "  t2 = b > a\n"
                      "  t3 = a <= b\n"
                      "  t4 = b >= a\n"
                      "  exit\n");
  gvn::ValueNumbering VN;
  gvn::runGvn(Fn, &VN);
  EXPECT_TRUE(isValidFunction(Fn));
  EXPECT_EQ(distinctExprs(Fn), 2u) << printFunction(Fn);
  const auto &Entry = VN.ClassOf[Fn.entry()];
  EXPECT_EQ(Entry[0], Entry[1]);
  EXPECT_EQ(Entry[2], Entry[3]);
}

TEST(GvnUnit, CopyChainCongruence) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  a = x\n"
                      "  b = a\n"
                      "  t1 = b + y\n"
                      "  t2 = x + y\n"
                      "  exit\n");
  gvn::ValueNumbering VN;
  gvn::GvnReport R = gvn::runGvn(Fn, &VN);
  EXPECT_TRUE(isValidFunction(Fn));
  EXPECT_EQ(distinctExprs(Fn), 1u) << printFunction(Fn);
  EXPECT_EQ(R.MergedExprs, 1u);
  const auto &Entry = VN.ClassOf[Fn.entry()];
  // a, b, and x are one class; t1 and t2 another.
  EXPECT_EQ(Entry[0], Entry[1]);
  EXPECT_EQ(Entry[2], Entry[3]);
}

TEST(GvnUnit, ConstantsFoldIntoClasses) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  a = 3\n"
                      "  b = 4\n"
                      "  t1 = a + b\n"
                      "  t2 = 3 + 4\n"
                      "  u = t1 + z\n"
                      "  v = t2 + z\n"
                      "  exit\n");
  gvn::ValueNumbering VN;
  gvn::runGvn(Fn, &VN);
  EXPECT_TRUE(isValidFunction(Fn));
  const auto &Entry = VN.ClassOf[Fn.entry()];
  EXPECT_EQ(Entry[2], Entry[3]); // both are Const(7)
  EXPECT_EQ(Entry[4], Entry[5]);
  EXPECT_EQ(distinctExprs(Fn), 2u) << printFunction(Fn);
}

TEST(GvnUnit, JoinDisagreementStaysSeparate) {
  // x differs along the two paths into `join`, so x+y there must NOT be
  // congruent with the x+y computed in `left`.
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  if p then left else right\n"
                      "block left\n"
                      "  x = 1\n"
                      "  t1 = x + y\n"
                      "  goto join\n"
                      "block right\n"
                      "  x = 2\n"
                      "  goto join\n"
                      "block join\n"
                      "  t2 = x + y\n"
                      "  exit\n");
  gvn::ValueNumbering VN;
  gvn::runGvn(Fn, &VN);
  EXPECT_TRUE(isValidFunction(Fn));
  BlockId Left = 1, Join = 3;
  ASSERT_EQ(Fn.block(Left).label(), "left");
  ASSERT_EQ(Fn.block(Join).label(), "join");
  EXPECT_NE(VN.ClassOf[Left][1], VN.ClassOf[Join][0]);
}

TEST(GvnUnit, LoadsCongruentUntilStoreIntervenes) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  a = p\n"
                      "  t1 = load p\n"
                      "  t2 = load a\n"
                      "  store q 7\n"
                      "  t3 = load a\n"
                      "  exit\n");
  gvn::ValueNumbering VN;
  gvn::runGvn(Fn, &VN);
  EXPECT_TRUE(isValidFunction(Fn)) << printFunction(Fn);
  const auto &Entry = VN.ClassOf[Fn.entry()];
  // load p and load a read the same address in the same memory state;
  // the store produces a new state, so the third load is separate.
  EXPECT_EQ(Entry[1], Entry[2]);
  EXPECT_NE(Entry[2], Entry[4]);
  // After rewriting, every load reads the canonical address variable, so
  // one lexical expression remains (the store still kills it in between).
  EXPECT_EQ(distinctExprs(Fn), 1u) << printFunction(Fn);
}

TEST(GvnUnit, RedundantStoreKeepsMemoryClass) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  t1 = load p\n"
                      "  store p t1\n"
                      "  t2 = load p\n"
                      "  exit\n");
  gvn::ValueNumbering VN;
  gvn::runGvn(Fn, &VN);
  // Storing back the just-loaded value produces a distinct memory state
  // class (we do not prove store-forwarding), so the loads stay separate;
  // what matters is that numbering the store is deterministic and sound.
  EXPECT_TRUE(isValidFunction(Fn));
  EXPECT_EQ(VN.ClassOf[Fn.entry()].size(), 3u);
}

TEST(GvnUnit, NeverSplitsALexicalClass) {
  // x+y occurs twice with *different* values of x; GVN must leave the
  // shared lexical form alone rather than rewrite one occurrence.
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  t1 = x + y\n"
                      "  x = t1\n"
                      "  t2 = x + y\n"
                      "  exit\n");
  size_t Before = distinctExprs(Fn);
  gvn::runGvn(Fn);
  EXPECT_TRUE(isValidFunction(Fn));
  EXPECT_LE(distinctExprs(Fn), Before) << printFunction(Fn);
}

TEST(GvnUnit, IdempotentOnOwnOutput) {
  MemoryGenOptions Opts;
  Opts.Seed = 7;
  Opts.Depth = 2;
  Function Fn = generateMemoryKernel(Opts);
  gvn::runGvn(Fn);
  std::string Once = printFunction(Fn);
  gvn::GvnReport Second = gvn::runGvn(Fn);
  EXPECT_EQ(printFunction(Fn), Once);
  EXPECT_EQ(Second.MergedExprs, 0u);
}

TEST(GvnUnit, StoresSurviveCleanup) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  t = a + b\n"
                      "  store t 5\n"
                      "  dead = a * b\n"
                      "  exit\n");
  CleanupOptions Opts;
  Opts.NumObservableVars = 0; // memory is the only observable effect
  runCleanup(Fn, Opts);
  EXPECT_TRUE(isValidFunction(Fn));
  bool HasStore = false;
  size_t Ops = 0;
  for (const BasicBlock &B : Fn.blocks())
    for (const Instr &I : B.instrs()) {
      HasStore = HasStore || I.isStore();
      Ops += I.isOperation();
    }
  // The store is observable and roots its address computation; the
  // unused product is dead.
  EXPECT_TRUE(HasStore) << printFunction(Fn);
  EXPECT_EQ(Ops, 1u) << printFunction(Fn);
}

//===----------------------------------------------------------------------===//
// Randomized GVN-vs-lexical equivalence harness
//===----------------------------------------------------------------------===//

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

void applyPipeline(Function &Fn, const std::string &Spec) {
  PipelineParse P = parsePipeline(Spec);
  ASSERT_TRUE(P.Ok) << P.Error;
  Pipeline::RunResult R = P.P.run(Fn);
  ASSERT_TRUE(R.Ok) << R.Error;
}

class GvnVsLexical : public testing::TestWithParam<unsigned> {};

TEST_P(GvnVsLexical, EquivalentAndNeverWorse) {
  const Function Original = makeHarnessProgram(GetParam());
  ASSERT_TRUE(isValidFunction(Original)) << printFunction(Original);

  Function Lexical = Original;
  applyPipeline(Lexical, "lcse,lcm");
  Function Valued = Original;
  applyPipeline(Valued, "lcse,gvn,lcm");

  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    InterpResult Base = runSeeded(Original, Seed, Original.numVars(),
                                  uint32_t(Original.numBlocks()));
    InterpResult Lex = runSeeded(Lexical, Seed, Original.numVars(),
                                 uint32_t(Original.numBlocks()));
    InterpResult Val = runSeeded(Valued, Seed, Original.numVars(),
                                 uint32_t(Original.numBlocks()));
    // Name-aligned oracle equivalence over the original variables (and
    // the memory map) — zero mismatches tolerated.
    EXPECT_TRUE(sameObservableBehaviour(Base, Val, Original.numVars()))
        << "lcse,gvn,lcm changed semantics, program " << GetParam()
        << " seed " << Seed << "\n== original ==\n"
        << printFunction(Original) << "\n== transformed ==\n"
        << printFunction(Valued);
    if (Base.ReachedExit && Lex.ReachedExit && Val.ReachedExit) {
      EXPECT_LE(Val.TotalEvals, Lex.TotalEvals)
          << "gvn regressed dynamic evaluations, program " << GetParam()
          << " seed " << Seed;
    }
  }
}

TEST_P(GvnVsLexical, GvnAlonePreservesSemantics) {
  const Function Original = makeHarnessProgram(GetParam());
  Function Transformed = Original;
  gvn::runGvn(Transformed);
  ASSERT_TRUE(isValidFunction(Transformed)) << printFunction(Transformed);
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    InterpResult Base = runSeeded(Original, Seed, Original.numVars(),
                                  uint32_t(Original.numBlocks()));
    InterpResult After = runSeeded(Transformed, Seed, Original.numVars(),
                                   uint32_t(Original.numBlocks()));
    EXPECT_TRUE(sameObservableBehaviour(Base, After, Original.numVars()))
        << "gvn changed semantics, program " << GetParam() << " seed "
        << Seed << "\n== original ==\n"
        << printFunction(Original) << "\n== transformed ==\n"
        << printFunction(Transformed);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, GvnVsLexical, testing::Range(0u, 72u));

//===----------------------------------------------------------------------===//
// Identity pin: class ids, homes and rewritten text over a fixed draw
//===----------------------------------------------------------------------===//

/// A memory kernel of the wide shape (7 blocks, ~2,000 instructions, some
/// 1,500 variables): where GVN's cost per instruction shows.
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

/// The pinned draw: the default corpus, the harness programs and four
/// wide kernels.
std::vector<Function> identityDraw() {
  std::vector<Function> Fns;
  for (const CorpusEntry &E : makeDefaultCorpus())
    Fns.push_back(E.Make());
  for (unsigned I = 0; I != 72; ++I)
    Fns.push_back(makeHarnessProgram(I));
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    Fns.push_back(makeWideKernel(Seed));
  return Fns;
}

/// Folds one GVN run into \p H: the rewritten text, every class id, the
/// class count and the report.
void hashGvnRun(Function Fn, cache::Hasher &H) {
  gvn::ValueNumbering VN;
  const gvn::GvnReport R = gvn::runGvn(Fn, &VN);
  H.update(printFunction(Fn));
  for (const std::vector<gvn::ClassId> &Block : VN.ClassOf) {
    H.updateU64(Block.size());
    for (gvn::ClassId C : Block)
      H.updateU64(C);
  }
  H.updateU64(VN.NumClasses);
  H.updateU64(R.Classes);
  H.updateU64(R.MergedExprs);
  H.updateU64(R.OperandsRewritten);
  H.updateU64(R.InstrsNumbered);
}

// Class ids come from creation order along the RPO walk and homes from the
// first variable seen holding a class; a change to the pass's data
// structures must reproduce both exactly.  The digest was taken from the
// std::map-interned implementation.
TEST(GvnIdentity, DigestOverFixedDrawIsPinned) {
  cache::Hasher H;
  for (Function &Fn : identityDraw()) {
    hashGvnRun(Fn, H); // as written
    runLocalCse(Fn);
    hashGvnRun(Fn, H); // as the `gvn` pipeline pass sees it
  }
  EXPECT_EQ(H.digest().hex(), "014779cfcde90e4dac097b75d4fd86af");
}

// The pass keeps its numbering state in thread-local storage reused across
// calls; the corpus driver on four threads must reproduce the serial
// outputs exactly (and run clean under TSan).
TEST(GvnIdentity, CorpusDriverThreadsAgree) {
  PipelineParse P = parsePipeline("lcse,gvn,lcm");
  ASSERT_TRUE(P.Ok) << P.Error;
  std::vector<Function> Serial = identityDraw();
  std::vector<Function> Parallel = identityDraw();
  CorpusDriverResult SR = optimizeCorpus(Serial, P.P, {.Threads = 1});
  CorpusDriverResult PR = optimizeCorpus(Parallel, P.P, {.Threads = 4});
  ASSERT_EQ(SR.NumFailed, 0u);
  ASSERT_EQ(PR.NumFailed, 0u);
  EXPECT_EQ(PR.ThreadsUsed, 4u);
  EXPECT_EQ(SR.TotalChanges, PR.TotalChanges);
  for (size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(SR.PerFunction[I].Changes, PR.PerFunction[I].Changes)
        << "function " << I;
    EXPECT_EQ(printFunction(Serial[I]), printFunction(Parallel[I]))
        << "function " << I;
  }
}

//===----------------------------------------------------------------------===//
// Memory IR model
//===----------------------------------------------------------------------===//

TEST(MemoryIr, ParsePrintRoundTrip) {
  const std::string Text = "func f\n"
                           "block entry\n"
                           "  a = p + 8\n"
                           "  x = load a\n"
                           "  store a x\n"
                           "  exit\n";
  Function Fn = parse(Text);
  EXPECT_EQ(printFunction(Fn), Text);
}

TEST(MemoryIr, VerifierRejectsMemAssignment) {
  ParseResult P = parseFunction("func f\nblock entry\n  @mem = x\n  exit\n");
  EXPECT_FALSE(P.Ok);
}

TEST(MemoryIr, InterpreterLoadStoreSemantics) {
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  store p 41\n"
                      "  x = load p\n"
                      "  y = x + 1\n"
                      "  z = load q\n"
                      "  exit\n");
  FirstSuccessorOracle Oracle;
  Interpreter::Options Opts;
  std::vector<int64_t> Inputs(Fn.numVars(), 0);
  Inputs[Fn.findVar("p")] = 100;
  Inputs[Fn.findVar("q")] = 200;
  InterpResult R = Interpreter::run(Fn, Inputs, Oracle, Opts);
  EXPECT_EQ(R.Vars[Fn.findVar("x")], 41);
  EXPECT_EQ(R.Vars[Fn.findVar("y")], 42);
  // Unwritten addresses read their deterministic default.
  EXPECT_EQ(R.Vars[Fn.findVar("z")], memDefault(200));
  EXPECT_EQ(R.Mem.at(100), 41);
}

TEST(MemoryIr, StoreKillsLoadAcrossBlocks) {
  // Lexical LCM on an already-canonical program: the second load must not
  // be treated as redundant across the store.
  Function Fn = parse("func f\n"
                      "block entry\n"
                      "  x = load p\n"
                      "  store p 9\n"
                      "  y = load p\n"
                      "  exit\n");
  applyPipeline(Fn, "lcse,lcm");
  FirstSuccessorOracle Oracle;
  Interpreter::Options Opts;
  std::vector<int64_t> Inputs(Fn.numVars(), 0);
  Inputs[Fn.findVar("p")] = 5;
  InterpResult R = Interpreter::run(Fn, Inputs, Oracle, Opts);
  EXPECT_EQ(R.Vars[Fn.findVar("x")], memDefault(5));
  EXPECT_EQ(R.Vars[Fn.findVar("y")], 9);
}

} // namespace
