//===- tests/property_test.cpp - The paper's theorems, tested empirically -===//
//
// Each property below is one of the guarantees PLDI'92 proves, checked over
// randomized structured programs and arbitrary random CFGs:
//
// - admissibility: transformed programs are semantically equivalent
//   (identical observable state along oracle-aligned paths);
// - safety: insertions only at points where the expression is anticipated;
// - computational optimality: BCM/ALCM/LCM never evaluate more than the
//   original or any baseline, and BCM == ALCM == LCM path-wise;
// - lifetime optimality: LCM temp lifetimes <= ALCM <= (and <= BCM);
// - idempotence: LCM on its own output places nothing;
// - granularity equivalence: on LCSE-clean programs, block-level LCM and
//   the paper's single-instruction-node LCM leave behaviourally identical
//   programs (same dynamic evaluation counts).
//
//===----------------------------------------------------------------------===//

#include "baseline/Cleanup.h"
#include "baseline/GlobalCse.h"
#include "baseline/Licm.h"
#include "baseline/MorelRenvoise.h"
#include "core/Lcm.h"
#include "ext/StrengthReduction.h"
#include "core/LocalCse.h"
#include "core/SingleInstr.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "metrics/Cost.h"
#include "workload/PaperExamples.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

#include <gtest/gtest.h>

using namespace lcm;

namespace {

Function makeRawProgram(unsigned Index);

/// One generated program per parameter value.  Following the paper ("as is
/// customary, we assume that local common subexpression elimination has
/// already been applied"), every program is LCSE-cleaned: on dirty blocks
/// block-granularity PRE provably cannot match statement-granularity
/// optimality (a second in-block occurrence is invisible to ANTLOC/COMP).
Function makeProgram(unsigned Index) {
  Function Fn = makeRawProgram(Index);
  runLocalCse(Fn);
  return Fn;
}

Function makeRawProgram(unsigned Index) {
  switch (Index) {
  case 0:
    return makeMotivatingExample();
  case 1:
    return makeCriticalEdgeExample();
  case 2:
    return makeDiamondExample();
  case 3:
    return makeLoopNestExample();
  default:
    break;
  }
  unsigned Seed = Index - 3;
  if (Index % 2 == 0) {
    StructuredGenOptions Opts;
    Opts.Seed = Seed;
    Opts.MaxDepth = 2 + Seed % 3;
    Opts.NumVars = 4 + Seed % 4;
    return generateStructured(Opts);
  }
  RandomCfgOptions Opts;
  Opts.Seed = Seed;
  Opts.NumBlocks = 6 + Seed % 18;
  Opts.NumVars = 3 + Seed % 4;
  return generateRandomCfg(Opts);
}

constexpr unsigned NumPrograms = 96;
constexpr unsigned RunsPerProgram = 4;

struct Strategy {
  const char *Name;
  void (*Apply)(Function &);
};

const Strategy Strategies[] = {
    {"BCM", [](Function &F) { runPre(F, PreStrategy::Busy); }},
    {"ALCM", [](Function &F) { runPre(F, PreStrategy::AlmostLazy); }},
    {"LCM", [](Function &F) { runPre(F, PreStrategy::Lazy); }},
    {"CSE", [](Function &F) { runGlobalCse(F); }},
    {"MR", [](Function &F) { runMorelRenvoise(F); }},
    {"LCSE", [](Function &F) { runLocalCse(F); }},
};

/// Passes checked for semantic preservation only (their cost claims have
/// dedicated tests elsewhere).
const Strategy SemanticOnlyStrategies[] = {
    {"LICM-spec",
     [](Function &F) { runLicm(F, LicmMode::Speculative); }},
    {"LICM-safe", [](Function &F) { runLicm(F, LicmMode::SafeOnly); }},
    {"SR", [](Function &F) { runStrengthReduction(F); }},
    {"LCM+cleanup",
     [](Function &F) {
       runPre(F, PreStrategy::Lazy);
       runCleanup(F, CleanupOptions{});
     }},
    {"sized-LCM",
     [](Function &F) {
       CfgEdges Edges(F);
       LocalProperties LP(F);
       LazyCodeMotion Engine(F, Edges, LP);
       applyPlacement(
           F, Edges,
           filterPlacementForCodeSize(Engine.placement(PreStrategy::Lazy)));
     }},
};

InterpResult runSeeded(const Function &Fn, uint64_t Seed, size_t NumInputVars,
                       uint32_t OriginalBlockCount) {
  RandomOracle Oracle(Seed ^ 0x94d049bb133111ebULL);
  Interpreter::Options Opts;
  Opts.MaxOriginalBlockVisits = 3000;
  Opts.OriginalBlockCount = OriginalBlockCount;
  return Interpreter::run(Fn, makeSeededInputs(Seed, NumInputVars), Oracle,
                          Opts);
}

class PreProperties : public testing::TestWithParam<unsigned> {};

TEST_P(PreProperties, TransformsPreserveSemantics) {
  const Function Original = makeProgram(GetParam());
  ASSERT_TRUE(isValidFunction(Original)) << printFunction(Original);

  std::vector<Strategy> All(std::begin(Strategies), std::end(Strategies));
  All.insert(All.end(), std::begin(SemanticOnlyStrategies),
             std::end(SemanticOnlyStrategies));
  for (const Strategy &S : All) {
    Function Transformed = Original;
    S.Apply(Transformed);
    ASSERT_TRUE(isValidFunction(Transformed))
        << S.Name << " broke structural invariants on program "
        << GetParam() << "\n"
        << printFunction(Transformed);

    for (uint64_t Seed = 1; Seed <= RunsPerProgram; ++Seed) {
      InterpResult Base = runSeeded(Original, Seed, Original.numVars(),
                                    uint32_t(Original.numBlocks()));
      InterpResult After = runSeeded(Transformed, Seed, Original.numVars(),
                                     uint32_t(Original.numBlocks()));
      EXPECT_TRUE(sameObservableBehaviour(Base, After, Original.numVars()))
          << S.Name << " changed semantics, program " << GetParam()
          << " seed " << Seed << "\n== original ==\n"
          << printFunction(Original) << "\n== transformed ==\n"
          << printFunction(Transformed);
    }
  }
}

TEST_P(PreProperties, ComputationalOptimality) {
  const Function Original = makeProgram(GetParam());

  for (uint64_t Seed = 1; Seed <= RunsPerProgram; ++Seed) {
    InterpResult Base = runSeeded(Original, Seed, Original.numVars(),
                                  uint32_t(Original.numBlocks()));
    if (!Base.ReachedExit)
      continue; // Truncated paths have boundary noise; skip them.

    std::map<std::string, uint64_t> Evals;
    for (const Strategy &S : Strategies) {
      Function Transformed = Original;
      S.Apply(Transformed);
      InterpResult After = runSeeded(Transformed, Seed, Original.numVars(),
                                     uint32_t(Original.numBlocks()));
      ASSERT_TRUE(After.ReachedExit);
      Evals[S.Name] = After.TotalEvals;
    }

    // The paper's Theorem (computational optimality): no admissible
    // transformation beats LCM on any path, and busy/lazy tie exactly.
    EXPECT_EQ(Evals["BCM"], Evals["LCM"]) << "program " << GetParam();
    EXPECT_EQ(Evals["ALCM"], Evals["LCM"]) << "program " << GetParam();
    EXPECT_LE(Evals["LCM"], Base.TotalEvals) << "program " << GetParam();
    EXPECT_LE(Evals["LCM"], Evals["CSE"]) << "program " << GetParam();
    EXPECT_LE(Evals["LCM"], Evals["MR"]) << "program " << GetParam();
    EXPECT_LE(Evals["LCM"], Evals["LCSE"]) << "program " << GetParam();
    // The baselines themselves never pessimize.
    EXPECT_LE(Evals["CSE"], Base.TotalEvals) << "program " << GetParam();
    EXPECT_LE(Evals["MR"], Base.TotalEvals) << "program " << GetParam();
  }
}

TEST_P(PreProperties, LifetimeOptimality) {
  const Function Original = makeProgram(GetParam());

  auto lifetimeOf = [&Original](PreStrategy S) {
    Function Fn = Original;
    runPre(Fn, S);
    return measureTempLifetimes(Fn, Original.numVars());
  };
  LifetimeStats Busy = lifetimeOf(PreStrategy::Busy);
  LifetimeStats Almost = lifetimeOf(PreStrategy::AlmostLazy);
  LifetimeStats Lazy = lifetimeOf(PreStrategy::Lazy);

  // Lifetime optimality: lazy never keeps a temp alive longer than the
  // busy or unpruned variants.
  EXPECT_LE(Lazy.LiveBlockSlots, Busy.LiveBlockSlots)
      << "program " << GetParam();
  EXPECT_LE(Lazy.LiveBlockSlots, Almost.LiveBlockSlots)
      << "program " << GetParam();
  EXPECT_LE(Lazy.MaxPressure, Busy.MaxPressure) << "program " << GetParam();
}

TEST_P(PreProperties, InsertionsAreSafe) {
  const Function Original = makeProgram(GetParam());
  CfgEdges Edges(Original);
  LocalProperties LP(Original);
  DataflowResult Ant = computeAnticipability(Original, LP);

  // LCM/BCM edge insertions: anticipated at the target block's entry.
  LazyCodeMotion Engine(Original, Edges, LP);
  for (PreStrategy S : {PreStrategy::Busy, PreStrategy::Lazy}) {
    PrePlacement P = Engine.placement(S);
    for (EdgeId E = 0; E != Edges.numEdges(); ++E)
      EXPECT_TRUE(P.InsertEdge[E].isSubsetOf(Ant.In[Edges.edge(E).To]))
          << preStrategyName(S) << " unsafe insertion, program "
          << GetParam();
  }

  // Morel-Renvoise node insertions: anticipated at the block's exit.
  MorelRenvoiseResult MR = computeMorelRenvoise(Original, Edges);
  for (BlockId B = 0; B != Original.numBlocks(); ++B)
    EXPECT_TRUE(MR.Placement.InsertEndOfBlock[B].isSubsetOf(Ant.Out[B]))
        << "MR unsafe insertion, program " << GetParam();
}

TEST_P(PreProperties, LcmIsIdempotent) {
  Function Fn = makeProgram(GetParam());
  runPre(Fn, PreStrategy::Lazy);

  CfgEdges Edges(Fn);
  LocalProperties LP(Fn);
  LazyCodeMotion Engine(Fn, Edges, LP);
  PrePlacement Second = Engine.placement(PreStrategy::Lazy);
  EXPECT_TRUE(Second.isNoop())
      << "second LCM run still places code, program " << GetParam() << "\n"
      << printFunction(Fn);
}

TEST_P(PreProperties, NodeGranularityEngineAgrees) {
  // The paper states its equations over single-statement nodes; we run the
  // same system at both granularities (after establishing the paper's
  // LCSE precondition) and demand behaviourally identical results.
  Function Clean = makeProgram(GetParam());
  runLocalCse(Clean);

  Function BlockLevel = Clean;
  runPre(BlockLevel, PreStrategy::Lazy);

  Function NodeLevel = expandToSingleInstructionNodes(Clean);
  ASSERT_TRUE(isValidFunction(NodeLevel));
  runPre(NodeLevel, PreStrategy::Lazy);

  for (uint64_t Seed = 1; Seed <= RunsPerProgram; ++Seed) {
    InterpResult A = runSeeded(BlockLevel, Seed, Clean.numVars(),
                               uint32_t(Clean.numBlocks()));
    InterpResult B = runSeeded(NodeLevel, Seed, Clean.numVars(),
                               uint32_t(NodeLevel.numBlocks()));
    // Align on exit-reaching runs only (visit budgets differ in block
    // granularity between the two forms).
    if (!A.ReachedExit || !B.ReachedExit)
      continue;
    EXPECT_EQ(A.TotalEvals, B.TotalEvals)
        << "granularities disagree, program " << GetParam() << " seed "
        << Seed;
    for (size_t V = 0; V != Clean.numVars(); ++V)
      EXPECT_EQ(A.Vars[V], B.Vars[V]);
  }
}

TEST_P(PreProperties, LocalCseEstablishesCleanBlocks) {
  Function Fn = makeProgram(GetParam());
  runLocalCse(Fn);
  // The strong clean-block invariant: no block evaluates an expression
  // that is still locally available (operands unkilled since an earlier
  // in-block computation).  This is precisely when block-granularity
  // ANTLOC/COMP carry full occurrence information.
  // Kills are computed by this oracle's own sweep over Pool.reads(), so it
  // shares no code with the pass under test.
  const ExprPool &Pool = Fn.exprs();
  for (const BasicBlock &B : Fn.blocks()) {
    std::vector<bool> Avail(Pool.size(), false);
    for (const Instr &I : B.instrs()) {
      if (I.isOperation()) {
        EXPECT_FALSE(Avail[I.exprId()])
            << "block " << B.label() << " recomputes "
            << Fn.exprText(I.exprId());
      }
      for (ExprId E = 0; E != Pool.size(); ++E)
        if (Pool.reads(E, I.dest()))
          Avail[E] = false;
      if (I.isOperation() && !Pool.reads(I.exprId(), I.dest()))
        Avail[I.exprId()] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, PreProperties,
                         testing::Range(0u, NumPrograms));

} // namespace
