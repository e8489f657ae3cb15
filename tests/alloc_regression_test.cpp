//===- tests/alloc_regression_test.cpp - Steady-state allocation gate ----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
// Pins the hot-path contract behind docs/HOTPATH.md: once every reusable
// buffer has reached its high-water capacity, a full request-shaped
// iteration — parse, local CSE, lazy code motion, print — performs ZERO
// heap allocations.  The binary links lcm_alloc_hook, so the counts are
// exact process-wide `operator new` totals, not estimates.  Under
// sanitizer builds the hook is inert and the tests skip.
//
// A nonzero count here means someone re-introduced a per-request
// allocation (a fresh vector, a by-value return, a string temporary) into
// the serving path; find it before relaxing the expectation.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "cache/ContentHash.h"
#include "core/Lcm.h"
#include "core/LocalCse.h"
#include "gvn/Gvn.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/AllocHook.h"
#include "workload/AddressGen.h"
#include "workload/Corpus.h"

using namespace lcm;

namespace {

/// The corpus texts every loop below sweeps: each default-corpus program
/// in canonical form.
std::vector<std::string> corpusTexts() {
  std::vector<std::string> Texts;
  for (const CorpusEntry &Entry : makeDefaultCorpus()) {
    Function Fn = Entry.Make();
    Texts.push_back(printFunction(Fn));
  }
  return Texts;
}

/// The corpus texts plus one wide memory kernel (7 blocks, ~2,000
/// instructions, ~1,500 variables), the shape where GVN's per-variable
/// block-entry state dominates.
std::vector<std::string> corpusAndWideTexts() {
  std::vector<std::string> Texts = corpusTexts();
  MemoryGenOptions Opts;
  Opts.Seed = 3;
  Opts.Depth = 2;
  Opts.TripCount = 3;
  Opts.NumArrays = 24;
  Opts.StmtsPerBody = 480;
  Opts.ReusePercent = 20;
  Texts.push_back(printFunction(generateMemoryKernel(Opts)));
  return Texts;
}

/// Every corpus text with a wide memory kernel before each one: per-
/// variable storage (reader lists, definition stamps) swings between
/// ~1,500 variables and a handful on every step.
std::vector<std::string> wideAlternatingTexts() {
  const std::vector<std::string> Mixed = corpusAndWideTexts();
  const std::string &Wide = Mixed.back();
  std::vector<std::string> Texts;
  for (size_t I = 0; I + 1 < Mixed.size(); ++I) {
    Texts.push_back(Wide);
    Texts.push_back(Mixed[I]);
  }
  return Texts;
}

constexpr unsigned WarmupIters = 32;
constexpr unsigned MeasuredIters = 8;

/// Runs \p Iteration over every corpus text WarmupIters times, then
/// returns the exact allocation count of MeasuredIters more sweeps.
template <typename Fn>
uint64_t steadyStateAllocations(const std::vector<std::string> &Texts,
                                Fn &&Iteration) {
  for (unsigned I = 0; I != WarmupIters; ++I)
    for (const std::string &Text : Texts)
      Iteration(Text);
  const uint64_t Before = alloccount::allocations();
  for (unsigned I = 0; I != MeasuredIters; ++I)
    for (const std::string &Text : Texts)
      Iteration(Text);
  return alloccount::allocations() - Before;
}

} // namespace

TEST(AllocRegressionTest, HookIsLinked) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  // Sanity: the hook actually observes this binary's allocations.
  const uint64_t Before = alloccount::allocations();
  std::vector<int> *V = new std::vector<int>(1000);
  delete V;
  EXPECT_GT(alloccount::allocations(), Before);
}

TEST(AllocRegressionTest, ParseIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, PrintIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  std::string Out;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        Out.clear();
        printFunction(Ir.Fn, Out);
        ASSERT_EQ(Out, Text);
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, StreamingCacheKeyIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  cache::PipelineFingerprint FP;
  FP.Pipeline = "lcse,lcm,cleanup";
  ParserScratch Scratch;
  ParseResult Ir;
  uint64_t Fold = 0;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        Fold += cache::requestKey(Ir.Fn, FP).Lo;
      });
  EXPECT_EQ(Allocs, 0u);
  EXPECT_NE(Fold, 0u); // The digests are real, not optimized away.
}

TEST(AllocRegressionTest, FullRequestLoopIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  PreRunResult R;
  std::string Out;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
        runLocalCse(Ir.Fn);
        runPreInto(Ir.Fn, PreStrategy::Lazy, SolverStrategy::Sparse, R);
        Out.clear();
        printFunction(Ir.Fn, Out);
        ASSERT_FALSE(Out.empty());
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, WideSmallAlternationIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = wideAlternatingTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  PreRunResult R;
  std::string Out;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
        runLocalCse(Ir.Fn);
        runPreInto(Ir.Fn, PreStrategy::Lazy, SolverStrategy::Sparse, R);
        Out.clear();
        printFunction(Ir.Fn, Out);
        ASSERT_FALSE(Out.empty());
      });
  EXPECT_EQ(Allocs, 0u);
}

TEST(AllocRegressionTest, GvnIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusAndWideTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  PreRunResult R;
  uint64_t Numbered = 0;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
        runLocalCse(Ir.Fn);
        Numbered += gvn::runGvn(Ir.Fn).InstrsNumbered;
        runLocalCse(Ir.Fn);
        runPreInto(Ir.Fn, PreStrategy::Lazy, SolverStrategy::Sparse, R);
      });
  EXPECT_EQ(Allocs, 0u);
  EXPECT_NE(Numbered, 0u);
}

TEST(AllocRegressionTest, VerifierIsAllocationFreeWhenWarm) {
  if (!alloccount::active())
    GTEST_SKIP() << "alloc hook inert under sanitizers";
  const std::vector<std::string> Texts = corpusAndWideTexts();
  const IRLimits Limits;
  ParserScratch Scratch;
  ParseResult Ir;
  const uint64_t Allocs =
      steadyStateAllocations(Texts, [&](const std::string &Text) {
        parseFunctionInto(Text, Limits, Scratch, Ir);
        ASSERT_TRUE(Ir.Ok) << Ir.Error;
        ASSERT_TRUE(verifyFunction(Ir.Fn).empty());
      });
  EXPECT_EQ(Allocs, 0u);
}
