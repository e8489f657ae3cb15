//===- ir/Verifier.cpp -----------------------------------------------------===//

#include "ir/Verifier.h"

#include <algorithm>

using namespace lcm;

namespace {

/// Per-thread working storage, reused across calls so that verifying a
/// valid function allocates nothing once warm.
struct VerifierScratch {
  std::vector<uint64_t> SuccEdges; ///< (from << 32 | to), sorted.
  std::vector<char> Matched;       ///< Per SuccEdges slot: named by a pred.
  std::vector<char> Seen;
  std::vector<BlockId> Stack;
};

uint64_t edgeKey(BlockId From, BlockId To) {
  return uint64_t(From) << 32 | To;
}

/// Marks in \p S.Seen everything reachable from \p Start along successor
/// edges (\p Forward) or predecessor edges.
void reach(const Function &Fn, BlockId Start, bool Forward,
           VerifierScratch &S) {
  S.Seen.assign(Fn.numBlocks(), 0);
  S.Stack.assign(1, Start);
  S.Seen[Start] = 1;
  while (!S.Stack.empty()) {
    const BasicBlock &B = Fn.block(S.Stack.back());
    S.Stack.pop_back();
    for (BlockId N : Forward ? B.succs() : B.preds()) {
      if (!S.Seen[N]) {
        S.Seen[N] = 1;
        S.Stack.push_back(N);
      }
    }
  }
}

} // namespace

std::vector<std::string> lcm::verifyFunction(const Function &Fn) {
  std::vector<std::string> Errors;
  auto fail = [&Errors](std::string Msg) { Errors.push_back(std::move(Msg)); };

  if (Fn.numBlocks() == 0) {
    fail("function has no blocks");
    return Errors;
  }
  if (Fn.entry() >= Fn.numBlocks()) {
    fail("entry block id out of range");
    return Errors;
  }
  if (!Fn.block(Fn.entry()).preds().empty())
    fail("entry block has predecessors");

  thread_local VerifierScratch S;

  // Unique exit.
  size_t NumExits = 0;
  BlockId Exit = InvalidBlock;
  for (const BasicBlock &B : Fn.blocks())
    if (B.succs().empty() && NumExits++ == 0)
      Exit = B.id();
  if (NumExits != 1)
    fail("expected exactly one exit block, found " +
         std::to_string(NumExits));

  // Edge symmetry: the succ multiset of edges must equal the pred
  // multiset.  Each pred entry claims one unclaimed copy of its edge in
  // the sorted succ edge list; what stays unclaimed is missing.  Claims
  // fill each run of equal edges from the front, so an edge is reported
  // missing once, at the first unclaimed slot of its run.
  S.SuccEdges.clear();
  for (const BasicBlock &B : Fn.blocks()) {
    for (BlockId Succ : B.succs()) {
      if (Succ >= Fn.numBlocks()) {
        fail("block " + B.label() + " has out-of-range successor");
        continue;
      }
      S.SuccEdges.push_back(edgeKey(B.id(), Succ));
    }
  }
  std::sort(S.SuccEdges.begin(), S.SuccEdges.end());
  S.Matched.assign(S.SuccEdges.size(), 0);
  for (const BasicBlock &B : Fn.blocks()) {
    for (BlockId P : B.preds()) {
      if (P >= Fn.numBlocks()) {
        fail("block " + B.label() + " has out-of-range predecessor");
        continue;
      }
      const uint64_t Key = edgeKey(P, B.id());
      auto It = std::lower_bound(S.SuccEdges.begin(), S.SuccEdges.end(), Key);
      size_t I = It - S.SuccEdges.begin();
      while (I != S.SuccEdges.size() && S.SuccEdges[I] == Key && S.Matched[I])
        ++I;
      if (I != S.SuccEdges.size() && S.SuccEdges[I] == Key)
        S.Matched[I] = 1;
      else
        fail("pred list of " + B.label() + " names " + Fn.block(P).label() +
             " more often than the successor lists do");
    }
  }
  for (size_t I = 0; I != S.SuccEdges.size(); ++I)
    if (!S.Matched[I] &&
        (I == 0 || S.SuccEdges[I - 1] != S.SuccEdges[I] || S.Matched[I - 1]))
      fail("edge " + Fn.block(BlockId(S.SuccEdges[I] >> 32)).label() +
           " -> " + Fn.block(BlockId(S.SuccEdges[I])).label() +
           " missing from pred list");

  // Branch condition sanity.
  for (const BasicBlock &B : Fn.blocks()) {
    if (B.condVar() && *B.condVar() >= Fn.numVars())
      fail("block " + B.label() + " branches on an out-of-range variable");
    if (B.condVar() && B.succs().size() != 2)
      fail("block " + B.label() +
           " has a condition variable but not exactly two successors");
  }

  // Instruction sanity.  The `@mem` pseudo-variable may appear only where
  // the memory model puts it: as every load's Rhs and every store's dest.
  const VarId MemVar = Fn.findMemoryVar();
  for (const BasicBlock &B : Fn.blocks()) {
    if (B.condVar() && MemVar != InvalidVar && *B.condVar() == MemVar)
      fail("block " + B.label() + " branches on '@mem'");
    for (const Instr &I : B.instrs()) {
      if (I.dest() >= Fn.numVars()) {
        fail("block " + B.label() + ": destination variable out of range");
        continue;
      }
      if (I.isOperation()) {
        if (I.exprId() >= Fn.exprs().size()) {
          fail("block " + B.label() + ": expression id out of range");
          continue;
        }
        const Expr &E = Fn.exprs().expr(I.exprId());
        if (E.Lhs.isVar() && E.Lhs.var() >= Fn.numVars())
          fail("block " + B.label() + ": expression operand out of range");
        if (E.isBinary() && E.Rhs.isVar() && E.Rhs.var() >= Fn.numVars())
          fail("block " + B.label() + ": expression operand out of range");
        if (E.Op == Opcode::Load &&
            (!E.Rhs.isVar() || E.Rhs.var() != MemVar))
          fail("block " + B.label() + ": load does not read '@mem'");
        if (MemVar != InvalidVar) {
          if (I.dest() == MemVar)
            fail("block " + B.label() + ": operation assigns '@mem'");
          if (E.Lhs.isVar() && E.Lhs.var() == MemVar)
            fail("block " + B.label() +
                 ": expression reads '@mem' as a value");
          if (E.Op != Opcode::Load && E.isBinary() && E.Rhs.isVar() &&
              E.Rhs.var() == MemVar)
            fail("block " + B.label() +
                 ": expression reads '@mem' as a value");
        }
      } else if (I.isStore()) {
        if (MemVar == InvalidVar || I.dest() != MemVar)
          fail("block " + B.label() + ": store does not write '@mem'");
        for (Operand O : {I.storeAddr(), I.storeValue()}) {
          if (O.isVar() && O.var() >= Fn.numVars())
            fail("block " + B.label() + ": store operand out of range");
          else if (O.isVar() && MemVar != InvalidVar && O.var() == MemVar)
            fail("block " + B.label() + ": store operand reads '@mem'");
        }
      } else {
        if (I.src().isVar() && I.src().var() >= Fn.numVars())
          fail("block " + B.label() + ": copy source out of range");
        else if (MemVar != InvalidVar &&
                 (I.dest() == MemVar ||
                  (I.src().isVar() && I.src().var() == MemVar)))
          fail("block " + B.label() + ": copy touches '@mem'");
      }
    }
  }

  // Reachability: every block reachable from entry, exit reachable from all.
  reach(Fn, Fn.entry(), /*Forward=*/true, S);
  for (const BasicBlock &B : Fn.blocks())
    if (!S.Seen[B.id()])
      fail("block " + B.label() + " unreachable from entry");

  if (NumExits == 1) {
    reach(Fn, Exit, /*Forward=*/false, S);
    for (const BasicBlock &B : Fn.blocks())
      if (!S.Seen[B.id()])
        fail("block " + B.label() + " cannot reach the exit");
  }

  return Errors;
}
