//===- core/Placement.h - The result of a PRE placement decision ---------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A PrePlacement captures *what* a PRE transformation does, separated from
/// *how* the sets were computed, so every engine in the repository (BCM,
/// ALCM, LCM, the single-instruction-node engine, global CSE, and
/// Morel–Renvoise) produces the same artifact and shares one rewriter:
///
/// - InsertEdge[(i,j)]: expressions to compute into their temp on the edge;
/// - InsertEndOfBlock[n]: expressions to compute at the end of block n
///   (only the Morel–Renvoise baseline uses node insertions);
/// - Delete[n]: upward-exposed computations of n replaced by a copy from
///   the temp;
/// - Save[n]: kept downward-exposed computations rewritten to additionally
///   initialize the temp (h = e; x = h).
///
//===----------------------------------------------------------------------===//

#ifndef LCM_CORE_PLACEMENT_H
#define LCM_CORE_PLACEMENT_H

#include <vector>

#include "graph/CfgEdges.h"
#include "support/BitVector.h"

namespace lcm {

/// A complete PRE placement over one CfgEdges snapshot.
struct PrePlacement {
  size_t NumExprs = 0;

  /// Indexed by EdgeId; empty vector means "no edge insertions".
  std::vector<BitVector> InsertEdge;
  /// Indexed by BlockId; empty vector means "no node insertions".
  std::vector<BitVector> InsertEndOfBlock;
  /// Indexed by BlockId.
  std::vector<BitVector> Delete;
  /// Indexed by BlockId.
  std::vector<BitVector> Save;

  /// Total expression bits across all edge insertion sets.
  uint64_t numEdgeInsertions() const;
  /// Total expression bits across all node insertion sets.
  uint64_t numNodeInsertions() const;
  /// Total replaced computations.
  uint64_t numDeletions() const;
  /// Total save rewrites.
  uint64_t numSaves() const;

  /// True if the placement changes nothing.
  bool isNoop() const {
    return numEdgeInsertions() == 0 && numNodeInsertions() == 0 &&
           numDeletions() == 0 && numSaves() == 0;
  }
};

/// Statistics from applying a placement to a function.
struct ApplyReport {
  /// Temp variable allocated per expression (InvalidVar if untouched).
  std::vector<VarId> TempOfExpr;
  uint64_t EdgeInsertions = 0;
  uint64_t NodeInsertions = 0;
  uint64_t Replacements = 0;
  uint64_t Saves = 0;
  uint64_t SplitBlocks = 0;
  uint64_t AppendedToPred = 0;
  uint64_t PrependedToSucc = 0;
};

/// Code-size profitability filter (in the spirit of the authors' later
/// "code-size sensitive PRE"): drops the motion of every expression whose
/// insertion count exceeds its deletion count, so the static operation
/// count can never grow.  LCM does produce such placements — a join with
/// one available and two killing predecessors needs two insertions to
/// delete one occurrence — trading static size for dynamic optimality;
/// this filter makes the trade explicit and measurable (experiment T9).
///
/// Expressions are dropped atomically (their insert/delete/save bits all
/// clear); per-expression independence of the isolation liveness keeps the
/// residual placement exactly what the engine would have produced for the
/// kept expressions alone.  Returns the filtered placement;
/// \p DroppedExprs (optional) receives the number of expressions dropped.
PrePlacement filterPlacementForCodeSize(const PrePlacement &P,
                                        uint64_t *DroppedExprs = nullptr);

/// Rewrites \p Fn according to \p P (which must have been computed against
/// \p Edges, a snapshot of \p Fn's current CFG).  Inserted computations land
/// in the edge's predecessor when it has a single successor, in the
/// successor when it has a single predecessor, and in a fresh split block
/// otherwise — so only edges that actually receive code are ever split.
ApplyReport applyPlacement(Function &Fn, const CfgEdges &Edges,
                           const PrePlacement &P);

/// Reuse form: writes the report into \p R (recycled across calls) and
/// keeps all rewrite scratch in per-thread storage, so a warm steady-state
/// rewrite allocates nothing.
void applyPlacement(Function &Fn, const CfgEdges &Edges,
                    const PrePlacement &P, ApplyReport &R);

/// Which computations of one block the rewrite may touch: Upward[i] is
/// true iff instruction i is an operation none of whose operands is
/// defined earlier in the block (the occurrences ANTLOC speaks of, which
/// Delete replaces); Downward[i] iff none is defined at i or later (the
/// occurrences COMP speaks of, which Save extends).
struct Exposure {
  std::vector<bool> Upward;
  std::vector<bool> Downward;
};

/// Fills \p X for block \p B of \p Fn, reusing its storage.
void computeExposureInto(const Function &Fn, const BasicBlock &B,
                         Exposure &X);

} // namespace lcm

#endif // LCM_CORE_PLACEMENT_H
