//===- ir/Function.h - Basic blocks and the control flow graph -----------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-graph model of the paper: a directed graph of basic blocks with
/// a unique entry (no predecessors) and a unique exit (no successors), where
/// every block lies on some entry-to-exit path.
///
/// Blocks are stored by value and identified by dense BlockIds that remain
/// stable under the CFG surgery PRE performs (edge splitting appends new
/// blocks; nothing is ever renumbered).
///
//===----------------------------------------------------------------------===//

#ifndef LCM_IR_FUNCTION_H
#define LCM_IR_FUNCTION_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/Instr.h"
#include "support/InternTable.h"

namespace lcm {

/// Dense id of a basic block within a Function.
using BlockId = uint32_t;
constexpr BlockId InvalidBlock = ~BlockId(0);

/// A basic block: straight-line instructions plus successor edges.
///
/// Branching semantics (used by the interpreter):
/// - zero successors: this is the exit block;
/// - one successor: unconditional jump;
/// - two successors with CondVar set: succs[0] if CondVar != 0 else succs[1];
/// - otherwise: the branch oracle picks a successor index.
class BasicBlock {
public:
  BasicBlock(BlockId Id, std::string_view Label) : Id(Id), Label(Label) {}

  BlockId id() const { return Id; }
  const std::string &label() const { return Label; }
  void setLabel(std::string L) { Label = std::move(L); }

  std::vector<Instr> &instrs() { return Instrs; }
  const std::vector<Instr> &instrs() const { return Instrs; }

  const std::vector<BlockId> &succs() const { return Succs; }
  const std::vector<BlockId> &preds() const { return Preds; }

  std::optional<VarId> condVar() const { return CondVar; }
  void setCondVar(std::optional<VarId> V) { CondVar = V; }

  /// True if this block's branch is decided by program state.
  bool hasConditionalBranch() const {
    return CondVar.has_value() && Succs.size() == 2;
  }

private:
  friend class Function;

  BlockId Id;
  std::string Label;
  std::vector<Instr> Instrs;
  std::vector<BlockId> Succs;
  std::vector<BlockId> Preds;
  std::optional<VarId> CondVar;
};

/// A function: the CFG, the variable table, and the expression pool.
class Function {
public:
  explicit Function(std::string Name = "f") : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string_view NewName) { Name.assign(NewName); }

  /// Empties the function (name reset to \p NewName) while keeping every
  /// internal buffer allocated: block/instruction/edge vectors, variable
  /// name strings, and both intern tables are recycled, so repeatedly
  /// parsing into the same Function object reaches a steady state with
  /// zero heap allocations.
  void resetRetainingStorage(std::string_view NewName = "f");

  //===--------------------------------------------------------------------===
  // Variables
  //===--------------------------------------------------------------------===

  /// Creates (or returns the existing) variable named \p VarName, or
  /// returns InvalidVar when the name is new and the function already has
  /// \p Cap variables.  One hash, one table probe.
  VarId getOrAddVar(std::string_view VarName, size_t Cap = SIZE_MAX);

  /// Creates a fresh variable with a unique name derived from \p Hint.
  VarId addTempVar(std::string_view Hint);

  size_t numVars() const { return NumVars; }

  const std::string &varName(VarId V) const {
    assert(V < NumVars && "bad variable id");
    return VarNames[V];
  }

  /// Looks up a variable by name; returns InvalidVar if absent.
  VarId findVar(std::string_view VarName) const;

  /// The `@mem` pseudo-variable modelling memory state: loads read it,
  /// stores write it (created on first use).  `@` is not a legal identifier
  /// head, so source programs can never name it directly.
  /// \p Cap as for getOrAddVar.
  VarId memoryVar(size_t Cap = SIZE_MAX) { return getOrAddVar("@mem", Cap); }

  /// `@mem`'s id if any load/store introduced it, else InvalidVar.
  VarId findMemoryVar() const { return findVar("@mem"); }

  //===--------------------------------------------------------------------===
  // Blocks and edges
  //===--------------------------------------------------------------------===

  /// Appends a new block; the first block created becomes the entry.
  BlockId addBlock(std::string_view Label = {});

  size_t numBlocks() const { return Blocks.size(); }

  BasicBlock &block(BlockId Id) {
    assert(Id < Blocks.size() && "bad block id");
    return Blocks[Id];
  }
  const BasicBlock &block(BlockId Id) const {
    assert(Id < Blocks.size() && "bad block id");
    return Blocks[Id];
  }

  std::vector<BasicBlock> &blocks() { return Blocks; }
  const std::vector<BasicBlock> &blocks() const { return Blocks; }

  BlockId entry() const { return EntryId; }
  void setEntry(BlockId Id) { EntryId = Id; }

  /// The unique exit: the block with no successors.  Asserts that exactly
  /// one such block exists (the verifier enforces this invariant).
  BlockId exit() const;

  /// Adds a CFG edge From -> To (maintains pred/succ symmetry).
  /// Parallel edges are permitted and meaningful (e.g. both branch targets
  /// equal); they are distinguished by successor position.
  void addEdge(BlockId From, BlockId To);

  /// Replaces the \p SuccIdx-th successor of \p From with \p NewTo,
  /// updating predecessor lists on both ends.
  void redirectEdge(BlockId From, size_t SuccIdx, BlockId NewTo);

  /// Splits the \p SuccIdx-th out-edge of \p From with a fresh empty block
  /// and returns the new block's id.
  BlockId splitEdge(BlockId From, size_t SuccIdx);

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  ExprPool &exprs() { return Exprs; }
  const ExprPool &exprs() const { return Exprs; }

  /// Renders an operand using this function's variable names.
  std::string operandText(Operand O) const;

  /// Renders an expression ("a + b", "- x", "min a b").
  std::string exprText(ExprId E) const;

  /// Renders one instruction ("x = a + b", "x = h").
  std::string instrText(const Instr &I) const;

  /// Total number of Operation instructions (static computation count).
  size_t countOperations() const;

private:
  std::string Name;
  std::vector<BasicBlock> Blocks;
  BlockId EntryId = InvalidBlock;
  /// Live names are VarNames[0..NumVars); entries past NumVars are retired
  /// strings kept for their capacity (see resetRetainingStorage).
  std::vector<std::string> VarNames;
  size_t NumVars = 0;
  /// Hash -> VarId; keys live in VarNames.
  InternTable VarIndex;
  /// Blocks recycled by resetRetainingStorage, reused LIFO by addBlock so
  /// instruction/edge vector capacities survive across parses.
  std::vector<BasicBlock> SpareBlocks;
  /// Reused buffer for derived names (temp vars, split-edge labels).
  std::string ScratchName;
  ExprPool Exprs;
  unsigned NextTempSuffix = 0;
};

} // namespace lcm

#endif // LCM_IR_FUNCTION_H
