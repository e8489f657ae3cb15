//===- ir/Expr.h - Opcodes, operands, and the interned expression pool ---===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression universe for partial redundancy elimination.
///
/// Following the paper, programs are built from single-operator expressions
/// over variables and integer constants.  Every distinct operation expression
/// occurring in a function is interned into the function's ExprPool and
/// receives a dense ExprId; those ids index every dataflow bit vector in the
/// repository.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_IR_EXPR_H
#define LCM_IR_EXPR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/BitVector.h"
#include "support/InternTable.h"

namespace lcm {

/// Dense id of a variable within a Function.
using VarId = uint32_t;
/// Dense id of an interned operation expression within a Function.
using ExprId = uint32_t;

constexpr ExprId InvalidExpr = ~ExprId(0);
constexpr VarId InvalidVar = ~VarId(0);

/// Single-operator expression opcodes.
enum class Opcode : uint8_t {
  // Binary arithmetic.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  // Binary bitwise.
  And,
  Or,
  Xor,
  Shl,
  Shr,
  // Binary comparisons (produce 0/1).
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  // Binary min/max.
  Min,
  Max,
  // Unary.
  Neg,
  Not,
  // Memory.  A load is a *binary* expression: Lhs is the address and Rhs
  // names the function's memory pseudo-variable `@mem`
  // (Function::memoryVar), so every store -- which writes `@mem` -- kills
  // every load through the ordinary per-variable reader lists.
  Load,
};

/// Number of distinct opcodes (keep in sync with the enum).
constexpr unsigned NumOpcodes = unsigned(Opcode::Load) + 1;

/// True for two-operand opcodes.
bool isBinaryOpcode(Opcode Op);

/// Spelled-out mnemonic ("add", "shl", ...).
const char *opcodeName(Opcode Op);

/// Infix spelling used by the parser/printer ("+", "<<", ...), or the
/// mnemonic for opcodes without an infix form (min/max).
const char *opcodeSymbol(Opcode Op);

/// Evaluates the opcode on 64-bit values with total semantics:
/// wrapping arithmetic, division/modulo by zero yield zero, shifts use the
/// low six bits of the shift amount.  Totality keeps speculative execution
/// of any expression well defined, which the safety experiments rely on.
int64_t evalOpcode(Opcode Op, int64_t A, int64_t B);

/// The value a load observes at an address no store has written: a
/// deterministic mix of the address, so memory reads are total (loads never
/// trap) and the interpreter oracle and constant reasoning agree on them.
int64_t memDefault(int64_t Addr);

/// A variable or an integer constant.
class Operand {
public:
  enum class Kind : uint8_t { Var, Const };

  Operand() : TheKind(Kind::Const), ConstVal(0) {}

  static Operand makeVar(VarId V) {
    Operand O;
    O.TheKind = Kind::Var;
    O.Var = V;
    return O;
  }

  static Operand makeConst(int64_t C) {
    Operand O;
    O.TheKind = Kind::Const;
    O.ConstVal = C;
    return O;
  }

  Kind kind() const { return TheKind; }
  bool isVar() const { return TheKind == Kind::Var; }
  bool isConst() const { return TheKind == Kind::Const; }

  VarId var() const {
    assert(isVar() && "not a variable operand");
    return Var;
  }

  int64_t constVal() const {
    assert(isConst() && "not a constant operand");
    return ConstVal;
  }

  bool operator==(const Operand &RHS) const {
    if (TheKind != RHS.TheKind)
      return false;
    return isVar() ? Var == RHS.Var : ConstVal == RHS.ConstVal;
  }
  bool operator!=(const Operand &RHS) const { return !(*this == RHS); }

  /// Total order for interning (vars before consts, then by payload).
  bool operator<(const Operand &RHS) const {
    if (TheKind != RHS.TheKind)
      return TheKind < RHS.TheKind;
    return isVar() ? Var < RHS.Var : ConstVal < RHS.ConstVal;
  }

private:
  Kind TheKind;
  union {
    VarId Var;
    int64_t ConstVal;
  };
};

/// A single-operator expression: op(Lhs) or op(Lhs, Rhs).
struct Expr {
  Opcode Op;
  Operand Lhs;
  Operand Rhs; ///< Ignored for unary opcodes.

  bool isBinary() const { return isBinaryOpcode(Op); }

  bool operator==(const Expr &E) const {
    if (Op != E.Op || !(Lhs == E.Lhs))
      return false;
    return !isBinary() || Rhs == E.Rhs;
  }

  bool operator<(const Expr &E) const {
    if (Op != E.Op)
      return Op < E.Op;
    if (!(Lhs == E.Lhs))
      return Lhs < E.Lhs;
    if (!isBinary())
      return false;
    return Rhs < E.Rhs;
  }
};

/// Interns operation expressions and assigns dense ids; also maintains the
/// var -> expressions-that-read-it lists used to compute transparency.
class ExprPool {
  /// One entry of a variable's reader list: a chain through Links.
  struct ReaderLink {
    ExprId Id;
    uint32_t Next;
  };
  static constexpr uint32_t NoLink = ~uint32_t(0);

public:
  /// The expressions that read one variable, in interning order.  A
  /// forward range over the pool's storage; it stays valid until the next
  /// intern() or clearRetaining().
  class ReaderList {
  public:
    class iterator {
    public:
      ExprId operator*() const { return Links[Cur].Id; }
      iterator &operator++() {
        Cur = Links[Cur].Next;
        return *this;
      }
      bool operator==(const iterator &RHS) const { return Cur == RHS.Cur; }
      bool operator!=(const iterator &RHS) const { return Cur != RHS.Cur; }

    private:
      friend class ReaderList;
      iterator(const ReaderLink *Links, uint32_t Cur)
          : Links(Links), Cur(Cur) {}
      const ReaderLink *Links;
      uint32_t Cur;
    };

    iterator begin() const { return iterator(Links, Head); }
    iterator end() const { return iterator(Links, NoLink); }
    bool empty() const { return Head == NoLink; }

  private:
    friend class ExprPool;
    ReaderList(const ReaderLink *Links, uint32_t Head)
        : Links(Links), Head(Head) {}
    const ReaderLink *Links;
    uint32_t Head;
  };

  /// Interns \p E, returning its (possibly preexisting) id, or InvalidExpr
  /// when \p E is new and the pool already holds \p Cap expressions.  One
  /// hash, one table probe.
  ExprId intern(const Expr &E, size_t Cap = SIZE_MAX);

  /// Looks up \p E without interning; returns InvalidExpr if absent.
  ExprId lookup(const Expr &E) const;

  const Expr &expr(ExprId Id) const {
    assert(Id < Exprs.size() && "bad expression id");
    return Exprs[Id];
  }

  size_t size() const { return Exprs.size(); }

  /// The expressions that read variable \p V (`x * x` is listed once).
  ReaderList readersOf(VarId V) const {
    return ReaderList(Links.data(), V < Ends.size() ? Ends[V].Head : NoLink);
  }

  /// True if expression \p Id reads variable \p V.
  bool reads(ExprId Id, VarId V) const;

  /// All variables read by expression \p Id (deduplicated).
  std::vector<VarId> varsRead(ExprId Id) const;

  /// Empties the pool but keeps every internal buffer allocated (the hash
  /// table's slots, the expression vector's capacity, the reader lists), so
  /// a recycled Function re-interns without heap traffic.
  void clearRetaining();

private:
  /// First and last link of one variable's reader list.
  struct ReaderEnds {
    uint32_t Head = NoLink;
    uint32_t Tail = NoLink;
  };

  std::vector<Expr> Exprs;
  /// Hash -> ExprId; keys live in Exprs (see support/InternTable.h).
  InternTable Index;
  /// Per variable, its reader list's ends; sized to the highest variable
  /// any expression reads.
  std::vector<ReaderEnds> Ends;
  /// Every variable's reader list, chained through one flat array so a
  /// recycled pool reaches its high-water capacity once, whatever the mix
  /// of functions parsed into it.
  std::vector<ReaderLink> Links;

  static uint64_t hashExpr(const Expr &E);
  void noteReader(VarId V, ExprId E);
};

} // namespace lcm

#endif // LCM_IR_EXPR_H
