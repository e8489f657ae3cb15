//===- ir/Parser.cpp -------------------------------------------------------===//
//
// Single-pass string_view lexer: tokens are views into the caller's source
// buffer, labels and variables intern through open-addressing tables keyed
// by those views, and all working storage lives in a caller-provided
// ParserScratch.  The accepting path performs no heap allocation once the
// scratch and the recycled Function have warmed up; diagnostics (cold path)
// still build ordinary std::strings.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include <charconv>
#include <optional>
#include <string>
#include <system_error>

#include "ir/CharScan.h"

using namespace lcm;

namespace {

/// Splits \p Line into whitespace-separated tokens (views into the line),
/// honoring '#' comments.  Runs/tokens are scanned eight bytes at a time
/// (ir/CharScan.h); the character classes match what the old
/// std::isspace-based loop did in the C locale, including treating NUL and
/// other control bytes as token characters.
void tokenizeInto(std::string_view Line,
                  std::vector<std::string_view> &Tokens) {
  Tokens.clear();
  const size_t N = Line.size();
  size_t I = 0;
  while (true) {
    I = charscan::findNonSpace(Line, I);
    if (I == N || Line[I] == '#')
      return;
    const size_t Begin = I;
    I = charscan::findDelim(Line, I + 1);
    Tokens.push_back(Line.substr(Begin, I - Begin));
  }
}

bool isIntegerToken(std::string_view Tok) {
  if (Tok.empty())
    return false;
  if (Tok[0] == '-' || Tok[0] == '+')
    Tok.remove_prefix(1);
  return charscan::allDigits(Tok);
}

std::optional<Opcode> infixOpcode(std::string_view Sym) {
  if (Sym.size() == 1) {
    switch (Sym[0]) {
    case '+':
      return Opcode::Add;
    case '-':
      return Opcode::Sub;
    case '*':
      return Opcode::Mul;
    case '/':
      return Opcode::Div;
    case '%':
      return Opcode::Mod;
    case '&':
      return Opcode::And;
    case '|':
      return Opcode::Or;
    case '^':
      return Opcode::Xor;
    case '<':
      return Opcode::CmpLt;
    case '>':
      return Opcode::CmpGt;
    default:
      return std::nullopt;
    }
  }
  if (Sym.size() == 2 && Sym[1] == Sym[0]) {
    if (Sym[0] == '<')
      return Opcode::Shl;
    if (Sym[0] == '>')
      return Opcode::Shr;
    if (Sym[0] == '=')
      return Opcode::CmpEq;
  }
  if (Sym.size() == 2 && Sym[1] == '=') {
    switch (Sym[0]) {
    case '!':
      return Opcode::CmpNe;
    case '<':
      return Opcode::CmpLe;
    case '>':
      return Opcode::CmpGe;
    default:
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<Opcode> mnemonicOpcode(std::string_view Sym) {
  if (Sym == "min")
    return Opcode::Min;
  if (Sym == "max")
    return Opcode::Max;
  return std::nullopt;
}

struct ParserState {
  ParserState(const IRLimits &Limits, ParserScratch &Scratch, Function &Fn)
      : Limits(Limits), Scratch(Scratch), Fn(Fn) {}

  const IRLimits &Limits;
  ParserScratch &Scratch;
  Function &Fn;
  BlockId Cur = InvalidBlock;
  bool CurTerminated = false;
  size_t InstrCount = 0;
  bool OverLimit = false;
};

std::string err(int Line, const std::string &Msg) {
  return "line " + std::to_string(Line) + ": " + Msg;
}

/// Looks up a block by label (labels live on the blocks themselves).
BlockId findLabel(const ParserState &S, std::string_view Label) {
  uint32_t Found = S.Scratch.Labels.find(
      InternTable::hashBytes(Label),
      [&](uint32_t Id) { return S.Fn.block(Id).label() == Label; });
  return Found == InternTable::npos ? InvalidBlock : Found;
}

/// Reports a resource-cap violation (distinguished from syntax errors so
/// the service can answer with a structured "limits" error).
bool limitErr(ParserState &S, int Line, const std::string &What, size_t Cap,
              std::string &Error) {
  S.OverLimit = true;
  Error = err(Line, "limit: " + What + " exceeds cap of " +
                        std::to_string(Cap));
  return false;
}

/// Parses an operand token (identifier or integer literal).
bool parseOperand(ParserState &S, std::string_view Tok, Operand &Out,
                  int Line, std::string &Error) {
  if (isIntegerToken(Tok)) {
    std::string_view Digits = Tok;
    if (Digits[0] == '+')
      Digits.remove_prefix(1); // from_chars rejects an explicit plus.
    long long V = 0;
    auto [Ptr, Ec] =
        std::from_chars(Digits.data(), Digits.data() + Digits.size(), V);
    (void)Ptr;
    if (Ec == std::errc::result_out_of_range) {
      Error = err(Line, "integer literal '" + std::string(Tok) +
                            "' out of range");
      return false;
    }
    Out = Operand::makeConst(V);
    return true;
  }
  if (!charscan::isIdentHeadChar(static_cast<unsigned char>(Tok[0]))) {
    Error = err(Line, "expected operand, got '" + std::string(Tok) + "'");
    return false;
  }
  const VarId V = S.Fn.getOrAddVar(Tok, S.Limits.MaxVars);
  if (V == InvalidVar)
    return limitErr(S, Line, "variable count", S.Limits.MaxVars, Error);
  Out = Operand::makeVar(V);
  return true;
}

/// Interns \p Ex under the expression cap and appends `Dest = Ex`.
bool appendOperation(ParserState &S, std::vector<Instr> &Instrs, VarId Dest,
                     const Expr &Ex, int Line, std::string &Error) {
  const ExprId E = S.Fn.exprs().intern(Ex, S.Limits.MaxExprs);
  if (E == InvalidExpr)
    return limitErr(S, Line, "expression count", S.Limits.MaxExprs, Error);
  Instrs.push_back(Instr::makeOperation(Dest, E));
  return true;
}

/// Parses one assignment line: Tokens = [dst, "=", rhs...].
bool parseAssignment(ParserState &S,
                     const std::vector<std::string_view> &Tokens, int Line,
                     std::string &Error) {
  if (S.Cur == InvalidBlock) {
    Error = err(Line, "instruction outside of a block");
    return false;
  }
  if (S.CurTerminated) {
    Error = err(Line, "instruction after terminator");
    return false;
  }
  if (S.InstrCount >= S.Limits.MaxInstrs)
    return limitErr(S, Line, "instruction count", S.Limits.MaxInstrs, Error);
  ++S.InstrCount;
  if (Tokens[0] == "@mem") {
    // The memory pseudo-variable is only ever written through `store`.
    Error = err(Line, "'@mem' is reserved and cannot be assigned");
    return false;
  }
  const VarId Dest = S.Fn.getOrAddVar(Tokens[0], S.Limits.MaxVars);
  if (Dest == InvalidVar)
    return limitErr(S, Line, "variable count", S.Limits.MaxVars, Error);
  auto &Instrs = S.Fn.block(S.Cur).instrs();

  const size_t N = Tokens.size();
  if (N == 3) {
    // Copy: dst = operand.
    Operand Src;
    if (!parseOperand(S, Tokens[2], Src, Line, Error))
      return false;
    Instrs.push_back(Instr::makeCopy(Dest, Src));
    return true;
  }
  if (N == 4 && Tokens[2] == "load") {
    // Load: dst = load addr.  The second operand is the implicit `@mem`
    // pseudo-variable, which makes every store kill every load.
    Operand Addr;
    if (!parseOperand(S, Tokens[3], Addr, Line, Error))
      return false;
    const VarId Mem = S.Fn.memoryVar(S.Limits.MaxVars);
    if (Mem == InvalidVar)
      return limitErr(S, Line, "variable count", S.Limits.MaxVars, Error);
    return appendOperation(S, Instrs, Dest,
                           Expr{Opcode::Load, Addr, Operand::makeVar(Mem)},
                           Line, Error);
  }
  if (N == 4) {
    // Unary: dst = (-|~) operand.
    Opcode Op;
    if (Tokens[2] == "-")
      Op = Opcode::Neg;
    else if (Tokens[2] == "~")
      Op = Opcode::Not;
    else {
      Error = err(Line, "unknown unary operator '" + std::string(Tokens[2]) +
                            "'");
      return false;
    }
    Operand Src;
    if (!parseOperand(S, Tokens[3], Src, Line, Error))
      return false;
    return appendOperation(S, Instrs, Dest,
                           Expr{Op, Src, Operand::makeConst(0)}, Line, Error);
  }
  if (N == 5) {
    // Binary: either "dst = a OP b" or "dst = min a b".
    Opcode Op;
    Operand Lhs, Rhs;
    if (auto Mn = mnemonicOpcode(Tokens[2])) {
      Op = *Mn;
      if (!parseOperand(S, Tokens[3], Lhs, Line, Error) ||
          !parseOperand(S, Tokens[4], Rhs, Line, Error))
        return false;
    } else if (auto In = infixOpcode(Tokens[3])) {
      Op = *In;
      if (!parseOperand(S, Tokens[2], Lhs, Line, Error) ||
          !parseOperand(S, Tokens[4], Rhs, Line, Error))
        return false;
    } else {
      Error = err(Line, "unknown operator in '" + std::string(Tokens[2]) +
                            " " + std::string(Tokens[3]) + " " +
                            std::string(Tokens[4]) + "'");
      return false;
    }
    return appendOperation(S, Instrs, Dest, Expr{Op, Lhs, Rhs}, Line, Error);
  }
  Error = err(Line, "malformed assignment");
  return false;
}

/// Parses one store line: Tokens = ["store", addr, value].
bool parseStore(ParserState &S, const std::vector<std::string_view> &Tokens,
                int Line, std::string &Error) {
  if (S.CurTerminated) {
    Error = err(Line, "instruction after terminator");
    return false;
  }
  if (Tokens.size() != 3) {
    Error = err(Line, "expected 'store ADDR VALUE'");
    return false;
  }
  if (S.InstrCount >= S.Limits.MaxInstrs)
    return limitErr(S, Line, "instruction count", S.Limits.MaxInstrs, Error);
  ++S.InstrCount;
  Operand Addr, Value;
  if (!parseOperand(S, Tokens[1], Addr, Line, Error) ||
      !parseOperand(S, Tokens[2], Value, Line, Error))
    return false;
  const VarId Mem = S.Fn.memoryVar(S.Limits.MaxVars);
  if (Mem == InvalidVar)
    return limitErr(S, Line, "variable count", S.Limits.MaxVars, Error);
  S.Fn.block(S.Cur).instrs().push_back(Instr::makeStore(Mem, Addr, Value));
  return true;
}

} // namespace

ParseResult lcm::parseFunction(std::string_view Source) {
  return parseFunction(Source, IRLimits::unlimited());
}

ParseResult lcm::parseFunction(std::string_view Source,
                               const IRLimits &Limits) {
  ParseResult Result;
  ParserScratch Scratch;
  parseFunctionInto(Source, Limits, Scratch, Result);
  return Result;
}

void lcm::parseFunctionInto(std::string_view Source, const IRLimits &Limits,
                            ParserScratch &Scratch, ParseResult &Result) {
  Result.Ok = false;
  Result.OverLimit = false;
  Result.Error.clear();
  Result.Fn.resetRetainingStorage();
  Scratch.Tokens.clear();
  Scratch.Targets.clear();
  Scratch.Edges.clear();
  Scratch.Labels.clearRetaining();

  ParserState S(Limits, Scratch, Result.Fn);

  if (Source.size() > Limits.MaxSourceBytes) {
    Result.OverLimit = true;
    Result.Error = err(1, "limit: source size of " +
                              std::to_string(Source.size()) +
                              " bytes exceeds cap of " +
                              std::to_string(Limits.MaxSourceBytes));
    return;
  }

  int Line = 0;
  size_t Pos = 0;
  while (Pos <= Source.size()) {
    size_t Nl = Source.find('\n', Pos);
    std::string_view Raw = Source.substr(
        Pos, Nl == std::string_view::npos ? std::string_view::npos
                                          : Nl - Pos);
    Pos = Nl == std::string_view::npos ? Source.size() + 1 : Nl + 1;
    ++Line;

    std::vector<std::string_view> &Tokens = Scratch.Tokens;
    tokenizeInto(Raw, Tokens);
    if (Tokens.empty())
      continue;

    const std::string_view Head = Tokens[0];
    if (Head == "func") {
      if (Tokens.size() != 2) {
        Result.Error = err(Line, "expected 'func NAME'");
        return;
      }
      if (S.Fn.numBlocks() != 0) {
        // Replacing the function mid-parse would orphan every block and
        // label already built; reject instead of corrupting state.
        Result.Error = err(Line, "'func' must precede the first block");
        return;
      }
      S.Fn.setName(Tokens[1]);
      continue;
    }
    if (Head == "block") {
      if (Tokens.size() != 2) {
        Result.Error = err(Line, "expected 'block LABEL'");
        return;
      }
      if (S.Cur != InvalidBlock && !S.CurTerminated) {
        Result.Error = err(Line, "previous block lacks a terminator");
        return;
      }
      if (findLabel(S, Tokens[1]) != InvalidBlock) {
        Result.Error =
            err(Line, "duplicate block label '" + std::string(Tokens[1]) +
                          "'");
        return;
      }
      if (S.Fn.numBlocks() >= Limits.MaxBlocks) {
        limitErr(S, Line, "block count", Limits.MaxBlocks, Result.Error);
        Result.OverLimit = true;
        return;
      }
      S.Cur = S.Fn.addBlock(Tokens[1]);
      // Hash the label as stored on the block (it owns the bytes now).
      Scratch.Labels.insert(
          InternTable::hashBytes(S.Fn.block(S.Cur).label()), S.Cur);
      S.CurTerminated = false;
      continue;
    }
    if (S.Cur == InvalidBlock) {
      Result.Error = err(Line, "statement outside of a block");
      return;
    }
    if (Head == "goto") {
      if (Tokens.size() != 2) {
        Result.Error = err(Line, "expected 'goto LABEL'");
        return;
      }
      uint32_t Begin = uint32_t(Scratch.Targets.size());
      Scratch.Targets.push_back(Tokens[1]);
      Scratch.Edges.push_back({S.Cur, Line, Begin, Begin + 1, {}});
      S.CurTerminated = true;
      continue;
    }
    if (Head == "if") {
      if (Tokens.size() != 6 || Tokens[2] != "then" || Tokens[4] != "else") {
        Result.Error = err(Line, "expected 'if VAR then L1 else L2'");
        return;
      }
      uint32_t Begin = uint32_t(Scratch.Targets.size());
      Scratch.Targets.push_back(Tokens[3]);
      Scratch.Targets.push_back(Tokens[5]);
      Scratch.Edges.push_back({S.Cur, Line, Begin, Begin + 2, Tokens[1]});
      S.CurTerminated = true;
      continue;
    }
    if (Head == "br") {
      if (Tokens.size() < 2) {
        Result.Error = err(Line, "expected 'br LABEL...'");
        return;
      }
      uint32_t Begin = uint32_t(Scratch.Targets.size());
      for (size_t I = 1; I != Tokens.size(); ++I)
        Scratch.Targets.push_back(Tokens[I]);
      Scratch.Edges.push_back(
          {S.Cur, Line, Begin, uint32_t(Scratch.Targets.size()), {}});
      S.CurTerminated = true;
      continue;
    }
    if (Head == "exit") {
      if (Tokens.size() != 1) {
        Result.Error = err(Line, "expected bare 'exit'");
        return;
      }
      S.CurTerminated = true;
      continue;
    }
    // `store ADDR VALUE` -- unless a variable named "store" is being
    // assigned, which keeps pre-memory programs parsing unchanged.
    if (Head == "store" && (Tokens.size() < 2 || Tokens[1] != "=")) {
      if (!parseStore(S, Tokens, Line, Result.Error)) {
        Result.OverLimit = S.OverLimit;
        return;
      }
      continue;
    }
    // Otherwise this must be an assignment: dst = ...
    if (Tokens.size() < 3 || Tokens[1] != "=") {
      Result.Error =
          err(Line, "unrecognized statement '" + std::string(Head) + "'");
      return;
    }
    if (!parseAssignment(S, Tokens, Line, Result.Error)) {
      Result.OverLimit = S.OverLimit;
      return;
    }
  }

  if (S.Cur == InvalidBlock) {
    Result.Error = err(Line, "empty function");
    return;
  }
  if (!S.CurTerminated) {
    Result.Error = err(Line, "last block lacks a terminator");
    return;
  }

  // Resolve edges now that every label is known.
  for (const ParserScratch::PendingEdge &E : Scratch.Edges) {
    for (uint32_t I = E.TargetsBegin; I != E.TargetsEnd; ++I) {
      std::string_view Target = Scratch.Targets[I];
      BlockId To = findLabel(S, Target);
      if (To == InvalidBlock) {
        Result.Error =
            err(E.Line, "unknown label '" + std::string(Target) + "'");
        return;
      }
      S.Fn.addEdge(E.From, To);
    }
    if (!E.CondName.empty()) {
      const VarId Cond = S.Fn.getOrAddVar(E.CondName, Limits.MaxVars);
      if (Cond == InvalidVar) {
        limitErr(S, E.Line, "variable count", Limits.MaxVars, Result.Error);
        Result.OverLimit = true;
        return;
      }
      S.Fn.block(E.From).setCondVar(Cond);
    }
  }

  Result.Ok = true;
}
