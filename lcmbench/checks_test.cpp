//===- lcmbench/checks_test.cpp - The benchmark's checkers reject bad input ===//
//
// No check of the benchmark may pass vacuously: each one is run on a
// correct input (it must accept) and on a corrupted one (it must reject).
// Exits non-zero on the first checker that misbehaves.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <string>

#include "Checks.h"
#include "Inputs.h"
#include "ir/Parser.h"
#include "server/Protocol.h"

using namespace lcmbench;
using lcm::json::Value;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What);
  Failures += !Cond;
}

/// Swaps the first binary operator of an optimized line ("+" <-> "-",
/// else "*" -> "+").
std::string swapOneOperator(std::string Ir) {
  for (size_t Pos = Ir.find(" = "); Pos != std::string::npos;
       Pos = Ir.find(" = ", Pos + 1)) {
    const size_t Eol = Ir.find('\n', Pos);
    for (size_t I = Pos + 3; I + 2 < Eol; ++I)
      if (Ir[I] == ' ' && Ir[I + 2] == ' ' &&
          (Ir[I + 1] == '+' || Ir[I + 1] == '-' || Ir[I + 1] == '*')) {
        Ir[I + 1] = Ir[I + 1] == '+' ? '-' : '+';
        return Ir;
      }
  }
  return Ir;
}

Value okResponse(const std::string &Ir, bool Validated) {
  Value R = lcm::server::makeResponse(Value::number(uint64_t(1)),
                                      lcm::server::Status::Ok);
  R.set("ir", Value::str(Ir));
  if (Validated)
    R.set("validated", Value::boolean(true));
  return R;
}

} // namespace

int main() {
  const Pipelines Ps;
  // A structured program whose optimized form keeps arithmetic that
  // executes: the operator swap must change what it computes.
  Program P;
  std::string Ref, Error;
  lcm::Function In, Out;
  bool Found = false;
  for (uint64_t Seed = 1; Seed != 200 && !Found; ++Seed) {
    P = makeProgram(Kind::Structured, 2, Seed, "t");
    if (!compileReference(Ps, P, Strategy::Lcm, Ref, &Out, Error))
      continue;
    In = lcm::parseFunction(P.Text).Fn;
    Found = compareUnderOracle(P.Text, swapOneOperator(Ref)).Same == false;
  }
  expect(Found, "a program exists whose swapped operator changes behaviour");
  if (!Found)
    return 1;

  // Oracle: accepts the optimizer's output, rejects one swapped operator.
  const OracleVerdict Good = compareUnderOracle(P.Text, Ref);
  expect(Good.Same, "oracle accepts the optimized program");
  expect(Good.MoreEvalRuns == 0, "lcm output evaluates no more than input");
  expect(!compareUnderOracle(P.Text, swapOneOperator(Ref)).Same,
         "oracle rejects a program with one operator swapped");
  expect(!compareUnderOracle(P.Text, "func t\nblock x\n  bogus\n").Same,
         "oracle rejects an unparsable program");

  // Served-text check: byte equality with the reference.
  expect(checkOkResponse(okResponse(Ref, false), Ref, P.Text, false, true)
             .empty(),
         "response check accepts the reference bytes");
  std::string OneByte = Ref;
  OneByte[OneByte.size() / 2] ^= 1;
  expect(!checkOkResponse(okResponse(OneByte, false), Ref, P.Text, false,
                          false)
              .empty(),
         "response check rejects a delta result one byte off its full text");
  expect(!firstDifference(OneByte, Ref).empty(),
         "byte comparison rejects a one-byte difference");
  std::string Longer = Ref + "\n";
  expect(!firstDifference(Longer, Ref).empty(),
         "byte comparison rejects a trailing extra byte");

  // An ok response whose IR fails the oracle: rejected even when the
  // reference it is compared with is the same wrong text.
  const std::string Bad = swapOneOperator(Ref);
  expect(!checkOkResponse(okResponse(Bad, true), Bad, P.Text, true, true)
              .empty(),
         "response check rejects ok IR that fails the oracle");
  expect(!checkOkResponse(okResponse(Ref, false), Ref, P.Text, true, false)
              .empty(),
         "response check rejects a validate answer without validated:true");
  Value Err = lcm::server::makeErrorResponse(
      Value::number(uint64_t(1)), lcm::server::Status::Overloaded, "busy");
  expect(!checkOkResponse(Err, Ref, P.Text, false, false).empty(),
         "response check rejects a non-ok status");

  // Quality counts: a real set counts, an empty set is refused.
  QualityCounts Q;
  std::string QErr;
  expect(measureQuality({{&In, &Out, Good.EvalsOut}}, Q, QErr) &&
             Q.DynEvals == Good.EvalsOut && Q.StaticInstrs > 0,
         "quality counts over one program");
  expect(!measureQuality({}, Q, QErr),
         "quality counts refuse an empty output set");
  expect(!measureQuality({{nullptr, nullptr, 0}}, Q, QErr),
         "quality counts refuse a sample without programs");

  // Profiled cost: specpre never above lcm on a skewed profile, and the
  // cost of a program is positive under its own profile.
  std::string SpecIr;
  lcm::Function SpecOut;
  const bool SpecOk =
      compileReference(Ps, P, Strategy::SpecPre, SpecIr, &SpecOut, Error);
  const uint64_t LcmCost = profiledCostOf(In, P.Profile, Out);
  expect(SpecOk && LcmCost > 0 &&
             profiledCostOf(In, P.Profile, SpecOut) <= LcmCost,
         "specpre profiled cost is at most lcm's");
  expect(profiledCostOf(In, P.Profile, In) > 0,
         "profiled cost of the input is positive");

  // Edits keep the program valid and change exactly one block.
  BlockEdit E;
  expect(makeBlockEdit(P.Text, 7, "zq0", E), "a one-block edit exists");
  std::string Edited = P.Text;
  applyBlockEdit(Edited, E);
  expect(Edited != P.Text && lcm::parseFunction(Edited).Ok,
         "the edited program differs and parses");

  std::printf("%d failure(s)\n", Failures);
  return Failures ? 1 : 0;
}
