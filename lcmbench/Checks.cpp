//===- lcmbench/Checks.cpp ------------------------------------------------===//

#include "Checks.h"

#include <unordered_map>

#include "graph/CfgEdges.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "metrics/Cost.h"
#include "specpre/SpecPre.h"

using namespace lcm;

namespace lcmbench {

OracleVerdict compareUnderOracle(const Function &In, const Function &Out) {
  OracleVerdict V;
  const size_t NumVars = In.numVars();
  for (uint64_t Seed = 1; Seed <= OracleRuns; ++Seed) {
    // measureDynamicCost's inputs, oracle and visit budget, so EvalsIn is
    // exactly its count for the input program.
    const std::vector<int64_t> Inputs = makeSeededInputs(Seed, NumVars);
    std::vector<int64_t> OutInputs(Out.numVars(), 0);
    std::vector<VarId> OutOf(NumVars, InvalidVar);
    for (VarId Var = 0; Var != VarId(NumVars); ++Var) {
      OutOf[Var] = Out.findVar(In.varName(Var));
      if (OutOf[Var] != InvalidVar)
        OutInputs[OutOf[Var]] = Inputs[Var];
    }
    Interpreter::Options Opts;
    Opts.MaxOriginalBlockVisits = 20000;
    Opts.OriginalBlockCount = uint32_t(In.numBlocks());
    RandomOracle OracleIn(Seed ^ 0x94d049bb133111ebULL);
    RandomOracle OracleOut(Seed ^ 0x94d049bb133111ebULL);
    const InterpResult A = Interpreter::run(In, Inputs, OracleIn, Opts);
    const InterpResult B = Interpreter::run(Out, OutInputs, OracleOut, Opts);

    // Re-express B's final state in the input's numbering; a variable the
    // optimized text no longer names keeps its input value.
    InterpResult BAligned;
    BAligned.ReachedExit = B.ReachedExit;
    BAligned.OriginalBlocksExecuted = B.OriginalBlocksExecuted;
    BAligned.Mem = B.Mem;
    BAligned.Vars.resize(NumVars);
    for (VarId Var = 0; Var != VarId(NumVars); ++Var)
      BAligned.Vars[Var] =
          OutOf[Var] == InvalidVar ? Inputs[Var] : B.Vars[OutOf[Var]];
    if (!sameObservableBehaviour(A, BAligned, NumVars)) {
      V.Same = false;
      V.Why = "observable behaviour diverges under seed " +
              std::to_string(Seed);
      return V;
    }
    V.EvalsIn += A.TotalEvals;
    V.EvalsOut += B.TotalEvals;
    if (A.ReachedExit && B.TotalEvals > A.TotalEvals)
      ++V.MoreEvalRuns;
  }
  return V;
}

OracleVerdict compareUnderOracle(const std::string &InText,
                                 const std::string &OutText) {
  ParseResult In = parseFunction(InText);
  ParseResult Out = parseFunction(OutText);
  if (!In || !Out) {
    OracleVerdict V;
    V.Same = false;
    V.Why = !In ? "input unparsable: " + In.Error
                : "output unparsable: " + Out.Error;
    return V;
  }
  return compareUnderOracle(In.Fn, Out.Fn);
}

uint64_t profiledCostOf(const Function &Input,
                        const specpre::EdgeProfile &P,
                        const Function &Optimized) {
  const CfgEdges InEdges(Input);
  specpre::ResolvedProfile InR;
  specpre::resolveProfile(P, Input, InEdges, InR);
  std::unordered_map<std::string, BlockId> InBlock;
  for (const BasicBlock &B : Input.blocks())
    InBlock.emplace(B.label(), B.id());

  const CfgEdges OutEdges(Optimized);
  specpre::ResolvedProfile OutR;
  OutR.BlockFreq.assign(Optimized.numBlocks(), 0);
  OutR.MatchedRecords = InR.MatchedRecords;
  for (const BasicBlock &B : Optimized.blocks()) {
    auto It = InBlock.find(B.label());
    if (It != InBlock.end()) {
      OutR.BlockFreq[B.id()] = InR.BlockFreq[It->second];
      continue;
    }
    // A split block: it sits on the input edge its predecessor's
    // successor slot named.
    const std::vector<EdgeId> &Preds = OutEdges.inEdges(B.id());
    if (Preds.size() != 1)
      continue;
    const CfgEdge &E = OutEdges.edge(Preds.front());
    auto From = InBlock.find(Optimized.block(E.From).label());
    if (From == InBlock.end())
      continue;
    for (EdgeId IE : InEdges.outEdges(From->second))
      if (InEdges.edge(IE).SuccIdx == E.SuccIdx)
        OutR.BlockFreq[B.id()] = InR.EdgeFreq[IE];
  }
  return specpre::profiledFunctionCost(Optimized, OutR);
}

std::string firstDifference(const std::string &Got, const std::string &Want) {
  if (Got == Want)
    return {};
  size_t I = 0;
  while (I < Got.size() && I < Want.size() && Got[I] == Want[I])
    ++I;
  return "bytes differ at offset " + std::to_string(I) + " (got " +
         std::to_string(Got.size()) + " bytes, want " +
         std::to_string(Want.size()) + ")";
}

std::string checkOkResponse(const json::Value &Response,
                            const std::string &ReferenceIr,
                            const std::string &InputText, bool WantValidated,
                            bool RunOracle) {
  const json::Value *Status = Response.find("status");
  if (!Status || !Status->isString() || Status->asString() != "ok")
    return "status " + (Status && Status->isString() ? Status->asString()
                                                     : std::string("?"));
  const json::Value *Ir = Response.find("ir");
  if (!Ir || !Ir->isString())
    return "ok response without ir";
  std::string Diff = firstDifference(Ir->asString(), ReferenceIr);
  if (!Diff.empty())
    return "served ir differs from the in-process reference: " + Diff;
  if (WantValidated) {
    const json::Value *V = Response.find("validated");
    if (!V || !V->isBool() || !V->asBool())
      return "validate request answered without validated:true";
  }
  if (RunOracle) {
    OracleVerdict OV = compareUnderOracle(InputText, Ir->asString());
    if (!OV.Same)
      return "served ir fails the oracle: " + OV.Why;
  }
  return {};
}

bool measureQuality(const std::vector<QualitySample> &Samples,
                    QualityCounts &Out, std::string &Error) {
  Out = QualityCounts();
  if (Samples.empty()) {
    Error = "quality counts over an empty output set";
    return false;
  }
  for (const QualitySample &S : Samples) {
    if (!S.Input || !S.Output) {
      Error = "quality sample without its programs";
      return false;
    }
    Out.DynEvals += S.Evals;
    for (const BasicBlock &B : S.Output->blocks())
      Out.StaticInstrs += B.instrs().size();
    Out.TempLiveSlots +=
        measureTempLifetimes(*S.Output, S.Input->numVars()).LiveBlockSlots;
  }
  if (Out.DynEvals == 0 || Out.StaticInstrs == 0) {
    Error = "quality counts read zero: the output set executes nothing";
    return false;
  }
  return true;
}

} // namespace lcmbench
