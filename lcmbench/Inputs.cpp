//===- lcmbench/Inputs.cpp ------------------------------------------------===//

#include "Inputs.h"

#include <string_view>

#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "metrics/Cost.h"
#include "ir/Printer.h"
#include "workload/AddressGen.h"
#include "workload/RandomCfg.h"
#include "workload/StructuredGen.h"

using namespace lcm;

namespace lcmbench {

const char *strategyName(Strategy S) {
  switch (S) {
  case Strategy::Lcm:
    return "lcm";
  case Strategy::GvnLcm:
    return "gvn";
  case Strategy::SpecPre:
    return "specpre";
  }
  return "?";
}

const char *strategyPipeline(Strategy S) {
  switch (S) {
  case Strategy::Lcm:
    return "lcse,lcm";
  case Strategy::GvnLcm:
    return "lcse,gvn,lcm";
  case Strategy::SpecPre:
    return "lcse,specpre";
  }
  return "";
}

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Structured:
    return "structured";
  case Kind::RandomCfg:
    return "randcfg";
  case Kind::Address:
    return "addr";
  case Kind::Memory:
    return "mem";
  case Kind::Wide:
    return "wide";
  }
  return "?";
}

namespace {

uint64_t mix(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + Index * 0xd1b54a32d192ed03ULL +
               0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return (Z ^ (Z >> 31)) | 1;
}

Function generate(Kind K, unsigned Size, uint64_t Seed) {
  switch (K) {
  case Kind::Structured: {
    StructuredGenOptions O;
    O.Seed = Seed;
    O.MaxDepth = 2 + Size / 2;
    O.MaxStmtsPerSeq = 4 + Size;
    O.NumVars = 6 + Size;
    O.ControlPercent = 40;
    return generateStructured(O);
  }
  case Kind::RandomCfg: {
    RandomCfgOptions O;
    O.Seed = Seed;
    O.NumBlocks = 10 + 8 * Size;
    O.MaxInstrsPerBlock = 3 + Size / 2;
    O.NumVars = 5 + Size;
    return generateRandomCfg(O);
  }
  case Kind::Address: {
    AddressGenOptions O;
    O.Seed = Seed;
    O.Depth = 1 + Size % 3;
    O.NumArrays = 3 + Size;
    O.StmtsPerBody = 4 + 2 * Size;
    return generateAddressKernel(O);
  }
  case Kind::Memory: {
    MemoryGenOptions O;
    O.Seed = Seed;
    O.Depth = 1 + Size % 2;
    O.StmtsPerBody = 6 + 3 * Size;
    return generateMemoryKernel(O);
  }
  case Kind::Wide: {
    MemoryGenOptions O;
    O.Seed = Seed;
    O.Depth = 2;
    O.TripCount = 3;
    O.NumArrays = 24;
    O.StmtsPerBody = 480 + 40 * Size;
    O.ReusePercent = 20;
    return generateMemoryKernel(O);
  }
  }
  return Function();
}

} // namespace

specpre::EdgeProfile measuredProfile(const Function &Fn, uint64_t Seed) {
  specpre::EdgeProfile P;
  for (uint64_t Run = 0; Run != 4; ++Run) {
    Interpreter::Options Opts;
    Opts.MaxOriginalBlockVisits = 5000;
    RandomOracle Oracle(mix(Seed, Run));
    InterpResult R = Interpreter::run(
        Fn, makeSeededInputs(mix(Seed, Run + 100), Fn.numVars()), Oracle,
        Opts);
    // Only complete runs: their traversal counts conserve flow.
    if (R.ReachedExit)
      specpre::accumulateTraversals(Fn, R.SuccTraversals, P);
  }
  return P;
}

Program makeProgram(Kind K, unsigned Size, uint64_t Seed,
                    const std::string &Name,
                    std::optional<specpre::ProfileMode> Synth) {
  Function Fn = generate(K, Size, Seed);
  Fn.setName(Name);
  Program P;
  P.Name = Name;
  P.K = K;
  P.Text = printFunction(Fn);
  if (Synth) {
    P.Profile =
        specpre::synthesizeEdgeProfile(Fn, *Synth, Seed ^ 0x5bd1e995ULL);
    P.ProfileMode = specpre::profileModeName(*Synth);
  } else {
    P.Profile = measuredProfile(Fn, Seed ^ 0x5bd1e995ULL);
    P.ProfileMode = "measured";
  }
  return P;
}

std::vector<Program> drawBatch(uint64_t Seed) {
  struct Slot {
    Kind K;
    unsigned Sizes; ///< Sizes 0..Sizes-1 ...
    unsigned Each;  ///< ... each drawn this many times.
  };
  static const Slot Schedule[] = {
      {Kind::Structured, 2, 24}, {Kind::RandomCfg, 4, 12},
      {Kind::Address, 3, 10},    {Kind::Memory, 4, 8},
      {Kind::Wide, 3, 3},
  };
  std::vector<Program> Out = fixedHeavy(Kind::Structured, 4, "bh");
  // Seed-independent programs under synthesized profiles: every kind and
  // size of the schedule but Wide, each regime alike.
  for (unsigned I = 0; I != BatchSynthesized; ++I) {
    const Kind K = Schedule[I % 4].K;
    Out.push_back(makeProgram(K, (I / 4) % Schedule[I % 4].Sizes,
                              mix(0x5e7, I),
                              "bs" + std::to_string(I) + "_" + kindName(K),
                              specpre::ProfileMode(I % 3)));
  }
  uint64_t Index = 0;
  for (const Slot &S : Schedule)
    for (unsigned Size = 0; Size != S.Sizes; ++Size)
      for (unsigned I = 0; I != S.Each; ++I, ++Index)
        Out.push_back(makeProgram(S.K, Size, mix(Seed, Index),
                                  "b" + std::to_string(Index) + "_" +
                                      kindName(S.K)));
  return Out;
}

std::vector<Program> drawServing(uint64_t Seed, unsigned Count,
                                 const std::string &Prefix,
                                 bool Synthesized) {
  static const Kind Kinds[] = {Kind::Structured, Kind::RandomCfg,
                               Kind::Address, Kind::Memory};
  // Small and medium sizes whose compile times are light-tailed; structured
  // programs stop at size 1 (from size 2 on, specpre's cost is heavy-tailed,
  // which fixedHeavy() covers with seed-independent programs).
  static const unsigned MaxSize[] = {2, 4, 3, 3};
  std::vector<Program> Out;
  Out.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    const unsigned K = I % 4;
    const unsigned Size = (I / 4) % MaxSize[K];
    Out.push_back(makeProgram(Kinds[K], Size, mix(Seed, 1000003 + I),
                              Prefix + std::to_string(I) + "_" +
                                  kindName(Kinds[K]),
                              Synthesized ? std::optional(specpre::ProfileMode(
                                                (I / NumStrategies) % 3))
                                          : std::nullopt));
  }
  return Out;
}

std::vector<Program> fixedHeavy(Kind K, unsigned Count,
                                const std::string &Prefix) {
  const unsigned Size = K == Kind::Wide ? 0 : 3;
  std::vector<Program> Out;
  for (unsigned I = 0; I != Count; ++I)
    Out.push_back(makeProgram(K, Size, mix(0x4ea7, I),
                              Prefix + std::to_string(I) + "_" + kindName(K)));
  return Out;
}

Pipelines::Pipelines() {
  for (unsigned S = 0; S != NumStrategies; ++S)
    P[S] = parsePipeline(strategyPipeline(Strategy(S))).P;
}

bool compileReference(const Pipelines &Ps, const Program &Prog, Strategy S,
                      std::string &Ir, Function *Out, std::string &Error) {
  ParseResult R = parseFunction(Prog.Text);
  if (!R) {
    Error = Prog.Name + ": " + R.Error;
    return false;
  }
  specpre::ProfileContext::Scope Scope(S == Strategy::SpecPre ? &Prog.Profile
                                                              : nullptr);
  Pipeline::RunResult Run = Ps.P[unsigned(S)].run(R.Fn);
  if (!Run.Ok) {
    Error = Prog.Name + ": " + Run.Error;
    return false;
  }
  Ir.clear();
  printFunction(R.Fn, Ir);
  if (Out)
    *Out = std::move(R.Fn);
  return true;
}

bool findBlockSpan(const std::string &Text, const std::string &Label,
                   size_t &Begin, size_t &End) {
  size_t Pos = 0;
  bool In = false;
  while (Pos < Text.size()) {
    const size_t Nl = Text.find('\n', Pos);
    const size_t LineEnd = Nl == std::string::npos ? Text.size() : Nl;
    std::string_view Line(Text.data() + Pos, LineEnd - Pos);
    if (Line.substr(0, 6) == "block ") {
      if (In) {
        End = Pos;
        return true;
      }
      if (Line.substr(6) == Label) {
        In = true;
        Begin = Pos;
      }
    }
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
  }
  End = Text.size();
  return In;
}

std::vector<std::string> blockLabels(const std::string &Text) {
  std::vector<std::string> Labels;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    const size_t Nl = Text.find('\n', Pos);
    const size_t LineEnd = Nl == std::string::npos ? Text.size() : Nl;
    std::string_view Line(Text.data() + Pos, LineEnd - Pos);
    if (Line.substr(0, 6) == "block ")
      Labels.emplace_back(Line.substr(6));
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
  }
  return Labels;
}

namespace {

/// "  x = a OP b" -> "a OP b"; empty for any other line shape.
std::string_view binaryRhs(std::string_view Line) {
  if (Line.substr(0, 2) != "  ")
    return {};
  const size_t Eq = Line.find(" = ");
  if (Eq == std::string_view::npos)
    return {};
  std::string_view Rhs = Line.substr(Eq + 3);
  // Exactly three space-separated tokens, the middle one an operator.
  const size_t S1 = Rhs.find(' ');
  if (S1 == std::string_view::npos)
    return {};
  const size_t S2 = Rhs.find(' ', S1 + 1);
  if (S2 == std::string_view::npos || Rhs.find(' ', S2 + 1) !=
                                          std::string_view::npos)
    return {};
  if (Rhs.substr(0, S1) == "load")
    return {};
  return Rhs;
}

} // namespace

bool makeBlockEdit(const std::string &Text, uint64_t Seed,
                   const std::string &Dest, BlockEdit &E) {
  const std::vector<std::string> Labels = blockLabels(Text);
  if (Labels.empty())
    return false;
  const size_t Start = size_t(mix(Seed, 7) % Labels.size());
  for (size_t Try = 0; Try != Labels.size(); ++Try) {
    const std::string &Label = Labels[(Start + Try) % Labels.size()];
    size_t B = 0, End = 0;
    if (!findBlockSpan(Text, Label, B, End) || End <= B)
      continue;
    // The terminator is the block's last line; candidates are binary
    // computations anywhere before it.
    const size_t TermBegin = Text.rfind('\n', End - 2) + 1;
    std::vector<std::string_view> Candidates;
    size_t Pos = 0;
    while (Pos < TermBegin) {
      const size_t Nl = Text.find('\n', Pos);
      std::string_view Rhs = binaryRhs(
          std::string_view(Text.data() + Pos, Nl - Pos));
      if (!Rhs.empty())
        Candidates.push_back(Rhs);
      Pos = Nl + 1;
    }
    if (Candidates.empty())
      continue;
    const std::string_view Rhs =
        Candidates[size_t(mix(Seed, 11) % Candidates.size())];
    E.Label = Label;
    E.NewBlock = Text.substr(B, TermBegin - B);
    E.NewBlock += "  " + Dest + " = ";
    E.NewBlock += Rhs;
    E.NewBlock += '\n';
    E.NewBlock += Text.substr(TermBegin, End - TermBegin);
    return true;
  }
  return false;
}

void applyBlockEdit(std::string &Text, const BlockEdit &E) {
  size_t B = 0, End = 0;
  if (findBlockSpan(Text, E.Label, B, End))
    Text.replace(B, End - B, E.NewBlock);
}

std::string renameFunction(const std::string &Text, const std::string &Name) {
  const size_t Nl = Text.find('\n');
  return "func " + Name + Text.substr(Nl == std::string::npos ? Text.size()
                                                               : Nl);
}

} // namespace lcmbench
