//===- lcmbench/Inputs.h - Seeded benchmark inputs and references --------===//
//
// The programs every workload feeds the optimizer, drawn from the
// repository's generators with seeds derived from the run's --seed, and the
// in-process reference compilation the checks compare served bytes against.
//
//===----------------------------------------------------------------------===//

#ifndef LCMBENCH_INPUTS_H
#define LCMBENCH_INPUTS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driver/Pipeline.h"
#include "ir/Function.h"
#include "specpre/EdgeProfile.h"

namespace lcmbench {

/// The service's three placement strategies.
enum class Strategy { Lcm, GvnLcm, SpecPre };
inline constexpr unsigned NumStrategies = 3;
const char *strategyName(Strategy S);     ///< "lcm", "gvn", "specpre"
const char *strategyPipeline(Strategy S); ///< "lcse,lcm", ...

/// Program families.  `Wide` is a memory kernel whose expression pool stays
/// above the 512-expression (MinSimdWords = 8 words) SIMD threshold.
enum class Kind { Structured, RandomCfg, Address, Memory, Wide };
const char *kindName(Kind K);

struct Program {
  std::string Name;
  Kind K = Kind::Structured;
  /// Printed (canonical) input IR.
  std::string Text;
  /// Seeded edge profile, used by the specpre strategy.
  lcm::specpre::EdgeProfile Profile;
  /// How Profile was made: "measured", or the synthesized regime's name
  /// ("uniform", "skewed", "adversarial"); sent as `profile_mode`.
  std::string ProfileMode;
};

/// Edge profile measured by running \p Fn in the interpreter on four
/// seeded inputs and branch oracles, keeping the runs that reached the
/// exit, so every block's in-flow equals its out-flow.
lcm::specpre::EdgeProfile measuredProfile(const lcm::Function &Fn,
                                          uint64_t Seed);

/// One generated program.  \p Size (0..3) scales the generator knobs.
/// Its profile is measured, or, given \p Synth, synthesized in that regime
/// by lcm::specpre::synthesizeEdgeProfile.
Program makeProgram(Kind K, unsigned Size, uint64_t Seed,
                    const std::string &Name,
                    std::optional<lcm::specpre::ProfileMode> Synth = {});

/// compile_batch's draw: the seed-independent programs of
/// batchFixedPrograms() first, then a stratified schedule of kinds and
/// sizes (the same for every seed) whose generator seeds all derive from
/// \p Seed, with measured profiles.
std::vector<Program> drawBatch(uint64_t Seed);
/// How many of drawBatch()'s programs, at its front, do not depend on the
/// seed: four heavy structured programs with measured profiles and
/// BatchSynthesized programs with synthesized profiles.
inline constexpr unsigned BatchSynthesized = 24;
inline constexpr unsigned BatchFixedPrograms = 4 + BatchSynthesized;

/// Small and medium programs for the serving workloads (no Wide kernels),
/// with light-tailed compile times.  \p Synthesized gives them synthesized
/// profiles, the three regimes in turn.
std::vector<Program> drawServing(uint64_t Seed, unsigned Count,
                                 const std::string &Prefix,
                                 bool Synthesized = false);

/// Programs whose compile time is far above the draw's: deeply nested
/// structured programs (size 3; specpre's cost on them is heavy-tailed) or
/// Wide kernels.  Their generator seeds are fixed, so they are the same in
/// every run whatever --seed is: they keep that cost in the figures, and
/// the latency tail made of real work, without letting either vary with
/// the seed.
std::vector<Program> fixedHeavy(Kind K, unsigned Count,
                                const std::string &Prefix);

/// The three parsed pipelines, indexed by Strategy.
struct Pipelines {
  Pipelines();
  lcm::Pipeline P[NumStrategies];
};

/// Reference compilation: parse, run the strategy's pipeline (the profile
/// in scope for specpre), print.  \p Out receives the optimized function
/// when non-null.  False with \p Error set on any failure.
bool compileReference(const Pipelines &Ps, const Program &Prog, Strategy S,
                      std::string &Ir, lcm::Function *Out,
                      std::string &Error);

/// Text of the block labelled \p Label ([Begin, End) in \p Text).
bool findBlockSpan(const std::string &Text, const std::string &Label,
                   size_t &Begin, size_t &End);
std::vector<std::string> blockLabels(const std::string &Text);

/// Builds a one-block edit of canonical function \p Text: a fresh variable
/// \p Dest is assigned a copy of a binary computation that already appears
/// earlier in the text, inserted just before the terminator of a seeded
/// block.  The expression pool keeps its order, so warm-start dataflow
/// stays applicable.  Returns false when the function has no binary
/// computation at all.
struct BlockEdit {
  std::string Label;
  std::string NewBlock; ///< Full replacement block text.
};
bool makeBlockEdit(const std::string &Text, uint64_t Seed,
                   const std::string &Dest, BlockEdit &E);
/// Applies \p E to \p Text in place.
void applyBlockEdit(std::string &Text, const BlockEdit &E);

/// Replaces the `func NAME` header of canonical function text.
std::string renameFunction(const std::string &Text, const std::string &Name);

} // namespace lcmbench

#endif // LCMBENCH_INPUTS_H
