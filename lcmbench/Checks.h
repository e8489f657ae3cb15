//===- lcmbench/Checks.h - Output checks made apart from the optimizer ----===//
//
// Every check here recomputes its verdict from the program texts with the
// interpreter or from independently computed references; none trusts an
// earlier output of the code path under test.  lcmbench_checks_test shows
// that each one rejects a corrupted input.
//
//===----------------------------------------------------------------------===//

#ifndef LCMBENCH_CHECKS_H
#define LCMBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/Function.h"
#include "specpre/EdgeProfile.h"
#include "support/Json.h"

namespace lcmbench {

/// Seeded executions per oracle comparison (inputs and branch oracles are
/// those of lcm::measureDynamicCost for seeds 1..OracleRuns).
inline constexpr unsigned OracleRuns = 3;

struct OracleVerdict {
  bool Same = true;
  std::string Why;
  /// Expression evaluations summed over the seeded runs.
  uint64_t EvalsIn = 0;
  uint64_t EvalsOut = 0;
  /// Runs on which the optimized program evaluated more expressions than
  /// its input, among runs that reached the exit.
  unsigned MoreEvalRuns = 0;
};

/// Runs \p In and \p Out on the same seeded inputs and branch oracles,
/// aligning variables by name (the optimized text may number them
/// differently), and compares them with lcm::sameObservableBehaviour.
OracleVerdict compareUnderOracle(const lcm::Function &In,
                                 const lcm::Function &Out);

/// Text form: parses both; an unparsable output is a mismatch.
OracleVerdict compareUnderOracle(const std::string &InText,
                                 const std::string &OutText);

/// Profiled cost of an optimized function under its input's profile:
/// blocks keep their input label's frequency, and a block the optimizer
/// split into an edge carries that edge's frequency.
uint64_t profiledCostOf(const lcm::Function &Input,
                        const lcm::specpre::EdgeProfile &P,
                        const lcm::Function &Optimized);

/// The served-text check: status ok, `ir` byte-equal to the reference,
/// `validated: true` when validation was asked for, and the IR equivalent
/// to the input under the oracle when \p RunOracle.  Empty on success,
/// else the first failure.
std::string checkOkResponse(const lcm::json::Value &Response,
                            const std::string &ReferenceIr,
                            const std::string &InputText, bool WantValidated,
                            bool RunOracle);

/// Byte-for-byte comparison; empty when equal, else where they first
/// differ.
std::string firstDifference(const std::string &Got,
                            const std::string &Want);

/// The paper's quality counts over a set of returned programs.
struct QualitySample {
  const lcm::Function *Input = nullptr;
  const lcm::Function *Output = nullptr; ///< Temps have ids >= Input vars.
  uint64_t Evals = 0;                    ///< From compareUnderOracle.
};
struct QualityCounts {
  uint64_t DynEvals = 0;
  uint64_t StaticInstrs = 0;
  uint64_t TempLiveSlots = 0;
};
/// False with \p Error set for an empty set or a sample without programs:
/// a count over nothing is not a measurement.
bool measureQuality(const std::vector<QualitySample> &Samples,
                    QualityCounts &Out, std::string &Error);

} // namespace lcmbench

#endif // LCMBENCH_CHECKS_H
