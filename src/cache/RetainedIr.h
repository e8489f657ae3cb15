//===- cache/RetainedIr.h - Retained canonical-input tier for deltas -----===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The base-materialization tier behind protocol-v4 delta requests
/// (docs/INCREMENTAL.md).  The result cache maps request keys to *outputs*;
/// a delta request instead names a prior request by key and sends only a
/// block-level patch, so the server must be able to reconstruct that
/// request's *input*.  This tier retains, per request key, the canonical
/// input text split into per-function records — each carrying the
/// function's own request key — so a patch to one function re-keys and
/// re-optimizes only that function while the untouched siblings are
/// answered by their retained keys against the result cache.
///
/// Memory accounting: entries charge the sum of their function texts plus
/// a fixed per-record overhead against a single byte budget, evicted LRU
/// (cache/ByteLru.h).  A single mutex suffices — the tier is touched once
/// per request (not per function), and edit-loop clients are
/// few-connection by nature.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_CACHE_RETAINEDIR_H
#define LCM_CACHE_RETAINEDIR_H

#include <string>
#include <vector>

#include "cache/ByteLru.h"
#include "cache/ContentHash.h"

namespace lcm {
namespace cache {

/// One function of a retained request input: its canonical printed text
/// (the patch-anchor form — labels are stable across print/parse) and the
/// full request key its optimization result is cached under.
struct RetainedFunction {
  std::string Name;
  std::string Text;
  Digest Key;
};

/// The canonical input of one prior request, split per function.  The
/// module's own key (the map key in the tier) covers all functions plus
/// the pipeline fingerprint.
struct RetainedModule {
  /// Fingerprint digest of the configuration the base was optimized under
  /// (pipeline x limits x check).  A delta naming this base must match it
  /// exactly — the per-function keys below embed the fingerprint, so
  /// reusing them under a different configuration would serve results the
  /// new request never asked for.  A mismatch is treated as a miss.
  Digest Fp;
  std::vector<RetainedFunction> Functions;

  size_t bytes() const {
    size_t N = 64;
    for (const RetainedFunction &F : Functions)
      N += F.Name.size() + F.Text.size() + 96;
    return N;
  }
};

/// Byte-budgeted LRU of request key -> retained canonical input, charged
/// RetainedModule::bytes().  A get() miss sends the delta request back to
/// full optimization.
class RetainedIrCache : public ByteLru<RetainedModule> {
public:
  /// \p MaxBytes of 0 disables the tier (every get misses, puts drop).
  explicit RetainedIrCache(size_t MaxBytes = 32u << 20)
      : ByteLru(MaxBytes,
                {"cache.retained.hits", "cache.retained.misses",
                 "cache.retained.insertions", "cache.retained.evictions"}) {}
};

} // namespace cache
} // namespace lcm

#endif // LCM_CACHE_RETAINEDIR_H
