//===- cache/ContentHash.h - 128-bit content keys for the result cache ---===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content addressing for the optimization result cache (docs/CACHE.md).
/// LCM is deterministic for a fixed (IR, pipeline configuration) pair, so a
/// cache key must cover *everything* that can change the optimized output:
/// the canonicalized program text plus a fingerprint of the pass list, the
/// resource limits, and the check/report request flags.  Two requests share
/// an entry iff their keys collide — and with 128 bits of FNV-1a-style
/// state, accidental collisions are out of reach for any realistic corpus.
///
/// The hash is written in-repo (no dependency): two independent 64-bit
/// FNV-1a lanes with distinct offset bases, finalized through an
/// xorshift-multiply avalanche so that single-byte differences diffuse into
/// both words.  It is *not* cryptographic; the cache is a performance
/// layer, not a trust boundary — the daemon only ever caches results it
/// computed itself.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_CACHE_CONTENTHASH_H
#define LCM_CACHE_CONTENTHASH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "ir/Limits.h"

namespace lcm {

class Function;

namespace cache {

/// Bump when the cached-entry semantics change (entry layout, pipeline
/// behaviour revisions that keep pass names stable, ...).  The stamp is
/// folded into every key and into disk-entry filenames, so a bump
/// invalidates all persisted state at once.
///
/// v2: requestKey length-suffixes the IR text (was length-prefix) so the
/// canonical IR can be streamed straight out of the printer without
/// knowing its size up front.
///
/// v3: the fingerprint covers the request's edge profile (ProfileKey) —
/// the specpre pass makes the optimized output a function of the profile,
/// so profiled and unprofiled requests must never share entries.
///
/// v4: entries gained the measured-profile payload (CacheEntry::
/// ProfileJson, the `profile_out` response field), so v3 disk entries —
/// which would replay check:true results without one — are stale.
///
/// v5: module requests (multiple `func`s per request) are keyed per
/// function and the module-level key is a digest over the per-function
/// keys; single-function keys are additionally the anchors of the
/// retained-IR tier that materializes delta (`base_key` + patch)
/// requests, so v4 entries must not satisfy v5 lookups.
inline constexpr uint32_t CacheSchemaVersion = 5;

/// A 128-bit content digest.
struct Digest {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Digest &O) const { return Hi == O.Hi && Lo == O.Lo; }
  bool operator!=(const Digest &O) const { return !(*this == O); }
  bool operator<(const Digest &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }

  /// 32 lower-case hex characters, big-endian (Hi first) — the wire and
  /// filename form of a key.
  std::string hex() const;

  /// Parses the hex() form back.  False on malformed input.
  static bool fromHex(std::string_view S, Digest &Out);
};

/// Hash functor for Digest-keyed unordered containers.  Digests are
/// already avalanche-mixed, so Lo alone is uniform.
struct DigestHash {
  size_t operator()(const Digest &D) const { return size_t(D.Lo); }
};

/// Incremental two-lane FNV-1a hasher.
class Hasher {
public:
  Hasher &update(const void *Data, size_t N);
  Hasher &update(std::string_view S) { return update(S.data(), S.size()); }
  Hasher &updateU64(uint64_t V);

  /// Finalizes (avalanches) the current state.  The hasher may keep
  /// absorbing afterwards; digest() is a pure function of the bytes fed
  /// so far.
  Digest digest() const;

private:
  // Distinct offset bases keep the lanes independent; both use the
  // standard 64-bit FNV prime.
  uint64_t A = 0xcbf29ce484222325ULL;
  uint64_t B = 0x84222325cbf29ce4ULL;
};

/// One-shot convenience.
Digest hashBytes(std::string_view S);

/// Everything besides the program text that determines the optimized
/// output: the canonical pass list plus the execution configuration.
/// Requests with different fingerprints must never share cache entries.
struct PipelineFingerprint {
  /// Canonical comma-joined pass names (no whitespace) — build it from the
  /// *parsed* pipeline so "lcse, lcm" and "lcse,lcm" key identically.
  std::string Pipeline;
  /// Resource caps applied while parsing the IR (a program admitted under
  /// one cap set may be rejected under another).
  IRLimits Limits;
  /// Semantic-equivalence checking requested, and with how many seeds.
  bool Check = false;
  unsigned CheckRuns = 0;
  /// Full run report embedded in the cached entry.
  bool Report = false;
  /// Canonical rendering of the request's edge profile
  /// (specpre::EdgeProfile::canonicalKey()); empty when no profile was
  /// sent.  Canonical, so record order on the wire cannot split entries.
  std::string ProfileKey;

  /// Digest of the fingerprint, already folded with CacheSchemaVersion.
  Digest digest() const;
};

/// The complete cache key: canonicalized IR text x pipeline fingerprint.
Digest requestKey(std::string_view CanonicalIr,
                  const PipelineFingerprint &Fingerprint);

/// Streaming form: prints \p Fn straight into the incremental hasher, so
/// the canonical IR text is never materialized.  Produces exactly the same
/// digest as requestKey(printFunction(Fn), Fingerprint).
Digest requestKey(const Function &Fn,
                  const PipelineFingerprint &Fingerprint);

} // namespace cache
} // namespace lcm

#endif // LCM_CACHE_CONTENTHASH_H
