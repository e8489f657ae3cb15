//===- cache/SingleFlight.h - Deduplicate concurrent identical work ------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-flight execution: when K concurrent requests carry the same
/// cache key, exactly one (the *leader*) runs the pipeline; the other K-1
/// (*followers*) block on the leader's flight and share its result.  Under
/// a thundering herd of identical programs this turns K pipeline runs into
/// one — the coalescing half of the result cache's contract.
///
/// Failure propagation is deliberately asymmetric:
///
/// - a *deterministic* failure (pipeline/verifier error) is shared with
///   followers — re-running the same input would fail identically;
/// - a *cancelled* leader (its own deadline fired mid-pipeline) must NOT
///   poison followers, whose deadlines may be later.  Followers observe
///   the cancelled flight, loop back, and one of them becomes the new
///   leader and computes for the rest;
/// - a follower whose own cancel token fires while waiting gives up with
///   a Cancelled result for itself only; the flight keeps going for
///   everyone else.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_CACHE_SINGLEFLIGHT_H
#define LCM_CACHE_SINGLEFLIGHT_H

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/ContentHash.h"
#include "cache/CacheEntry.h"
#include "support/Cancel.h"

namespace lcm {
namespace cache {

class SingleFlight {
public:
  /// Outcome of one computation (the leader's) or of joining one.
  struct Result {
    enum class Kind {
      Value,     ///< Entry holds the result.
      Error,     ///< Deterministic failure; Error/Code describe it.
      Cancelled, ///< The owning token fired (leader's or follower's own).
    };
    Kind K = Kind::Error;
    CacheEntry Entry;
    std::string Error;
    /// Caller-defined error discriminator, carried opaquely (the server
    /// stores its Status enum here so coalesced followers can answer with
    /// the right structured status).
    int Code = 0;

    static Result value(CacheEntry E) {
      Result R;
      R.K = Kind::Value;
      R.Entry = std::move(E);
      return R;
    }
    static Result error(std::string Message, int Code = 0) {
      Result R;
      R.K = Kind::Error;
      R.Error = std::move(Message);
      R.Code = Code;
      return R;
    }
    static Result cancelled(std::string Reason) {
      Result R;
      R.K = Kind::Cancelled;
      R.Error = std::move(Reason);
      return R;
    }
  };

  /// How run() obtained its result — callers use this to set the
  /// "cached" response field and to count coalesces.
  enum class Role {
    Leader,    ///< This call executed Compute.
    Coalesced, ///< Joined another call's flight and shared its result.
  };

  struct Stats {
    uint64_t LeaderRuns = 0;
    uint64_t Coalesced = 0;
    /// Follower re-elections after a cancelled leader.
    uint64_t Retries = 0;
    /// Followers currently blocked on a flight (gauge, for tests).
    uint64_t Waiters = 0;
  };

  /// Runs \p Compute under single-flight for \p Key.  \p Cancel (optional)
  /// bounds *this caller's* wait; it is also the token the leader's
  /// Compute should honor.  Never throws; Compute must not throw.
  Result run(const Digest &Key, const CancelToken *Cancel,
             const std::function<Result()> &Compute, Role *RoleOut = nullptr);

  Stats stats() const;

private:
  struct Flight {
    std::mutex Mu;
    std::condition_variable Cv;
    bool Done = false;
    Result R;
  };

  std::mutex MapMu;
  std::unordered_map<Digest, std::shared_ptr<Flight>, DigestHash> Flights;

  std::atomic<uint64_t> NumLeaderRuns{0};
  std::atomic<uint64_t> NumCoalesced{0};
  std::atomic<uint64_t> NumRetries{0};
  std::atomic<uint64_t> NumWaiters{0};
};

} // namespace cache
} // namespace lcm

#endif // LCM_CACHE_SINGLEFLIGHT_H
