//===- support/InternTable.h - Open-addressing id interning --------------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal open-addressing hash table mapping a caller-computed hash to a
/// dense 32-bit id.  It owns no keys: the caller keeps key storage (variable
/// name vectors, block labels, the expression pool) and supplies an equality
/// predicate on probe, so lookups work directly on `string_view`s into a
/// request buffer — no per-lookup `std::string` materialization.
///
/// `clearRetaining()` empties the table without releasing its slot array,
/// which is what makes repeated parses allocation-free after warm-up: the
/// table reaches its high-water capacity once and is then recycled.  A slot
/// is occupied only if it carries the table's current generation, so a
/// clear is O(1): a small function parsed after a large one does not pay
/// to wipe the large one's slots.
///
/// There is no erase.  Intended use is strictly insert-only between clears,
/// and the caller must not insert a key that is already present (probe with
/// find() first).
///
//===----------------------------------------------------------------------===//

#ifndef LCM_SUPPORT_INTERNTABLE_H
#define LCM_SUPPORT_INTERNTABLE_H

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace lcm {

/// Mixes \p X through the splitmix64 finalizer (full 64-bit avalanche).
inline uint64_t mixHash64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

class InternTable {
public:
  static constexpr uint32_t npos = ~uint32_t(0);

  /// FNV-1a over the bytes of \p S — the hash both find() and insert()
  /// expect for string keys.
  static uint64_t hashBytes(std::string_view S) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ull;
    }
    return H;
  }

  /// Returns the id whose slot matches \p Hash and satisfies \p Equals
  /// (called with a candidate id), or npos.
  template <typename EqualsFn>
  uint32_t find(uint64_t Hash, EqualsFn &&Equals) const {
    if (Slots.empty())
      return npos;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = size_t(Hash) & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Gen != Gen)
        return npos;
      if (S.Hash == Hash && Equals(S.Id))
        return S.Id;
    }
  }

  /// Records \p Hash -> \p Id.  The key must not already be present.
  void insert(uint64_t Hash, uint32_t Id) {
    if ((NumEntries + 1) * 8 > Slots.size() * 7)
      grow();
    place(Hash, Id);
    ++NumEntries;
  }

  /// Empties the table but keeps the slot array allocated.
  void clearRetaining() {
    if (++Gen == 0) { // Wrapped: retire every stale generation.
      for (Slot &S : Slots)
        S.Gen = 0;
      Gen = 1;
    }
    NumEntries = 0;
  }

  size_t size() const { return NumEntries; }
  size_t capacity() const { return Slots.size(); }

private:
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Id = 0;
    uint32_t Gen = 0; ///< Occupied iff equal to the table's Gen.
  };

  void place(uint64_t Hash, uint32_t Id) {
    const size_t Mask = Slots.size() - 1;
    size_t I = size_t(Hash) & Mask;
    while (Slots[I].Gen == Gen)
      I = (I + 1) & Mask;
    Slots[I].Hash = Hash;
    Slots[I].Id = Id;
    Slots[I].Gen = Gen;
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : Old.size() * 2, Slot());
    for (const Slot &S : Old)
      if (S.Gen == Gen)
        place(S.Hash, S.Id);
  }

  std::vector<Slot> Slots;
  size_t NumEntries = 0;
  uint32_t Gen = 1;
};

} // namespace lcm

#endif // LCM_SUPPORT_INTERNTABLE_H
