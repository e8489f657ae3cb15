//===- support/BitVector.h - Dense bit vector for dataflow facts ---------===//
//
// Part of the lcm project: a reproduction of "Lazy Code Motion"
// (Knoop, Ruething, Steffen; PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, word-packed bit vector.  This is the value domain of every
/// dataflow analysis in the repository: one bit per candidate expression.
///
/// All bulk operations (and/or/andNot/copy/compare) optionally feed a global
/// word-operation counter so benchmarks can report "bit-vector operations"
/// the way the classic PRE literature does.
///
//===----------------------------------------------------------------------===//

#ifndef LCM_SUPPORT_BITVECTOR_H
#define LCM_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace lcm {

/// Compile-time switch for the word-operation bookkeeping below.  ON by
/// default so the T3/T8 experiment tables are unchanged; configure with
/// -DLCM_COUNT_WORDOPS=OFF (see the top-level CMakeLists option) to strip
/// the counter add from every bulk-op hot path when benchmarking the raw
/// kernels.
#ifndef LCM_COUNT_WORDOPS
#define LCM_COUNT_WORDOPS 1
#endif

/// Counter of bit-vector word operations, used by the dataflow cost
/// experiment (EXPERIMENTS.md, T3).  Counting is cheap (one add per bulk
/// op); callers snapshot and subtract.  The counter is thread-local so the
/// parallel corpus driver's workers count independently — per-solve
/// SolverStats stay exact on every thread.
struct BitVectorOps {
#if LCM_COUNT_WORDOPS
  // Defined inline: GCC's UBSan reports a null load on every access to an
  // out-of-line static thread_local member (GCC PR64888).
  static inline thread_local uint64_t WordOps = 0;
  static inline thread_local uint64_t SimdWordOps = 0;

  static void note(size_t Words) { WordOps += Words; }
  /// Word ops that additionally ran through a dispatched SIMD kernel
  /// (support/SimdWords.h).  Always a subset of WordOps: callers note()
  /// the full logical count and noteSimd() the vectorized share, so
  /// scalar = snapshot() - snapshotSimd().
  static void noteSimd(size_t Words) { SimdWordOps += Words; }
  static uint64_t snapshot() { return WordOps; }
  static uint64_t snapshotSimd() { return SimdWordOps; }
  static void reset() { WordOps = SimdWordOps = 0; }
#else
  static void note(size_t) {}
  static void noteSimd(size_t) {}
  static uint64_t snapshot() { return 0; }
  static uint64_t snapshotSimd() { return 0; }
  static void reset() {}
#endif
};

/// A fixed-universe dense bit vector.
///
/// The universe size is set at construction (or by resize) and all binary
/// operations require equal sizes.  Bits beyond the logical size are kept
/// zero so that count() and equality are well defined.
class BitVector {
public:
  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all initialized to \p Value.
  explicit BitVector(size_t NumBits, bool Value = false) {
    resize(NumBits, Value);
  }

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }
  size_t numWords() const { return Words.size(); }

  /// Raw word storage (bit 0 is the LSB of words()[0]; bits beyond size()
  /// are zero).  The sparse dataflow engine runs its word kernels directly
  /// on these — see support/FactArena.h.
  uint64_t *words() { return Words.data(); }
  const uint64_t *words() const { return Words.data(); }

  /// Resizes the universe; new bits take \p Value.
  void resize(size_t NewNumBits, bool Value = false);

  bool test(size_t Bit) const {
    assert(Bit < NumBits && "bit index out of range");
    return (Words[Bit / 64] >> (Bit % 64)) & 1;
  }

  bool operator[](size_t Bit) const { return test(Bit); }

  void set(size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit / 64] |= uint64_t(1) << (Bit % 64);
  }

  void reset(size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit / 64] &= ~(uint64_t(1) << (Bit % 64));
  }

  void set(size_t Bit, bool Value) {
    if (Value)
      set(Bit);
    else
      reset(Bit);
  }

  /// Sets every bit in the universe.
  void setAll();

  /// Clears every bit.
  void resetAll();

  /// Number of set bits.
  size_t count() const;

  /// True if no bit is set.
  bool none() const;

  /// True if at least one bit is set.
  bool any() const { return !none(); }

  /// Index of the first set bit, or size() if none.
  size_t findFirst() const;

  /// Index of the first set bit at or after \p From, or size() if none.
  size_t findNext(size_t From) const;

  BitVector &operator|=(const BitVector &RHS);
  BitVector &operator&=(const BitVector &RHS);
  BitVector &operator^=(const BitVector &RHS);

  /// this &= ~RHS.
  BitVector &andNot(const BitVector &RHS);

  /// Flips every bit in the universe.
  void flipAll();

  bool operator==(const BitVector &RHS) const;
  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

  /// True if (*this & RHS) has any set bit, without materializing it.
  bool anyCommon(const BitVector &RHS) const;

  /// True if every set bit of *this is also set in RHS.
  bool isSubsetOf(const BitVector &RHS) const;

  /// Renders as a string of '0'/'1', bit 0 first (handy in test failures).
  std::string toString() const;

  /// Indices of all set bits in increasing order.
  std::vector<size_t> setBits() const;

  /// Iteration support over set bits.
  class SetBitIterator {
  public:
    SetBitIterator(const BitVector &BV, size_t Bit) : BV(BV), Bit(Bit) {}
    size_t operator*() const { return Bit; }
    SetBitIterator &operator++() {
      Bit = BV.findNext(Bit + 1);
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const { return Bit != RHS.Bit; }

  private:
    const BitVector &BV;
    size_t Bit;
  };

  SetBitIterator begin() const { return SetBitIterator(*this, findFirst()); }
  SetBitIterator end() const { return SetBitIterator(*this, size()); }

private:
  /// Zeroes the bits of the final word that lie beyond the logical size.
  void clearUnusedBits();

  std::vector<uint64_t> Words;
  size_t NumBits = 0;
};

/// Returns A | B.
BitVector operator|(BitVector A, const BitVector &B);
/// Returns A & B.
BitVector operator&(BitVector A, const BitVector &B);
/// Returns A & ~B.
BitVector andNot(BitVector A, const BitVector &B);
/// Returns ~A over the universe.
BitVector complement(BitVector A);

/// Reshapes \p Rows so rows [0, NumRows) have \p NumBits bits, every row
/// uniformly \p Value.  The outer vector never shrinks: rows past NumRows
/// are parked at zero bits (inert for count()/iteration) so their word
/// buffers survive.  A steady-state loop cycling through differently
/// sized problems therefore settles into zero allocations — every
/// container only ever grows to its high-water mark and is then recycled.
/// Callers must track the logical row count themselves (it may be smaller
/// than Rows.size()) and index rather than iterate when it matters.
void reshapeRows(std::vector<BitVector> &Rows, size_t NumRows,
                 size_t NumBits, bool Value = false);

} // namespace lcm

#endif // LCM_SUPPORT_BITVECTOR_H
