//===- support/BitVector.cpp ----------------------------------------------===//

#include "support/BitVector.h"

#include <bit>

#include "support/SimdWords.h"

using namespace lcm;

namespace {

/// Long vectors take the per-process SIMD kernel table; short ones stay on
/// the inline loops below (see support/SimdWords.h for the threshold
/// rationale).  Accounting: the logical count was already noted by the
/// caller; only the vectorized share is added here.
inline bool useSimd(size_t Words) {
  return Words >= lcm::simdwords::MinSimdWords && lcm::simdwords::simdActive();
}

} // namespace

void BitVector::resize(size_t NewNumBits, bool Value) {
  size_t OldNumBits = NumBits;
  NumBits = NewNumBits;
  Words.resize((NewNumBits + 63) / 64, Value ? ~uint64_t(0) : 0);
  if (Value && NewNumBits > OldNumBits && OldNumBits % 64 != 0) {
    // The partial old final word must have its fresh high bits set.
    Words[OldNumBits / 64] |= ~uint64_t(0) << (OldNumBits % 64);
  }
  clearUnusedBits();
}

void BitVector::clearUnusedBits() {
  if (NumBits % 64 != 0 && !Words.empty())
    Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
}

void BitVector::setAll() {
  BitVectorOps::note(Words.size());
  for (uint64_t &W : Words)
    W = ~uint64_t(0);
  clearUnusedBits();
}

void BitVector::resetAll() {
  BitVectorOps::note(Words.size());
  for (uint64_t &W : Words)
    W = 0;
}

size_t BitVector::count() const {
  size_t N = 0;
  for (uint64_t W : Words)
    N += std::popcount(W);
  return N;
}

bool BitVector::none() const {
  for (uint64_t W : Words)
    if (W != 0)
      return false;
  return true;
}

size_t BitVector::findFirst() const { return findNext(0); }

size_t BitVector::findNext(size_t From) const {
  if (From >= NumBits)
    return NumBits;
  size_t WordIdx = From / 64;
  uint64_t Word = Words[WordIdx] & (~uint64_t(0) << (From % 64));
  while (true) {
    if (Word != 0) {
      size_t Bit = WordIdx * 64 + std::countr_zero(Word);
      return Bit < NumBits ? Bit : NumBits;
    }
    if (++WordIdx == Words.size())
      return NumBits;
    Word = Words[WordIdx];
  }
}

BitVector &BitVector::operator|=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "size mismatch");
  BitVectorOps::note(Words.size());
  if (useSimd(Words.size())) {
    BitVectorOps::noteSimd(Words.size());
    simdwords::kernels().orInto(Words.data(), RHS.Words.data(), Words.size());
    return *this;
  }
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] |= RHS.Words[I];
  return *this;
}

BitVector &BitVector::operator&=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "size mismatch");
  BitVectorOps::note(Words.size());
  if (useSimd(Words.size())) {
    BitVectorOps::noteSimd(Words.size());
    simdwords::kernels().andInto(Words.data(), RHS.Words.data(), Words.size());
    return *this;
  }
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] &= RHS.Words[I];
  return *this;
}

BitVector &BitVector::operator^=(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "size mismatch");
  BitVectorOps::note(Words.size());
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] ^= RHS.Words[I];
  return *this;
}

BitVector &BitVector::andNot(const BitVector &RHS) {
  assert(NumBits == RHS.NumBits && "size mismatch");
  BitVectorOps::note(Words.size());
  if (useSimd(Words.size())) {
    BitVectorOps::noteSimd(Words.size());
    simdwords::kernels().andNotInto(Words.data(), RHS.Words.data(),
                                    Words.size());
    return *this;
  }
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] &= ~RHS.Words[I];
  return *this;
}

void BitVector::flipAll() {
  BitVectorOps::note(Words.size());
  for (uint64_t &W : Words)
    W = ~W;
  clearUnusedBits();
}

bool BitVector::operator==(const BitVector &RHS) const {
  assert(NumBits == RHS.NumBits && "size mismatch");
  BitVectorOps::note(Words.size());
  if (useSimd(Words.size())) {
    BitVectorOps::noteSimd(Words.size());
    return simdwords::kernels().equal(Words.data(), RHS.Words.data(),
                                      Words.size());
  }
  return Words == RHS.Words;
}

bool BitVector::anyCommon(const BitVector &RHS) const {
  assert(NumBits == RHS.NumBits && "size mismatch");
  BitVectorOps::note(Words.size());
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    if ((Words[I] & RHS.Words[I]) != 0)
      return true;
  return false;
}

bool BitVector::isSubsetOf(const BitVector &RHS) const {
  assert(NumBits == RHS.NumBits && "size mismatch");
  BitVectorOps::note(Words.size());
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    if ((Words[I] & ~RHS.Words[I]) != 0)
      return false;
  return true;
}

std::string BitVector::toString() const {
  std::string S;
  S.reserve(NumBits);
  for (size_t I = 0; I != NumBits; ++I)
    S.push_back(test(I) ? '1' : '0');
  return S;
}

std::vector<size_t> BitVector::setBits() const {
  std::vector<size_t> Result;
  for (size_t Bit : *this)
    Result.push_back(Bit);
  return Result;
}

BitVector lcm::operator|(BitVector A, const BitVector &B) {
  A |= B;
  return A;
}

BitVector lcm::operator&(BitVector A, const BitVector &B) {
  A &= B;
  return A;
}

BitVector lcm::andNot(BitVector A, const BitVector &B) {
  A.andNot(B);
  return A;
}

BitVector lcm::complement(BitVector A) {
  A.flipAll();
  return A;
}

void lcm::reshapeRows(std::vector<BitVector> &Rows, size_t NumRows,
                      size_t NumBits, bool Value) {
  // Grow-only outer vector: shrinking would destroy the excess rows' word
  // buffers, so a loop alternating between large and small problems would
  // reallocate them on every size transition.  Rows beyond NumRows are
  // parked at zero bits instead — their heap capacity survives, and they
  // are inert under count()/iteration if someone walks the whole vector.
  if (Rows.size() < NumRows)
    Rows.resize(NumRows);
  for (size_t I = 0; I != NumRows; ++I) {
    BitVector &Row = Rows[I];
    Row.resize(NumBits);
    if (Value)
      Row.setAll();
    else
      Row.resetAll();
  }
  for (size_t I = NumRows, E = Rows.size(); I != E; ++I)
    Rows[I].resize(0);
}
