//===- tests/support_test.cpp - Rng, Stats, Table, InternTable tests ------===//

#include "support/InternTable.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

using namespace lcm;

namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng A(123), B(123), C(124);
  for (int I = 0; I != 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    (void)C.next();
  }
  Rng A2(123), C2(124);
  EXPECT_NE(A2.next(), C2.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, ChanceExtremes) {
  Rng R(3);
  for (int I = 0; I != 50; ++I) {
    EXPECT_TRUE(R.chance(1, 1));
    EXPECT_FALSE(R.chance(0, 5));
  }
}

TEST(Rng, ReseedRestartsSequence) {
  Rng R(42);
  uint64_t First = R.next();
  R.next();
  R.reseed(42);
  EXPECT_EQ(R.next(), First);
}

TEST(Stats, BumpAndGet) {
  Stats::resetAll();
  EXPECT_EQ(Stats::get("x"), 0u);
  Stats::bump("x");
  Stats::bump("x", 4);
  EXPECT_EQ(Stats::get("x"), 5u);
  Stats::bump("y", 2);
  auto All = Stats::all();
  EXPECT_EQ(All.size(), 2u);
  Stats::resetAll();
  EXPECT_EQ(Stats::get("x"), 0u);
}

TEST(Table, RendersAlignedColumns) {
  Table T({"name", "count"});
  T.row().add("alpha").add(uint64_t(5));
  T.row().add("b").add(uint64_t(12345));
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  EXPECT_NE(Out.find("12345"), std::string::npos);
  // Header separator present.
  EXPECT_NE(Out.find("-+-"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(Table, NumericFormatting) {
  Table T({"v"});
  T.row().add(3.14159, 3);
  T.row().add(int64_t(-7));
  std::string Out = T.render();
  EXPECT_NE(Out.find("3.142"), std::string::npos);
  EXPECT_NE(Out.find("-7"), std::string::npos);
}

TEST(InternTable, ClearRetainingForgetsEveryKey) {
  // Keys are small integers hashed through mixHash64; Ids are Key + 100.
  InternTable T;
  auto find = [&T](uint32_t Key) {
    return T.find(mixHash64(Key),
                  [Key](uint32_t Id) { return Id == Key + 100; });
  };
  for (uint32_t Round = 0; Round != 3; ++Round) {
    const uint32_t N = Round == 1 ? 5 : 1000; // large, small, large again
    for (uint32_t K = 0; K != N; ++K) {
      ASSERT_EQ(find(K), InternTable::npos) << "round " << Round;
      T.insert(mixHash64(K), K + 100);
    }
    EXPECT_EQ(T.size(), N);
    for (uint32_t K = 0; K != N; ++K)
      EXPECT_EQ(find(K), K + 100);
    EXPECT_EQ(find(N), InternTable::npos);
    const size_t Capacity = T.capacity();
    T.clearRetaining();
    EXPECT_EQ(T.size(), 0u);
    EXPECT_EQ(T.capacity(), Capacity);
    for (uint32_t K = 0; K != N; ++K)
      EXPECT_EQ(find(K), InternTable::npos);
  }
}

} // namespace
