// Unit tests for the Eq.(1)/Eq.(2) index maps — the addressing foundation
// every backend shares.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace svsim {
namespace {

TEST(Bits, Pow2AndLog2) {
  EXPECT_EQ(pow2(0), 1);
  EXPECT_EQ(pow2(10), 1024);
  EXPECT_EQ(log2_exact(1), 0);
  EXPECT_EQ(log2_exact(1024), 10);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(-4));
}

TEST(Bits, PairBaseMatchesPaperFormula) {
  // s_i = floor(i/2^q)*2^(q+1) + (i mod 2^q), straight from Eq. (1).
  for (IdxType q = 0; q < 10; ++q) {
    for (IdxType i = 0; i < 512; ++i) {
      const IdxType expected = (i / pow2(q)) * pow2(q + 1) + (i % pow2(q));
      EXPECT_EQ(pair_base(i, q), expected) << "q=" << q << " i=" << i;
    }
  }
}

TEST(Bits, QuadBaseMatchesPaperFormula) {
  // Eq. (2) for p < q.
  for (IdxType p = 0; p < 6; ++p) {
    for (IdxType q = p + 1; q < 8; ++q) {
      for (IdxType i = 0; i < 256; ++i) {
        const IdxType ip = i / pow2(p);
        const IdxType expected = (ip / pow2(q - p - 1)) * pow2(q + 1) +
                                 (ip % pow2(q - p - 1)) * pow2(p + 1) +
                                 (i % pow2(p));
        EXPECT_EQ(quad_base(i, p, q), expected)
            << "p=" << p << " q=" << q << " i=" << i;
      }
    }
  }
}

// Property: for an n-qubit register, {pair_base(i,q), pair_base(i,q)+2^q}
// over i in [0, 2^(n-1)) partitions [0, 2^n) exactly.
class PairPartitionTest
    : public ::testing::TestWithParam<std::tuple<IdxType, IdxType>> {};

TEST_P(PairPartitionTest, PairsPartitionTheIndexSpace) {
  const auto [n, q] = GetParam();
  std::set<IdxType> seen;
  for (IdxType i = 0; i < half_dim(n); ++i) {
    const IdxType p0 = pair_base(i, q);
    const IdxType p1 = p0 + pow2(q);
    EXPECT_FALSE(qubit_set(p0, q));
    EXPECT_TRUE(qubit_set(p1, q));
    EXPECT_TRUE(seen.insert(p0).second) << "duplicate " << p0;
    EXPECT_TRUE(seen.insert(p1).second) << "duplicate " << p1;
  }
  EXPECT_EQ(static_cast<IdxType>(seen.size()), pow2(n));
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), pow2(n) - 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllQubits, PairPartitionTest,
    ::testing::Values(std::make_tuple(4, 0), std::make_tuple(4, 3),
                      std::make_tuple(8, 0), std::make_tuple(8, 4),
                      std::make_tuple(8, 7), std::make_tuple(12, 6)));

// Property: quadruples partition the space for any p < q.
class QuadPartitionTest
    : public ::testing::TestWithParam<std::tuple<IdxType, IdxType, IdxType>> {
};

TEST_P(QuadPartitionTest, QuadsPartitionTheIndexSpace) {
  const auto [n, p, q] = GetParam();
  std::set<IdxType> seen;
  for (IdxType i = 0; i < quarter_dim(n); ++i) {
    const IdxType s = quad_base(i, p, q);
    EXPECT_FALSE(qubit_set(s, p));
    EXPECT_FALSE(qubit_set(s, q));
    for (const IdxType idx : {s, s + pow2(p), s + pow2(q), s + pow2(p) + pow2(q)}) {
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate " << idx;
    }
  }
  EXPECT_EQ(static_cast<IdxType>(seen.size()), pow2(n));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, QuadPartitionTest,
    ::testing::Values(std::make_tuple(4, 0, 1), std::make_tuple(4, 0, 3),
                      std::make_tuple(4, 2, 3), std::make_tuple(8, 0, 7),
                      std::make_tuple(8, 3, 4), std::make_tuple(10, 2, 9)));

TEST(Bits, QubitSet) {
  EXPECT_TRUE(qubit_set(0b1010, 1));
  EXPECT_FALSE(qubit_set(0b1010, 0));
  EXPECT_TRUE(qubit_set(0b1010, 3));
}

// The byte-table permutation equals its reference, permute_bits, on
// random layouts of every width 1..34: on every index up to n = 16, on
// the extreme and random indices beyond.
TEST(Bits, BitPermutationMatchesPermuteBits) {
  Rng rng(2024);
  for (IdxType n = 1; n <= 34; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<IdxType> layout(static_cast<std::size_t>(n));
      std::iota(layout.begin(), layout.end(), IdxType{0});
      for (IdxType i = n - 1; i > 0; --i) {  // Fisher-Yates
        const auto j = static_cast<IdxType>(
            rng.next_below(static_cast<std::uint64_t>(i + 1)));
        std::swap(layout[static_cast<std::size_t>(i)],
                  layout[static_cast<std::size_t>(j)]);
      }
      const BitPermutation perm(layout.data(), n);
      const auto check = [&](IdxType k) {
        ASSERT_EQ(perm(k), permute_bits(k, layout.data(), n))
            << "n=" << n << " trial=" << trial << " k=" << k;
      };
      if (n <= 16) {
        for (IdxType k = 0; k < pow2(n); ++k) check(k);
      } else {
        check(0);
        check(pow2(n) - 1);
        for (int s = 0; s < 4096; ++s) {
          check(static_cast<IdxType>(rng.next_u64() & (pow2(n) - 1)));
        }
      }
    }
  }
}

} // namespace
} // namespace svsim
