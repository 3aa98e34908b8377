#include "linalg/sparse_matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"

namespace wfms::linalg {
namespace {

TEST(SparseMatrixTest, BuilderMergesDuplicates) {
  SparseMatrixBuilder b(2, 2);
  b.Add(0, 0, 1.0);
  b.Add(0, 0, 2.5);
  b.Add(1, 1, -1.0);
  const SparseMatrix m = b.Build();
  EXPECT_EQ(m.num_nonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.At(1, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
}

TEST(SparseMatrixTest, DuplicatesCancellingToZeroAreDropped) {
  SparseMatrixBuilder b(1, 1);
  b.Add(0, 0, 2.0);
  b.Add(0, 0, -2.0);
  const SparseMatrix m = b.Build();
  EXPECT_EQ(m.num_nonzeros(), 0u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(SparseMatrixTest, ExplicitZerosIgnored) {
  SparseMatrixBuilder b(2, 2);
  b.Add(0, 1, 0.0);
  EXPECT_EQ(b.Build().num_nonzeros(), 0u);
}

TEST(SparseMatrixTest, FromDenseRoundTrip) {
  DenseMatrix d{{1, 0, 2}, {0, 0, 0}, {3, 4, 0}};
  const SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_EQ(s.num_nonzeros(), 4u);
  EXPECT_DOUBLE_EQ(s.ToDense().MaxAbsDiff(d), 0.0);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  Rng rng(5);
  const size_t n = 30;
  DenseMatrix d(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      if (rng.NextBernoulli(0.15)) d.At(r, c) = rng.NextDouble(-2, 2);
    }
  }
  const SparseMatrix s = SparseMatrix::FromDense(d);
  Vector x(n);
  for (auto& v : x) v = rng.NextDouble(-1, 1);

  const Vector dy = d.Multiply(x);
  const Vector sy = s.Multiply(x);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(sy[i], dy[i], 1e-12);

  const Vector dyt = d.MultiplyTransposed(x);
  const Vector syt = s.MultiplyTransposed(x);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(syt[i], dyt[i], 1e-12);
}

TEST(SparseMatrixTest, TransposedMatchesDenseTranspose) {
  DenseMatrix d{{1, 2, 0}, {0, 3, 4}};
  const SparseMatrix st = SparseMatrix::FromDense(d).Transposed();
  EXPECT_EQ(st.rows(), 3u);
  EXPECT_EQ(st.cols(), 2u);
  EXPECT_DOUBLE_EQ(st.ToDense().MaxAbsDiff(d.Transposed()), 0.0);
}

TEST(SparseMatrixTest, AtHandlesMissingEntries) {
  SparseMatrixBuilder b(3, 3);
  b.Add(1, 0, 7.0);
  b.Add(1, 2, 8.0);
  const SparseMatrix m = b.Build();
  EXPECT_DOUBLE_EQ(m.At(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 8.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(2, 2), 0.0);
}

TEST(SparseMatrixTest, DropToleranceFiltersSmallEntries) {
  DenseMatrix d{{1e-15, 1.0}, {0.5, 1e-14}};
  const SparseMatrix s = SparseMatrix::FromDense(d, 1e-12);
  EXPECT_EQ(s.num_nonzeros(), 2u);
}

TEST(SparseMatrixTest, EmptyMatrixMultiplies) {
  SparseMatrixBuilder b(3, 3);
  const SparseMatrix m = b.Build();
  const Vector y = m.Multiply({1, 2, 3});
  for (double v : y) EXPECT_DOUBLE_EQ(v, 0.0);
}

// --- Assembly properties --------------------------------------------------

struct Entry {
  size_t row;
  size_t col;
  double value;
};

/// Reference assembly: per (row, col), the nonzero insertions summed in
/// insertion order; exact-zero sums dropped.
std::map<std::pair<size_t, size_t>, double> InsertionOrderSums(
    const std::vector<Entry>& entries) {
  std::map<std::pair<size_t, size_t>, std::vector<double>> parts;
  for (const Entry& e : entries) {
    if (e.value != 0.0) parts[{e.row, e.col}].push_back(e.value);
  }
  std::map<std::pair<size_t, size_t>, double> sums;
  for (const auto& [key, values] : parts) {
    double sum = values[0];
    for (size_t i = 1; i < values.size(); ++i) sum += values[i];
    if (sum != 0.0) sums[key] = sum;
  }
  return sums;
}

/// Bit-for-bit comparison of a CSR matrix with the reference sums: same
/// shape, rows sorted by column, identical entries and identical bits.
void ExpectMatchesReference(
    const SparseMatrix& m, size_t rows, size_t cols,
    const std::map<std::pair<size_t, size_t>, double>& expected) {
  ASSERT_EQ(m.rows(), rows);
  ASSERT_EQ(m.cols(), cols);
  ASSERT_EQ(m.row_offsets().size(), rows + 1);
  ASSERT_EQ(m.num_nonzeros(), expected.size());
  auto it = expected.begin();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t k = m.row_offsets()[r]; k < m.row_offsets()[r + 1]; ++k) {
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(it->first.first, r);
      EXPECT_EQ(it->first.second, m.col_indices()[k]);
      EXPECT_EQ(std::bit_cast<uint64_t>(it->second),
                std::bit_cast<uint64_t>(m.values()[k]))
          << "(" << r << ", " << m.col_indices()[k] << ")";
      ++it;
    }
  }
  EXPECT_EQ(it, expected.end());
}

void Shuffle(std::vector<Entry>* entries, Rng* rng) {
  for (size_t i = entries->size(); i > 1; --i) {
    std::swap((*entries)[i - 1], (*entries)[rng->NextUint64(i)]);
  }
}

/// Random triplets over a rows x cols shape: a sparse spread of entries
/// (so some rows stay empty), repeats of earlier positions, pairs that
/// cancel to an exact zero, and explicit zeros; shuffled at the end.
std::vector<Entry> RandomEntries(size_t rows, size_t cols, Rng* rng) {
  std::vector<Entry> entries;
  const size_t count = rng->NextUint64(3 * (rows + cols));
  for (size_t i = 0; i < count; ++i) {
    const size_t row = rng->NextUint64(rows);
    const size_t col = rng->NextUint64(cols);
    const double value = rng->NextDouble(-4.0, 4.0);
    entries.push_back({row, col, value});
    if (rng->NextBernoulli(0.2)) entries.push_back({row, col, -value});
    if (rng->NextBernoulli(0.1)) entries.push_back({row, col, 0.0});
    if (rng->NextBernoulli(0.3)) {
      entries.push_back({row, col, rng->NextDouble(-1e3, 1e3)});
    }
  }
  Shuffle(&entries, rng);
  return entries;
}

TEST(SparseMatrixAssemblyTest, BuildSumsDuplicatesInInsertionOrder) {
  Rng rng(20240613);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = 1 + rng.NextUint64(40);
    const size_t cols = 1 + rng.NextUint64(40);
    const std::vector<Entry> entries = RandomEntries(rows, cols, &rng);
    SparseMatrixBuilder builder(rows, cols);
    for (const Entry& e : entries) builder.Add(e.row, e.col, e.value);
    ExpectMatchesReference(builder.Build(), rows, cols,
                           InsertionOrderSums(entries));
  }
}

TEST(SparseMatrixAssemblyTest, SummationOrderIsInsertionOrder) {
  // 1e16 + 1 rounds back to 1e16, so the two orders give different sums.
  SparseMatrixBuilder first_big(2, 1);
  first_big.Add(0, 0, 1e16);
  first_big.Add(0, 0, 1.0);
  first_big.Add(0, 0, -1e16);
  first_big.Add(1, 0, 1e16);
  first_big.Add(1, 0, -1e16);
  first_big.Add(1, 0, 1.0);
  const SparseMatrix m = first_big.Build();
  ASSERT_EQ(m.num_nonzeros(), 1u);
  EXPECT_EQ(m.At(0, 0), 0.0);
  EXPECT_EQ(m.At(1, 0), 1.0);
}

TEST(SparseMatrixAssemblyTest, LongReversedRowTakesTheStableFallback) {
  // A row far longer than the insertion-sort cutoff, inserted in reverse
  // column order with order-sensitive duplicates interleaved, plus a dense
  // row in random order: the stable fallback must keep insertion order
  // among equal columns.
  const size_t cols = 300;
  std::vector<Entry> entries;
  for (size_t c = cols; c-- > 0;) {
    entries.push_back({1, c, 1e16});
    if (c % 2 == 0) entries.push_back({1, c, -1e16});
    if (c % 3 == 0) entries.push_back({1, c, 1.0});
  }
  Rng rng(7);
  std::vector<Entry> dense_row;
  for (size_t c = 0; c < cols; ++c) {
    dense_row.push_back({3, c, rng.NextDouble(-1.0, 1.0)});
  }
  Shuffle(&dense_row, &rng);
  entries.insert(entries.end(), dense_row.begin(), dense_row.end());
  SparseMatrixBuilder builder(4, cols);
  for (const Entry& e : entries) builder.Add(e.row, e.col, e.value);
  const SparseMatrix m = std::move(builder).Build();
  ExpectMatchesReference(m, 4, cols, InsertionOrderSums(entries));
  // In insertion order 1e16 - 1e16 + 1 is 1, while 1e16 + 1 rounds back
  // to 1e16; 1e16 - 1e16 alone cancels and is dropped.
  EXPECT_EQ(m.At(1, 6), 1.0);
  EXPECT_EQ(m.At(1, 3), 1e16);
  EXPECT_EQ(m.At(1, 2), 0.0);
}

TEST(SparseMatrixAssemblyTest, BuilderIsReusableAfterBuild) {
  SparseMatrixBuilder builder(2, 3);
  builder.Add(1, 2, 5.0);
  builder.Add(0, 1, 4.0);
  const SparseMatrix first = builder.Build();
  EXPECT_EQ(first.num_nonzeros(), 2u);
  builder.Add(1, 0, 3.0);
  const SparseMatrix second = builder.Build();
  EXPECT_EQ(second.num_nonzeros(), 1u);
  EXPECT_EQ(second.At(1, 0), 3.0);
}

TEST(SparseMatrixAssemblyTest, TransposeMatchesDenseAndRoundTrips) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t rows = 1 + rng.NextUint64(30);
    const size_t cols = 1 + rng.NextUint64(30);
    SparseMatrixBuilder builder(rows, cols);
    for (const Entry& e : RandomEntries(rows, cols, &rng)) {
      builder.Add(e.row, e.col, e.value);
    }
    const SparseMatrix m = builder.Build();
    const SparseMatrix t = m.Transposed();
    ASSERT_EQ(t.rows(), cols);
    ASSERT_EQ(t.cols(), rows);
    ASSERT_EQ(t.num_nonzeros(), m.num_nonzeros());
    EXPECT_EQ(t.ToDense().MaxAbsDiff(m.ToDense().Transposed()), 0.0);
    for (size_t r = 0; r < t.rows(); ++r) {
      for (size_t k = t.row_offsets()[r] + 1; k < t.row_offsets()[r + 1];
           ++k) {
        EXPECT_LT(t.col_indices()[k - 1], t.col_indices()[k]);
      }
    }
    const SparseMatrix back = t.Transposed();
    EXPECT_EQ(back.rows(), m.rows());
    EXPECT_EQ(back.cols(), m.cols());
    EXPECT_EQ(back.row_offsets(), m.row_offsets());
    EXPECT_EQ(back.col_indices(), m.col_indices());
    ASSERT_EQ(back.values().size(), m.values().size());
    for (size_t k = 0; k < m.values().size(); ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(back.values()[k]),
                std::bit_cast<uint64_t>(m.values()[k]));
    }
  }
}

TEST(SparseMatrixAssemblyTest, TransposeOfEmptyMatrixKeepsShape) {
  const SparseMatrix t = SparseMatrixBuilder(2, 5).Build().Transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.num_nonzeros(), 0u);
  EXPECT_EQ(t.row_offsets(), std::vector<size_t>(6, 0));
}

}  // namespace
}  // namespace wfms::linalg
