// Compressed sparse row (CSR) matrix with a coordinate-format builder.
// Availability CTMCs have state spaces of size prod(Y_x + 1); with, say,
// 6 server types replicated 4-way that is 15625 states, where dense storage
// and O(n^3) factorization become wasteful — the generator has only
// O(n * k) nonzeros.
#ifndef WFMS_LINALG_SPARSE_MATRIX_H_
#define WFMS_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector.h"

namespace wfms::linalg {

class SparseMatrix;

/// Accumulates (row, col, value) triplets; duplicate entries are summed on
/// Build(), which is convenient when assembling generator matrices where a
/// diagonal element receives many -rate contributions.
class SparseMatrixBuilder {
 public:
  SparseMatrixBuilder(size_t rows, size_t cols);

  void Add(size_t row, size_t col, double value);
  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Pre-sizes the triplet store for `nnz_hint` entries. Generator
  /// assembly knows its nonzero count up front (one entry per transition);
  /// reserving avoids the realloc churn of growing a multi-hundred-KB
  /// vector in doubling steps.
  void Reserve(size_t nnz_hint);

  /// Produces the CSR matrix in O(nnz + rows) with counting passes, no
  /// comparison sort over the triplets: entries are bucketed by row in
  /// insertion order, each row is ordered by column stably, duplicates are
  /// summed in insertion order and exact-zero sums are dropped. A builder
  /// without duplicate (row, col) pairs therefore yields entries that are
  /// bit-identical to its insertions. The builder is left empty but keeps
  /// its capacity.
  SparseMatrix Build() &;
  /// Rvalue overload: consumes the builder, releasing the triplet storage
  /// with it — the single-use assembly path.
  SparseMatrix Build() &&;

 private:
  struct Triplet {
    size_t row;
    size_t col;
    double value;
  };

  size_t rows_;
  size_t cols_;
  std::vector<Triplet> triplets_;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  static SparseMatrix FromDense(const DenseMatrix& dense,
                                double drop_tolerance = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t num_nonzeros() const { return values_.size(); }

  /// y = A x.
  Vector Multiply(const Vector& x) const;
  /// y = A^T x  (used for pi Q = 0 formulated as Q^T pi^T = 0).
  Vector MultiplyTransposed(const Vector& x) const;
  /// In-place variant: *out = A^T x, reusing out's storage. out must not
  /// alias x. The iterative solvers call this once per sweep; reusing the
  /// scratch vector keeps the inner loop allocation-free.
  void MultiplyTransposed(const Vector& x, Vector* out) const;

  /// Counting transpose written straight into CSR: O(nnz + rows + cols),
  /// rows of the result come out sorted by column.
  SparseMatrix Transposed() const;
  DenseMatrix ToDense() const;

  /// Entry lookup by binary search within the row; O(log nnz_row).
  double At(size_t row, size_t col) const;

  // CSR internals, exposed for the iterative solvers.
  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  friend class SparseMatrixBuilder;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;  // size rows_+1
  std::vector<size_t> col_indices_;  // size nnz, sorted within each row
  std::vector<double> values_;       // size nnz
};

}  // namespace wfms::linalg

#endif  // WFMS_LINALG_SPARSE_MATRIX_H_
