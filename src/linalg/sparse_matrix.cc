#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace wfms::linalg {

namespace {

// Rows up to this length are ordered by insertion sort; a longer row that
// is not already in column order (a dense row, say) takes a stable
// O(L log L) sort, so no input makes assembly quadratic.
constexpr size_t kInsertionSortMaxRow = 32;

/// Orders one row's entries by column, carrying the values along. Equal
/// columns keep their insertion order, which fixes the order in which
/// Build() sums duplicates.
void SortRowByColumn(size_t* cols, double* values, size_t length,
                     std::vector<std::pair<size_t, double>>* scratch) {
  if (length <= kInsertionSortMaxRow) {
    for (size_t i = 1; i < length; ++i) {
      const size_t col = cols[i];
      const double value = values[i];
      size_t j = i;
      for (; j > 0 && cols[j - 1] > col; --j) {
        cols[j] = cols[j - 1];
        values[j] = values[j - 1];
      }
      cols[j] = col;
      values[j] = value;
    }
    return;
  }
  if (std::is_sorted(cols, cols + length)) return;
  scratch->clear();
  for (size_t i = 0; i < length; ++i) scratch->emplace_back(cols[i], values[i]);
  std::stable_sort(scratch->begin(), scratch->end(),
                   [](const std::pair<size_t, double>& x,
                      const std::pair<size_t, double>& y) {
                     return x.first < y.first;
                   });
  for (size_t i = 0; i < length; ++i) {
    cols[i] = (*scratch)[i].first;
    values[i] = (*scratch)[i].second;
  }
}

/// Turns per-row counts held in offsets[r + 1] into row starts: afterwards
/// offsets[r] is where row r's first entry goes.
void CountsToStarts(std::vector<size_t>* offsets) {
  for (size_t r = 1; r < offsets->size(); ++r) {
    (*offsets)[r] += (*offsets)[r - 1];
  }
}

/// A scatter that used offsets[r] as row r's write cursor leaves it at row
/// r's end, which is row r + 1's start; shifting by one restores the starts.
void CursorsToStarts(std::vector<size_t>* offsets) {
  for (size_t r = offsets->size() - 1; r > 0; --r) {
    (*offsets)[r] = (*offsets)[r - 1];
  }
  (*offsets)[0] = 0;
}

}  // namespace

SparseMatrixBuilder::SparseMatrixBuilder(size_t rows, size_t cols)
    : rows_(rows), cols_(cols) {}

void SparseMatrixBuilder::Add(size_t row, size_t col, double value) {
  WFMS_DCHECK(row < rows_);
  WFMS_DCHECK(col < cols_);
  if (value == 0.0) return;
  triplets_.push_back({row, col, value});
}

void SparseMatrixBuilder::Reserve(size_t nnz_hint) {
  triplets_.reserve(nnz_hint);
}

SparseMatrix SparseMatrixBuilder::Build() & {
  SparseMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  std::vector<size_t>& offsets = m.row_offsets_;
  offsets.assign(rows_ + 1, 0);
  for (const Triplet& t : triplets_) ++offsets[t.row + 1];
  CountsToStarts(&offsets);

  // Bucket the triplets by row straight into the output arrays; within a
  // row they stay in insertion order.
  m.col_indices_.resize(triplets_.size());
  m.values_.resize(triplets_.size());
  size_t* cols = m.col_indices_.data();
  double* values = m.values_.data();
  for (const Triplet& t : triplets_) {
    const size_t k = offsets[t.row]++;
    cols[k] = t.col;
    values[k] = t.value;
  }
  CursorsToStarts(&offsets);

  // Order each row by column, then sum runs of equal columns in insertion
  // order and drop exact-zero sums, compacting towards the front. A run of
  // one keeps its value bit for bit.
  std::vector<std::pair<size_t, double>> scratch;
  size_t out = 0;
  size_t begin = 0;
  for (size_t r = 0; r < rows_; ++r) {
    const size_t end = offsets[r + 1];
    SortRowByColumn(cols + begin, values + begin, end - begin, &scratch);
    for (size_t k = begin; k < end;) {
      const size_t col = cols[k];
      double sum = values[k++];
      while (k < end && cols[k] == col) sum += values[k++];
      if (sum != 0.0) {
        cols[out] = col;
        values[out] = sum;
        ++out;
      }
    }
    offsets[r + 1] = out;
    begin = end;
  }
  m.col_indices_.resize(out);
  m.values_.resize(out);
  triplets_.clear();
  return m;
}

SparseMatrix SparseMatrixBuilder::Build() && {
  SparseMatrix m = Build();
  triplets_.shrink_to_fit();
  return m;
}

SparseMatrix SparseMatrix::FromDense(const DenseMatrix& dense,
                                     double drop_tolerance) {
  SparseMatrixBuilder builder(dense.rows(), dense.cols());
  for (size_t r = 0; r < dense.rows(); ++r) {
    for (size_t c = 0; c < dense.cols(); ++c) {
      const double v = dense.At(r, c);
      if (std::fabs(v) > drop_tolerance) builder.Add(r, c, v);
    }
  }
  return builder.Build();
}

Vector SparseMatrix::Multiply(const Vector& x) const {
  WFMS_CHECK_EQ(x.size(), cols_);
  Vector y(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      sum += values_[k] * x[col_indices_[k]];
    }
    y[r] = sum;
  }
  return y;
}

Vector SparseMatrix::MultiplyTransposed(const Vector& x) const {
  Vector y;
  MultiplyTransposed(x, &y);
  return y;
}

void SparseMatrix::MultiplyTransposed(const Vector& x, Vector* out) const {
  WFMS_CHECK_EQ(x.size(), rows_);
  WFMS_DCHECK(out != &x);
  out->assign(cols_, 0.0);
  Vector& y = *out;
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      y[col_indices_[k]] += values_[k] * xr;
    }
  }
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  std::vector<size_t>& offsets = t.row_offsets_;
  offsets.assign(cols_ + 1, 0);
  for (size_t col : col_indices_) ++offsets[col + 1];
  CountsToStarts(&offsets);
  // Scattering the rows in ascending order leaves every row of the
  // transpose sorted by column; a CSR matrix holds no duplicates or zeros,
  // so nothing is left to merge.
  t.col_indices_.resize(values_.size());
  t.values_.resize(values_.size());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const size_t dst = offsets[col_indices_[k]]++;
      t.col_indices_[dst] = r;
      t.values_[dst] = values_[k];
    }
  }
  CursorsToStarts(&offsets);
  return t;
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      out.At(r, col_indices_[k]) = values_[k];
    }
  }
  return out;
}

double SparseMatrix::At(size_t row, size_t col) const {
  WFMS_DCHECK(row < rows_);
  WFMS_DCHECK(col < cols_);
  const auto begin = col_indices_.begin() +
                     static_cast<std::ptrdiff_t>(row_offsets_[row]);
  const auto end = col_indices_.begin() +
                   static_cast<std::ptrdiff_t>(row_offsets_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<size_t>(it - col_indices_.begin())];
}

}  // namespace wfms::linalg
