#include "markov/absorbing_solve.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/iterative_solver.h"
#include "linalg/lu_solver.h"
#include "linalg/sparse_matrix.h"
#include "linalg/spmv.h"

namespace wfms::markov {

using linalg::SparseMatrix;
using linalg::Vector;

namespace {

/// Acyclic chains, kColumn: successors come first in the solve order, so
/// each x_i is final once its row is read. x_A stays 0.
Vector SubstituteColumn(const AbsorbingCtmc& chain, const Vector& b) {
  const SparseMatrix& p = chain.transition_probabilities();
  const size_t* cols = p.col_indices().data();
  const double* values = p.values().data();
  const auto& offsets = p.row_offsets();
  Vector x(chain.num_states(), 0.0);
  for (size_t i : chain.solve_order()) {
    x[i] = b[i] + linalg::CsrRowDot(values, cols, offsets[i], offsets[i + 1],
                                    x.data());
  }
  return x;
}

/// Acyclic chains, kRow: walking the solve order backwards visits every
/// predecessor of a state before it, so each x_i is final when its row
/// scatters into its successors.
Vector SubstituteRow(const AbsorbingCtmc& chain, const Vector& b) {
  const SparseMatrix& p = chain.transition_probabilities();
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& values = p.values();
  const std::vector<size_t>& order = chain.solve_order();
  Vector x(chain.num_states(), 0.0);
  for (size_t i : order) x[i] = b[i];
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const double xi = x[*it];
    if (xi == 0.0) continue;
    for (size_t k = offsets[*it]; k < offsets[*it + 1]; ++k) {
      x[cols[k]] += values[k] * xi;
    }
  }
  x[chain.absorbing_state()] = 0.0;  // absorbed mass, not a transient entry
  return x;
}

/// Sparse Gauss-Seidel on (I - P_T), rows permuted into the solve order
/// (reversed for kRow) so a forward sweep meets successors (predecessors)
/// first and converges in one sweep on the acyclic part. The right-hand
/// side is scaled to unit maximum so the solver's absolute tolerance is a
/// relative one.
Result<Vector> GaussSeidel(const AbsorbingCtmc& chain, SystemSide side,
                           const Vector& b) {
  const SparseMatrix& p = chain.transition_probabilities();
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& values = p.values();
  const std::vector<size_t>& order = chain.solve_order();
  const size_t a = chain.absorbing_state();
  const size_t m = order.size();

  Vector x(chain.num_states(), 0.0);
  double scale = 0.0;
  for (size_t i : order) scale = std::max(scale, std::fabs(b[i]));
  if (scale == 0.0) return x;

  std::vector<size_t> pos(chain.num_states(), 0);
  for (size_t r = 0; r < m; ++r) {
    pos[order[r]] = side == SystemSide::kColumn ? r : m - 1 - r;
  }
  linalg::SparseMatrixBuilder builder(m, m);
  builder.Reserve(p.num_nonzeros() + m);
  Vector rhs(m, 0.0);
  for (size_t i : order) {
    rhs[pos[i]] = b[i] / scale;
    builder.Add(pos[i], pos[i], 1.0);
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const size_t j = cols[k];
      if (j == a) continue;
      if (side == SystemSide::kColumn) {
        builder.Add(pos[i], pos[j], -values[k]);
      } else {
        builder.Add(pos[j], pos[i], -values[k]);
      }
    }
  }
  const SparseMatrix system = std::move(builder).Build();

  Vector y = rhs;  // the single-visit lower bound
  linalg::IterativeOptions options;
  options.tolerance = 1e-13;
  options.stall_window = 64;
  WFMS_ASSIGN_OR_RETURN(linalg::IterativeStats stats,
                        linalg::GaussSeidelSolve(system, rhs, &y, options));
  if (!stats.converged) {
    return Status::NumericError("transient Gauss-Seidel did not converge");
  }
  for (size_t i : order) x[i] = y[pos[i]] * scale;
  return x;
}

/// Dense LU of (I - P_T) (or its transpose) over the transient states in
/// index order.
Result<Vector> DenseLu(const AbsorbingCtmc& chain, SystemSide side,
                       const Vector& b) {
  const SparseMatrix& p = chain.transition_probabilities();
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& values = p.values();
  const size_t n = chain.num_states();
  const size_t a = chain.absorbing_state();
  // Compact index of state i (the absorbing state is dropped).
  auto compact = [a](size_t i) { return i < a ? i : i - 1; };

  linalg::DenseMatrix system(n - 1, n - 1);
  Vector rhs(n - 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (i == a) continue;
    const size_t ci = compact(i);
    rhs[ci] = b[i];
    system.At(ci, ci) += 1.0;
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (cols[k] == a) continue;
      const size_t cj = compact(cols[k]);
      if (side == SystemSide::kColumn) {
        system.At(ci, cj) -= values[k];
      } else {
        system.At(cj, ci) -= values[k];
      }
    }
  }
  WFMS_ASSIGN_OR_RETURN(Vector y, linalg::LuSolve(system, rhs));
  Vector x(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (i != a) x[i] = y[compact(i)];
  }
  return x;
}

}  // namespace

Result<Vector> SolveTransientSystem(const AbsorbingCtmc& chain,
                                    SystemSide side, const Vector& b,
                                    TransientSolver solver) {
  if (b.size() != chain.num_states()) {
    return Status::InvalidArgument("right-hand side size mismatch");
  }
  switch (solver) {
    case TransientSolver::kDenseLu:
      return DenseLu(chain, side, b);
    case TransientSolver::kGaussSeidel:
      return GaussSeidel(chain, side, b);
    case TransientSolver::kAuto:
      break;
  }
  if (chain.acyclic()) {
    return side == SystemSide::kColumn ? SubstituteColumn(chain, b)
                                       : SubstituteRow(chain, b);
  }
  Result<Vector> iterative = GaussSeidel(chain, side, b);
  if (iterative.ok()) return iterative;
  return DenseLu(chain, side, b);
}

}  // namespace wfms::markov
