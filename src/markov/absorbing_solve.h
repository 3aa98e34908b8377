// The linear systems of an absorbing chain's transient block P_T (the jump
// chain with the absorbing state's row and column removed):
//
//   (I - P_T) x = b     x_i = b_i + sum_j p_ij x_j   — a state's value is
//                       built from its successors' (first-passage moments:
//                       b = H gives the mean, b = 2 H m the second moment)
//   x (I - P_T) = b     x_j = b_j + sum_i x_i p_ij   — built from its
//                       predecessors' (expected visits: b = e_initial)
//
// One solver serves every analysis of the workflow chain:
//  - acyclic chains (every chart compiled from a DAG): exact substitution
//    in the chain's topological solve order, O(nnz), no matrix assembled;
//  - cyclic chains (the paper's loops): sparse Gauss-Seidel on the block
//    permuted into the chain's depth-first solve order, so each sweep
//    propagates through the acyclic part in one pass;
//  - dense LU of the block: the last resort when Gauss-Seidel does not
//    converge, and the explicit oracle (TransientSolver::kDenseLu).
#ifndef WFMS_MARKOV_ABSORBING_SOLVE_H_
#define WFMS_MARKOV_ABSORBING_SOLVE_H_

#include "common/result.h"
#include "linalg/vector.h"
#include "markov/absorbing_ctmc.h"

namespace wfms::markov {

/// Which side of (I - P_T) the unknown multiplies.
enum class SystemSide {
  kColumn,  // (I - P_T) x = b
  kRow,     // x (I - P_T) = b, i.e. (I - P_T)^T x = b
};

enum class TransientSolver {
  /// Topological substitution when the chain is acyclic; otherwise
  /// Gauss-Seidel, falling back to dense LU if it does not converge.
  kAuto,
  /// Gauss-Seidel only, on any chain; fails if it does not converge.
  kGaussSeidel,
  /// Dense LU of the transient block: the exact oracle.
  kDenseLu,
};

/// Solves the system over the transient states. `b` and the result have
/// one entry per chain state; the absorbing state's entry of `b` is never
/// read and its entry of the result is 0.
Result<linalg::Vector> SolveTransientSystem(
    const AbsorbingCtmc& chain, SystemSide side, const linalg::Vector& b,
    TransientSolver solver = TransientSolver::kAuto);

}  // namespace wfms::markov

#endif  // WFMS_MARKOV_ABSORBING_SOLVE_H_
