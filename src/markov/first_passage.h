// Mean first-passage times into the absorbing state (§4.1 of the paper):
// solving  -v_i m_iA + sum_{j != A, j != i} q_ij m_jA = -1  for all i != A,
// i.e. (I - P_T) m = H after dividing row i by -v_i. The solution from the
// initial state is the workflow's mean turnaround time R_t.
#ifndef WFMS_MARKOV_FIRST_PASSAGE_H_
#define WFMS_MARKOV_FIRST_PASSAGE_H_

#include "common/result.h"
#include "linalg/vector.h"
#include "markov/absorbing_ctmc.h"

namespace wfms::markov {

enum class FirstPassageMethod {
  /// Dense LU of the transient block: the exact oracle, O(n^3).
  kLu,
  /// The method the paper prescribes, on the sparse chain: on an acyclic
  /// chain one Gauss-Seidel sweep in topological order is exact (a
  /// back-substitution); cyclic chains iterate, with dense LU as the last
  /// resort (absorbing_solve.h).
  kGaussSeidel,
};

/// Solves the first-passage system. Returns m_iA for every state (the entry
/// for the absorbing state itself is 0).
Result<linalg::Vector> MeanFirstPassageTimes(
    const AbsorbingCtmc& chain,
    FirstPassageMethod method = FirstPassageMethod::kGaussSeidel);

/// Mean turnaround time R_t = m_{0A}: expected time from the initial state
/// to absorption.
Result<double> MeanTurnaroundTime(
    const AbsorbingCtmc& chain,
    FirstPassageMethod method = FirstPassageMethod::kGaussSeidel);

}  // namespace wfms::markov

#endif  // WFMS_MARKOV_FIRST_PASSAGE_H_
