// Discrete-time Markov chains with a dense transition matrix, for small
// general chains: expected visit counts per transient state via the
// fundamental matrix N = (I - P_T)^{-1} and absorption probabilities. The
// workflow chains do not use this type: their visits come from the sparse
// AbsorbingCtmc through absorbing_solve.h (markov::ExpectedStateVisits).
#ifndef WFMS_MARKOV_DTMC_H_
#define WFMS_MARKOV_DTMC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"
#include "linalg/vector.h"

namespace wfms::markov {

/// A finite DTMC with named states and a dense row-stochastic transition
/// matrix.
class Dtmc {
 public:
  /// Validates that `p` is square, matches `state_names` in size, and that
  /// every row sums to 1 within `tolerance` (rows are renormalized exactly).
  static Result<Dtmc> Create(linalg::DenseMatrix p,
                             std::vector<std::string> state_names,
                             double tolerance = 1e-9);

  size_t num_states() const { return p_.rows(); }
  const linalg::DenseMatrix& transition_matrix() const { return p_; }
  const std::string& state_name(size_t i) const { return state_names_[i]; }
  Result<size_t> StateIndex(const std::string& name) const;

  /// True iff state i has p_ii == 1.
  bool IsAbsorbing(size_t i) const;
  /// Indices of all absorbing states.
  std::vector<size_t> AbsorbingStates() const;

  /// Expected number of visits to each transient state before absorption,
  /// starting from `start` (the start state's initial occupancy counts as
  /// one visit). Entries for absorbing states are 0. Fails if the chain has
  /// no absorbing state reachable from `start` (singular I - P_T).
  Result<linalg::Vector> ExpectedVisitsUntilAbsorption(size_t start) const;

  /// Probability of eventually being absorbed in each absorbing state,
  /// starting from `start`. Entries for transient states are 0.
  Result<linalg::Vector> AbsorptionProbabilities(size_t start) const;

  /// n-step transition probabilities from `start`.
  linalg::Vector DistributionAfter(size_t start, int steps) const;

 private:
  Dtmc(linalg::DenseMatrix p, std::vector<std::string> names)
      : p_(std::move(p)), state_names_(std::move(names)) {}

  linalg::DenseMatrix p_;
  std::vector<std::string> state_names_;
};

}  // namespace wfms::markov

#endif  // WFMS_MARKOV_DTMC_H_
