// The workflow control-flow CTMC of §3.2 of the paper: a continuous-time
// Markov chain given by the embedded jump-chain transition probabilities
// p_ij and the mean state residence times H_i, with a single initial state
// and a single absorbing state (infinite residence).
//
// The jump chain is stored in CSR form: a chart compiled from an n-task
// DAG has O(n) transitions, so every construction step and analysis here
// is O(nnz), never O(n^2). The analyses the performance model needs live
// in transient.h (uniformization / Markov reward), first_passage.h
// (turnaround time) and absorbing_solve.h (the transient-block solver they
// share).
#ifndef WFMS_MARKOV_ABSORBING_CTMC_H_
#define WFMS_MARKOV_ABSORBING_CTMC_H_

#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace wfms::markov {

/// Residence time assigned to the absorbing state.
inline constexpr double kInfiniteResidence =
    std::numeric_limits<double>::infinity();

class AbsorbingCtmc {
 public:
  /// Validates and constructs a chain.
  ///  - `p`: embedded transition probabilities. Row of the absorbing state
  ///    must be all zero except p_AA == 1 (or all zero; it is normalized to
  ///    a self-loop). Other rows must sum to 1 and have p_ii == 0 (the jump
  ///    chain never jumps in place).
  ///  - `residence_times`: mean residence time H_i > 0 for transient states;
  ///    the absorbing state may carry kInfiniteResidence (enforced).
  ///  - `initial_state`, `absorbing_state`: distinct indices.
  /// Also verifies that the absorbing state is reachable from every state
  /// that is reachable from the initial state.
  static Result<AbsorbingCtmc> Create(const linalg::SparseMatrix& p,
                                      linalg::Vector residence_times,
                                      std::vector<std::string> state_names,
                                      size_t initial_state,
                                      size_t absorbing_state);

  size_t num_states() const { return p_.rows(); }
  size_t initial_state() const { return initial_state_; }
  size_t absorbing_state() const { return absorbing_state_; }
  const linalg::SparseMatrix& transition_probabilities() const { return p_; }
  const linalg::Vector& residence_times() const { return h_; }
  const std::string& state_name(size_t i) const { return state_names_[i]; }
  Result<size_t> StateIndex(const std::string& name) const;

  /// Departure rate v_i = 1/H_i (0 for the absorbing state).
  double DepartureRate(size_t i) const;
  /// Maximum departure rate v = max_i v_i — the uniformization rate.
  double UniformizationRate() const;
  /// Transition rate q_ij = v_i p_ij.
  double TransitionRate(size_t i, size_t j) const;

  /// Full infinitesimal generator (q_ii = -v_i); the absorbing row is zero.
  linalg::SparseMatrix Generator() const;

  /// One-step transition matrix of the uniformized DTMC:
  ///   p~_ij = (v_i/v) p_ij for j != i,   p~_ii = 1 - v_i/v,
  /// with the absorbing state keeping a self-loop of 1.
  linalg::SparseMatrix UniformizedTransitionMatrix() const;

  /// The transient states in depth-first postorder of the jump chain
  /// (started at the initial state): every successor of a state comes
  /// before it, except along a cycle.
  const std::vector<size_t>& solve_order() const { return solve_order_; }
  /// True iff the jump chain restricted to the transient states has no
  /// cycle — then solve_order() is a reverse topological order. Every
  /// chart compiled from a DAG is acyclic.
  bool acyclic() const { return acyclic_; }

 private:
  AbsorbingCtmc(linalg::SparseMatrix p, linalg::Vector h,
                std::vector<std::string> names, size_t initial,
                size_t absorbing)
      : p_(std::move(p)),
        h_(std::move(h)),
        state_names_(std::move(names)),
        initial_state_(initial),
        absorbing_state_(absorbing) {}

  linalg::SparseMatrix p_;
  linalg::Vector h_;
  std::vector<std::string> state_names_;
  size_t initial_state_;
  size_t absorbing_state_;
  std::vector<size_t> solve_order_;
  bool acyclic_ = true;
};

}  // namespace wfms::markov

#endif  // WFMS_MARKOV_ABSORBING_CTMC_H_
