#include "markov/transient.h"

#include <cmath>

#include "linalg/sparse_matrix.h"
#include "linalg/spmv.h"
#include "markov/absorbing_solve.h"

namespace wfms::markov {

using linalg::SparseMatrix;
using linalg::Vector;

namespace {

/// One taboo step of the uniformized chain: *next = u P~ with the mass
/// that entered the absorbing state dropped, so the iterate keeps carrying
/// exactly the taboo probabilities. Returns the unabsorbed mass left.
double TabooStep(const SparseMatrix& u_matrix, size_t absorbing,
                 const Vector& u, Vector* next) {
  linalg::BlockedMultiplyTransposed(u_matrix, u, next);
  (*next)[absorbing] = 0.0;
  double mass = 0.0;
  for (size_t i = 0; i < next->size(); ++i) {
    if (i != absorbing) mass += (*next)[i];
  }
  return mass;
}

}  // namespace

Result<RewardResult> ExpectedRewardUntilAbsorption(
    const AbsorbingCtmc& chain, const Vector& entry_rewards,
    const RewardOptions& options) {
  const size_t n = chain.num_states();
  if (entry_rewards.size() != n) {
    return Status::InvalidArgument("entry reward vector size mismatch");
  }
  if (options.residual_mass_threshold <= 0.0 ||
      options.residual_mass_threshold >= 1.0) {
    return Status::InvalidArgument(
        "residual mass threshold must be in (0, 1)");
  }
  const size_t a = chain.absorbing_state();
  const size_t s0 = chain.initial_state();

  // Uniformized one-step matrix; the taboo of the absorbing state is kept
  // by never propagating mass out of it (TabooStep), so the state vector
  // u(z) carries exactly the taboo probabilities \bar p_{0a}(z).
  const SparseMatrix u_matrix = chain.UniformizedTransitionMatrix();
  const auto& offsets = u_matrix.row_offsets();
  const auto& cols = u_matrix.col_indices();
  const auto& values = u_matrix.values();

  // Per-state expected one-step reward: g_a = sum_{b != A, b != a}
  // \bar p_ab * l_b. Note (1/v) q_ab == \bar p_ab for b != a, so the
  // paper's (1/v) sum q_ab l_b equals this inner product.
  Vector step_reward(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (i == a) continue;
    double g = 0.0;
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (cols[k] == a || cols[k] == i) continue;
      g += values[k] * entry_rewards[cols[k]];
    }
    step_reward[i] = g;
  }

  RewardResult result;
  result.expected_reward = entry_rewards[s0];

  Vector u(n, 0.0);  // taboo distribution over non-absorbing states
  Vector next;
  u[s0] = 1.0;
  double mass = 1.0;
  for (int z = 0; z < options.max_steps && mass > options.residual_mass_threshold;
       ++z) {
    // Accumulate this step's expected reward.
    double reward = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (u[i] != 0.0) reward += u[i] * step_reward[i];
    }
    result.expected_reward += reward;
    result.steps = z + 1;

    // Advance: u(z+1)_b = sum_{c != A} u(z)_c * \bar p_cb for b != A.
    mass = TabooStep(u_matrix, a, u, &next);
    u.swap(next);
  }
  result.residual_mass = mass;
  if (mass > options.residual_mass_threshold) {
    // The caller asked for more precision than the step cap allowed.
    return Status::NumericError(
        "reward summation truncated with residual mass " +
        std::to_string(mass));
  }
  return result;
}

Result<Vector> ExpectedStateVisits(const AbsorbingCtmc& chain) {
  // Row `initial` of N = (I - P_T)^{-1}: e_initial N, the row-side system.
  Vector start(chain.num_states(), 0.0);
  start[chain.initial_state()] = 1.0;
  auto visits = SolveTransientSystem(chain, SystemSide::kRow, start);
  if (!visits.ok()) {
    return visits.status().WithContext(
        "chain has transient states with no path to absorption");
  }
  return visits;
}

Result<int> AbsorptionStepBound(const AbsorbingCtmc& chain, double confidence,
                                int max_steps) {
  if (confidence <= 0.0 || confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  const SparseMatrix u_matrix = chain.UniformizedTransitionMatrix();
  Vector u(chain.num_states(), 0.0);
  Vector next;
  u[chain.initial_state()] = 1.0;
  const double threshold = 1.0 - confidence;
  double mass = 1.0;
  for (int z = 0; z < max_steps; ++z) {
    if (mass <= threshold) return z;
    mass = TabooStep(u_matrix, chain.absorbing_state(), u, &next);
    u.swap(next);
  }
  return Status::NumericError("absorption step bound exceeds max_steps");
}

}  // namespace wfms::markov
