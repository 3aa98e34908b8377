#include "markov/transient_distribution.h"

#include <cmath>

#include "linalg/sparse_matrix.h"
#include "linalg/spmv.h"

namespace wfms::markov {

using linalg::SparseMatrix;
using linalg::Vector;

Result<Vector> TransientDistribution(const AbsorbingCtmc& chain, double t,
                                     const TransientOptions& options) {
  if (t < 0.0 || !std::isfinite(t)) {
    return Status::InvalidArgument("time must be finite and non-negative");
  }
  const size_t n = chain.num_states();
  Vector p(n, 0.0);
  p[chain.initial_state()] = 1.0;
  if (t == 0.0) return p;

  const double v = chain.UniformizationRate();
  const double vt = v * t;
  const SparseMatrix u_matrix = chain.UniformizedTransitionMatrix();
  Vector next;

  // Poisson(vt) weights computed iteratively; for large vt start the
  // recursion in log space to avoid underflow of the z=0 term.
  Vector result(n, 0.0);
  double log_weight = -vt;  // log Poisson(vt; 0)
  double accumulated = 0.0;
  for (int z = 0; z < options.max_terms; ++z) {
    const double weight = std::exp(log_weight);
    if (weight > 0.0) {
      for (size_t i = 0; i < n; ++i) result[i] += weight * p[i];
      accumulated += weight;
    }
    // Terminate when the remaining Poisson mass is negligible. The second
    // disjunct handles rounding: for large vt the accumulated weights sum
    // to 1 only up to ~1e-12 of floating-point error, so once past the
    // Poisson mode with underflowing weights the series is done.
    const bool tail_reached = 1.0 - accumulated < options.tail_tolerance;
    const bool past_mode_underflow =
        static_cast<double>(z) > vt && weight < 1e-17;
    if (tail_reached || past_mode_underflow) {
      // Assign the (negligible) remaining mass to the current iterate so
      // the result stays a proper distribution.
      const double tail = std::max(0.0, 1.0 - accumulated);
      for (size_t i = 0; i < n; ++i) result[i] += tail * p[i];
      return result;
    }
    linalg::BlockedMultiplyTransposed(u_matrix, p, &next);  // p <- p P~
    p.swap(next);
    log_weight += std::log(vt) - std::log(static_cast<double>(z) + 1.0);
  }
  return Status::NumericError(
      "uniformization series did not converge within max_terms");
}

Result<double> CompletionProbabilityByTime(const AbsorbingCtmc& chain,
                                           double t,
                                           const TransientOptions& options) {
  WFMS_ASSIGN_OR_RETURN(Vector p, TransientDistribution(chain, t, options));
  return p[chain.absorbing_state()];
}

Result<double> TurnaroundQuantile(const AbsorbingCtmc& chain, double quantile,
                                  double tolerance,
                                  const TransientOptions& options) {
  if (quantile <= 0.0 || quantile >= 1.0) {
    return Status::InvalidArgument("quantile must be in (0, 1)");
  }
  if (!(tolerance > 0.0)) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  // Exponential search for an upper bound, then bisection.
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 200; ++i) {
    WFMS_ASSIGN_OR_RETURN(double prob,
                          CompletionProbabilityByTime(chain, hi, options));
    if (prob >= quantile) break;
    lo = hi;
    hi *= 2.0;
    if (i == 199) {
      return Status::NumericError("quantile upper-bound search diverged");
    }
  }
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    WFMS_ASSIGN_OR_RETURN(double prob,
                          CompletionProbabilityByTime(chain, mid, options));
    if (prob >= quantile) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace wfms::markov
