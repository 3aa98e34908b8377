#include "markov/first_passage_moments.h"

#include <algorithm>
#include <cmath>

#include "markov/absorbing_solve.h"
#include "markov/first_passage.h"

namespace wfms::markov {

using linalg::Vector;

double TurnaroundMoments::stddev() const {
  return std::sqrt(std::max(0.0, variance()));
}

double TurnaroundMoments::scv() const {
  return mean > 0.0 ? variance() / (mean * mean) : 0.0;
}

double TurnaroundMoments::TailBound(double t) const {
  if (t <= mean) return 1.0;
  const double deviation = t - mean;
  return std::min(1.0, variance() / (deviation * deviation));
}

Result<FirstPassageMomentVectors> FirstPassageMoments(
    const AbsorbingCtmc& chain) {
  WFMS_ASSIGN_OR_RETURN(Vector mean, MeanFirstPassageTimes(chain));

  // s_i = 2/v_i^2 + (2/v_i) sum_j p_ij m_j + sum_j p_ij s_j, and
  // 1/v_i + sum_j p_ij m_j = m_i, so (I - P_T) s = 2 H m.
  const Vector& h = chain.residence_times();
  Vector rhs(chain.num_states(), 0.0);
  for (size_t i = 0; i < rhs.size(); ++i) {
    if (i != chain.absorbing_state()) rhs[i] = 2.0 * h[i] * mean[i];
  }
  auto second = SolveTransientSystem(chain, SystemSide::kColumn, rhs);
  if (!second.ok()) {
    return second.status().WithContext("first-passage second moments");
  }
  for (double s : *second) {
    if (s < 0.0) {
      return Status::NumericError("negative second moment; ill-conditioned");
    }
  }
  return FirstPassageMomentVectors{std::move(mean), *std::move(second)};
}

Result<TurnaroundMoments> TurnaroundTimeMoments(const AbsorbingCtmc& chain) {
  WFMS_ASSIGN_OR_RETURN(FirstPassageMomentVectors vectors,
                        FirstPassageMoments(chain));
  TurnaroundMoments moments;
  moments.mean = vectors.mean[chain.initial_state()];
  moments.second_moment = vectors.second_moment[chain.initial_state()];
  return moments;
}

}  // namespace wfms::markov
