#include "markov/phase_type.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"

namespace wfms::markov {

using linalg::SparseMatrix;
using linalg::Vector;

Vector ErlangExpansion::LiftEntryRewards(const Vector& rewards) const {
  WFMS_CHECK_EQ(origin.size(), chain.num_states());
  Vector lifted(chain.num_states(), 0.0);
  for (size_t i = 0; i < lifted.size(); ++i) {
    if (is_first_stage[i]) lifted[i] = rewards[origin[i]];
  }
  return lifted;
}

Result<ErlangExpansion> ExpandErlangStages(const AbsorbingCtmc& chain,
                                           const std::vector<int>& stages) {
  const size_t n = chain.num_states();
  if (stages.size() != n) {
    return Status::InvalidArgument("stage count vector size mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    if (stages[i] < 1) {
      return Status::InvalidArgument("stage counts must be >= 1");
    }
    if (i == chain.absorbing_state() && stages[i] != 1) {
      return Status::InvalidArgument("absorbing state cannot be expanded");
    }
  }

  // Map original state -> index of its first stage in the expanded chain.
  std::vector<size_t> first_stage(n);
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    first_stage[i] = total;
    total += static_cast<size_t>(stages[i]);
  }

  const SparseMatrix& source = chain.transition_probabilities();
  const auto& offsets = source.row_offsets();
  const auto& cols = source.col_indices();
  const auto& values = source.values();
  linalg::SparseMatrixBuilder p(total, total);
  p.Reserve(source.num_nonzeros() + total);
  Vector h(total, 0.0);
  std::vector<std::string> names(total);
  std::vector<size_t> origin(total);
  std::vector<bool> is_first(total, false);

  for (size_t i = 0; i < n; ++i) {
    const auto k = static_cast<size_t>(stages[i]);
    const double stage_time =
        i == chain.absorbing_state()
            ? kInfiniteResidence
            : chain.residence_times()[i] / static_cast<double>(k);
    for (size_t s = 0; s < k; ++s) {
      const size_t idx = first_stage[i] + s;
      origin[idx] = i;
      is_first[idx] = (s == 0);
      h[idx] = stage_time;
      names[idx] = chain.state_name(i);
      // Appended in two steps: GCC 12's -Wrestrict flags the fused
      // literal+number concatenation as a potential self-overlap and
      // -Werror trips on the false positive (GCC PR105329).
      if (k > 1) {
        names[idx] += '#';
        names[idx] += std::to_string(s + 1);
      }
      if (s + 1 < k) {
        p.Add(idx, idx + 1, 1.0);  // advance to next stage
      } else if (i != chain.absorbing_state()) {
        // Last stage: the original state's outgoing distribution, with
        // targets redirected to first stages.
        for (size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
          p.Add(idx, first_stage[cols[e]], values[e]);
        }
      }
    }
  }

  auto expanded = AbsorbingCtmc::Create(
      std::move(p).Build(), std::move(h), std::move(names),
      first_stage[chain.initial_state()],
      first_stage[chain.absorbing_state()]);
  if (!expanded.ok()) {
    return expanded.status().WithContext("Erlang expansion");
  }
  ErlangExpansion result{*std::move(expanded), std::move(origin),
                         std::move(is_first)};
  return result;
}

int ErlangStagesForScv(double scv, int max_stages) {
  if (max_stages < 1) max_stages = 1;
  if (!std::isfinite(scv) || scv <= 0.0) return 1;
  if (scv >= 1.0) return 1;
  const double k = std::round(1.0 / scv);
  if (k >= static_cast<double>(max_stages)) return max_stages;
  return std::max(1, static_cast<int>(k));
}

}  // namespace wfms::markov
