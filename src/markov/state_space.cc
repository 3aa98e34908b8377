#include "markov/state_space.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/logging.h"

namespace wfms::markov {

Result<MixedRadixSpace> MixedRadixSpace::Create(std::vector<int> bounds) {
  if (bounds.empty()) {
    return Status::InvalidArgument("state space needs at least one dimension");
  }
  size_t size = 1;
  for (int b : bounds) {
    if (b < 0) return Status::InvalidArgument("bounds must be non-negative");
    const auto radix = static_cast<size_t>(b) + 1;
    if (size > std::numeric_limits<size_t>::max() / radix) {
      return Status::OutOfRange("state space size overflows");
    }
    size *= radix;
  }
  if (size > (size_t{1} << 28)) {
    return Status::OutOfRange(
        "state space too large to analyze (" + std::to_string(size) +
        " states)");
  }
  return MixedRadixSpace(std::move(bounds));
}

MixedRadixSpace::MixedRadixSpace(std::vector<int> bounds)
    : bounds_(std::move(bounds)) {
  place_values_.resize(bounds_.size());
  size_ = 1;
  for (size_t j = 0; j < bounds_.size(); ++j) {
    place_values_[j] = size_;
    size_ *= static_cast<size_t>(bounds_[j]) + 1;
  }
}

Result<size_t> MixedRadixSpace::Encode(const StateVector& state) const {
  if (state.size() != bounds_.size()) {
    return Status::InvalidArgument("state vector dimension mismatch");
  }
  for (size_t j = 0; j < state.size(); ++j) {
    if (state[j] < 0 || state[j] > bounds_[j]) {
      return Status::OutOfRange("component " + std::to_string(j) +
                                " out of bounds");
    }
  }
  return EncodeUnchecked(state);
}

size_t MixedRadixSpace::EncodeUnchecked(const StateVector& state) const {
  size_t index = 0;
  for (size_t j = 0; j < state.size(); ++j) {
    index += static_cast<size_t>(state[j]) * place_values_[j];
  }
  return index;
}

Result<StateVector> MixedRadixSpace::Decode(size_t index) const {
  if (index >= size_) return Status::OutOfRange("state index out of range");
  StateVector state(bounds_.size());
  for (size_t j = 0; j < bounds_.size(); ++j) {
    const size_t radix = static_cast<size_t>(bounds_[j]) + 1;
    state[j] = static_cast<int>(index % radix);
    index /= radix;
  }
  return state;
}

size_t MixedRadixSpace::Neighbor(size_t index, size_t dim, int delta) const {
  WFMS_DCHECK(dim < bounds_.size());
  const int value = Component(index, dim);
  const int next = value + delta;
  if (next < 0 || next > bounds_[dim]) return SIZE_MAX;
  return index + static_cast<size_t>(delta) * place_values_[dim];
}

int MixedRadixSpace::Component(size_t index, size_t dim) const {
  WFMS_DCHECK(dim < bounds_.size());
  const size_t radix = static_cast<size_t>(bounds_[dim]) + 1;
  return static_cast<int>((index / place_values_[dim]) % radix);
}

Result<std::vector<uint32_t>> ExchangeableStateLabels(
    const MixedRadixSpace& space, const std::vector<uint64_t>& dim_signature) {
  const size_t k = space.num_dimensions();
  if (dim_signature.size() != k) {
    return Status::InvalidArgument(
        "exchangeable labels: one signature per dimension required");
  }
  // Group dimensions by signature; each group must be bound-homogeneous.
  std::vector<size_t> order(k);
  for (size_t j = 0; j < k; ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return dim_signature[a] < dim_signature[b];
  });
  std::vector<std::vector<size_t>> classes;
  for (size_t idx = 0; idx < k; ++idx) {
    const size_t j = order[idx];
    if (idx == 0 || dim_signature[j] != dim_signature[order[idx - 1]]) {
      classes.emplace_back();
    } else if (space.bound(j) != space.bound(order[idx - 1])) {
      return Status::InvalidArgument(
          "exchangeable labels: dimensions with equal signatures must have "
          "equal bounds");
    }
    classes.back().push_back(j);
  }

  std::vector<uint32_t> labels(space.size());
  // No two dimensions exchangeable: every state is its own canonical
  // state, and labels in ascending state order are the identity.
  if (classes.size() == k) {
    std::iota(labels.begin(), labels.end(), uint32_t{0});
    return labels;
  }
  // Canonical codes are state indices, so a table over the state space
  // maps each one to its dense label.
  constexpr uint32_t kUnlabelled = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> label_of_canonical(space.size(), kUnlabelled);
  uint32_t next_label = 0;
  StateVector state(k);
  std::vector<int> sorted_class;
  for (size_t i = 0; i < space.size(); ++i) {
    for (size_t j = 0; j < k; ++j) state[j] = space.Component(i, j);
    for (const auto& cls : classes) {
      if (cls.size() < 2) continue;
      sorted_class.clear();
      for (size_t j : cls) sorted_class.push_back(state[j]);
      std::sort(sorted_class.begin(), sorted_class.end());
      for (size_t c = 0; c < cls.size(); ++c) state[cls[c]] = sorted_class[c];
    }
    uint32_t& label = label_of_canonical[space.EncodeUnchecked(state)];
    if (label == kUnlabelled) label = next_label++;
    labels[i] = label;
  }
  return labels;
}

Result<linalg::Vector> ProjectDistribution(const MixedRadixSpace& from,
                                           const linalg::Vector& pi,
                                           const MixedRadixSpace& to) {
  const size_t k = to.num_dimensions();
  if (from.num_dimensions() != k) {
    return Status::InvalidArgument(
        "projection requires spaces of equal dimension");
  }
  if (pi.size() != from.size()) {
    return Status::InvalidArgument("projection: distribution size mismatch");
  }
  linalg::Vector guess(to.size(), 0.0);
  StateVector clamped(k);
  double sum = 0.0;
  for (size_t i = 0; i < to.size(); ++i) {
    for (size_t x = 0; x < k; ++x) {
      clamped[x] = std::min(to.Component(i, x), from.bound(x));
    }
    const double mass = pi[from.EncodeUnchecked(clamped)];
    guess[i] = mass;
    sum += mass;
  }
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return Status::NumericError("projection produced an empty distribution");
  }
  for (double& g : guess) g /= sum;
  return guess;
}

std::string MixedRadixSpace::ToString(size_t index) const {
  std::ostringstream os;
  os << "(";
  for (size_t j = 0; j < bounds_.size(); ++j) {
    if (j > 0) os << ",";
    os << Component(index, j);
  }
  os << ")";
  return os.str();
}

}  // namespace wfms::markov
