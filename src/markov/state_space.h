// Mixed-radix encoding of WFMS system states (§5.2 of the paper): a system
// state (X_1, ..., X_k) with 0 <= X_x <= Y_x maps to the integer
//   sum_j X_j * prod_{l<j} (Y_l + 1),
// which indexes the states of the availability CTMC.
#ifndef WFMS_MARKOV_STATE_SPACE_H_
#define WFMS_MARKOV_STATE_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/vector.h"

namespace wfms::markov {

/// Vector of per-dimension values, e.g. available servers per server type.
using StateVector = std::vector<int>;

class MixedRadixSpace {
 public:
  /// Zero-dimensional space with a single state; a placeholder for report
  /// structs that are filled in later.
  MixedRadixSpace() = default;

  /// `bounds[j]` is the maximum value of dimension j (inclusive), i.e. Y_j.
  static Result<MixedRadixSpace> Create(std::vector<int> bounds);

  size_t num_dimensions() const { return bounds_.size(); }
  int bound(size_t dim) const { return bounds_[dim]; }
  const std::vector<int>& bounds() const { return bounds_; }

  /// Total number of states: prod (Y_j + 1).
  size_t size() const { return size_; }

  /// Encodes a state vector; all entries must be within bounds.
  Result<size_t> Encode(const StateVector& state) const;
  /// Encode without validation (hot path; caller guarantees bounds).
  size_t EncodeUnchecked(const StateVector& state) const;

  /// Decodes an index into a state vector.
  Result<StateVector> Decode(size_t index) const;

  /// Returns the encoded neighbor with dimension `dim` changed by `delta`,
  /// or SIZE_MAX if that would leave the bounds. O(1).
  size_t Neighbor(size_t index, size_t dim, int delta) const;

  /// Value of dimension `dim` in the state with the given index. O(1).
  int Component(size_t index, size_t dim) const;

  std::string ToString(size_t index) const;

 private:
  explicit MixedRadixSpace(std::vector<int> bounds);

  std::vector<int> bounds_;
  std::vector<size_t> place_values_;  // prod_{l<j} (Y_l + 1)
  size_t size_ = 1;
};

/// Canonical-orbit labels used to seed the lumping pass (markov/lumping.h):
/// dimensions sharing a signature value are treated as exchangeable, and
/// each state is labelled by the canonical state obtained by sorting its
/// components within every signature class. States with equal labels are
/// *candidates* for merging — availability chains whose server types share
/// failure/repair rates and replica counts produce identical dynamics under
/// any permutation of those types, so their orbits lump; the partition
/// refinement downstream verifies rather than assumes this. Labels are
/// dense, assigned in ascending state order, so with no two signatures
/// equal the labelling is the identity. Dimensions with equal
/// signatures must have equal bounds (otherwise sorting components across
/// them is meaningless) — that is an error.
Result<std::vector<uint32_t>> ExchangeableStateLabels(
    const MixedRadixSpace& space, const std::vector<uint64_t>& dim_signature);

/// Transfers a distribution over `from` onto `to` (same dimension count,
/// possibly different bounds): each target state reads the probability of
/// the source state with the same component vector, clamped into the
/// source bounds, and the result is L1-normalized. This is not a
/// stochastic mapping (mass may be duplicated before normalization); it is
/// an *initial guess* for iterative steady-state solvers when the two
/// spaces belong to configurations differing by a replica or two.
Result<linalg::Vector> ProjectDistribution(const MixedRadixSpace& from,
                                           const linalg::Vector& pi,
                                           const MixedRadixSpace& to);

}  // namespace wfms::markov

#endif  // WFMS_MARKOV_STATE_SPACE_H_
