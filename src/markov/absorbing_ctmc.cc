#include "markov/absorbing_ctmc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <utility>

namespace wfms::markov {

using linalg::SparseMatrix;
using linalg::SparseMatrixBuilder;
using linalg::Vector;

namespace {

/// Breadth-first reachability over the nonzero entries of a CSR matrix.
std::vector<bool> ReachableFrom(const SparseMatrix& p, size_t start) {
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  std::vector<bool> seen(p.rows(), false);
  std::queue<size_t> queue;
  seen[start] = true;
  queue.push(start);
  while (!queue.empty()) {
    const size_t i = queue.front();
    queue.pop();
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (!seen[cols[k]]) {
        seen[cols[k]] = true;
        queue.push(cols[k]);
      }
    }
  }
  return seen;
}

/// Depth-first postorder of the transient states (edges into `absorbing`
/// are ignored), rooted at `initial` first and then at every unvisited
/// state in index order. Sets *acyclic to false on meeting a back edge.
std::vector<size_t> PostOrder(const SparseMatrix& p, size_t initial,
                              size_t absorbing, bool* acyclic) {
  const size_t n = p.rows();
  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  enum Mark : uint8_t { kNew, kOnStack, kDone };
  std::vector<uint8_t> mark(n, kNew);
  mark[absorbing] = kDone;
  std::vector<size_t> order;
  order.reserve(n - 1);
  // (state, next CSR entry to explore)
  std::vector<std::pair<size_t, size_t>> stack;
  *acyclic = true;
  auto visit = [&](size_t root) {
    if (mark[root] != kNew) return;
    mark[root] = kOnStack;
    stack.emplace_back(root, offsets[root]);
    while (!stack.empty()) {
      const size_t v = stack.back().first;
      const size_t k = stack.back().second;
      if (k == offsets[v + 1]) {
        mark[v] = kDone;
        order.push_back(v);
        stack.pop_back();
        continue;
      }
      ++stack.back().second;
      const size_t w = cols[k];
      if (mark[w] == kNew) {
        mark[w] = kOnStack;
        stack.emplace_back(w, offsets[w]);
      } else if (mark[w] == kOnStack) {
        *acyclic = false;
      }
    }
  };
  visit(initial);
  for (size_t i = 0; i < n; ++i) visit(i);
  return order;
}

}  // namespace

Result<AbsorbingCtmc> AbsorbingCtmc::Create(
    const SparseMatrix& p, Vector residence_times,
    std::vector<std::string> state_names, size_t initial_state,
    size_t absorbing_state) {
  const size_t n = p.rows();
  if (p.cols() != n) {
    return Status::InvalidArgument("transition matrix must be square");
  }
  if (residence_times.size() != n || state_names.size() != n) {
    return Status::InvalidArgument(
        "residence time / state name count must match matrix size");
  }
  if (initial_state >= n || absorbing_state >= n) {
    return Status::OutOfRange("initial or absorbing state out of range");
  }
  if (initial_state == absorbing_state) {
    return Status::InvalidArgument(
        "initial state must differ from the absorbing state");
  }

  const auto& offsets = p.row_offsets();
  const auto& cols = p.col_indices();
  const auto& values = p.values();
  SparseMatrixBuilder normalized(n, n);
  normalized.Reserve(p.num_nonzeros() + 1);
  for (size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    double self = 0.0;
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (values[k] < 0.0) {
        return Status::InvalidArgument("negative probability in row '" +
                                       state_names[i] + "'");
      }
      row_sum += values[k];
      if (cols[k] == i) self = values[k];
    }
    if (i == absorbing_state) {
      // Accept either an all-zero row or a pure self-loop; normalize to a
      // self-loop so the uniformized matrix is stochastic.
      const bool zero_row = row_sum == 0.0;
      const bool self_loop =
          std::fabs(self - 1.0) < 1e-9 && std::fabs(row_sum - 1.0) < 1e-9;
      if (!zero_row && !self_loop) {
        return Status::InvalidArgument(
            "absorbing state row must be zero or a self-loop");
      }
      normalized.Add(i, i, 1.0);
      continue;
    }
    if (self != 0.0) {
      return Status::InvalidArgument("jump chain must have p_ii = 0 (state '" +
                                     state_names[i] + "')");
    }
    if (std::fabs(row_sum - 1.0) > 1e-9) {
      return Status::InvalidArgument("row '" + state_names[i] + "' sums to " +
                                     std::to_string(row_sum) + ", expected 1");
    }
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      normalized.Add(i, cols[k], values[k] / row_sum);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (i == absorbing_state) {
      residence_times[i] = kInfiniteResidence;
      continue;
    }
    if (!(residence_times[i] > 0.0) || std::isinf(residence_times[i])) {
      return Status::InvalidArgument(
          "transient state '" + state_names[i] +
          "' must have a positive finite residence time");
    }
  }

  SparseMatrix jump = std::move(normalized).Build();
  // Every state reachable from the start must reach absorption; otherwise
  // turnaround times are infinite and the workflow never terminates.
  const std::vector<bool> from_start = ReachableFrom(jump, initial_state);
  if (!from_start[absorbing_state]) {
    return Status::InvalidArgument(
        "absorbing state unreachable from the initial state");
  }
  // Reverse reachability: states that can reach absorption.
  const std::vector<bool> reaches_absorbing =
      ReachableFrom(jump.Transposed(), absorbing_state);
  for (size_t i = 0; i < n; ++i) {
    if (from_start[i] && !reaches_absorbing[i]) {
      return Status::InvalidArgument("state '" + state_names[i] +
                                     "' cannot reach the absorbing state");
    }
  }

  bool acyclic = true;
  std::vector<size_t> order =
      PostOrder(jump, initial_state, absorbing_state, &acyclic);
  AbsorbingCtmc chain(std::move(jump), std::move(residence_times),
                      std::move(state_names), initial_state, absorbing_state);
  chain.solve_order_ = std::move(order);
  chain.acyclic_ = acyclic;
  return chain;
}

Result<size_t> AbsorbingCtmc::StateIndex(const std::string& name) const {
  for (size_t i = 0; i < state_names_.size(); ++i) {
    if (state_names_[i] == name) return i;
  }
  return Status::NotFound("no state named '" + name + "'");
}

double AbsorbingCtmc::DepartureRate(size_t i) const {
  if (i == absorbing_state_) return 0.0;
  return 1.0 / h_[i];
}

double AbsorbingCtmc::UniformizationRate() const {
  double v = 0.0;
  for (size_t i = 0; i < num_states(); ++i) {
    v = std::max(v, DepartureRate(i));
  }
  return v;
}

double AbsorbingCtmc::TransitionRate(size_t i, size_t j) const {
  return DepartureRate(i) * p_.At(i, j);
}

SparseMatrix AbsorbingCtmc::Generator() const {
  const size_t n = num_states();
  const auto& offsets = p_.row_offsets();
  const auto& cols = p_.col_indices();
  const auto& values = p_.values();
  SparseMatrixBuilder q(n, n);
  q.Reserve(p_.num_nonzeros() + n);
  for (size_t i = 0; i < n; ++i) {
    if (i == absorbing_state_) continue;  // zero row
    const double vi = DepartureRate(i);
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      q.Add(i, cols[k], vi * values[k]);
    }
    q.Add(i, i, -vi);
  }
  return std::move(q).Build();
}

SparseMatrix AbsorbingCtmc::UniformizedTransitionMatrix() const {
  const size_t n = num_states();
  const double v = UniformizationRate();
  const auto& offsets = p_.row_offsets();
  const auto& cols = p_.col_indices();
  const auto& values = p_.values();
  SparseMatrixBuilder u(n, n);
  u.Reserve(p_.num_nonzeros() + n);
  for (size_t i = 0; i < n; ++i) {
    if (i == absorbing_state_) {
      u.Add(i, i, 1.0);
      continue;
    }
    const double ratio = DepartureRate(i) / v;
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      u.Add(i, cols[k], ratio * values[k]);
    }
    u.Add(i, i, 1.0 - ratio);
  }
  return std::move(u).Build();
}

}  // namespace wfms::markov
