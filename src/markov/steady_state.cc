#include "markov/steady_state.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/dense_matrix.h"
#include "linalg/iterative_solver.h"
#include "linalg/lu_solver.h"
#include "linalg/spmv.h"
#include "markov/lumping.h"

namespace wfms::markov {

using linalg::DenseMatrix;
using linalg::SparseMatrix;
using linalg::Vector;

namespace {

constexpr int kDefaultCascadeStallWindow = 200;

/// Initial iterate for the iterative methods: the caller's warm-start
/// guess when it is usable (right size, positive finite mass), else the
/// uniform distribution.
Vector InitialIterate(const Ctmc& chain, const SteadyStateOptions& options) {
  const size_t n = chain.num_states();
  if (options.initial_guess != nullptr &&
      options.initial_guess->size() == n) {
    double sum = 0.0;
    bool nonnegative = true;
    for (double v : *options.initial_guess) {
      if (v < 0.0) {
        nonnegative = false;
        break;
      }
      sum += v;
    }
    if (nonnegative && sum > 0.0 && std::isfinite(sum)) {
      Vector pi = *options.initial_guess;
      linalg::Scale(1.0 / sum, &pi);
      return pi;
    }
  }
  return Vector(n, 1.0 / static_cast<double>(n));
}

/// Residual check: max_j |(pi Q)_j| must be small relative to the rates.
/// `pool` (nullable) parallelizes the inflow scatter on large chains; the
/// sequential path is bit-identical to the historical implementation.
Status ValidateSolution(const Ctmc& chain, const Vector& pi,
                        double tolerance, ThreadPool* pool = nullptr,
                        linalg::SpmvWorkspace* workspace = nullptr) {
  double min_entry = 1.0;
  for (double v : pi) min_entry = std::min(min_entry, v);
  if (min_entry < -1e-9) {
    return Status::NumericError(
        "steady-state vector has negative entries; chain may be reducible");
  }
  // (pi Q)_j = sum_{i != j} pi_i q_ij - pi_j * exit_j.
  Vector inflow;
  linalg::BlockedMultiplyTransposed(chain.rates(), pi, &inflow, workspace,
                                    pool);
  const double scale = std::max(chain.MaxExitRate(), 1.0);
  for (size_t j = 0; j < pi.size(); ++j) {
    const double residual = inflow[j] - pi[j] * chain.exit_rates()[j];
    if (std::fabs(residual) > tolerance * scale * 1e3) {
      return Status::NumericError("steady-state residual too large at state " +
                                  std::to_string(j));
    }
  }
  return Status::OK();
}

Status CheckErgodicExitRates(const Ctmc& chain) {
  for (size_t j = 0; j < chain.num_states(); ++j) {
    if (chain.exit_rates()[j] <= 0.0) {
      return Status::InvalidArgument(
          "state " + std::to_string(j) +
          " has zero exit rate; chain is not ergodic");
    }
  }
  return Status::OK();
}

Result<SteadyStateResult> SolveLu(const Ctmc& chain,
                                  const SteadyStateOptions& options) {
  const size_t n = chain.num_states();
  const auto start = std::chrono::steady_clock::now();
  // A x = b with A = Q^T except the last row is the normalization
  // constraint sum(pi) = 1.
  DenseMatrix a(n, n);
  const auto& offsets = chain.rates().row_offsets();
  const auto& cols = chain.rates().col_indices();
  const auto& values = chain.rates().values();
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const size_t j = cols[k];
      if (j != n - 1) a.At(j, i) += values[k];
    }
    if (i != n - 1) a.At(i, i) -= chain.exit_rates()[i];
  }
  for (size_t i = 0; i < n; ++i) a.At(n - 1, i) = 1.0;
  Vector b(n, 0.0);
  b[n - 1] = 1.0;

  auto solved = linalg::LuSolve(a, b);
  if (!solved.ok()) {
    return solved.status().WithContext(
        "steady-state direct solve (is the chain irreducible?)");
  }
  SteadyStateResult result;
  result.pi = *std::move(solved);
  WFMS_RETURN_NOT_OK(ValidateSolution(chain, result.pi, options.tolerance));
  result.method_used = SteadyStateMethod::kLu;
  result.diagnostics.converged = true;
  result.diagnostics.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

/// Outcome of one Markov sweep run (Gauss-Seidel when omega == 1, SOR
/// otherwise). Numerical trouble is data in `diag`; only structural
/// problems surface as Status errors (checked by the caller beforehand).
struct SweepOutcome {
  SolveDiagnostics diag;
  /// Observed per-iteration contraction of the iterate change near the end
  /// of the run (0 when fewer than two iterations ran); feeds the adaptive
  /// SOR omega.
  double observed_rate = 0.0;
};

/// Runs the renormalized Markov sweep pi_j <- (1-omega) pi_j +
/// omega * inflow_j / exit_j on `pi` in place. `incoming` is the
/// transposed rate matrix (incoming rates of j on row j). The per-state
/// inflow accumulation goes through the shared CSR row kernel
/// (linalg::CsrRowDot), which is bit-identical to the naive loop.
///
/// `alternate_directions` (the large-chain locality mode) runs every even
/// iteration as a *backward* sweep: the sweep revisits the row tail the
/// forward pass just touched while it is still cache-resident, and the
/// symmetric-Gauss-Seidel-style alternation also damps the one-directional
/// error transport of pure forward sweeps. It changes iterate rounding, so
/// callers enable it only at or above the large-chain threshold.
SweepOutcome MarkovSweep(const Ctmc& chain, const SparseMatrix& incoming,
                         Vector* pi, double omega, int max_iterations,
                         double tolerance, int stall_window,
                         double stall_decay, double max_wall_seconds,
                         bool alternate_directions = false) {
  const size_t n = chain.num_states();
  const auto& offsets = incoming.row_offsets();
  const auto& cols = incoming.col_indices();
  const auto& values = incoming.values();
  const double* exit_rates = chain.exit_rates().data();
  const auto start = std::chrono::steady_clock::now();
  const int check_every = stall_window > 0 ? stall_window : 64;

  SweepOutcome out;
  Vector prev(n);  // scratch, reused across sweeps
  double prev_change = 0.0;
  double checkpoint_change = 0.0;
  bool have_checkpoint = false;
  for (int iter = 1; iter <= max_iterations; ++iter) {
    prev = *pi;
    double* p = pi->data();
    const bool backward = alternate_directions && iter % 2 == 0;
    if (backward) {
      for (size_t j = n; j-- > 0;) {
        const double inflow = linalg::CsrRowDot(
            values.data(), cols.data(), offsets[j], offsets[j + 1], p);
        const double gs_value = inflow / exit_rates[j];
        p[j] += omega * (gs_value - p[j]);
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        const double inflow = linalg::CsrRowDot(
            values.data(), cols.data(), offsets[j], offsets[j + 1], p);
        const double gs_value = inflow / exit_rates[j];
        p[j] += omega * (gs_value - p[j]);
      }
    }
    const double sum = linalg::Sum(*pi);
    out.diag.iterations = iter;
    if (!(sum > 0.0) || !std::isfinite(sum)) {
      out.diag.diverged = true;
      break;
    }
    linalg::Scale(1.0 / sum, pi);
    const double change = linalg::MaxAbsDiff(*pi, prev);
    out.diag.final_residual = change;
    if (!std::isfinite(change)) {
      out.diag.diverged = true;
      break;
    }
    if (prev_change > 0.0 && change > 0.0) {
      out.observed_rate = change / prev_change;
    }
    prev_change = change;
    if (change < tolerance) {
      out.diag.converged = true;
      break;
    }
    if (iter % check_every == 0) {
      WFMS_LOG_EVERY_N(Debug, 16)
          << "markov sweep: iter " << iter << " omega " << omega
          << " change " << change;
      if (stall_window > 0) {
        if (have_checkpoint && !(change < stall_decay * checkpoint_change)) {
          out.diag.stalled = true;
          break;
        }
        checkpoint_change = change;
        have_checkpoint = true;
      }
      if (max_wall_seconds > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
                  .count() >= max_wall_seconds) {
        break;
      }
    }
  }
  out.diag.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

/// SOR relaxation factor from the observed Gauss-Seidel contraction rate
/// rho: the classical optimum 2 / (1 + sqrt(1 - rho)), clamped away from
/// the (0, 2) stability boundary. Falls back to 1.5 without a usable rate.
double AdaptiveOmega(double observed_rate) {
  if (!(observed_rate > 0.0) || observed_rate >= 1.0 ||
      !std::isfinite(observed_rate)) {
    return 1.5;
  }
  const double omega = 2.0 / (1.0 + std::sqrt(1.0 - observed_rate));
  return std::min(1.95, std::max(1.05, omega));
}

/// Power-iteration rung on the uniformized DTMC. Numerical trouble is
/// reported in the diagnostics; Status is reserved for structural errors.
Result<SolveDiagnostics> PowerRung(const Ctmc& chain, Vector* pi,
                                   int max_iterations, double tolerance,
                                   int stall_window, double stall_decay,
                                   double max_wall_seconds) {
  linalg::IterativeOptions opts;
  opts.max_iterations = max_iterations;
  opts.tolerance = tolerance;
  opts.stall_window = stall_window;
  opts.stall_decay = stall_decay;
  opts.max_wall_time_seconds = max_wall_seconds;
  WFMS_ASSIGN_OR_RETURN(
      linalg::IterativeStats stats,
      linalg::PowerIterationStationary(chain.UniformizedMatrix(), pi, opts));
  return stats;
}

/// Matrix-free variant of the power rung for large chains: applies
/// pi P = pi + (pi Q) / lambda directly from the generator's off-diagonal
/// CSR and exit rates — P = I + Q/lambda is never materialized, saving a
/// full copy of the generator (hundreds of MB at 10^6 states). The inflow
/// scatter runs on the blocked kernels, pool-parallel when one is
/// supplied; results are deterministic for a given chain independent of
/// the lane count (fixed panel decomposition, see linalg/spmv.h).
SolveDiagnostics MatrixFreePowerRung(const Ctmc& chain, Vector* pi,
                                     int max_iterations, double tolerance,
                                     int stall_window, double stall_decay,
                                     double max_wall_seconds,
                                     ThreadPool* pool,
                                     linalg::SpmvWorkspace* workspace) {
  const size_t n = chain.num_states();
  // Same lambda as Ctmc::UniformizedMatrix's default: a 5% margin keeps
  // every self-loop probability positive, guaranteeing aperiodicity.
  const double lambda = chain.UniformizationRate();
  const double* exit_rates = chain.exit_rates().data();
  const auto start = std::chrono::steady_clock::now();
  const int check_every = stall_window > 0 ? stall_window : 64;

  SolveDiagnostics diag;
  linalg::NormalizeL1(pi);
  Vector inflow;
  double checkpoint_change = 0.0;
  bool have_checkpoint = false;
  for (int iter = 1; iter <= max_iterations; ++iter) {
    linalg::BlockedMultiplyTransposed(chain.rates(), *pi, &inflow, workspace,
                                      pool);
    double sum = 0.0;
    double* next = inflow.data();
    const double* p = pi->data();
    for (size_t j = 0; j < n; ++j) {
      next[j] = p[j] + (next[j] - p[j] * exit_rates[j]) / lambda;
      sum += next[j];
    }
    diag.iterations = iter;
    if (!(sum > 0.0) || !std::isfinite(sum)) {
      diag.diverged = true;
      break;
    }
    double change = 0.0;
    const double inv = 1.0 / sum;
    for (size_t j = 0; j < n; ++j) {
      next[j] *= inv;
      change = std::max(change, std::fabs(next[j] - p[j]));
    }
    pi->swap(inflow);
    diag.final_residual = change;
    if (!std::isfinite(change)) {
      diag.diverged = true;
      break;
    }
    if (change < tolerance) {
      diag.converged = true;
      break;
    }
    if (iter % check_every == 0) {
      if (stall_window > 0) {
        if (have_checkpoint && !(change < stall_decay * checkpoint_change)) {
          diag.stalled = true;
          break;
        }
        checkpoint_change = change;
        have_checkpoint = true;
      }
      if (max_wall_seconds > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
                  .count() >= max_wall_seconds) {
        break;
      }
    }
  }
  diag.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return diag;
}

/// True when the chain is large enough to engage the locality / parallel
/// paths (alternating sweeps, matrix-free power, pooled kernels). Below
/// the threshold everything runs the exact legacy code path.
bool LargeChain(const Ctmc& chain, const SteadyStateOptions& options) {
  return chain.num_states() >= options.large_chain_threshold;
}

Result<SteadyStateResult> SolveGaussSeidel(const Ctmc& chain,
                                           const SteadyStateOptions& options,
                                           double omega,
                                           SteadyStateMethod method) {
  WFMS_RETURN_NOT_OK(CheckErgodicExitRates(chain));
  const bool large = LargeChain(chain, options);
  ThreadPool* pool = large ? options.pool : nullptr;
  linalg::SpmvWorkspace workspace;
  const SparseMatrix incoming = chain.rates().Transposed();
  Vector pi = InitialIterate(chain, options);
  BudgetTracker tracker(options.budget);
  SweepOutcome out = MarkovSweep(
      chain, incoming, &pi, omega,
      tracker.RemainingIterations(options.max_iterations), options.tolerance,
      options.stall_window, options.stall_decay, tracker.RemainingSeconds(),
      /*alternate_directions=*/large);
  if (out.diag.diverged) {
    return Status::NumericError(
        std::string(SteadyStateMethodName(method)) +
        " steady state diverged");
  }
  if (!out.diag.converged) {
    return Status::NumericError(
        std::string(SteadyStateMethodName(method)) +
        " steady state did not converge: " + out.diag.ToString());
  }
  SteadyStateResult result;
  result.pi = std::move(pi);
  WFMS_RETURN_NOT_OK(ValidateSolution(chain, result.pi, options.tolerance,
                                      pool, &workspace));
  result.iterations = out.diag.iterations;
  result.method_used = method;
  result.diagnostics = out.diag;
  return result;
}

Result<SteadyStateResult> SolvePower(const Ctmc& chain,
                                     const SteadyStateOptions& options) {
  const bool large = LargeChain(chain, options);
  ThreadPool* pool = large ? options.pool : nullptr;
  linalg::SpmvWorkspace workspace;
  SteadyStateResult result;
  result.pi = InitialIterate(chain, options);
  BudgetTracker tracker(options.budget);
  SolveDiagnostics diag;
  if (large) {
    diag = MatrixFreePowerRung(
        chain, &result.pi, tracker.RemainingIterations(options.max_iterations),
        options.tolerance, options.stall_window, options.stall_decay,
        tracker.RemainingSeconds(), pool, &workspace);
  } else {
    WFMS_ASSIGN_OR_RETURN(
        diag,
        PowerRung(chain, &result.pi,
                  tracker.RemainingIterations(options.max_iterations),
                  options.tolerance, options.stall_window, options.stall_decay,
                  tracker.RemainingSeconds()));
  }
  if (!diag.converged) {
    return Status::NumericError("power iteration did not converge: " +
                                diag.ToString());
  }
  result.iterations = diag.iterations;
  result.method_used = SteadyStateMethod::kPower;
  result.diagnostics = diag;
  WFMS_RETURN_NOT_OK(ValidateSolution(chain, result.pi, options.tolerance,
                                      pool, &workspace));
  return result;
}

/// The degradation cascade: Gauss-Seidel -> SOR (adaptive omega) -> power
/// iteration -> dense LU, under a shared budget. A rung "fails" on stall,
/// divergence, iteration/wall exhaustion, or a residual-validation miss;
/// the next rung then runs with whatever budget remains. The LU rung is
/// iteration-free and is attempted regardless of the remaining budget as
/// long as the chain fits options.max_dense_states.
Result<SteadyStateResult> SolveCascade(const Ctmc& chain,
                                       const SteadyStateOptions& options) {
  WFMS_RETURN_NOT_OK(CheckErgodicExitRates(chain));
  const int stall_window = options.stall_window > 0
                               ? options.stall_window
                               : kDefaultCascadeStallWindow;
  const bool large = LargeChain(chain, options);
  ThreadPool* pool = large ? options.pool : nullptr;
  linalg::SpmvWorkspace workspace;
  BudgetTracker tracker(options.budget);
  SteadyStateResult result;
  const SparseMatrix incoming = chain.rates().Transposed();
  Vector pi = InitialIterate(chain, options);
  const Vector initial = pi;  // for restarting after a diverged rung

  auto finish = [&](SteadyStateMethod method, const SolveDiagnostics& diag,
                    Vector solution) -> Result<SteadyStateResult> {
    result.pi = std::move(solution);
    result.method_used = method;
    result.diagnostics = diag;
    result.iterations = static_cast<int>(tracker.consumed_iterations());
    result.used_fallback = method != SteadyStateMethod::kGaussSeidel;
    return std::move(result);
  };

  // Rung 1: Gauss-Seidel (the paper's method — almost always wins).
  double observed_rate = 0.0;
  {
    const int cap = tracker.RemainingIterations(options.max_iterations);
    if (cap > 0) {
      SweepOutcome out = MarkovSweep(chain, incoming, &pi, 1.0, cap,
                                     options.tolerance, stall_window,
                                     options.stall_decay,
                                     tracker.RemainingSeconds(),
                                     /*alternate_directions=*/large);
      tracker.Charge(out.diag.iterations);
      observed_rate = out.observed_rate;
      result.attempts.push_back({SteadyStateMethod::kGaussSeidel, out.diag});
      if (out.diag.converged &&
          ValidateSolution(chain, pi, options.tolerance, pool, &workspace)
              .ok()) {
        return finish(SteadyStateMethod::kGaussSeidel, out.diag,
                      std::move(pi));
      }
      if (out.diag.diverged) pi = initial;
    }
  }

  // Rung 2: SOR, omega from the observed Gauss-Seidel contraction rate.
  // Warm-started from the stalled Gauss-Seidel iterate (still a valid
  // distribution after renormalization).
  {
    const int cap = tracker.RemainingIterations(options.max_iterations);
    if (cap > 0) {
      const double omega = options.sor_omega > 0.0 ? options.sor_omega
                                                   : AdaptiveOmega(
                                                         observed_rate);
      SweepOutcome out = MarkovSweep(chain, incoming, &pi, omega, cap,
                                     options.tolerance, stall_window,
                                     options.stall_decay,
                                     tracker.RemainingSeconds(),
                                     /*alternate_directions=*/large);
      tracker.Charge(out.diag.iterations);
      result.attempts.push_back({SteadyStateMethod::kSor, out.diag});
      if (out.diag.converged &&
          ValidateSolution(chain, pi, options.tolerance, pool, &workspace)
              .ok()) {
        return finish(SteadyStateMethod::kSor, out.diag, std::move(pi));
      }
      if (out.diag.diverged) pi = initial;
    }
  }

  // Rung 3: power iteration on the uniformized chain — unconditionally
  // stable, so it recovers from over-relaxation blow-ups.
  {
    const int cap = tracker.RemainingIterations(options.max_iterations);
    if (cap > 0) {
      SolveDiagnostics diag;
      if (large) {
        // Matrix-free uniformized power: never builds P = I + Q/lambda,
        // which would double the generator's footprint at this size.
        diag = MatrixFreePowerRung(chain, &pi, cap, options.tolerance,
                                   stall_window, options.stall_decay,
                                   tracker.RemainingSeconds(), pool,
                                   &workspace);
      } else {
        auto rung = PowerRung(chain, &pi, cap, options.tolerance, stall_window,
                              options.stall_decay, tracker.RemainingSeconds());
        WFMS_RETURN_NOT_OK(rung.status());
        diag = *rung;
      }
      tracker.Charge(diag.iterations);
      result.attempts.push_back({SteadyStateMethod::kPower, diag});
      if (diag.converged &&
          ValidateSolution(chain, pi, options.tolerance, pool, &workspace)
              .ok()) {
        return finish(SteadyStateMethod::kPower, diag, std::move(pi));
      }
      if (diag.diverged) pi = initial;
    }
  }

  // Rung 4: dense LU — exact, iteration-free, the terminal answer.
  if (options.max_dense_states > 0 &&
      chain.num_states() <= options.max_dense_states) {
    auto lu = SolveLu(chain, options);
    if (lu.ok()) {
      result.attempts.push_back({SteadyStateMethod::kLu, lu->diagnostics});
      return finish(SteadyStateMethod::kLu, lu->diagnostics,
                    std::move(lu->pi));
    }
    return lu.status().WithContext("steady-state cascade: terminal LU rung");
  }

  std::string summary = "steady-state cascade exhausted (";
  for (size_t i = 0; i < result.attempts.size(); ++i) {
    if (i > 0) summary += "; ";
    summary += SteadyStateMethodName(result.attempts[i].method);
    summary += ": ";
    summary += result.attempts[i].diagnostics.ToString();
  }
  summary += result.attempts.empty() ? "budget exhausted before any rung"
                                     : "";
  summary += ") and the chain (" + std::to_string(chain.num_states()) +
             " states) exceeds the dense-LU cap of " +
             std::to_string(options.max_dense_states);
  return Status::NumericError(summary);
}

// Per-rung attempt/win counters, keyed by the method that ran. Handles are
// resolved once; recording a solve is then pure atomic adds.
metrics::Counter& RungAttempts(SteadyStateMethod method) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& gs =
      registry.GetCounter("wfms_markov_rung_gauss_seidel_attempts_total");
  static metrics::Counter& sor =
      registry.GetCounter("wfms_markov_rung_sor_attempts_total");
  static metrics::Counter& power =
      registry.GetCounter("wfms_markov_rung_power_attempts_total");
  static metrics::Counter& lu =
      registry.GetCounter("wfms_markov_rung_lu_attempts_total");
  static metrics::Counter& other =
      registry.GetCounter("wfms_markov_rung_other_attempts_total");
  switch (method) {
    case SteadyStateMethod::kGaussSeidel:
      return gs;
    case SteadyStateMethod::kSor:
      return sor;
    case SteadyStateMethod::kPower:
      return power;
    case SteadyStateMethod::kLu:
      return lu;
    default:
      return other;
  }
}

metrics::Counter& RungWins(SteadyStateMethod method) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& gs =
      registry.GetCounter("wfms_markov_rung_gauss_seidel_wins_total");
  static metrics::Counter& sor =
      registry.GetCounter("wfms_markov_rung_sor_wins_total");
  static metrics::Counter& power =
      registry.GetCounter("wfms_markov_rung_power_wins_total");
  static metrics::Counter& lu =
      registry.GetCounter("wfms_markov_rung_lu_wins_total");
  static metrics::Counter& other =
      registry.GetCounter("wfms_markov_rung_other_wins_total");
  switch (method) {
    case SteadyStateMethod::kGaussSeidel:
      return gs;
    case SteadyStateMethod::kSor:
      return sor;
    case SteadyStateMethod::kPower:
      return power;
    case SteadyStateMethod::kLu:
      return lu;
    default:
      return other;
  }
}

/// Per-size solve-time histogram: one stream per decade of state count, so
/// the registry separates "many fast small solves" from "a few big ones"
/// (the bench harness reads these to spot large-chain regressions).
metrics::Histogram& SolveSecondsBySize(size_t num_states) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Histogram& le_1k =
      registry.GetHistogram("wfms_markov_steady_solve_seconds_le_1k");
  static metrics::Histogram& le_10k =
      registry.GetHistogram("wfms_markov_steady_solve_seconds_le_10k");
  static metrics::Histogram& le_100k =
      registry.GetHistogram("wfms_markov_steady_solve_seconds_le_100k");
  static metrics::Histogram& le_1m =
      registry.GetHistogram("wfms_markov_steady_solve_seconds_le_1m");
  static metrics::Histogram& gt_1m =
      registry.GetHistogram("wfms_markov_steady_solve_seconds_gt_1m");
  if (num_states <= 1000) return le_1k;
  if (num_states <= 10000) return le_10k;
  if (num_states <= 100000) return le_100k;
  if (num_states <= 1000000) return le_1m;
  return gt_1m;
}

// Solve-level metrics, observed once per SolveSteadyState call (never per
// iteration — see DESIGN.md §8 on instrumentation granularity).
void RecordSolveMetrics(const Result<SteadyStateResult>& result,
                        size_t num_states, double wall_seconds) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& solves =
      registry.GetCounter("wfms_markov_steady_solves_total");
  static metrics::Counter& failures =
      registry.GetCounter("wfms_markov_steady_failures_total");
  static metrics::Counter& fallbacks =
      registry.GetCounter("wfms_markov_steady_fallbacks_total");
  static metrics::Counter& iterations =
      registry.GetCounter("wfms_markov_steady_iterations_total");
  static metrics::Histogram& solve_seconds =
      registry.GetHistogram("wfms_markov_steady_solve_seconds");
  static metrics::Histogram& residual =
      registry.GetHistogram("wfms_markov_steady_residual");

  solves.Increment();
  solve_seconds.Observe(wall_seconds);
  SolveSecondsBySize(num_states).Observe(wall_seconds);
  if (!result.ok()) {
    failures.Increment();
    return;
  }
  if (result->iterations > 0) {
    iterations.Increment(static_cast<uint64_t>(result->iterations));
  }
  if (result->used_fallback) fallbacks.Increment();
  residual.Observe(result->diagnostics.final_residual);
  if (result->attempts.empty()) {
    RungAttempts(result->method_used).Increment();
  } else {
    for (const auto& attempt : result->attempts) {
      RungAttempts(attempt.method).Increment();
    }
  }
  RungWins(result->method_used).Increment();
}

/// Direct (non-lumped) dispatch on the selected method.
Result<SteadyStateResult> SolveDirect(const Ctmc& chain,
                                      const SteadyStateOptions& options) {
  switch (options.method) {
    case SteadyStateMethod::kLu:
      return SolveLu(chain, options);
    case SteadyStateMethod::kGaussSeidel:
      return SolveGaussSeidel(chain, options, 1.0,
                              SteadyStateMethod::kGaussSeidel);
    case SteadyStateMethod::kSor:
      return SolveGaussSeidel(
          chain, options,
          options.sor_omega > 0.0 ? options.sor_omega : 1.5,
          SteadyStateMethod::kSor);
    case SteadyStateMethod::kPower:
      return SolvePower(chain, options);
    case SteadyStateMethod::kAuto:
    case SteadyStateMethod::kCascade:
      return SolveCascade(chain, options);
  }
  return Status::Internal("unknown steady-state method");
}

/// Lumping pre-pass: refine a lumpable partition, solve the quotient, and
/// expand uniformly. Any miss — trivial partition, refinement error, failed
/// quotient solve, or a full-chain residual that does not validate —
/// returns nullopt and the caller falls through to the direct path, so
/// lumping can degrade performance-wise but never correctness-wise.
std::optional<SteadyStateResult> TrySolveLumped(
    const Ctmc& chain, const SteadyStateOptions& options) {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& attempts =
      registry.GetCounter("wfms_markov_lumping_attempts_total");
  static metrics::Counter& wins =
      registry.GetCounter("wfms_markov_lumping_wins_total");
  static metrics::Counter& trivial =
      registry.GetCounter("wfms_markov_lumping_trivial_total");
  static metrics::Counter& rejected =
      registry.GetCounter("wfms_markov_lumping_rejected_total");
  static metrics::Histogram& ratio =
      registry.GetHistogram("wfms_markov_lumping_reduction_ratio");

  trace::TraceSpan span("markov/lumping", "markov", options.budget.trace);
  attempts.Increment();
  const SparseMatrix incoming = chain.rates().Transposed();
  LumpingOptions lump_options;
  lump_options.seed_labels = options.lumping_seed;
  auto partition = FindLumpablePartition(chain, incoming, lump_options);
  if (!partition.ok()) {
    WFMS_LOG(Warning) << "lumping pass failed, solving the full chain: "
                   << partition.status().ToString();
    rejected.Increment();
    return std::nullopt;
  }
  if (partition->trivial()) {
    trivial.Increment();
    return std::nullopt;
  }
  auto quotient = BuildQuotient(chain, *partition);
  if (!quotient.ok()) {
    rejected.Increment();
    return std::nullopt;
  }

  SteadyStateOptions sub = options;
  sub.lumping = LumpingMode::kOff;
  sub.lumping_seed = nullptr;
  Vector restricted;
  if (options.initial_guess != nullptr &&
      options.initial_guess->size() == chain.num_states()) {
    restricted = RestrictToQuotient(*partition, *options.initial_guess);
    sub.initial_guess = &restricted;
  } else {
    sub.initial_guess = nullptr;
  }
  auto solved = SolveDirect(*quotient, sub);
  if (!solved.ok()) {
    rejected.Increment();
    return std::nullopt;
  }

  Vector full = ExpandUniform(*partition, solved->pi);
  linalg::SpmvWorkspace workspace;
  ThreadPool* pool = LargeChain(chain, options) ? options.pool : nullptr;
  if (!ValidateSolution(chain, full, options.tolerance, pool, &workspace)
           .ok()) {
    rejected.Increment();
    return std::nullopt;
  }
  wins.Increment();
  ratio.Observe(partition->reduction_ratio());
  SteadyStateResult result = *std::move(solved);
  result.pi = std::move(full);
  result.lumping_applied = true;
  result.lumped_states = partition->num_blocks();
  return result;
}

}  // namespace

const char* SteadyStateMethodName(SteadyStateMethod method) {
  switch (method) {
    case SteadyStateMethod::kAuto:
      return "auto";
    case SteadyStateMethod::kGaussSeidel:
      return "gauss-seidel";
    case SteadyStateMethod::kSor:
      return "sor";
    case SteadyStateMethod::kLu:
      return "lu";
    case SteadyStateMethod::kPower:
      return "power";
    case SteadyStateMethod::kCascade:
      return "cascade";
  }
  return "unknown";
}

const char* LumpingModeName(LumpingMode mode) {
  switch (mode) {
    case LumpingMode::kOff:
      return "off";
    case LumpingMode::kAuto:
      return "auto";
    case LumpingMode::kOn:
      return "on";
  }
  return "unknown";
}

bool LumpingPassRuns(const SteadyStateOptions& options, size_t num_states) {
  const bool enabled =
      options.lumping == LumpingMode::kOn ||
      (options.lumping == LumpingMode::kAuto &&
       num_states >= options.lumping_min_states);
  return enabled && num_states > 1;
}

void CountTrivialLumpingPass() {
  auto& registry = metrics::MetricsRegistry::Global();
  static metrics::Counter& attempts =
      registry.GetCounter("wfms_markov_lumping_attempts_total");
  static metrics::Counter& trivial =
      registry.GetCounter("wfms_markov_lumping_trivial_total");
  attempts.Increment();
  trivial.Increment();
}

Result<SteadyStateResult> SolveSteadyState(const Ctmc& chain,
                                           const SteadyStateOptions& options) {
  trace::TraceSpan span("markov/steady_state", "markov",
                        options.budget.trace);
  const auto start = std::chrono::steady_clock::now();
  const size_t n = chain.num_states();

  // Large chains get a transient pool when the caller did not supply one;
  // small chains never touch a pool (the sequential kernels are
  // bit-identical to the historical scalar path).
  SteadyStateOptions opts = options;
  // Children (the lumping pass, nested solves on the quotient chain)
  // attach under this span rather than beside it.
  opts.budget.trace = span.context();
  std::unique_ptr<ThreadPool> transient_pool;
  if (opts.pool == nullptr && n >= opts.large_chain_threshold) {
    transient_pool =
        std::make_unique<ThreadPool>(ThreadPool::DefaultThreadCount());
    opts.pool = transient_pool.get();
  }

  Result<SteadyStateResult> result = [&]() -> Result<SteadyStateResult> {
    if (LumpingPassRuns(opts, n)) {
      if (auto lumped = TrySolveLumped(chain, opts)) {
        return *std::move(lumped);
      }
    }
    return SolveDirect(chain, opts);
  }();
  RecordSolveMetrics(
      result, n,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

}  // namespace wfms::markov
