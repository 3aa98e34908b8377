// Steady-state analysis of an ergodic CTMC (§5.2 of the paper): solving
// pi Q = 0 with sum(pi) = 1. Methods:
//  - kGaussSeidel: the paper's prescription — sweep pi_j = (sum_{i != j}
//    pi_i q_ij) / exit_rate_j with in-place updates and per-sweep
//    renormalization (classical Gauss-Seidel for Markov chains).
//  - kSor: the same sweep with over-relaxation; omega is either fixed
//    (options.sor_omega) or derived adaptively from the observed
//    Gauss-Seidel convergence rate.
//  - kPower: power iteration on the uniformized DTMC; robust for large
//    sparse chains where Gauss-Seidel may stall.
//  - kLu: exact dense solve of the transposed system with one equation
//    replaced by the normalization constraint; the reference for tests.
//  - kCascade (and kAuto, its alias): the degradation cascade — Gauss-
//    Seidel, then SOR with adaptive relaxation, then power iteration, then
//    dense LU, falling through on stall, divergence, or failed residual
//    validation, under a shared SolveBudget. Every rung's outcome is
//    recorded in SteadyStateResult::attempts.
#ifndef WFMS_MARKOV_STEADY_STATE_H_
#define WFMS_MARKOV_STEADY_STATE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/solve_diagnostics.h"
#include "common/thread_pool.h"
#include "linalg/vector.h"
#include "markov/ctmc.h"

namespace wfms::markov {

enum class SteadyStateMethod { kAuto, kGaussSeidel, kSor, kLu, kPower,
                               kCascade };

/// Human-readable method name, e.g. "gauss-seidel".
const char* SteadyStateMethodName(SteadyStateMethod method);

/// Lumping-based model reduction (see markov/lumping.h):
///  - kOff: never attempted — every solve is bit-identical to the direct
///    sparse path (the default, and the contract the regression suite
///    pins).
///  - kAuto: attempted once the chain reaches `lumping_min_states`; small
///    chains keep the direct path untouched.
///  - kOn: always attempted (used by tests and the bench harness).
/// A lumped solve returns the exact stationary vector of the full chain
/// (uniform within blocks, which exact lumpability guarantees) and is
/// residual-validated against the full generator; on any validation miss
/// the solver transparently falls back to the direct path.
enum class LumpingMode { kOff, kAuto, kOn };

/// Human-readable mode name: "off" | "auto" | "on".
const char* LumpingModeName(LumpingMode mode);

struct SteadyStateOptions {
  SteadyStateMethod method = SteadyStateMethod::kAuto;
  /// Per-rung iteration cap for the iterative methods (further bounded by
  /// `budget`, which is shared across cascade rungs).
  int max_iterations = 100000;
  double tolerance = 1e-13;
  /// SOR relaxation factor; 0 derives omega from the observed Gauss-Seidel
  /// convergence rate (cascade) or uses 1.5 (explicit kSor).
  double sor_omega = 0.0;
  /// Total budget (wall time + iterations) shared by all cascade rungs.
  /// The terminal LU rung is iteration-free and always attempted when the
  /// chain fits `max_dense_states`, even with the budget exhausted — the
  /// cascade's contract is an exact answer as last resort. Default:
  /// unlimited.
  SolveBudget budget;
  /// Largest chain the dense LU rung will accept; 0 disables LU entirely.
  size_t max_dense_states = 4096;
  /// Stall detection for the cascade's iterative rungs: every
  /// `stall_window` iterations the iterate change must have shrunk by
  /// `stall_decay`, else the rung is abandoned. 0 means "cascade default"
  /// (200) for kCascade/kAuto and "disabled" for the explicit methods,
  /// which keep their full iteration budget.
  int stall_window = 0;
  double stall_decay = 0.5;
  /// Optional warm start for the iterative methods (ignored by kLu): a
  /// non-owning pointer to an initial guess for pi. Used by the
  /// configuration search, where neighbor configurations differ by one
  /// replica and the parent's stationary vector — projected onto the new
  /// state space — is already close to the solution. The guess must stay
  /// alive for the duration of the solve; it is L1-normalized internally
  /// and silently ignored if its size mismatches the chain or its sum is
  /// not positive and finite.
  const linalg::Vector* initial_guess = nullptr;
  /// Model-reduction mode; see LumpingMode. kOff preserves bit-identical
  /// behavior for every chain.
  LumpingMode lumping = LumpingMode::kOff;
  /// kAuto attempts lumping only at or above this state count; kOn ignores
  /// it (always attempts), kOff never attempts.
  size_t lumping_min_states = 32768;
  /// Optional seed partition for the lumping pass: states with different
  /// labels are never merged, and refinement starts from this coarse guess
  /// instead of the one-block partition (see
  /// markov::ExchangeableStateLabels). Non-owning; must outlive the solve.
  /// Size must match the chain or the seed is an error.
  const std::vector<uint32_t>* lumping_seed = nullptr;
  /// Non-owning thread pool for the blocked SpMV kernels (power-iteration
  /// rung, residual validation) on chains at or above
  /// `large_chain_threshold`. When null, a transient pool is created for
  /// large chains; small chains always run the sequential kernels, which
  /// are bit-identical to the scalar reference.
  ThreadPool* pool = nullptr;
  /// At or above this state count the solve engages the large-chain paths:
  /// forward/backward alternating Gauss-Seidel sweeps, the matrix-free
  /// uniformized power rung (P = I + Q/lambda applied without building P),
  /// and pool-parallel kernels. These change floating-point rounding, so
  /// the threshold guarantees every pre-existing (small) solve stays
  /// bit-identical. Results above the threshold are still deterministic
  /// for a given chain regardless of lane count.
  size_t large_chain_threshold = 65536;
};

/// One rung of the degradation cascade and how it fared.
struct CascadeAttempt {
  SteadyStateMethod method = SteadyStateMethod::kGaussSeidel;
  SolveDiagnostics diagnostics;
};

struct SteadyStateResult {
  linalg::Vector pi;
  /// Total iterations consumed, summed across cascade rungs (0 for LU).
  int iterations = 0;
  /// True when the answer came from any rung after the first.
  bool used_fallback = false;
  /// The method that actually produced `pi`.
  SteadyStateMethod method_used = SteadyStateMethod::kGaussSeidel;
  /// Diagnostics of the successful solve.
  SolveDiagnostics diagnostics;
  /// Cascade only: every rung attempted, in order, including the winner.
  std::vector<CascadeAttempt> attempts;
  /// True when the answer came from a lumped (quotient) solve.
  bool lumping_applied = false;
  /// Quotient state count when lumping_applied (0 otherwise).
  size_t lumped_states = 0;
};

/// Computes the stationary distribution. The chain must be irreducible
/// (every state positive recurrent); reducible chains yield either a
/// numerical failure or a distribution with zero entries, which is reported
/// as an error.
Result<SteadyStateResult> SolveSteadyState(
    const Ctmc& chain, const SteadyStateOptions& options = {});

/// True when SolveSteadyState runs a lumping pass on a chain of
/// `num_states` states under `options`: kOn, or kAuto at or above
/// lumping_min_states (never on a single state).
bool LumpingPassRuns(const SteadyStateOptions& options, size_t num_states);

/// Counts a lumping pass its caller skips because the seed it would pass
/// gives every state a label of its own. Refinement only splits blocks,
/// so that seed is already the trivial partition: the pass counts as one
/// attempt ending trivial in wfms_markov_lumping_{attempts,trivial}_total
/// without refining or transposing anything.
void CountTrivialLumpingPass();

}  // namespace wfms::markov

#endif  // WFMS_MARKOV_STEADY_STATE_H_
