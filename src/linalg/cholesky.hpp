// Cholesky factorisation for symmetric positive-definite systems.
//
// The normal-equation solves inside Algorithm 1 (Eq. 24) and the LRR
// Z-update are SPD by construction (Gram matrices plus lambda*I), so the
// solver pipeline prefers Cholesky.  When the factorisation fails (e.g.
// lambda == 0 with a rank-deficient factor) the solve does NOT silently
// fall back to a fresh LU factorisation any more: it first retries with a
// deterministic diagonal bump (the usual "jitter" fix for near-singular
// normal equations, scaled to the matrix), and only then pays for LU.
// Every failure/recovery/fallback is counted in SpdStats so a sweep that
// quietly degrades to the 4x-slower path is visible in diagnostics.
//
// There is one factor convention: an UPPER-triangular R with a = R^T R,
// produced by factor_spd / solve_spd_into / factor_spd_lanes and consumed
// by the solve_factored_spd family.  Every entry point works in
// caller-owned storage; only solve_spd_into's rare LU fallback allocates.
#pragma once

#include <cstdint>
#include <span>

#include "linalg/matrix.hpp"

namespace iup::linalg {

/// Factor an SPD matrix in place with the same deterministic diagonal-bump
/// retry policy as solve_spd_into (failures/recoveries counted in the
/// process-wide SpdStats).  `diag_scratch` must have length a.rows(); it
/// receives the original diagonal.  On true, `a` holds an opaque SPD
/// factor usable with solve_factored_spd (an UPPER-triangular R with
/// a = R^T R — on row-major storage every elimination and substitution
/// loop then runs over contiguous row suffixes, which is what lets the
/// SIMD kernel layer vectorise the whole solve path); on false, `a` is
/// restored to the symmetrised unbumped input so the caller can fall back
/// to LU.  This is the factor-once entry point for solvers whose normal
/// matrix is fixed across iterations (the LRR Z-update): factor here,
/// back-substitute per iteration.
bool factor_spd(Matrix& a, std::span<double> diag_scratch);

/// Allocation-free solve against a factor_spd / solve_spd_into factor: on
/// entry `bx` holds b, on exit the solution.
void solve_factored_spd(const Matrix& r, std::span<double> bx);

/// Multi-RHS variant of solve_factored_spd: `panel` is a row-major n x k
/// block whose COLUMNS are the k right-hand sides (panel(i, c) = b_c[i] on
/// entry, x_c[i] on exit), `dot_scratch` caller-owned scratch of length >=
/// k.  Guarantee: every column of the result is bit-identical to running
/// solve_factored_spd(r, that column) on its own — the forward elimination
/// streams the same per-element fused ops across the panel rows (IEEE
/// multiplication/FMA commute bitwise in their factor operands), and the
/// back substitution reduces each column through kernels::dot_panel, which
/// replays the active level's dot() reduction tree per column.  This is
/// the factor-once solve-many hot path of the mask-grouped sweep
/// (core/self_augmented.cpp): columns sharing an observation mask share Q,
/// so one factor_spd feeds one panel solve for the whole group.
void solve_factored_spd_multi(const Matrix& r, Matrix& panel,
                              std::span<double> dot_scratch);

/// Lane-batched first attempt of factor_spd + solve_factored_spd for
/// kernels::kLanes independent n x n systems at once.  `lanes` holds the
/// matrices interleaved — entry (i, k) of lane l at [(i * n + k) * kLanes
/// + l]; only the diagonal and the upper triangle are read — and is
/// overwritten with the lanes' upper factors.  Returns a bitmask with bit
/// l set when lane l factored; a lane whose pivot is <= 0 or non-finite
/// is left as garbage.  Every lane performs exactly the arithmetic of the
/// first cholesky attempt inside factor_spd on that lane's matrix (the
/// trailing updates through kernels::axpy_lanes), so a lane that factors
/// holds the bits factor_spd would produce.  There is no retry and
/// nothing is counted in SpdStats: a caller re-solves a failed lane
/// through solve_spd_into / factor_spd, which runs (and counts) the full
/// bump-and-LU ladder exactly as before.  Independent pivot chains are
/// what this buys: kLanes sqrt/div sequences overlap instead of waiting
/// on each other.
unsigned factor_spd_lanes(std::span<double> lanes, std::size_t n);

/// Solve kLanes systems against factor_spd_lanes factors: `bx` holds the
/// right-hand sides interleaved (entry i of lane l at [i * kLanes + l])
/// and receives the solutions.  Per lane bit-identical to
/// solve_factored_spd: the forward elimination uses kernels::axpy_lanes
/// and the back substitution kernels::dot_lanes, which replays the
/// level's dot() per lane.  Lanes that failed to factor yield garbage.
void solve_factored_spd_lanes(std::span<const double> factors,
                              std::span<double> bx, std::size_t n);

/// Allocation-free SPD solve for the sweep hot loop.  `a` is destroyed
/// (it ends up holding a Cholesky factor or retry scratch); on entry `bx`
/// holds b and on exit the solution.  `diag_scratch` must have length
/// a.rows() — it preserves the original diagonal across retries.
///
/// Failure policy (all deterministic, no RNG):
///   1. plain Cholesky;
///   2. two retries with the diagonal bumped by 1e-10 resp. 1e-6 times
///      the mean diagonal magnitude — the "jittered" lambda bump that
///      rescues nearly-PSD normal equations for a fraction of the cost of
///      a full LU solve;
///   3. LU with partial pivoting on the (symmetrised) original.
/// Every stage is counted in the process-wide SpdStats.
void solve_spd_into(Matrix& a, std::span<double> bx,
                    std::span<double> diag_scratch);

/// Diagnostic counters for the SPD solve path (process-wide, updated with
/// relaxed atomics — cheap enough to leave on in release builds).
struct SpdStats {
  std::uint64_t cholesky_failures = 0;  ///< initial factorisations failed
  std::uint64_t bump_recoveries = 0;    ///< rescued by the diagonal bump
  std::uint64_t lu_fallbacks = 0;       ///< paid for the full LU solve
};

/// Snapshot of the counters since process start / the last reset.
SpdStats spd_stats();
void reset_spd_stats();

}  // namespace iup::linalg
