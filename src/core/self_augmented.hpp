// Self-augmented RSVD — Eq. 18 and Algorithm 1 of the paper.
//
// Objective (weights shown where our implementation generalises the paper):
//
//   min  lambda (||L||_F^2 + ||R||_F^2)            regularisation
//      + ||B o (L R^T) - X_B||_F^2                 no-decrease data term
//      + w1 ||L R^T - X_R Z||_F^2                  Constraint 1 (correlation)
//      + w2 ||X_D * G||_F^2 + w3 ||H * X_D||_F^2   Constraint 2 (continuity /
//                                                  adjacent-link similarity)
//
// solved by alternating per-column (R-update) and per-row (L-update) ridge
// systems in closed form, exactly the structure of the published MyInverse
// routine (Eq. 24).  Two published index bugs are repaired and documented
// in self_augmented.cpp; the ablation bench compares the literal and the
// repaired (Gauss-Seidel) treatment of Constraint 2.
//
// Performance: the per-column and per-row solves are independent, so the
// sweep fans out over RsvdOptions::threads via iup::parallel with
// bit-identical results for any thread count (each index owns its output
// row; no reduction is reordered).  All sweep scratch lives in a
// SweepContext of caller-owned buffers, so steady-state iterations perform
// zero heap allocations.
//
// Mask-grouping invariant (RsvdOptions::group_masks, default on).  The
// normal matrix Q of the column-j R-update is
//
//   Q_j = (lambda*I + L^T L) - sum_{i unobserved in column j} l_i l_i^T
//       + w1 L^T L                                     (Constraint 1)
//       + (w2 ||G(jj,:)||^2 + w3 c_ii) l_ii l_ii^T     (Constraint 2)
//
// with ii = band_of(j), jj = slot_of(j) and c_ii the similarity curvature
// count.  Q_j therefore depends ONLY on (a) the column's unobserved row
// set, (b) its band row ii, and (c) the two scalar curvature weights —
// never on the observed VALUES, which enter the right-hand side alone.
// Columns that agree on (a)-(c) share Q bit for bit in every sweep (same
// inputs, same op sequence), so the sweep groups them once per solve,
// factors each group's Q once, and solves the group's right-hand sides as
// one multi-RHS panel (linalg::solve_factored_spd_multi), whose per-column
// results are bit-identical to the historical one-column loop.  The same
// holds for L-update rows when Constraint 2 is inactive (with c2 active,
// the per-row Theta curvature makes every row's Q unique).
//
// Batched sweep work.  A sweep is bound by call overhead and latency, not
// flops, so its two hot spots run batched with the historical
// per-element operation order:
//  * Right-hand sides: two GEMMs per half-sweep against the per-solve
//    source [B o X_B ; w1 P] — the R-update's L^T [B o X_B ; w1 P] as an
//    r x n panel vectorised along the grid axis, the L-update's
//    [B o X_B | w1 P] [R ; R] — each element accumulated ascending like
//    the old per-column axpys (unobserved entries add an exact zero).
//    The Constraint-2 cross terms are appended afterwards, as before.
//  * Normal matrices: each Q is one kernels::syrk_assemble_upper pass
//    (seed, unobserved outer products, w1 term, band terms) whose
//    register tiles live across all its terms, written straight into
//    its lane slot of the batch below.
//  * SPD solves: the R- and L-updates factor up to kernels::kLanes
//    groups' Qs at once through linalg::factor_spd_lanes (under
//    Constraint 2 every L row is its own group), each lane bit-identical
//    to factor_spd + solve_factored_spd; a lane that fails rebuilds its
//    Q and re-runs the unbatched retry / LU ladder.
// Guarantees: grouped and ungrouped sweeps are exactly equal, at every
// thread count and kernel dispatch level (tests/linalg_spd_multi_test.cpp),
// and the default trajectory's bits are pinned across commits
// (tests/core_rsvd_test.cpp).
#pragma once

#include <vector>

#include "core/fingerprint.hpp"
#include "core/rsvd.hpp"

namespace iup::core {

/// Reusable buffers for one solve() call: factor iterates, shared sweep
/// products and one workspace per worker thread.  Defined in
/// self_augmented.cpp; stack-allocated by solve().
struct SweepContext;

class SelfAugmentedRsvd {
 public:
  /// `layout` describes the band structure used by Constraint 2.
  SelfAugmentedRsvd(BandLayout layout, RsvdOptions options);

  /// Run Algorithm 1 on a fully-specified problem.
  RsvdResult solve(const RsvdProblem& problem) const;

  /// The L0 iterate solve() starts from (Algorithm 1 line 1): the explicit
  /// problem.l0 when given (kWarmStart), otherwise the SVD factor of the
  /// completed matrix, or a seeded random factor for kRandom.  Public so
  /// callers that cache warm starts (api::Engine) and tests can reproduce
  /// the initialisation exactly.
  linalg::Matrix initial_factor(const RsvdProblem& problem) const;

 private:
  struct Weights {
    double w1 = 0.0;  ///< Constraint-1 weight (0 when disabled)
    double w2 = 0.0;  ///< continuity weight
    double w3 = 0.0;  ///< similarity weight
  };

  /// X_B completed with the Constraint-1 prediction (or row means): the
  /// warm-start matrix, also the reference iterate for auto-scaling.
  linalg::Matrix warm_matrix(const RsvdProblem& problem) const;

  /// The scalar Constraint-2 curvature weights, computed once per solve:
  /// slot_w2c[jj] = w2 ||G(jj,:)||^2 and band_w3c[ii] = w3 times the
  /// similarity count / h-column factor of band ii (zeros for a disabled
  /// term).  Column j's normal matrix applies slot_w2c[slot_of(j)] and
  /// band_w3c[band_of(j)] to its l_band outer products; row i's applies
  /// slot_w2c to its slot outer products (literal mode) and band_w3c[i]
  /// to Theta_i Theta_i^T.  Single source of truth for the Q builds AND
  /// solve()'s mask-group signature — the grouping invariant is only
  /// sound while the signature encodes exactly the scalars the Q build
  /// applies.
  void c2_curvature(const Weights& w, std::vector<double>& slot_w2c,
                    std::vector<double>& band_w3c) const;
  Weights effective_weights(const RsvdProblem& problem) const;
  double objective(const RsvdProblem& problem, const Weights& w,
                   const linalg::Matrix& l, const linalg::Matrix& r,
                   SweepContext& ctx) const;

  /// Closed-form update of every column of Theta = R^T with L fixed
  /// (Algorithm 1 line 3 / Eq. 24).  Writes ctx.r_next.
  void update_r(const RsvdProblem& problem, const Weights& w,
                const linalg::Matrix& l, const linalg::Matrix& r_prev,
                SweepContext& ctx) const;

  /// Closed-form update of every row of L with R fixed (line 4).
  /// Writes ctx.l_next.
  void update_l(const RsvdProblem& problem, const Weights& w,
                const linalg::Matrix& l_prev, const linalg::Matrix& r,
                SweepContext& ctx) const;

  BandLayout layout_;
  RsvdOptions options_;
  linalg::Matrix g_;    ///< continuity matrix (S x S)
  linalg::Matrix g_t_;  ///< G^T, precomputed for the L-update cross terms
  linalg::Matrix h_;    ///< similarity matrix (M x M)
};

}  // namespace iup::core
