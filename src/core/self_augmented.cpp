#include "core/self_augmented.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/constraints.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels/gemm.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "linalg/vec.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"

// Two index repairs relative to the published Algorithm 1 (documented in
// DESIGN.md Sec. 5):
//
//  (1) The similarity curvature term indexes H by the *link* (band) index
//      ii, not by the within-link slot jj: H is M x M, and jj ranges over
//      [1, N/M], which is out of bounds whenever N/M != M.
//  (2) The first row of H = Toeplitz(-1,1,0) differences link 1 against
//      nothing, which in the raw objective would shrink link 1's
//      largely-decrease RSS toward 0 dBm.  In kGaussSeidel mode the
//      absolute term on the first link is dropped (only genuine
//      adjacent-link differences are penalised); kPaperLiteral keeps the
//      published curvature including the first-row term.
//
// Parallel sweep invariants (the thread-count-determinism guarantee):
//  * every column j of the R-update / row i of the L-update writes only
//    its own output row and its chunk's workspace;
//  * all shared inputs (L, R_prev, X_D, Gram products, G, H) are read-only
//    during the fan-out;
//  * no floating-point reduction crosses an index boundary, so the chunk
//    partition cannot reorder any accumulation;
//  * the mask-grouped sweep partitions parallel_for over the groups'
//    member-count prefix space instead of columns (a group's members are
//    solved against one shared factor, so they must stay in one chunk;
//    weighting the partition by group size keeps chunks balanced when
//    sizes are skewed); the group list is built once on the calling
//    thread, each group writes only its members' output rows, and each
//    member's solve is bit-identical to its per-column solve — so the
//    1-vs-N-thread and grouped-vs-ungrouped identities both hold exactly;
//  * a chunk's groups occupy one contiguous range of sweep-order slots,
//    and the chunk builds that range's RHS block itself (the GEMM's
//    per-element arithmetic does not depend on the block bounds), so the
//    batched right-hand sides add no serial section and no barrier;
//  * lane batches are formed inside a chunk, and a lane's bits do not
//    depend on which groups share its batch.
namespace iup::core {

namespace {

// The normal matrices Q are symmetric, so every Q build fills only the
// diagonal and upper triangle (half the flops of the dense update) in
// register-tiled kernels::syrk_assemble_upper passes, and the lower
// triangle is mirrored only where a full matrix is consumed
// (symmetrize_lower).  The mirrored Q is exactly symmetric and fully
// deterministic (in particular thread-count invariant); it may differ
// from a dense two-triangle accumulation at ulp level, because a weighted
// lower entry would round as (w*v[b])*v[a] rather than the mirrored
// (w*v[a])*v[b].
//
// A Q build writes entry (a, b) at dest[(a * n + b) * inc]: inc = 1 fills
// a Matrix, inc = kLanes writes straight into one lane slot of
// linalg::factor_spd_lanes' interleaved batch, with the identical
// per-element op sequence either way.
void symmetrize_lower(linalg::Matrix& q) {
  const std::size_t n = q.rows();
  for (std::size_t a = 1; a < n; ++a) {
    for (std::size_t b = 0; b < a; ++b) q(a, b) = q(b, a);
  }
}

/// The data and Constraint-1 part of one normal matrix, shared by the R-
/// and L-updates: the seed (lambda*I + F^T F), minus the outer products
/// of the unobserved rows of F (complement form), plus w1 F^T F.  The
/// caller appends its Constraint-2 terms as `post` and runs the whole
/// plan as one kernels::syrk_assemble_upper pass.
linalg::kernels::SyrkPlan base_plan(const linalg::Matrix& seed,
                                    const linalg::Matrix& f,
                                    const std::vector<std::size_t>& unobserved,
                                    double w1, const linalg::Matrix& gram) {
  const std::size_t n = seed.rows();
  return {.seed = seed.data().data(),
          .lds = n,
          .pre = {.v = f.data().data(),
                  .ldv = n,
                  .k = unobserved.size(),
                  .index = unobserved.data(),
                  .weight = -1.0},
          .x = w1 > 0.0 ? gram.data().data() : nullptr,
          .ldx = n,
          .alpha = w1};
}

double row_norm_sq(const linalg::Matrix& m, std::size_t row) {
  const auto r = m.row_span(row);
  return linalg::kernels::norm_sq(r.data(), r.size());
}

}  // namespace

/// One batch of sweep indices whose normal matrix Q is identical (the
/// mask-grouping invariant, self_augmented.hpp): Q is built and factored
/// once from members.front() and every member solves as one RHS column of
/// a shared panel.
struct MaskGroup {
  std::vector<std::size_t> members;  ///< ascending column / row indices
};

/// Scratch owned by one worker chunk.  Everything is overwritten from
/// scratch for every index, so reuse across indices (and across sweeps)
/// cannot leak state — a precondition for thread-count invariance.
struct ThreadWorkspace {
  linalg::Matrix q;         ///< rr x rr normal-equation matrix
  std::vector<double> diag;  ///< rr, solve_spd_into retry scratch
  // Mask-group scratch: the rr x k multi-RHS block of one group, the
  // dot_panel reduction scratch of its back substitution, and a Q copy
  // for the (rare) per-column LU-fallback replay.
  linalg::Matrix panel;      ///< rr x k RHS panel of one mask group
  std::vector<double> dots;  ///< k, solve_factored_spd_multi scratch
  linalg::Matrix q_retry;    ///< group fallback: per-column solve replay
  // Lane batch of up to kLanes groups (factor_spd_lanes layout).
  std::vector<double> lane_q;  ///< rr x rr x kLanes interleaved Q / factors
  std::vector<double> lane_b;  ///< rr x kLanes interleaved singleton RHS
  // L-update Constraint-2 scratch (theta_t: a copy of the R rows of band
  // i's cells, Theta_i^T, as multiply_into's operand).
  linalg::Matrix theta_t;  ///< slots x rr
  linalg::Matrix tg;       ///< slots x rr: G^T Theta^T
  linalg::Matrix gbuf;     ///< rr x rr: (Theta G)(Theta G)^T
  linalg::Matrix ttt;      ///< rr x rr: Theta Theta^T
  std::vector<double> neighbor_sum;  ///< slots
  std::vector<double> contrib;       ///< rr
};

struct SweepContext {
  std::size_t threads = 1;
  // Shared read-only sweep products.
  linalg::Matrix ltl;     ///< L^T L
  linalg::Matrix rtr;     ///< R^T R
  linalg::Matrix lql;     ///< lambda*I + L^T L (per-column Q seed)
  linalg::Matrix rql;     ///< lambda*I + R^T R (per-row Q seed)
  linalg::Matrix xd_cur;  ///< current largely-decrease estimate
  linalg::Matrix xdg;     ///< X_D * G
  // Complement-form data term: the mask B is fixed for the whole solve,
  // so the unobserved index sets per column (R-update) and per row
  // (L-update) are scanned exactly once.  With the realistic dense masks
  // of the no-decrease matrix (~80% observed) seeding Q with
  // lambda*I + L^T L and SUBTRACTING the few unobserved outer products
  // replaces ~dense-many rank-1 updates by ~(1-density)-many.
  std::vector<std::vector<std::size_t>> unobs_rows;  ///< per column j
  std::vector<std::vector<std::size_t>> unobs_cols;  ///< per row i
  // Constraint-2 curvature scalars, fixed per solve (c2_curvature).
  std::vector<double> slot_w2c;  ///< w2 ||G(jj,:)||^2 per slot jj
  std::vector<double> band_w3c;  ///< similarity curvature per band ii
  // Mask groups, built once per solve when RsvdOptions::group_masks (the
  // grouping depends only on B, the layout and the constraint weights —
  // all fixed across sweeps).  Empty vectors select the ungrouped sweep.
  std::vector<MaskGroup> col_groups;  ///< R-update (grid columns)
  std::vector<MaskGroup> row_groups;  ///< L-update: by signature when Q
                                      ///< is mask-only, singletons under
                                      ///< Constraint 2 (lane batches only)
  // Member-count prefix offsets of the groups above: the grouped fan-out
  // partitions this virtual index space (one slot per member) so chunk
  // work stays balanced when group sizes are skewed — a chunk executes
  // exactly the groups whose prefix offset lands inside it.
  std::vector<std::size_t> col_group_starts;
  std::vector<std::size_t> row_group_starts;
  // Sweep order: the grid columns (rows) in the order the fan-out visits
  // them — the groups' members concatenated, or the identity when
  // ungrouped — so every chunk owns a contiguous slot range [t0, t1).
  std::vector<std::size_t> col_order;
  std::vector<std::size_t> row_order;
  // Right-hand-side sources, fixed per solve: [B o X_B ; w1 P] with the
  // columns permuted into col_order (R-update, m or 2m rows), and
  // [B o X_B | w1 P] with the rows permuted into row_order (L-update, n or
  // 2n columns).  Unobserved entries hold 0, whose products add an exact
  // +/-0 (kernels.hpp zero-skip argument).
  linalg::Matrix rhs_src_r;
  linalg::Matrix rhs_src_l;
  linalg::Matrix lt;       ///< L^T (the R-update GEMM's left operand)
  linalg::Matrix r_panel;  ///< rr x n R-update RHS, columns in col_order
  linalg::Matrix l_panel;  ///< m x rr L-update RHS, rows in row_order
  // Sweep outputs (double-buffered against l_hat / r_hat in solve()).
  linalg::Matrix r_next;
  linalg::Matrix l_next;
  // Objective scratch.
  linalg::Matrix rt;  ///< R^T for the dot_panel X_hat rows
  linalg::Matrix x_hat;
  linalg::Matrix xd_obj;
  linalg::Matrix xdg_obj;
  linalg::Matrix hxd_obj;
  std::vector<ThreadWorkspace> ws;
};

namespace {

/// Solve every member of `grp` against the factored Q in ws.q (member
/// rows of `out` hold the right-hand sides on entry, the solutions on
/// exit) as the columns of one multi-RHS panel.
void solve_factored_group(const MaskGroup& grp, ThreadWorkspace& ws,
                          linalg::Matrix& out) {
  const std::size_t n = ws.q.rows();
  const std::size_t k = grp.members.size();
  ws.panel.resize(n, k);
  ws.dots.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = out.row_span(grp.members[c]);
    for (std::size_t i = 0; i < n; ++i) ws.panel(i, c) = row[i];
  }
  linalg::solve_factored_spd_multi(ws.q, ws.panel, ws.dots);
  for (std::size_t c = 0; c < k; ++c) {
    const auto row = out.row_span(grp.members[c]);
    for (std::size_t i = 0; i < n; ++i) row[i] = ws.panel(i, c);
  }
}

/// Solve one mask group against `out`'s member rows (which already hold
/// the right-hand sides): Q is built once from the representative member,
/// factored once, and every member solves as one column of a shared RHS
/// panel.  Size-1 groups and failed factorisations take the exact
/// per-column solve_spd_into path, so grouped results are bit-identical
/// to the ungrouped sweep in every case.  (SpdStats granularity is the
/// one observable difference: a shared factorisation counts its bump
/// recovery once per group instead of once per member, and the
/// LU-fallback replay below adds one group-level failure on top of the
/// per-member ladders.)
template <typename BuildQ>
void solve_mask_group(const MaskGroup& grp, ThreadWorkspace& ws,
                      linalg::Matrix& out, const BuildQ& build_q) {
  build_q(ws, ws.q.data().data(), 1, grp.members.front());
  symmetrize_lower(ws.q);
  if (grp.members.size() == 1) {
    linalg::solve_spd_into(ws.q, out.row_span(grp.members.front()), ws.diag);
    return;
  }
  if (!linalg::factor_spd(ws.q, ws.diag)) {
    // Rare indefinite Q: factor_spd restored ws.q to the symmetrised
    // unbumped input, so replaying solve_spd_into per member (on a copy —
    // it destroys its matrix) reproduces the ungrouped retry ladder and
    // LU fallback bit for bit.  (SpdStats on this path: the group-level
    // attempt above counted one extra failure, then every member replay
    // counts its own ladder — k members report k+1 failures vs the
    // ungrouped sweep's k.)
    for (const std::size_t j : grp.members) {
      ws.q_retry = ws.q;
      linalg::solve_spd_into(ws.q_retry, out.row_span(j), ws.diag);
    }
    return;
  }
  solve_factored_group(grp, ws, out);
}

/// Solve groups [g0, g1) in lane batches of up to kLanes: each group's Q
/// is assembled straight into its lane slot and the batch factors
/// together through linalg::factor_spd_lanes (independent pivot chains
/// instead of one latency-bound chain per group), singleton groups also
/// solve as lanes, and a multi-member group copies its lane's factor out
/// for the shared panel solve.  Each lane's bits equal factor_spd +
/// solve_factored_spd on its own Q, and a lane's result does not depend
/// on which groups share its batch.  A lane that fails to factor is
/// re-solved from a rebuilt Q through solve_mask_group, whose ladder
/// (bump retries, LU fallback, SpdStats counts) is exactly the unbatched
/// one — the lane attempt itself counts nothing.
/// `build_q(ws, dest, inc, index)` writes the diagonal and upper triangle
/// of one member's Q at dest[(a * n + b) * inc].
template <typename BuildQ>
void solve_mask_groups_lanes(const std::vector<MaskGroup>& groups,
                             std::size_t g0, std::size_t g1,
                             ThreadWorkspace& ws, linalg::Matrix& out,
                             const BuildQ& build_q) {
  constexpr std::size_t kL = linalg::kernels::kLanes;
  const std::size_t n = ws.q.rows();
  ws.lane_q.resize(n * n * kL);
  ws.lane_b.resize(n * kL);
  const auto at = [&](std::size_t a, std::size_t b, std::size_t l) {
    return (a * n + b) * kL + l;
  };
  for (std::size_t g = g0; g < g1; g += kL) {
    const std::size_t count = std::min(kL, g1 - g);
    for (std::size_t l = 0; l < kL; ++l) {
      const MaskGroup* grp = l < count ? &groups[g + l] : nullptr;
      if (grp != nullptr) {
        build_q(ws, ws.lane_q.data() + l, kL, grp->members.front());
      } else {
        // Padding lanes factor the identity and solve a zero RHS.
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            ws.lane_q[at(a, b, l)] = a == b ? 1.0 : 0.0;
          }
        }
      }
      const bool single = grp != nullptr && grp->members.size() == 1;
      const auto rhs = single ? out.row_span(grp->members.front())
                              : std::span<double>();
      for (std::size_t a = 0; a < n; ++a) {
        ws.lane_b[a * kL + l] = single ? rhs[a] : 0.0;
      }
    }
    const unsigned ok = linalg::factor_spd_lanes(ws.lane_q, n);
    linalg::solve_factored_spd_lanes(ws.lane_q, ws.lane_b, n);
    for (std::size_t l = 0; l < count; ++l) {
      const MaskGroup& grp = groups[g + l];
      if ((ok & (1u << l)) == 0) {
        solve_mask_group(grp, ws, out, build_q);
      } else if (grp.members.size() == 1) {
        const auto row = out.row_span(grp.members.front());
        for (std::size_t a = 0; a < n; ++a) row[a] = ws.lane_b[a * kL + l];
      } else {
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = a; b < n; ++b) {
            ws.q(a, b) = ws.lane_q[at(a, b, l)];
          }
        }
        solve_factored_group(grp, ws, out);
      }
    }
  }
}

/// Invoke `fn(g0, g1, slot)` once per chunk with the chunk's contiguous
/// group range [g0, g1), fanning out over the groups' member-count prefix
/// space (`total` = sum of member counts, `starts` the prefix offsets).
/// The partition is size-weighted so chunk work stays balanced when group
/// sizes are skewed, and chunk boundaries are pure integer arithmetic, so
/// the chunk-to-group assignment — and therefore every bit of the result
/// — is identical at every thread count: a chunk executes exactly the
/// groups whose prefix offset starts inside it.  Shared by the R- and
/// L-update grouped paths so the assignment rule cannot drift between
/// them.
template <typename PerChunk>
void for_each_group_chunked(std::size_t threads, std::size_t total,
                            const std::vector<std::size_t>& starts,
                            const PerChunk& fn) {
  parallel::parallel_for(
      threads, total,
      [&](std::size_t begin, std::size_t end, std::size_t slot) {
        const auto first =
            std::lower_bound(starts.begin(), starts.end(), begin);
        const auto last = std::lower_bound(first, starts.end(), end);
        if (first != last) {
          fn(static_cast<std::size_t>(first - starts.begin()),
             static_cast<std::size_t>(last - starts.begin()), slot);
        }
      });
}

/// First sweep-order slot of group g (`total` past the last group).
std::size_t group_slot(const std::vector<std::size_t>& starts, std::size_t g,
                       std::size_t total) {
  return g < starts.size() ? starts[g] : total;
}

}  // namespace

SelfAugmentedRsvd::SelfAugmentedRsvd(BandLayout layout, RsvdOptions options)
    : layout_(layout), options_(options) {
  if (options_.use_constraint2) {
    if (layout_.links == 0 || layout_.slots == 0) {
      throw std::invalid_argument(
          "SelfAugmentedRsvd: Constraint 2 requires a band layout");
    }
    g_ = continuity_matrix(layout_.slots);
    h_ = similarity_matrix(layout_.links);
    if (options_.c2_mode == Constraint2Mode::kGaussSeidel) {
      h_(0, 0) = 0.0;  // repair (2): no absolute term on the first link
    }
    g_t_ = g_.transpose();
  }
}

linalg::Matrix SelfAugmentedRsvd::warm_matrix(
    const RsvdProblem& problem) const {
  // Complete the observed entries with the Constraint-1 prediction, or the
  // observed row mean when Constraint 1 is unavailable.
  linalg::Matrix warm = problem.x_b;
  const bool have_p = !problem.p.empty();
  for (std::size_t i = 0; i < warm.rows(); ++i) {
    double row_sum = 0.0;
    double row_cnt = 0.0;
    for (std::size_t j = 0; j < warm.cols(); ++j) {
      if (problem.b(i, j) != 0.0) {
        row_sum += problem.x_b(i, j);
        row_cnt += 1.0;
      }
    }
    const double row_mean = row_cnt > 0.0 ? row_sum / row_cnt : 0.0;
    for (std::size_t j = 0; j < warm.cols(); ++j) {
      if (problem.b(i, j) == 0.0) {
        warm(i, j) = have_p ? problem.p(i, j) : row_mean;
      }
    }
  }
  return warm;
}

linalg::Matrix SelfAugmentedRsvd::initial_factor(
    const RsvdProblem& problem) const {
  const std::size_t m = problem.b.rows();
  const std::size_t r =
      options_.rank == 0 ? m : std::min(options_.rank, problem.b.cols());

  // Explicit warm start: reuse a previously converged factor (the engine's
  // versioned cache) instead of paying for a fresh SVD.  kRandom ignores it
  // so the paper's random-init ablation stays reproducible.
  if (!problem.l0.empty() && options_.init == FactorInit::kWarmStart) {
    if (problem.l0.rows() != m || problem.l0.cols() != r) {
      throw std::invalid_argument(
          "SelfAugmentedRsvd: warm-start factor shape mismatch");
    }
    return problem.l0;
  }

  if (options_.init == FactorInit::kRandom) {
    rng::Rng rng(options_.init_seed);
    linalg::Matrix l0(m, r);
    for (double& v : l0.data()) v = rng.normal();
    return l0;
  }

  // Warm start: SVD factor U * sqrt(Sigma) of the completed matrix,
  // truncated at rank r.
  const linalg::SvdResult d = linalg::svd(warm_matrix(problem));
  linalg::Matrix l0(m, r);
  for (std::size_t k = 0; k < r && k < d.sigma.size(); ++k) {
    const double s = std::sqrt(d.sigma[k]);
    for (std::size_t i = 0; i < m; ++i) l0(i, k) = d.u(i, k) * s;
  }
  return l0;
}

void SelfAugmentedRsvd::c2_curvature(const Weights& w,
                                     std::vector<double>& slot_w2c,
                                     std::vector<double>& band_w3c) const {
  slot_w2c.assign(layout_.slots, 0.0);
  band_w3c.assign(layout_.links, 0.0);
  if (w.w2 > 0.0) {
    for (std::size_t jj = 0; jj < layout_.slots; ++jj) {
      slot_w2c[jj] = w.w2 * row_norm_sq(g_, jj);
    }
  }
  if (w.w3 > 0.0) {
    for (std::size_t ii = 0; ii < layout_.links; ++ii) {
      if (options_.c2_mode == Constraint2Mode::kGaussSeidel) {
        double count = 0.0;
        if (ii > 0) count += 1.0;
        if (ii + 1 < layout_.links) count += 1.0;
        band_w3c[ii] = w.w3 * count;
      } else {
        // Published curvature: ||H(:, ii)||^2, repair (1) applied.
        band_w3c[ii] = w.w3 * (ii + 1 < layout_.links ? 2.0 : 1.0);
      }
    }
  }
}

SelfAugmentedRsvd::Weights SelfAugmentedRsvd::effective_weights(
    const RsvdProblem& problem) const {
  Weights w;
  const bool c1 = options_.use_constraint1 && !problem.p.empty();
  const bool c2 = options_.use_constraint2;
  w.w1 = c1 ? options_.w_constraint1 : 0.0;
  w.w2 = c2 ? options_.w_continuity : 0.0;
  w.w3 = c2 ? options_.w_similarity : 0.0;
  if (!options_.auto_scale) return w;

  // "Scale the terms to the same order of magnitude" (Sec. IV-E): measure
  // each term's natural magnitude at the warm-start completion and rescale
  // the base weights by data_scale / term_scale, clamped to [1e-3, 1e3].
  const double data_scale =
      std::max(linalg::frobenius_norm_sq(problem.x_b), 1e-9);
  const auto clamp_scale = [](double s) {
    return std::clamp(s, 1e-3, 1e3);
  };
  if (w.w1 > 0.0) {
    const double c1_scale =
        std::max(linalg::frobenius_norm_sq(problem.p), 1e-9);
    w.w1 *= clamp_scale(data_scale / c1_scale);
  }
  if (c2 && (w.w2 > 0.0 || w.w3 > 0.0)) {
    const linalg::Matrix xd0 =
        extract_largely_decrease(warm_matrix(problem), layout_);
    if (w.w2 > 0.0) {
      const double g_scale =
          std::max(linalg::frobenius_norm_sq(xd0 * g_), 1e-9);
      w.w2 *= clamp_scale(data_scale / g_scale);
    }
    if (w.w3 > 0.0) {
      const double h_scale =
          std::max(linalg::frobenius_norm_sq(h_ * xd0), 1e-9);
      w.w3 *= clamp_scale(data_scale / h_scale);
    }
  }
  return w;
}

double SelfAugmentedRsvd::objective(const RsvdProblem& problem,
                                    const Weights& w, const linalg::Matrix& l,
                                    const linalg::Matrix& r,
                                    SweepContext& ctx) const {
  // X_hat = L R^T, one dot_panel pass per row against R^T: bit-identical
  // to the per-entry dot() of multiply_transposed_into, vectorised along
  // the grid axis instead of the rank.
  const std::size_t n = r.rows();
  linalg::transpose_into(r, ctx.rt);
  ctx.x_hat.resize(l.rows(), n);
  for (std::size_t i = 0; i < l.rows(); ++i) {
    linalg::kernels::dot_panel(l.row_span(i).data(), ctx.rt.data().data(), n,
                               l.cols(), n, ctx.x_hat.row_span(i).data());
  }
  double v = options_.lambda * (linalg::frobenius_norm_sq(l) +
                                linalg::frobenius_norm_sq(r));
  v += linalg::masked_diff_norm_sq(problem.b, ctx.x_hat, problem.x_b);
  if (w.w1 > 0.0) {
    v += w.w1 * linalg::diff_norm_sq(ctx.x_hat, problem.p);
  }
  if (options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0)) {
    ctx.xd_obj.resize(layout_.links, layout_.slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        ctx.xd_obj(i, u) = ctx.x_hat(i, layout_.cell(i, u));
      }
    }
    if (w.w2 > 0.0) {
      linalg::multiply_into(ctx.xd_obj, g_, ctx.xdg_obj);
      v += w.w2 * linalg::frobenius_norm_sq(ctx.xdg_obj);
    }
    if (w.w3 > 0.0) {
      linalg::multiply_into(h_, ctx.xd_obj, ctx.hxd_obj);
      v += w.w3 * linalg::frobenius_norm_sq(ctx.hxd_obj);
    }
  }
  return v;
}

void SelfAugmentedRsvd::update_r(const RsvdProblem& problem, const Weights& w,
                                 const linalg::Matrix& l,
                                 const linalg::Matrix& r_prev,
                                 SweepContext& ctx) const {
  const std::size_t m = l.rows();
  const std::size_t rr = l.cols();
  const std::size_t n = problem.b.cols();
  const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
  const bool gauss_seidel =
      options_.c2_mode == Constraint2Mode::kGaussSeidel;

  linalg::gram_into(l, ctx.ltl);
  ctx.lql = ctx.ltl;
  for (std::size_t a = 0; a < rr; ++a) ctx.lql(a, a) += options_.lambda;

  // Current largely-decrease estimate (from the previous R) for the
  // Gauss-Seidel cross terms of Constraint 2.
  if (c2) {
    ctx.xd_cur.resize(layout_.links, layout_.slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        ctx.xd_cur(i, u) =
            linalg::dot(l.row_span(i), r_prev.row_span(layout_.cell(i, u)));
      }
    }
    if (gauss_seidel && w.w2 > 0.0) {
      linalg::multiply_into(ctx.xd_cur, g_, ctx.xdg);
    }
  }

  ctx.r_next.resize(n, rr);

  // Q for column j — the exact op sequence of the historical per-column
  // loop (the mask-grouping invariant relies on identical inputs plus an
  // identical sequence producing identical bits).  Data term in
  // complement form: Q = (lambda*I + L^T L) minus the unobserved rows'
  // outer products, instead of lambda*I plus the observed ones — far
  // fewer rank-1 updates on realistic dense masks, identical curvature
  // up to rounding.  Constraint 1 adds w1 ||L theta - p_j||^2 over all
  // links; Constraint 2 only the band entry (ii, jj) of column j, a
  // largely-decrease element, whose curvature scalars come from the
  // per-solve tables the mask-group signature also encodes.
  const auto build_q = [&](ThreadWorkspace&, double* dest, std::size_t inc,
                           std::size_t j) {
    auto plan = base_plan(ctx.lql, l, ctx.unobs_rows[j], w.w1, ctx.ltl);
    double band_w[2];
    if (c2) {
      plan.post = {.v = l.row_span(layout_.band_of(j)).data(),
                   .weights = band_w};
      if (w.w2 > 0.0) band_w[plan.post.k++] = ctx.slot_w2c[layout_.slot_of(j)];
      if (w.w3 > 0.0) band_w[plan.post.k++] = ctx.band_w3c[layout_.band_of(j)];
    }
    linalg::kernels::syrk_assemble_upper(plan, rr, dest, rr * inc, inc);
  };

  // Constraint-2 Gauss-Seidel cross terms of column j, appended AFTER the
  // data / Constraint-1 terms of the panel RHS (the historical per-column
  // accumulation order).
  const auto append_rhs_c2 = [&](std::size_t j) {
    const auto c = ctx.r_next.row_span(j);
    const std::size_t ii = layout_.band_of(j);
    const std::size_t jj = layout_.slot_of(j);
    const auto l_band = l.row_span(ii);
    if (w.w2 > 0.0) {
      // Cross term with the neighbouring slots of the current
      // estimate: sum_q (XD*G)(ii,q) G(jj,q) with the self
      // contribution removed.
      double cross = 0.0;
      for (std::size_t qq = 0; qq < layout_.slots; ++qq) {
        const double others =
            ctx.xdg(ii, qq) - ctx.xd_cur(ii, jj) * g_(jj, qq);
        cross += others * g_(jj, qq);
      }
      linalg::axpy(-w.w2 * cross, l_band, c);
    }
    if (w.w3 > 0.0) {
      double neighbor_sum = 0.0;
      if (ii > 0) neighbor_sum += ctx.xd_cur(ii - 1, jj);
      if (ii + 1 < layout_.links) neighbor_sum += ctx.xd_cur(ii + 1, jj);
      linalg::axpy(w.w3 * neighbor_sum, l_band, c);
    }
  };

  // Right-hand sides of sweep slots [t0, t1) as one rr x (t1 - t0) panel
  // block L^T [B o X_B ; w1 P] (vectorised along the grid axis), then
  // scattered into the slots' output rows so the in-place solves land the
  // solutions there.  Per element the GEMM accumulates ascending i — the
  // data terms, then the Constraint-1 terms — exactly the historical
  // per-column axpy order, with the unobserved rows adding exact zeros.
  ctx.r_panel.resize(rr, n);  // zero-filled: the GEMMs accumulate into it
  linalg::transpose_into(l, ctx.lt);
  const auto build_rhs = [&](std::size_t t0, std::size_t t1) {
    double* panel = ctx.r_panel.data().data();
    const double* src = ctx.rhs_src_r.data().data();
    for (std::size_t block = 0; block < ctx.rhs_src_r.rows(); block += m) {
      linalg::kernels::gemm_accumulate(ctx.lt.data().data(), m,
                                       src + block * n + t0, n, panel + t0,
                                       n, rr, m, t1 - t0);
    }
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t j = ctx.col_order[t];
      const auto c = ctx.r_next.row_span(j);
      for (std::size_t a = 0; a < rr; ++a) c[a] = ctx.r_panel(a, t);
      if (c2 && gauss_seidel) append_rhs_c2(j);
    }
  };

  if (ctx.col_groups.empty()) {
    // Ungrouped sweep: one Q + one solve per column.
    parallel::parallel_for(ctx.threads, n, [&](std::size_t begin,
                                               std::size_t end,
                                               std::size_t slot) {
      ThreadWorkspace& ws = ctx.ws[slot];
      ws.q.resize(rr, rr);
      ws.diag.resize(rr);
      build_rhs(begin, end);
      for (std::size_t j = begin; j < end; ++j) {
        build_q(ws, ws.q.data().data(), 1, j);
        symmetrize_lower(ws.q);
        linalg::solve_spd_into(ws.q, ctx.r_next.row_span(j), ws.diag);
      }
    });
    return;
  }

  // Mask-grouped sweep: a group's members share one factored Q and must
  // stay in one chunk (see for_each_group_chunked for the size-weighted
  // deterministic partition); the chunk's groups own a contiguous slot
  // range, whose RHS block the chunk builds itself.
  for_each_group_chunked(
      ctx.threads, n, ctx.col_group_starts,
      [&](std::size_t g0, std::size_t g1, std::size_t slot) {
        ThreadWorkspace& ws = ctx.ws[slot];
        ws.q.resize(rr, rr);
        ws.diag.resize(rr);
        build_rhs(group_slot(ctx.col_group_starts, g0, n),
                  group_slot(ctx.col_group_starts, g1, n));
        solve_mask_groups_lanes(ctx.col_groups, g0, g1, ws, ctx.r_next,
                                build_q);
      });
}

void SelfAugmentedRsvd::update_l(const RsvdProblem& problem, const Weights& w,
                                 const linalg::Matrix& l_prev,
                                 const linalg::Matrix& r,
                                 SweepContext& ctx) const {
  const std::size_t m = problem.b.rows();
  const std::size_t rr = r.cols();
  const std::size_t n = r.rows();
  const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
  const bool gauss_seidel =
      options_.c2_mode == Constraint2Mode::kGaussSeidel;

  linalg::gram_into(r, ctx.rtr);
  ctx.rql = ctx.rtr;
  for (std::size_t a = 0; a < rr; ++a) ctx.rql(a, a) += options_.lambda;

  // Current X_D (from l_prev and the fresh r) for the similarity cross
  // terms; the continuity term is exactly quadratic per row and needs no
  // cross terms.
  if (c2) {
    ctx.xd_cur.resize(layout_.links, layout_.slots);
    for (std::size_t i = 0; i < layout_.links; ++i) {
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        ctx.xd_cur(i, u) = linalg::dot(l_prev.row_span(i),
                                       r.row_span(layout_.cell(i, u)));
      }
    }
  }

  ctx.l_next.resize(m, rr);

  // Q for row i — data + Constraint-1 terms in complement form (mirroring
  // update_r), then the Constraint-2 curvature of band row i: continuity
  // (Gauss-Seidel: row i of X_D*G is (l_i Theta_i) G, exactly quadratic
  // in l_i with curvature (Theta G)(Theta G)^T = gram(G^T Theta^T);
  // literal: the per-slot curvature scalars) and similarity
  // (Theta Theta^T times the band's curvature scalar).  One routine for
  // every path, so the lane, ladder and unbatched builds cannot drift.
  const auto build_q = [&](ThreadWorkspace& ws, double* dest, std::size_t inc,
                           std::size_t i) {
    linalg::kernels::syrk_assemble_upper(
        base_plan(ctx.rql, r, ctx.unobs_cols[i], w.w1, ctx.rtr), rr, dest,
        rr * inc, inc);
    if (!c2) return;
    // Theta_i^T: band i's cells (i, 0..slots-1) are consecutive rows of R.
    const std::size_t slots = layout_.slots;
    const double* theta = r.row_span(layout_.cell(i, 0)).data();
    if (w.w2 > 0.0) {
      if (gauss_seidel) {
        std::copy(theta, theta + slots * rr, ws.theta_t.data().begin());
        linalg::multiply_into(g_t_, ws.theta_t, ws.tg);
        linalg::gram_into(ws.tg, ws.gbuf);
        linalg::kernels::syrk_assemble_upper(
            {.x = ws.gbuf.data().data(), .ldx = rr, .alpha = w.w2}, rr, dest,
            rr * inc, inc);
      } else {
        linalg::kernels::syrk_upper({.v = theta,
                                     .ldv = rr,
                                     .k = slots,
                                     .weights = ctx.slot_w2c.data()},
                                    rr, dest, rr * inc, inc);
      }
    }
    if (w.w3 > 0.0) {
      // Theta Theta^T: only its upper triangle is consumed.
      ws.ttt.resize(rr, rr, 0.0);
      linalg::kernels::syrk_upper({.v = theta, .ldv = rr, .k = slots}, rr,
                                  ws.ttt.data().data(), rr, 1);
      linalg::kernels::syrk_assemble_upper(
          {.x = ws.ttt.data().data(), .ldx = rr, .alpha = ctx.band_w3c[i]},
          rr, dest, rr * inc, inc);
    }
  };

  // Right-hand sides of sweep slots [t0, t1): the rows
  // [B o X_B | w1 P] R of one GEMM block per term, ascending j per element
  // (the historical per-row axpy order), copied into the slots' output
  // rows; then the Gauss-Seidel similarity cross term w3 Theta_i s_i with
  // s_i the neighbouring links' current X_D rows, accumulated row by row
  // of Theta_i^T (the same ascending-u order as the dense product).
  ctx.l_panel.resize(m, rr);  // zero-filled: the GEMMs accumulate into it
  const auto build_rhs = [&](ThreadWorkspace& ws, std::size_t t0,
                             std::size_t t1) {
    double* panel = ctx.l_panel.data().data() + t0 * rr;
    const std::size_t ld = ctx.rhs_src_l.cols();
    const double* src = ctx.rhs_src_l.data().data() + t0 * ld;
    for (std::size_t block = 0; block < ld; block += n) {
      linalg::kernels::gemm_accumulate(src + block, ld, r.data().data(), rr,
                                       panel, rr, t1 - t0, n, rr);
    }
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t i = ctx.row_order[t];
      const auto row = ctx.l_panel.row_span(t);
      const auto c = ctx.l_next.row_span(i);
      std::copy(row.begin(), row.end(), c.begin());
      if (!c2 || !gauss_seidel || w.w3 <= 0.0) continue;
      std::fill(ws.neighbor_sum.begin(), ws.neighbor_sum.end(), 0.0);
      if (i > 0) {
        for (std::size_t u = 0; u < layout_.slots; ++u) {
          ws.neighbor_sum[u] += ctx.xd_cur(i - 1, u);
        }
      }
      if (i + 1 < layout_.links) {
        for (std::size_t u = 0; u < layout_.slots; ++u) {
          ws.neighbor_sum[u] += ctx.xd_cur(i + 1, u);
        }
      }
      std::fill(ws.contrib.begin(), ws.contrib.end(), 0.0);
      for (std::size_t u = 0; u < layout_.slots; ++u) {
        linalg::axpy(ws.neighbor_sum[u], r.row_span(layout_.cell(i, u)),
                     ws.contrib);
      }
      linalg::axpy(w.w3, ws.contrib, c);
    }
  };

  const auto prepare = [&](ThreadWorkspace& ws) {
    ws.q.resize(rr, rr);
    ws.diag.resize(rr);
    if (c2) {
      ws.theta_t.resize(layout_.slots, rr);
      ws.neighbor_sum.resize(layout_.slots);
      ws.contrib.resize(rr);
    }
  };

  if (ctx.row_groups.empty()) {
    // Unbatched sweep (RsvdOptions::group_masks off): one Q + one
    // solve_spd_into per row — the reference the batched path must match.
    parallel::parallel_for(ctx.threads, m, [&](std::size_t begin,
                                               std::size_t end,
                                               std::size_t slot) {
      ThreadWorkspace& ws = ctx.ws[slot];
      prepare(ws);
      build_rhs(ws, begin, end);
      for (std::size_t i = begin; i < end; ++i) {
        build_q(ws, ws.q.data().data(), 1, i);
        symmetrize_lower(ws.q);
        linalg::solve_spd_into(ws.q, ctx.l_next.row_span(i), ws.diag);
      }
    });
    return;
  }

  // Batched L-update: mask groups when Q is mask-only (Constraint 2 off:
  // rows sharing an unobserved set share Q exactly), singleton groups
  // under Constraint 2 (the per-row Theta curvature makes every Q unique)
  // — either way kLanes groups factor and solve together.
  for_each_group_chunked(
      ctx.threads, m, ctx.row_group_starts,
      [&](std::size_t g0, std::size_t g1, std::size_t slot) {
        ThreadWorkspace& ws = ctx.ws[slot];
        prepare(ws);
        build_rhs(ws, group_slot(ctx.row_group_starts, g0, m),
                  group_slot(ctx.row_group_starts, g1, m));
        solve_mask_groups_lanes(ctx.row_groups, g0, g1, ws, ctx.l_next,
                                build_q);
      });
}

RsvdResult SelfAugmentedRsvd::solve(const RsvdProblem& problem) const {
  if (problem.x_b.rows() != problem.b.rows() ||
      problem.x_b.cols() != problem.b.cols()) {
    throw std::invalid_argument("SelfAugmentedRsvd: X_B / B shape mismatch");
  }
  if (options_.use_constraint1 && !problem.p.empty() &&
      (problem.p.rows() != problem.b.rows() ||
       problem.p.cols() != problem.b.cols())) {
    throw std::invalid_argument("SelfAugmentedRsvd: P shape mismatch");
  }
  if (options_.use_constraint2 &&
      (problem.b.rows() != layout_.links ||
       problem.b.cols() != layout_.num_cells())) {
    throw std::invalid_argument("SelfAugmentedRsvd: band layout mismatch");
  }

  linalg::Matrix l_hat = initial_factor(problem);
  // First R solve pairs with the initial L (Algorithm 1 line 3).
  linalg::Matrix r_hat(problem.b.cols(), l_hat.cols());
  const Weights w = effective_weights(problem);

  SweepContext ctx;
  ctx.threads = parallel::resolve_threads(options_.threads);
  ctx.ws.resize(ctx.threads);

  const std::size_t m = problem.b.rows();
  const std::size_t n = problem.b.cols();

  // B is fixed across the whole solve: scan the unobserved index sets
  // once, instead of re-testing every mask entry in every sweep.
  ctx.unobs_rows.assign(n, {});
  ctx.unobs_cols.assign(m, {});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (problem.b(i, j) == 0.0) {
        ctx.unobs_rows[j].push_back(i);
        ctx.unobs_cols[i].push_back(j);
      }
    }
  }

  c2_curvature(w, ctx.slot_w2c, ctx.band_w3c);

  // Mask grouping (the invariant is documented in the header): a column's
  // Q depends on the mask/layout structure and the current factor only —
  // never on the column's observed values — so columns whose Q-defining
  // inputs coincide share Q bit for bit in every sweep.  Encode those
  // inputs (unobserved row set; under Constraint 2 also the band row and
  // the scalar curvature weights) as a byte-string signature and group by
  // it, keeping first-occurrence order so the grouped fan-out is
  // deterministic.  Built once: B and the weights are fixed per solve.
  if (options_.group_masks) {
    const bool c2 = options_.use_constraint2 && (w.w2 > 0.0 || w.w3 > 0.0);
    const auto append_word = [](std::string& key, std::uint64_t word) {
      for (int b = 0; b < 64; b += 8) {
        key.push_back(static_cast<char>((word >> b) & 0xff));
      }
    };
    const auto group_by_signature =
        [&](std::size_t count,
            const std::vector<std::vector<std::size_t>>& unobs,
            const auto& extra_words, std::vector<MaskGroup>& groups) {
          std::unordered_map<std::string, std::size_t> index;
          std::string key;
          for (std::size_t j = 0; j < count; ++j) {
            key.clear();
            extra_words(key, j);
            for (const std::size_t i : unobs[j]) {
              append_word(key, static_cast<std::uint64_t>(i));
            }
            const auto [it, inserted] =
                index.try_emplace(key, groups.size());
            if (inserted) groups.emplace_back();
            groups[it->second].members.push_back(j);
          }
        };
    group_by_signature(
        n, ctx.unobs_rows,
        [&](std::string& key, std::size_t j) {
          if (!c2) return;
          append_word(key, static_cast<std::uint64_t>(layout_.band_of(j)));
          append_word(key, std::bit_cast<std::uint64_t>(
                               ctx.slot_w2c[layout_.slot_of(j)]));
          append_word(key, std::bit_cast<std::uint64_t>(
                               ctx.band_w3c[layout_.band_of(j)]));
        },
        ctx.col_groups);
    // The L-update's Q gains per-row Theta curvature under Constraint 2,
    // which makes every row unique; group rows only when Q is mask-only,
    // otherwise every row is its own group (lane-batched solves only).
    if (!c2) {
      group_by_signature(
          m, ctx.unobs_cols, [](std::string&, std::size_t) {},
          ctx.row_groups);
    } else {
      ctx.row_groups.resize(m);
      for (std::size_t i = 0; i < m; ++i) ctx.row_groups[i].members = {i};
    }
    const auto prefix_starts = [](const std::vector<MaskGroup>& groups,
                                  std::vector<std::size_t>& starts) {
      starts.clear();
      starts.reserve(groups.size());
      std::size_t acc = 0;
      for (const MaskGroup& grp : groups) {
        starts.push_back(acc);
        acc += grp.members.size();
      }
    };
    prefix_starts(ctx.col_groups, ctx.col_group_starts);
    prefix_starts(ctx.row_groups, ctx.row_group_starts);
  }

  // Sweep orders and the permuted RHS sources (see SweepContext).
  const auto sweep_order = [](std::size_t count,
                              const std::vector<MaskGroup>& groups,
                              std::vector<std::size_t>& order) {
    order.clear();
    for (const MaskGroup& grp : groups) {
      order.insert(order.end(), grp.members.begin(), grp.members.end());
    }
    if (groups.empty()) {
      for (std::size_t k = 0; k < count; ++k) order.push_back(k);
    }
  };
  sweep_order(n, ctx.col_groups, ctx.col_order);
  sweep_order(m, ctx.row_groups, ctx.row_order);
  const auto obs = [&](std::size_t i, std::size_t j) {
    return problem.b(i, j) != 0.0 ? problem.x_b(i, j) : 0.0;
  };
  const auto pred = [&](std::size_t i, std::size_t j) {
    return w.w1 * problem.p(i, j);
  };
  const std::size_t terms = w.w1 > 0.0 ? 2 : 1;
  ctx.rhs_src_r.resize(terms * m, n);
  ctx.rhs_src_l.resize(m, terms * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t j = ctx.col_order[t];
      ctx.rhs_src_r(i, t) = obs(i, j);
      if (terms == 2) ctx.rhs_src_r(m + i, t) = pred(i, j);
    }
  }
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t i = ctx.row_order[t];
    for (std::size_t j = 0; j < n; ++j) {
      ctx.rhs_src_l(t, j) = obs(i, j);
      if (terms == 2) ctx.rhs_src_l(t, n + j) = pred(i, j);
    }
  }

  RsvdResult out;
  for (const MaskGroup& grp : ctx.col_groups) {
    if (grp.members.size() >= 2) {
      ++out.mask_groups;
      out.grouped_columns += grp.members.size();
    }
  }
  double best_v = std::numeric_limits<double>::infinity();
  double v_initial = -1.0;
  const double data_scale =
      std::max(linalg::frobenius_norm_sq(problem.x_b), 1.0);

  for (std::size_t it = 0; it < options_.max_iters; ++it) {
    update_r(problem, w, l_hat, r_hat, ctx);
    update_l(problem, w, l_hat, ctx.r_next, ctx);
    // Rebalance the factors: scaling L by s and R by 1/s leaves the
    // product unchanged and, at s = (||R||/||L||)^(1/2), minimises the
    // lambda regulariser — a strict objective improvement that also keeps
    // the per-column systems well conditioned.
    {
      const double ln = linalg::frobenius_norm(ctx.l_next);
      const double rn = linalg::frobenius_norm(ctx.r_next);
      if (ln > 1e-12 && rn > 1e-12) {
        const double s = std::sqrt(rn / ln);
        ctx.l_next *= s;
        ctx.r_next /= s;
      }
    }
    const double v = objective(problem, w, ctx.l_next, ctx.r_next, ctx);
    out.objective_history.push_back(v);
    out.iterations = it + 1;
    if (v_initial < 0.0) v_initial = std::max(v, 1e-12);

    if (v <= best_v) {
      best_v = v;
      out.l = ctx.l_next;
      out.r = ctx.r_next;
    }
    // Capacity-reusing copies: after the first iteration these assignments
    // never touch the heap.
    l_hat = ctx.l_next;
    r_hat = ctx.r_next;

    // Algorithm 1 lines 6-8: stop refreshing once v falls below v_th,
    // interpreted relative to the data scale ||X_B||_F^2.
    if (v < options_.v_threshold * data_scale) {
      out.reached_threshold = true;
      break;
    }
    // Extra guard: stop on stagnation.
    const std::size_t hist = out.objective_history.size();
    if (hist >= 2) {
      const double prev = out.objective_history[hist - 2];
      if (std::abs(prev - v) <= 1e-10 * std::max(prev, 1.0)) break;
      // Opt-in early stop (RsvdOptions::stagnation_tol): end the solve
      // once a sweep still improves the objective but by less than the
      // tolerance.  A transient increase (possible under kPaperLiteral's
      // cross-term-free curvature) is NOT stagnation — keep sweeping and
      // let the best_v tracking hold the best iterate.  Off by default —
      // the full max_iters trajectory is the paper's.
      if (options_.stagnation_tol > 0.0 && prev >= v &&
          prev - v <=
              options_.stagnation_tol * std::max(std::abs(prev), 1.0)) {
        out.stagnated = true;
        break;
      }
    }
  }

  if (out.l.empty()) {  // max_iters == 0 edge case
    out.l = l_hat;
    out.r = r_hat;
  }
  linalg::multiply_transposed_into(out.l, out.r, out.x_hat);
  return out;
}

}  // namespace iup::core
