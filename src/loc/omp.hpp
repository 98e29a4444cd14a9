// Orthogonal Matching Pursuit localizer — Section V of the paper.
//
// The paper models localization as y = X_hat * W + noise with a 0/1 sparse
// location vector W (Eq. 26) and recovers W greedily by OMP (Eq. 27),
// stopping when the residual drops below xi.
//
// Practical detail: raw dBm fingerprint columns are dominated by the
// per-link baseline level and are therefore nearly collinear, which blunts
// the greedy correlation step.  Like compressive-sensing DFL systems
// built on the same formulation [18], we match in the *perturbation*
// domain by default: the measured (or estimated) no-target baseline is
// subtracted from y and from every column, turning fingerprints into
// sparse attenuation signatures.  Set `subtract_baseline = false` for the
// raw-domain variant; both are exercised in tests and benches.
//
// Performance: localize() is the serving read path, so a steady-state
// call makes zero heap allocations (machine-checked by
// tests/loc_alloc_test.cpp).  Each greedy step scores all N atoms with
// ONE linalg::kernels::dot_panel pass over the row-major M x N unit
// dictionary — no per-atom column copies — and the kernel's contract
// (out[c] bit-identical to dot(a, column c) at every dispatch level)
// keeps the correlations, and so the argmax and its tie-breaking, exactly
// those of a per-column dot loop.  The refit runs linalg::
// least_squares_into, and the selected atoms, correlations, residual and
// solution all live in a per-thread workspace sized to the thread's
// high-water shape; localize() stays const and lock-free.  solve() runs
// the same path and copies the solution out (its only allocations).
#pragma once

#include <optional>

#include "loc/localizer.hpp"

namespace iup::loc {

struct OmpOptions {
  std::size_t max_atoms = 3;  ///< sparsity budget (1 target + slack atoms)
  double residual_xi = 1e-3;  ///< stop threshold on ||y - X w||_2^2 (Eq. 27),
                              ///< relative to ||y||_2^2
  bool subtract_baseline = true;
  /// Also remove the across-link mean from the matching domain.
  /// Differential signatures are immune to common-mode interference *and*
  /// to common-mode drift — which makes even a stale database usable and
  /// would mask the staleness effect the paper evaluates (Figs. 21/22).
  /// Off by default to stay faithful to the paper's raw-RSS matching
  /// (Eq. 26); turn on for deployments that prefer drift tolerance over
  /// absolute fidelity.
  bool remove_common_mode = false;
};

class OmpLocalizer final : public Localizer {
 public:
  /// `database` is the fingerprint matrix (M x N).  `baselines` holds the
  /// per-link no-target RSS used for perturbation-domain matching; pass an
  /// empty vector to derive it from the database's no-decrease entries
  /// (per-row median).
  OmpLocalizer(linalg::Matrix database, std::vector<double> baselines,
               OmpOptions options = {});

  LocalizationEstimate localize(
      std::span<const double> measurement) const override;

  std::string name() const override { return "OMP"; }

  /// Full OMP solve: the sparse weight vector (support + coefficients);
  /// exposed for the multi-target extension and for tests.
  struct SparseSolution {
    std::vector<std::size_t> support;
    std::vector<double> coefficients;
    double residual_norm = 0.0;
  };
  SparseSolution solve(std::span<const double> measurement) const;

  const linalg::Matrix& database() const { return database_; }
  const std::vector<double>& baselines() const { return baselines_; }

 private:
  /// Run OMP in this thread's workspace; the result lives there until
  /// the thread's next solve.
  const SparseSolution& solve_in_workspace(
      std::span<const double> measurement) const;

  linalg::Matrix database_;         ///< raw fingerprints
  linalg::Matrix dictionary_;       ///< matching-domain columns (normalised)
  linalg::Matrix atoms_;            ///< matching-domain columns (raw scale)
  std::vector<double> baselines_;
  OmpOptions options_;
};

}  // namespace iup::loc
