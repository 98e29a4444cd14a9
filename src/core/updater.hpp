// The iUpdater pipeline (Fig. 10): shared pieces of the four modules.
//
//  1. Inherent Correlation Acquisition — MIC extraction from the original
//     (or latest updated) fingerprint matrix, then the LRR solve for Z.
//  2. Reconstruction Data Collection — the caller supplies fresh X_B
//     (no-decrease matrix, no labor) and X_R (reference-location survey,
//     the only labor-cost measurements).
//  3. Fingerprint Matrix Reconstruction — self-augmented RSVD.
//  4. Target Localization — see loc/ (OMP) which consumes the result.
//
// The pipeline's service entry point is iup::api::Engine
// (src/api/engine.hpp): versioned snapshots, Status-based error handling,
// batched updates, warm starts carried in each site's published bundle
// and pluggable solver backends.  The
// pre-Engine IUpdater shim that used to live here was retired once its
// last callers migrated; what remains is the correlation-acquisition seam
// the Engine (and tests) drive directly, plus the input value type every
// layer shares.
#pragma once

#include <cstddef>
#include <vector>

#include "base/ids.hpp"
#include "core/lrr.hpp"
#include "core/mic.hpp"
#include "core/rsvd.hpp"
#include "core/self_augmented.hpp"

namespace iup::core {

/// Inherent-correlation acquisition (Eq. 12): solve the LRR with the MIC
/// columns as dictionary and return the full ADMM result (Z plus the
/// multiplier state and final penalty), optionally resuming from a
/// previous solve's state — the warm path of the correlation refresh: the
/// database drifts slowly between updates, so the previous snapshot's Z
/// and multipliers are a near-converged iterate for the next refresh.
LrrResult acquire_correlation_full(const MicResult& mic,
                                   const linalg::Matrix& x,
                                   const LrrOptions& options,
                                   const LrrWarmStart* warm = nullptr);

struct UpdateInputs {
  linalg::Matrix x_b;  ///< M x N no-decrease measurements (zeros elsewhere)
  linalg::Matrix x_r;  ///< M x n fresh reference-location survey (Eq. 13)
  /// Per-link source provenance of the measurement campaign (one entry
  /// per row of x_b / x_r), empty when unattributed.  The numeric core
  /// ignores it; api::Engine rejects inputs whose provenance disagrees
  /// with the site's registered source table.
  std::vector<SourceInfo> sources;
};

}  // namespace iup::core
