// The solver seam of the update path.
//
// The engine solves through this interface instead of calling
// SelfAugmentedRsvd directly, so a caller can wrap the paper's solver
// (perfbench times it through a decorator) or substitute another
// completion solver via EngineConfig::solver.  The paper's ablations
// (basic RSVD, correlation only, NLC only, ALS only) are RsvdOptions
// settings of SelfAugmentedBackend, not separate backends.  Backends are
// stateless function objects over a fully-specified RsvdProblem; one
// instance may serve any number of sites concurrently.
#pragma once

#include <string>

#include "core/fingerprint.hpp"
#include "core/rsvd.hpp"

namespace iup::api {

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// Display name, used in the engine's solver-failure statuses.
  virtual std::string name() const = 0;

  /// True when the backend consumes the Constraint-1 prediction
  /// `problem.p = X_R * Z`; the engine skips that product otherwise.
  virtual bool uses_correlation() const = 0;

  /// True when the backend consumes an explicit warm-start factor
  /// `problem.l0`; the engine's versioned warm-start cache is bypassed
  /// (no factor copies, no retained memory) otherwise.
  virtual bool uses_warm_start() const { return false; }

  /// Reconstruct the full fingerprint matrix for one problem.  `layout` is
  /// the band structure Constraint 2 operates on.
  virtual core::RsvdResult solve(const core::RsvdProblem& problem,
                                 const core::BandLayout& layout) const = 0;
};

/// The paper's self-augmented RSVD (Eq. 18 / Algorithm 1) with explicit
/// options; the engine's default backend.
class SelfAugmentedBackend final : public SolverBackend {
 public:
  explicit SelfAugmentedBackend(core::RsvdOptions options = {})
      : options_(options) {}

  std::string name() const override { return "self-augmented"; }
  bool uses_correlation() const override { return options_.use_constraint1; }
  bool uses_warm_start() const override {
    return options_.init == core::FactorInit::kWarmStart;
  }
  core::RsvdResult solve(const core::RsvdProblem& problem,
                         const core::BandLayout& layout) const override;

 private:
  core::RsvdOptions options_;
};

}  // namespace iup::api
