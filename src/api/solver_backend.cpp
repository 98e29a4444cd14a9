#include "api/solver_backend.hpp"

#include "core/self_augmented.hpp"

namespace iup::api {

core::RsvdResult SelfAugmentedBackend::solve(
    const core::RsvdProblem& problem, const core::BandLayout& layout) const {
  const core::SelfAugmentedRsvd solver(layout, options_);
  return solver.solve(problem);
}

}  // namespace iup::api
