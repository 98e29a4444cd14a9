#include "core/updater.hpp"

namespace iup::core {

LrrResult acquire_correlation_full(const MicResult& mic,
                                   const linalg::Matrix& x,
                                   const LrrOptions& options,
                                   const LrrWarmStart* warm) {
  return solve_lrr(mic.x_mic, x, options, warm);
}

}  // namespace iup::core
