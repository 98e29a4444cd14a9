#include "loc/omp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/qr.hpp"
#include "linalg/vec.hpp"

namespace iup::loc {

namespace {

// Per-row median of the entries of `x`; a robust baseline estimate because
// most entries of a fingerprint row are no-decrease (unaffected) readings.
std::vector<double> row_medians(const linalg::Matrix& x) {
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto row = x.row(i);
    std::nth_element(row.begin(), row.begin() + row.size() / 2, row.end());
    out[i] = row[row.size() / 2];
  }
  return out;
}

}  // namespace

OmpLocalizer::OmpLocalizer(linalg::Matrix database,
                           std::vector<double> baselines, OmpOptions options)
    : database_(std::move(database)),
      baselines_(std::move(baselines)),
      options_(options) {
  if (database_.empty()) {
    throw std::invalid_argument("OmpLocalizer: empty database");
  }
  if (baselines_.empty()) {
    baselines_ = row_medians(database_);
  }
  if (baselines_.size() != database_.rows()) {
    throw std::invalid_argument("OmpLocalizer: baseline length mismatch");
  }

  // Matching-domain atoms: optionally baseline-subtracted columns.
  atoms_ = database_;
  if (options_.subtract_baseline) {
    for (std::size_t i = 0; i < atoms_.rows(); ++i) {
      for (std::size_t j = 0; j < atoms_.cols(); ++j) {
        atoms_(i, j) -= baselines_[i];
      }
    }
  }
  if (options_.remove_common_mode) {
    for (std::size_t j = 0; j < atoms_.cols(); ++j) {
      double mean = 0.0;
      for (std::size_t i = 0; i < atoms_.rows(); ++i) mean += atoms_(i, j);
      mean /= static_cast<double>(atoms_.rows());
      for (std::size_t i = 0; i < atoms_.rows(); ++i) atoms_(i, j) -= mean;
    }
  }
  // Unit-norm copy for the greedy correlation step.
  dictionary_ = atoms_;
  for (std::size_t j = 0; j < dictionary_.cols(); ++j) {
    const auto col = dictionary_.col(j);
    const double n = linalg::norm2(col);
    if (n > 0.0) {
      for (std::size_t i = 0; i < dictionary_.rows(); ++i) {
        dictionary_(i, j) /= n;
      }
    }
  }
}

namespace {

// Per-thread scratch of one solve.  Every buffer is resized
// capacity-reusingly, so after the first call on a thread at a given (or
// smaller) shape a solve touches no heap.  Shared by every OmpLocalizer the
// thread calls into; a solve never re-enters another, so one suffices.
struct Workspace {
  std::vector<double> y;         ///< matching-domain measurement
  std::vector<double> residual;  ///< y - sub * coefficients
  std::vector<double> corr;      ///< <residual, unit atom j> for every j
  std::vector<bool> used;
  linalg::Matrix sub;            ///< selected raw-scale atoms (M x |support|)
  linalg::QrWorkspace qr;
  OmpLocalizer::SparseSolution sol;
};

}  // namespace

const OmpLocalizer::SparseSolution& OmpLocalizer::solve_in_workspace(
    std::span<const double> measurement) const {
  if (measurement.size() != database_.rows()) {
    throw std::invalid_argument("OmpLocalizer: measurement length mismatch");
  }
  thread_local Workspace ws;
  const std::size_t m = dictionary_.rows();
  const std::size_t n = dictionary_.cols();
  // Size the refit buffers for the largest support this call can fit, so
  // the first call at a shape is the only one that allocates.
  const std::size_t atoms = std::min({options_.max_atoms, n, m});
  ws.sub.resize(m, atoms);
  ws.qr.reserve(m, atoms);
  SparseSolution& sol = ws.sol;
  sol.support.reserve(atoms);
  sol.coefficients.reserve(atoms);

  std::vector<double>& y = ws.y;
  y.assign(measurement.begin(), measurement.end());
  if (options_.subtract_baseline) {
    for (std::size_t i = 0; i < y.size(); ++i) y[i] -= baselines_[i];
  }
  if (options_.remove_common_mode) {
    const double mean = linalg::mean(y);
    for (double& v : y) v -= mean;
  }

  sol.support.clear();
  sol.coefficients.clear();
  sol.residual_norm = 0.0;
  ws.residual.assign(y.begin(), y.end());
  ws.corr.resize(n);
  const double y_norm_sq = std::max(linalg::dot(y, y), 1e-300);
  ws.used.assign(n, false);

  for (std::size_t k = 0; k < options_.max_atoms; ++k) {
    // Greedy step: atom with the largest |<residual, atom>|.  One panel
    // pass over the row-major dictionary; dot_panel guarantees each
    // corr[j] is bit-identical to dot(residual, column j).
    linalg::kernels::dot_panel(ws.residual.data(), dictionary_.data().data(),
                               n, m, n, ws.corr.data());
    std::size_t best = 0;
    double best_corr = -1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (ws.used[j]) continue;
      const double corr = std::abs(ws.corr[j]);
      if (corr > best_corr) {
        best_corr = corr;
        best = j;
      }
    }
    if (best_corr <= 0.0) break;
    ws.used[best] = true;
    sol.support.push_back(best);

    // Least-squares refit of y on the selected atoms.
    const std::size_t s = sol.support.size();
    ws.sub.resize(m, s);
    for (std::size_t c = 0; c < s; ++c) {
      for (std::size_t i = 0; i < m; ++i) {
        ws.sub(i, c) = atoms_(i, sol.support[c]);
      }
    }
    linalg::least_squares_into(ws.sub, y, ws.qr, sol.coefficients);

    // Updated residual y - sub * coefficients, accumulated per row in the
    // same order as Matrix * vector.
    for (std::size_t i = 0; i < m; ++i) {
      double fitted = 0.0;
      for (std::size_t c = 0; c < s; ++c) {
        fitted += ws.sub(i, c) * sol.coefficients[c];
      }
      ws.residual[i] = y[i] - fitted;
    }
    const double res_sq = linalg::dot(ws.residual, ws.residual);
    sol.residual_norm = std::sqrt(res_sq);
    if (res_sq < options_.residual_xi * y_norm_sq) break;
  }
  return sol;
}

OmpLocalizer::SparseSolution OmpLocalizer::solve(
    std::span<const double> measurement) const {
  return solve_in_workspace(measurement);
}

LocalizationEstimate OmpLocalizer::localize(
    std::span<const double> measurement) const {
  const SparseSolution& sol = solve_in_workspace(measurement);
  LocalizationEstimate est;
  if (sol.support.empty()) {
    est.cell = 0;
    est.score = std::numeric_limits<double>::infinity();
    return est;
  }
  // The first greedy atom is the single-target estimate.  (Do NOT pick the
  // largest refit coefficient: weak-attenuation atoms have small norms and
  // soak up large coefficients, which systematically drags estimates to
  // the link midpoint.)
  est.cell = sol.support.front();
  est.score = sol.residual_norm;
  return est;
}

}  // namespace iup::loc
