// OMP and KNN localizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "linalg/qr.hpp"
#include "linalg/vec.hpp"
#include "loc/knn.hpp"
#include "loc/omp.hpp"
#include "test_util.hpp"

namespace iup::loc {
namespace {

TEST(Omp, RecoversExactAtoms) {
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  const OmpLocalizer omp(x, {});
  for (std::size_t j = 0; j < x.cols(); j += 7) {
    EXPECT_EQ(omp.localize(x.col(j)).cell, j) << "column " << j;
  }
}

TEST(Omp, MeasurementLengthMismatchThrows) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const OmpLocalizer omp(x, {});
  EXPECT_THROW((void)omp.localize(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Omp, EmptyDatabaseThrows) {
  EXPECT_THROW(OmpLocalizer(linalg::Matrix{}, {}), std::invalid_argument);
}

TEST(Omp, BaselineLengthMismatchThrows) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  EXPECT_THROW(OmpLocalizer(x, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Omp, NoisyMeasurementsMostlyNearTruth) {
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  const OmpLocalizer omp(x, {});
  sim::Sampler sampler(run.testbed, "omp-test");
  double total_err = 0.0;
  const std::size_t n = run.testbed.num_cells();
  for (std::size_t j = 0; j < n; ++j) {
    const auto y = sampler.online_measurement(j, 0, 5);
    total_err += cell_distance_m(run.testbed.deployment(), j,
                                 omp.localize(y).cell);
  }
  EXPECT_LT(total_err / static_cast<double>(n), 2.5);  // mean error bound
}

TEST(Omp, SparseSolveFindsPlantedTwoTargetSupport) {
  // Multi-target extension: y = atom_a + atom_b should put both cells in
  // the OMP support.
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  OmpOptions opt;
  opt.max_atoms = 4;
  opt.subtract_baseline = true;
  const OmpLocalizer omp(x, {}, opt);
  const std::size_t a = 5, b = 60;  // targets in different bands
  // Combined perturbation: sum of the two baseline-subtracted columns.
  std::vector<double> y(x.rows());
  const auto& base = omp.baselines();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = base[i] + (x(i, a) - base[i]) + (x(i, b) - base[i]);
  }
  const auto sol = omp.solve(y);
  // Fingerprint atoms within a band are strongly correlated (spatially
  // smooth multipath), so superposed targets lose within-band resolution;
  // what multi-target OMP reliably delivers is (i) detection of both
  // affected links and (ii) an accurate fix for at least one target.
  const auto& dep = run.testbed.deployment();
  const auto band_found = [&](std::size_t target) {
    for (std::size_t s : sol.support) {
      if (dep.band_of(s) == dep.band_of(target)) return true;
    }
    return false;
  };
  const auto best_distance = [&](std::size_t target) {
    double best = 1e9;
    for (std::size_t s : sol.support) {
      best = std::min(best, cell_distance_m(dep, s, target));
    }
    return best;
  };
  EXPECT_TRUE(band_found(a));
  EXPECT_TRUE(band_found(b));
  EXPECT_LT(std::min(best_distance(a), best_distance(b)), 1.25);
}

TEST(Omp, RawDomainVariantWorksOnExactColumns) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  OmpOptions opt;
  opt.subtract_baseline = false;
  const OmpLocalizer omp(x, {}, opt);
  // Raw-domain matching is weaker but must still recover exact columns.
  std::size_t hits = 0;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    if (omp.localize(x.col(j)).cell == j) ++hits;
  }
  EXPECT_GT(hits, x.cols() / 2);
}

TEST(Omp, ResidualThresholdStopsAtomSelection) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  OmpOptions opt;
  opt.max_atoms = 5;
  opt.residual_xi = 1.0;  // ||r||^2 < ||y||^2 immediately after one atom
  const OmpLocalizer omp(x, {}, opt);
  const auto sol = omp.solve(x.col(10));
  EXPECT_EQ(sol.support.size(), 1u);
}

// Reference OMP: the straightforward allocating solve (per-atom column
// copies, select_columns, linalg::least_squares, Matrix * vector, sub).
// OmpLocalizer::solve must reproduce it bit for bit.
class ReferenceOmp {
 public:
  ReferenceOmp(const OmpLocalizer& omp, const OmpOptions& options)
      : options_(options), baselines_(omp.baselines()) {
    atoms_ = omp.database();
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
    dictionary_ = atoms_;
    for (std::size_t j = 0; j < dictionary_.cols(); ++j) {
      const double n = linalg::norm2(dictionary_.col(j));
      if (n > 0.0) {
        for (std::size_t i = 0; i < dictionary_.rows(); ++i) {
          dictionary_(i, j) /= n;
        }
      }
    }
  }

  OmpLocalizer::SparseSolution solve(std::span<const double> measurement) const {
    std::vector<double> y(measurement.begin(), measurement.end());
    if (options_.subtract_baseline) {
      for (std::size_t i = 0; i < y.size(); ++i) y[i] -= baselines_[i];
    }
    if (options_.remove_common_mode) {
      const double mean = linalg::mean(y);
      for (double& v : y) v -= mean;
    }
    OmpLocalizer::SparseSolution sol;
    std::vector<double> residual = y;
    const double y_norm_sq = std::max(linalg::dot(y, y), 1e-300);
    std::vector<bool> used(atoms_.cols(), false);
    for (std::size_t k = 0; k < options_.max_atoms; ++k) {
      std::size_t best = 0;
      double best_corr = -1.0;
      for (std::size_t j = 0; j < dictionary_.cols(); ++j) {
        if (used[j]) continue;
        const double corr =
            std::abs(linalg::dot(residual, dictionary_.col(j)));
        if (corr > best_corr) {
          best_corr = corr;
          best = j;
        }
      }
      if (best_corr <= 0.0) break;
      used[best] = true;
      sol.support.push_back(best);
      const linalg::Matrix sub = atoms_.select_columns(sol.support);
      sol.coefficients = linalg::least_squares(sub, y);
      const auto fitted = sub * std::span<const double>(sol.coefficients);
      residual = linalg::sub(y, fitted);
      const double res_sq = linalg::dot(residual, residual);
      sol.residual_norm = std::sqrt(res_sq);
      if (res_sq < options_.residual_xi * y_norm_sq) break;
    }
    return sol;
  }

 private:
  OmpOptions options_;
  std::vector<double> baselines_;
  linalg::Matrix atoms_;
  linalg::Matrix dictionary_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Support, coefficients and residual norm of `omp.solve(y)` are
/// bit-identical to the reference solve, and localize() reports the first
/// atom and the same residual bits.
::testing::AssertionResult matches_reference(const OmpLocalizer& omp,
                                             const ReferenceOmp& reference,
                                             std::span<const double> y) {
  const auto want = reference.solve(y);
  const auto got = omp.solve(y);
  if (got.support != want.support) {
    return ::testing::AssertionFailure() << "support differs";
  }
  if (got.coefficients.size() != want.coefficients.size() ||
      std::memcmp(got.coefficients.data(), want.coefficients.data(),
                  want.coefficients.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "coefficients differ";
  }
  if (!same_bits(got.residual_norm, want.residual_norm)) {
    return ::testing::AssertionFailure() << "residual_norm differs";
  }
  const LocalizationEstimate est = omp.localize(y);
  if (want.support.empty() || est.cell != want.support.front() ||
      !same_bits(est.score, want.residual_norm)) {
    return ::testing::AssertionFailure() << "localize() differs";
  }
  return ::testing::AssertionSuccess();
}

// Every room x every subtract_baseline/remove_common_mode combination x
// exact, noisy and cross-stamp measurements.  All twelve localizers run
// back to back on this one thread, so the per-thread workspace is reused
// across database shapes and options between consecutive calls.
TEST(Omp, SolveIsBitIdenticalToReferenceSolve) {
  struct Case {
    std::unique_ptr<OmpLocalizer> omp;
    std::unique_ptr<ReferenceOmp> reference;
    std::vector<std::vector<double>> measurements;
  };
  std::vector<Case> cases;
  std::size_t longest = 0;
  for (const auto* run : {&iup::test::office_run(), &iup::test::hall_run(),
                          &iup::test::library_run()}) {
    const auto& x = run->ground_truth.x.front();
    const auto& later = run->ground_truth.x.back();
    std::vector<std::vector<double>> measurements;
    sim::Sampler sampler(run->testbed, "omp-oracle");
    for (std::size_t j = 0; j < x.cols(); ++j) {
      measurements.push_back(x.col(j));
      measurements.push_back(sampler.online_measurement(j, 0, 5));
      measurements.push_back(later.col(j));
    }
    longest = std::max(longest, measurements.size());
    for (const bool subtract : {true, false}) {
      for (const bool common : {false, true}) {
        OmpOptions opt;
        opt.subtract_baseline = subtract;
        opt.remove_common_mode = common;
        auto omp = std::make_unique<OmpLocalizer>(x, std::vector<double>{},
                                                  opt);
        auto reference = std::make_unique<ReferenceOmp>(*omp, opt);
        cases.push_back({std::move(omp), std::move(reference), measurements});
      }
    }
  }
  std::size_t compared = 0;
  for (std::size_t k = 0; k < longest; ++k) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const Case& tc = cases[c];
      if (k >= tc.measurements.size()) continue;
      ASSERT_TRUE(matches_reference(*tc.omp, *tc.reference,
                                    tc.measurements[k]))
          << "case " << c << " measurement " << k;
      ++compared;
    }
  }
  EXPECT_GT(compared, 3000u);
}

TEST(Omp, TiedCorrelationsResolveToLowestIndex) {
  // Appending copies of the first columns makes their correlations tie
  // exactly; the strict '>' scan must keep the lower index, as the
  // reference does.
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const std::size_t copies = 12;
  linalg::Matrix db(x.rows(), x.cols() + copies);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < db.cols(); ++j) {
      db(i, j) = x(i, j < x.cols() ? j : j - x.cols());
    }
  }
  const OmpLocalizer omp(db, {});
  const ReferenceOmp reference(omp, OmpOptions{});
  for (std::size_t j = 0; j < copies; ++j) {
    const auto y = db.col(x.cols() + j);
    EXPECT_TRUE(matches_reference(omp, reference, y)) << "column " << j;
    EXPECT_EQ(omp.localize(y).cell, j);
  }
}

TEST(Knn, NearestColumnExact) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const KnnLocalizer knn(x, KnnOptions{1});
  for (std::size_t j = 0; j < x.cols(); j += 11) {
    EXPECT_EQ(knn.localize(x.col(j)).cell, j);
  }
}

TEST(Knn, InvalidConstructionThrows) {
  EXPECT_THROW(KnnLocalizer(linalg::Matrix{}, {}), std::invalid_argument);
  EXPECT_THROW(KnnLocalizer(linalg::Matrix(2, 2), KnnOptions{0}),
               std::invalid_argument);
}

TEST(Knn, CentroidAveragingWithDeployment) {
  const auto& run = iup::test::office_run();
  const auto& x = run.ground_truth.at_day(0);
  KnnLocalizer knn(x, KnnOptions{3});
  knn.set_deployment(&run.testbed.deployment());
  sim::Sampler sampler(run.testbed, "knn-test");
  double total_err = 0.0;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    const auto y = sampler.online_measurement(j, 0, 5);
    total_err += cell_distance_m(run.testbed.deployment(), j,
                                 knn.localize(y).cell);
  }
  EXPECT_LT(total_err / static_cast<double>(x.cols()), 2.5);
}

TEST(Knn, MeasurementLengthMismatchThrows) {
  const auto& x = iup::test::office_run().ground_truth.at_day(0);
  const KnnLocalizer knn(x);
  EXPECT_THROW((void)knn.localize(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Localizer, CellDistance) {
  const auto& dep = iup::test::office_run().testbed.deployment();
  EXPECT_DOUBLE_EQ(cell_distance_m(dep, 3, 3), 0.0);
  EXPECT_NEAR(cell_distance_m(dep, 0, 1), 0.6, 1e-12);  // adjacent slots
}

}  // namespace
}  // namespace iup::loc
