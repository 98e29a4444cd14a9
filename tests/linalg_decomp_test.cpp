// QR, column-pivoted QR, LU, Cholesky, least squares.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "linalg/vec.hpp"
#include "test_util.hpp"

namespace iup::linalg {
namespace {

using iup::test::expect_matrix_near;
using iup::test::random_low_rank;
using iup::test::random_matrix;

TEST(Qr, FactorsMultiplyBack) {
  rng::Rng rng(1);
  const Matrix a = random_matrix(6, 4, rng);
  const auto f = qr(a);
  expect_matrix_near(f.q * f.r, a, 1e-10);
}

TEST(Qr, QHasOrthonormalColumns) {
  rng::Rng rng(2);
  const Matrix a = random_matrix(7, 5, rng);
  const auto f = qr(a);
  expect_matrix_near(f.q.gram(), Matrix::identity(5), 1e-10);
}

TEST(Qr, RIsUpperTriangular) {
  rng::Rng rng(3);
  const Matrix a = random_matrix(5, 5, rng);
  const auto f = qr(a);
  for (std::size_t i = 0; i < f.r.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(f.r(i, j), 0.0, 1e-12);
    }
  }
}

TEST(Qrcp, PermutedFactorsMultiplyBack) {
  rng::Rng rng(4);
  const Matrix a = random_matrix(6, 8, rng);
  const auto f = qr_column_pivoted(a);
  const Matrix permuted = a.select_columns(f.perm);
  expect_matrix_near(f.q * f.r, permuted, 1e-10);
}

TEST(Qrcp, DetectsRank) {
  rng::Rng rng(5);
  const Matrix a = random_low_rank(6, 10, 3, rng);
  const auto f = qr_column_pivoted(a, 1e-8);
  EXPECT_EQ(f.rank, 3u);
}

TEST(Qrcp, FullRankSquare) {
  rng::Rng rng(6);
  const Matrix a = random_matrix(5, 5, rng);
  EXPECT_EQ(qr_column_pivoted(a).rank, 5u);
}

TEST(Qrcp, ZeroMatrixRankZero) {
  EXPECT_EQ(qr_column_pivoted(Matrix(4, 4)).rank, 0u);
}

TEST(LeastSquares, ExactForConsistentSystem) {
  rng::Rng rng(7);
  const Matrix a = random_matrix(8, 3, rng);
  const std::vector<double> x_true = {1.5, -2.0, 0.5};
  const auto b = a * std::span<const double>(x_true);
  const auto x = least_squares(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(LeastSquares, ResidualOrthogonalToColumns) {
  rng::Rng rng(8);
  const Matrix a = random_matrix(10, 4, rng);
  std::vector<double> b(10);
  for (double& v : b) v = rng.normal();
  const auto x = least_squares(a, b);
  const auto fitted = a * std::span<const double>(x);
  const auto r = sub(b, fitted);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    EXPECT_NEAR(dot(r, a.col(j)), 0.0, 1e-9);
  }
}

TEST(LeastSquares, UnderdeterminedThrows) {
  const Matrix a(2, 3);
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)least_squares(a, b), std::invalid_argument);
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(LeastSquares, ReusedWorkspaceIsBitIdenticalAcrossShapes) {
  // One workspace grows and shrinks through every shape; each call must
  // match the allocating forms bit for bit.
  rng::Rng rng(17);
  QrWorkspace ws;
  std::vector<double> x;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {8, 1}, {8, 3}, {6, 2}, {16, 3}, {8, 1}, {6, 2}};
  for (const auto& [m, n] : shapes) {
    const Matrix a = random_matrix(m, n, rng);
    std::vector<double> b(m);
    for (double& v : b) v = rng.normal();
    least_squares_into(a, b, ws, x);
    EXPECT_TRUE(bits_equal(x, least_squares(a, b))) << m << "x" << n;
    const QrResult f = qr(a);
    qr_into(a, ws);
    EXPECT_TRUE(bits_equal(ws.q.data(), f.q.data())) << m << "x" << n;
    EXPECT_TRUE(bits_equal(ws.r.data(), f.r.data())) << m << "x" << n;
    EXPECT_EQ(ws.q.rows(), f.q.rows());
    EXPECT_EQ(ws.r.cols(), f.r.cols());
  }
}

TEST(LeastSquares, WorkspaceFormKeepsErrorTypes) {
  QrWorkspace ws;
  std::vector<double> x;
  const Matrix wide(2, 3);
  const std::vector<double> b2 = {1.0, 2.0};
  EXPECT_THROW(least_squares_into(wide, b2, ws, x), std::invalid_argument);
  EXPECT_THROW((void)least_squares(wide, b2), std::invalid_argument);
  // A zero column leaves an exactly-zero pivot on R's diagonal.
  const Matrix deficient{{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  const std::vector<double> b3 = {1.0, 2.0, 3.0};
  EXPECT_THROW(least_squares_into(deficient, b3, ws, x), std::runtime_error);
  EXPECT_THROW((void)least_squares(deficient, b3), std::runtime_error);
  EXPECT_THROW(least_squares_into(deficient, b2, ws, x),
               std::invalid_argument);
  // The workspace stays usable after a throw.
  const Matrix a{{1.0, 0.0}, {0.0, 2.0}, {0.0, 0.0}};
  least_squares_into(a, b3, ws, x);
  EXPECT_TRUE(bits_equal(x, least_squares(a, b3)));
}

TEST(Lu, SolveKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b = {3.0, 5.0};
  const auto x = solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SingularThrowsOnSolve) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)solve(a, b), std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
  EXPECT_THROW((void)lu_decompose(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, FactorsSpdMatrix) {
  rng::Rng rng(11);
  const Matrix g = random_matrix(5, 5, rng);
  Matrix spd = g.gram();
  for (std::size_t i = 0; i < 5; ++i) spd(i, i) += 1.0;
  Matrix r = spd;
  std::vector<double> diag(5);
  ASSERT_TRUE(factor_spd(r, diag));
  // The factor is the upper triangle; the strict lower one is untouched.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(r(i, j), spd(i, j));
      r(i, j) = 0.0;
    }
  }
  expect_matrix_near(r.transpose() * r, spd, 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix ind{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  Matrix work = ind;
  std::vector<double> diag(2);
  EXPECT_FALSE(factor_spd(work, diag));
}

TEST(Cholesky, SolveMatchesLu) {
  rng::Rng rng(12);
  const Matrix g = random_matrix(6, 6, rng);
  Matrix spd = g.gram();
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) += 2.0;
  std::vector<double> b(6);
  for (double& v : b) v = rng.normal();
  Matrix work = spd;
  std::vector<double> x_chol = b;
  std::vector<double> diag(6);
  solve_spd_into(work, x_chol, diag);
  const auto x_lu = solve(spd, b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x_chol[i], x_lu[i], 1e-8);
}

TEST(Cholesky, SolveSpdFallsBackOnIndefinite) {
  const Matrix ind{{1.0, 2.0}, {2.0, 1.0}};
  Matrix work = ind;
  std::vector<double> x = {1.0, 1.0};
  std::vector<double> diag(2);
  solve_spd_into(work, x, diag);  // must not throw: LU fallback
  const auto fitted = ind * std::span<const double>(x);
  EXPECT_NEAR(fitted[0], 1.0, 1e-10);
  EXPECT_NEAR(fitted[1], 1.0, 1e-10);
}

class SolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolveSweep, LuSolveResidualSmall) {
  const int n = GetParam();
  rng::Rng rng(static_cast<std::uint64_t>(100 + n));
  const Matrix a = random_matrix(n, n, rng);
  std::vector<double> b(n);
  for (double& v : b) v = rng.normal();
  const auto x = solve(a, b);
  const auto fitted = a * std::span<const double>(x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(fitted[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace iup::linalg
