// LU factorisation with partial pivoting and linear solves.
//
// The solver pipeline's normal equations are SPD by construction and go
// through the upper Cholesky factor in cholesky.hpp; the vector `solve`
// here is the LU fallback solve_spd_into pays for when that factor fails
// even after the diagonal bump (a genuinely indefinite system).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace iup::linalg {

struct LuResult {
  Matrix lu;                      ///< packed L (unit lower) and U factors
  std::vector<std::size_t> perm;  ///< row permutation applied to the input
  bool singular = false;          ///< true when a zero pivot was hit
};

/// Factor a square matrix: P a = L U.
LuResult lu_decompose(const Matrix& a);

/// Solve a x = b using a precomputed factorisation.
std::vector<double> lu_solve(const LuResult& f, std::span<const double> b);

/// Solve a x = b (square, non-singular; throws on singular input).
std::vector<double> solve(const Matrix& a, std::span<const double> b);

}  // namespace iup::linalg
