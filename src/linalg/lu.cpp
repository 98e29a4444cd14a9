#include "linalg/lu.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace iup::linalg {

LuResult lu_decompose(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("lu_decompose: matrix must be square");
  }
  const std::size_t n = a.rows();
  LuResult f;
  f.lu = a;
  f.perm.resize(n);
  std::iota(f.perm.begin(), f.perm.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at/below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(f.lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(f.lu(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (best == 0.0) {
      f.singular = true;
      continue;
    }
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(f.lu(k, j), f.lu(pivot, j));
      std::swap(f.perm[k], f.perm[pivot]);
    }
    const double pivot_val = f.lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = f.lu(i, k) / pivot_val;
      f.lu(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        f.lu(i, j) -= m * f.lu(k, j);
      }
    }
  }
  return f;
}

std::vector<double> lu_solve(const LuResult& f, std::span<const double> b) {
  const std::size_t n = f.lu.rows();
  if (b.size() != n) throw std::invalid_argument("lu_solve: size mismatch");
  if (f.singular) throw std::runtime_error("lu_solve: singular matrix");

  // Forward substitution with the permuted right-hand side.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[f.perm[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= f.lu(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = y[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= f.lu(i, j) * x[j];
    x[i] = acc / f.lu(i, i);
  }
  return x;
}

std::vector<double> solve(const Matrix& a, std::span<const double> b) {
  return lu_solve(lu_decompose(a), b);
}

}  // namespace iup::linalg
