// Householder QR factorisations.
//
// Two flavours are provided:
//  * plain QR, used by the OMP localizer's least-squares refits through
//    the allocation-free qr_into / least_squares_into forms;
//  * column-pivoted (rank-revealing) QR, used as a cross-check for the
//    RREF-based MIC extraction — the pivot order of QRCP is an independent
//    way of picking a maximal independent column set.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace iup::linalg {

struct QrResult {
  Matrix q;  ///< m x k with orthonormal columns (k = min(m, n))
  Matrix r;  ///< k x n upper triangular
};

/// Thin Householder QR: a = q * r.  Wraps qr_into with a fresh workspace.
QrResult qr(const Matrix& a);

/// Caller-owned buffers of the `_into` forms below.  Every member is
/// resized capacity-reusingly (Matrix::resize, vector::assign), so a
/// workspace reused at or below its high-water shape never touches the
/// heap — the OMP localizer keeps one per thread for its refits.
struct QrWorkspace {
  Matrix q;                   ///< output: m x k thin Q
  Matrix r;                   ///< output: k x n upper-triangular R
  Matrix work;                ///< m x n copy of `a` the reflectors act on
  Matrix reflectors;          ///< k x m; row j is Householder vector v_j
  std::vector<double> betas;  ///< k reflector scales
  std::vector<double> qtb;    ///< Q^T b (least_squares_into)

  /// Size every buffer for an m x n factorisation up front, so that later
  /// calls on any shape at or below m x n never allocate.
  void reserve(std::size_t m, std::size_t n);
};

/// qr(a) written into ws.q / ws.r.  The one Householder code path: qr()
/// calls it, so the two are bit-identical by construction (the same
/// relationship as operator* and multiply_into).
void qr_into(const Matrix& a, QrWorkspace& ws);

struct QrcpResult {
  Matrix q;                       ///< m x k orthonormal
  Matrix r;                       ///< k x n upper triangular
  std::vector<std::size_t> perm;  ///< column permutation: a(:,perm) = q*r
  std::size_t rank = 0;           ///< numerical rank at the given tolerance
};

/// Column-pivoted QR; `rel_tol` is relative to the largest initial column
/// norm and controls the reported numerical rank.
QrcpResult qr_column_pivoted(const Matrix& a, double rel_tol = 1e-9);

/// Least squares: minimise ||a x - b||_2 for a tall full-column-rank a.
/// Throws std::invalid_argument on a shape mismatch or an underdetermined
/// system and std::runtime_error on a (numerically) rank-deficient one.
/// Wraps least_squares_into with a fresh workspace.
std::vector<double> least_squares(const Matrix& a, std::span<const double> b);

/// least_squares(a, b) written into `x` (resized to a.cols()) using `ws`
/// for the factorisation and Q^T b: same checks, same exceptions and the
/// same bits as least_squares(), allocation-free once `ws` and `x` have
/// reached their high-water shapes.
void least_squares_into(const Matrix& a, std::span<const double> b,
                        QrWorkspace& ws, std::vector<double>& x);

}  // namespace iup::linalg
