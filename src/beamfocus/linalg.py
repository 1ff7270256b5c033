"""Dense complex linear algebra on top of LAPACK (numpy.linalg).

Everything downstream (channel Grams, SVD beamformers, OMP least squares)
goes through these routines. They add what LAPACK leaves open: descending
order, input checks, and a canonical basis, so that results do not depend
on which singular vectors or eigenvector phases the solver happens to return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ASYMMETRY_RTOL = 1e-10
SVD_RANK_RTOL = 1e-10
GRAM_COND_LIMIT = 1e12


class NonSquareError(ValueError):
    pass


class NonHermitianError(ValueError):
    pass


class IllConditionedBasisError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class EigenSpectrum:
    """Real eigenvalues in non-increasing order with matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: ``a = left @ diag(singular_values) @ right.conj().T``."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


def active_backend() -> str:
    """Name of the solver behind eig_hermitian and svd."""
    return "lapack"


def _as_complex_matrix(a):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("expected a non-empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _first_within(values: np.ndarray, axis=None):
    """Index of the first entry within SVD_RANK_RTOL of the largest, so ties go to the lowest index."""
    top = values.max(axis=axis, keepdims=axis is not None)
    return np.argmax(values >= (1.0 - SVD_RANK_RTOL) * top, axis=axis)


def _fix_phases(x: np.ndarray, *others: np.ndarray) -> None:
    """Make the largest-magnitude entry of each column of ``x`` real and positive, in place.

    The same unit factor multiplies the matching column of every array in
    ``others``, so factorizations stay consistent.
    """
    lead = x[_first_within(np.abs(x), axis=0), np.arange(x.shape[1])]
    lead = np.conj(lead) / np.abs(lead)
    x *= lead
    for y in others:
        y *= lead


def _to_canonical_basis(x: np.ndarray, *others: np.ndarray) -> None:
    """Rotate the orthonormal columns of ``x`` in place to a basis fixed by their span.

    Greedily picks the rows with the largest residual energy (ties to the
    lowest index), then rotates by the LQ factorization of those rows with
    a positive diagonal. Both steps depend only on the span. The same
    rotation is applied to every array in ``others``.
    """
    resid = x.copy()
    rows = []
    for _ in range(x.shape[1]):
        i = int(_first_within((resid.real**2 + resid.imag**2).sum(axis=1)))
        rows.append(i)
        r = resid[i] / np.linalg.norm(resid[i])
        resid -= np.outer(resid @ r.conj(), r)
    q, r = np.linalg.qr(x[rows].conj().T)
    d = np.diag(r)
    q *= d / np.abs(d)
    for y in (x, *others):
        y[...] = y @ q


def eig_hermitian(a) -> EigenSpectrum:
    """Full eigendecomposition of a Hermitian matrix (LAPACK heevd).

    Eigenvalues come in non-increasing order. Each eigenvector has its
    largest-magnitude entry real and positive, ties going to the lower index.
    """
    a = _as_complex_matrix(a)
    n, m = a.shape
    if n != m:
        raise NonSquareError(f"matrix is {n}x{m}, expected square")
    frob = float(np.linalg.norm(a))
    asym = float(np.linalg.norm(a - a.conj().T))
    if frob > 0 and asym > HERMITIAN_ASYMMETRY_RTOL * frob:
        raise NonHermitianError(
            f"relative asymmetry {asym / frob:.3e} exceeds {HERMITIAN_ASYMMETRY_RTOL:.1e}"
        )
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolve did not converge: {exc}") from exc
    values, vectors = values[::-1], vectors[:, ::-1]
    _fix_phases(vectors)
    return EigenSpectrum(values=values, vectors=vectors)


def svd(a) -> SvdResult:
    """Thin SVD (LAPACK gesdd) with a canonical basis.

    Singular values below SVD_RANK_RTOL of the largest are set to zero.
    Each run of values within SVD_RANK_RTOL * sigma_max of the run's first
    value is a cluster. Its right vectors are rotated to the basis that
    ``_to_canonical_basis`` fixes and its left vectors by the same rotation,
    so degenerate subspaces come back in one basis whatever LAPACK returned.
    The error is about eps * sigma_max in absolute terms.
    """
    a = _as_complex_matrix(a)
    try:
        left, sigma, right = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    np.conjugate(right, out=right)
    right = right.T
    tol = SVD_RANK_RTOL * sigma[0]
    sigma[sigma <= tol] = 0.0
    _fix_phases(right, left)
    start = 0
    while start < sigma.size:
        stop = start + 1
        while stop < sigma.size and sigma[start] - sigma[stop] <= tol:
            stop += 1
        cols = slice(start, stop)
        if sigma[start] == 0.0:
            # a zero singular value ties no left vector to its right vector
            _to_canonical_basis(left[:, cols])
            _to_canonical_basis(right[:, cols])
        elif stop - start > 1:
            _to_canonical_basis(right[:, cols], left[:, cols])
        start = stop
    return SvdResult(left=left, singular_values=sigma, right=right)


def dft_matrix(k: int) -> np.ndarray:
    """Unitary k x k DFT matrix, entry (a, b) = exp(-2j pi a b / k) / sqrt(k)."""
    if k < 1:
        raise ValueError(f"DFT size must be >= 1, got {k}")
    idx = np.arange(k)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / k) / np.sqrt(k)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the usual row-major block layout."""
    a = _as_complex_matrix(a)
    b = _as_complex_matrix(b)
    return np.kron(a, b)


def least_squares(basis, target) -> np.ndarray:
    """Solve min ||target - basis @ x||_F through the normal equations.

    The Gram matrix condition is estimated from its eigenvalues;
    anything past GRAM_COND_LIMIT raises IllConditionedBasisError.
    """
    basis = _as_complex_matrix(basis)
    target = _as_complex_matrix(target)
    if basis.shape[0] != target.shape[0]:
        raise ValueError(
            f"basis rows {basis.shape[0]} != target rows {target.shape[0]}"
        )
    gram = basis.conj().T @ basis
    spec = eig_hermitian(gram)
    lmax = float(spec.values[0])
    lmin = float(spec.values[-1])
    if lmin <= 0.0 or lmax / lmin > GRAM_COND_LIMIT:
        cond = np.inf if lmin <= 0.0 else lmax / lmin
        raise IllConditionedBasisError(f"Gram condition estimate {cond:.3e} too large")
    rhs = basis.conj().T @ target
    return spec.vectors @ ((spec.vectors.conj().T @ rhs) / spec.values[:, None])
