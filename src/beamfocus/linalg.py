"""Linear algebra on top of LAPACK (numpy.linalg).

Everything downstream (channel Grams, SVD beamformers) goes through these
routines. They add what LAPACK leaves open: descending order, input checks,
and, for the SVD, a canonical basis, so that results do not depend on which
singular vectors the solver happens to return. Two solvers give the SVD in
that basis: ``svd`` factors the whole matrix (LAPACK gesdd), and
``subspace_svd`` finds only the top triplets by block subspace iteration
from a caller's start block, factoring nothing larger than N x k. Both end
in ``_canonical``, the one implementation of the basis rule, and
``singular_values`` gives the values alone, with ``svd``'s zero cut.
``svd_stack`` and ``eig_hermitian_stack`` factor each matrix of a stack (a
leading axis) in one LAPACK call, each bitwise as ``svd`` and
``eig_hermitian`` factor it alone: those two run the same cores on a stack
of one. ``least_squares`` now serves only the tests' greedy OMP oracle and the
benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ASYMMETRY_RTOL = 1e-10
SVD_RANK_RTOL = 1e-10
# entries of a singular vector equal by the array's symmetry come out of a
# solver apart by rounding over the gap to the neighbouring values: up to
# 2.5e-10 relative in desk's sigma_4/sigma_5 pair (gap 6.5e-7 sigma_0), so
# _fix_phases ties them at this tolerance, not at SVD_RANK_RTOL
PHASE_TIE_RTOL = 1e-8
# subspace_svd stops once every converged Ritz residual is this small against sigma_0
RITZ_RESIDUAL_RTOL = 1e-13
SUBSPACE_MAX_STEPS = 10
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
    """Real eigenvalues in non-increasing order with matching eigenvector columns.

    The vectors have the dtype of the decomposed matrix: float64 for a real
    symmetric one, complex128 otherwise.
    """

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


def _as_matrix(a, dtype=np.complex128, ndim=2):
    """``a`` as a finite, non-empty array of ``dtype``: a matrix, or a stack of them for ndim 3."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("expected a non-empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _first_within(values: np.ndarray, axis=None, rtol=SVD_RANK_RTOL):
    """Index of the first entry within ``rtol`` of the largest, so ties go to the lowest index."""
    top = values.max(axis=axis, keepdims=axis is not None)
    return (values >= (1.0 - rtol) * top).argmax(axis=axis)


def _fix_phases(x: np.ndarray, *others: np.ndarray) -> None:
    """Make the largest-magnitude entry of each column of ``x`` real and positive, in place.

    Entries within PHASE_TIE_RTOL of the largest tie, and the lowest index
    wins. The same unit factor multiplies the matching column of every
    array in ``others``, so factorizations stay consistent. Leading axes
    index a stack of matrices.
    """
    mag = np.abs(x)
    at = _first_within(mag, axis=-2, rtol=PHASE_TIE_RTOL)[..., None, :]
    lead = np.conj(np.take_along_axis(x, at, axis=-2)) / np.take_along_axis(mag, at, axis=-2)
    x *= lead
    for y in others:
        y *= lead


def _pivot_rows(x: np.ndarray) -> list[int]:
    """Rows of ``x`` picked greedily by largest residual energy, ties to the lowest index.

    This is QR with column pivoting on ``x^H`` (Businger & Golub 1965): each
    pick projects only its own row off the directions picked so far, and
    the row energies are downdated by the new direction rather than
    recomputed, so a pick costs one n x k matrix-vector product.
    """
    k = x.shape[1]
    energy = (x.real**2 + x.imag**2).sum(axis=1)
    picked = np.empty((k, k), dtype=x.dtype)  # orthonormal directions, one per row
    rows = []
    for m in range(k):
        i = int(_first_within(energy))
        rows.append(i)
        r = x[i] - (picked[:m].conj() @ x[i]) @ picked[:m]
        r /= np.linalg.norm(r)
        picked[m] = r
        c = x @ r.conj()
        energy -= c.real**2 + c.imag**2
        # the downdate leaves rounding noise on the picked row; never pick it again
        energy[i] = -np.inf
    return rows


def _to_canonical_basis(x: np.ndarray, *others: np.ndarray) -> None:
    """Rotate the orthonormal columns of ``x`` in place to a basis fixed by their span.

    Picks rows with ``_pivot_rows``, then rotates by the LQ factorization
    of those rows with a positive diagonal. Both steps depend only on the
    span. The same rotation is applied to every array in ``others``.
    """
    q, r = np.linalg.qr(x[_pivot_rows(x)].conj().T)
    d = np.diag(r)
    q *= d / np.abs(d)
    for y in (x, *others):
        y[...] = y @ q


def _frobenius(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of x, or of each matrix of a stack, with two unit axes kept.

    On a complex x it is bitwise ``np.linalg.norm``: two BLAS dot products
    of the flattened real and imaginary parts, as a 1 x n times n x 1 matmul
    runs them; a sum of squares along an axis rounds differently.
    """
    flat = x.reshape(*x.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))


def _hermitian_dtype(a):
    return np.complex128 if np.iscomplexobj(a) else np.float64


def eig_hermitian(a) -> EigenSpectrum:
    """Full eigendecomposition of a Hermitian matrix (LAPACK heevd, or syevd if real).

    A real input stays real: LAPACK's real symmetric solver (syevd) runs,
    3.5x faster than the complex one at 256 x 256 and 5x at 1024 x 1024, and
    the vectors come back float64. Eigenvalues come in non-increasing order.
    The eigenvectors keep the phases and, inside a cluster of equal values,
    the basis LAPACK returns: every caller reads only the values or products
    that do not depend on them (reconstructions, projections, whitening).
    """
    spec = _eigh(_as_matrix(a, _hermitian_dtype(a))[None])
    return EigenSpectrum(values=spec.values[0], vectors=spec.vectors[0])


def eig_hermitian_stack(a) -> EigenSpectrum:
    """``eig_hermitian`` of each matrix of a B x n x n stack, in one LAPACK call.

    The values come back B x n and the vectors B x n x n, each element
    bitwise what ``eig_hermitian`` returns for that matrix alone.
    """
    return _eigh(_as_matrix(a, _hermitian_dtype(a), ndim=3))


def _eigh(a: np.ndarray) -> EigenSpectrum:
    """The core of both eigensolvers: checked B x n x n stack in, non-increasing values out."""
    n, m = a.shape[-2:]
    if n != m:
        raise NonSquareError(f"matrix is {n}x{m}, expected square")
    frob = _frobenius(a)
    # a temporary, freed before the eigensolve: 1 MiB on a 256 x 256 Gram
    asym = _frobenius(a - np.swapaxes(a, -1, -2).conj())
    bad = (frob > 0) & (asym > HERMITIAN_ASYMMETRY_RTOL * frob)
    if bad.any():
        worst = (asym[bad] / frob[bad]).max()
        raise NonHermitianError(
            f"relative asymmetry {worst:.3e} exceeds {HERMITIAN_ASYMMETRY_RTOL:.1e}"
        )
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolve did not converge: {exc}") from exc
    return EigenSpectrum(values=values[..., ::-1], vectors=vectors[..., ::-1])


def svd(a, rank: int | None = None) -> SvdResult:
    """Thin SVD (LAPACK gesdd) with a canonical basis.

    Singular values below SVD_RANK_RTOL of the largest are set to zero.
    Each run of values within SVD_RANK_RTOL * sigma_max of the run's first
    value is a cluster. Its right vectors are rotated to the basis that
    ``_to_canonical_basis`` fixes and its left vectors by the same rotation,
    so degenerate subspaces come back in one basis whatever LAPACK returned.
    The values of a cluster differ by up to SVD_RANK_RTOL * sigma_max, and the
    zero cut drops values that small, so ``U S V^H`` may move off ``a`` by up
    to SVD_RANK_RTOL * sigma_max in the spectral norm (plus rounding), and
    sqrt(min(m, n)) times that in the Frobenius norm. The desk channel with
    every column canonical reconstructs to 9.1e-11 relative in Frobenius,
    6.0e-11 of it from the zero cut alone.

    ``rank`` says the caller reads only columns ``[:rank]``: the clusters
    after the one holding column ``rank - 1`` keep LAPACK's basis (phases
    still fixed), and the columns up to the end of that cluster are the same
    as without ``rank``. ``None`` makes every column canonical.
    """
    res = _svd(_as_matrix(a)[None], rank)
    return SvdResult(left=res.left[0], singular_values=res.singular_values[0], right=res.right[0])


def svd_stack(a, rank: int | None = None) -> SvdResult:
    """``svd`` of each matrix of a B x m x n stack, in one LAPACK call.

    The factors come back with the leading axis, each element bitwise what
    ``svd`` returns for that matrix alone.
    """
    return _svd(_as_matrix(a, ndim=3), rank)


def _svd(a: np.ndarray, rank: int | None) -> SvdResult:
    """The core of both dense SVDs: a checked B x m x n stack in, canonical triplets out."""
    k = min(a.shape[-2:])
    if rank is None:
        rank = k
    elif not 1 <= rank <= k:
        raise ValueError(f"rank={rank} outside 1..{k}")
    try:
        left, sigma, right = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    np.conjugate(right, out=right)
    return _canonical(left, sigma, np.swapaxes(right, -1, -2), rank)


def singular_values(a) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a B x m x n stack, with no vectors.

    LAPACK gesdd forms no singular vector, so on a 4096 x 16 channel this
    skips the 4096 x 16 left factor and the canonical basis. The values
    come in non-increasing order, with ``svd``'s zero cut: those at or
    below SVD_RANK_RTOL * sigma_0 are set to zero. They match ``svd``'s to
    LAPACK's rounding, not bitwise: gesdd runs other code when it forms no
    vectors.
    """
    a = _as_matrix(a, ndim=3 if np.ndim(a) == 3 else 2)
    try:
        sigma = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    _zero_cut(sigma)
    return sigma


def _zero_cut(sigma: np.ndarray) -> None:
    """Set the values at or below SVD_RANK_RTOL of their row's first, sigma_0, to zero, in place."""
    sigma[sigma <= SVD_RANK_RTOL * sigma[..., :1]] = 0.0


def _clusters(sigma: np.ndarray, rank: int):
    """(start, stop) of each cluster of ``sigma`` up to the one holding index ``rank - 1``.

    A cluster is a run of values within SVD_RANK_RTOL * sigma[0] of the run's first value.
    """
    tol = SVD_RANK_RTOL * sigma[0]
    start = 0
    while start < rank:
        stop = start + 1
        while stop < sigma.size and sigma[start] - sigma[stop] <= tol:
            stop += 1
        yield start, stop
        start = stop


def _canonical(left: np.ndarray, sigma: np.ndarray, right: np.ndarray, rank: int) -> SvdResult:
    """The SVD triplets in the canonical basis that ``svd`` documents, rotated in place.

    The one implementation of the rule for both solvers: values at or below
    SVD_RANK_RTOL * sigma[0] become zero, every column's phase is fixed, and
    each cluster up to the one holding column ``rank - 1`` is rotated to the
    basis its span fixes. A leading axis on all three arrays holds a stack
    of factorizations; only those with two values within the cluster
    tolerance, or a zero, among their first ``rank`` take the per-cluster
    rotation, one at a time.
    """
    # one factorization is a stack of one, by views, so the edits land in place
    one = sigma.ndim == 1
    lefts, sigmas, rights = (x[None] if one else x for x in (left, sigma, right))
    _zero_cut(sigmas)
    _fix_phases(rights, lefts)
    # a cluster starts with a step within _clusters' tolerance, and a zero value is one
    ties = sigmas[:, :-1] - sigmas[:, 1:] <= SVD_RANK_RTOL * sigmas[:, :1]
    rotate = ties[:, :rank].any(axis=1) | (sigmas[:, :rank] == 0.0).any(axis=1)
    for i in np.flatnonzero(rotate):
        _rotate_clusters(lefts[i], sigmas[i], rights[i], rank)
    return SvdResult(left=left, singular_values=sigma, right=right)


def _rotate_clusters(left: np.ndarray, sigma: np.ndarray, right: np.ndarray, rank: int) -> None:
    """Rotate each cluster of one factorization, up to the one holding column ``rank - 1``."""
    for start, stop in _clusters(sigma, rank):
        cols = slice(start, stop)
        if sigma[start] == 0.0:
            # a zero singular value ties no left vector to its right vector
            _to_canonical_basis(left[:, cols])
            _to_canonical_basis(right[:, cols])
        elif stop - start > 1:
            _to_canonical_basis(right[:, cols], left[:, cols])


def subspace_svd(a, rank: int, start) -> SvdResult:
    """Top singular triplets of ``a`` by block subspace iteration from the span of ``start``.

    Randomized range finding with power steps (Halko, Martinsson & Tropp
    2011, Alg. 4.4), with the random start replaced by the caller's M x k
    block ``start``. A pass orthonormalizes the block X by Householder QR
    and multiplies it by ``a^H a``; the eigenpairs (s_i^2, w_i) of the k x k
    ``(a X)^H a X`` give the Ritz values s_i and right Ritz vectors X w_i.
    The passes stop once the Ritz residuals ``||a^H a X w_i - s_i^2 X w_i|| /
    s_i``, which are ``||a^H u_i - s_i v_i||`` for the Ritz triplets, of the
    columns up to the end of the cluster holding column ``rank - 1`` are all
    within RITZ_RESIDUAL_RTOL * s_0; SUBSPACE_MAX_STEPS passes without that
    raise ConvergenceError. Column i converges like (sigma_k / sigma_i)^2 per
    pass, so the block must reach well past a gap below sigma_rank. The
    residual's rounding floor, about 3e-15 * s_0^2 / s_i, stays below the
    tolerance while sigma_rank is above about a tenth of sigma_0.

    The triplets come from the Rayleigh-Ritz SVD ``a X = U S W^H`` of the
    last block, in the canonical basis of ``svd``: k columns, of which only
    those up to that cluster's end are converged. Their values match
    ``svd(a, rank)`` to about the residual, and their vectors to about the
    residual over the gap to the neighbouring values.

    Beside ``a`` itself, a pass holds only N x k and M x k blocks: ``a^H``
    is never copied out, so the iteration's memory is one matrix plus a few
    blocks.
    """
    a = _as_matrix(a)
    x = _as_matrix(start)
    k = x.shape[1]
    if x.shape[0] != a.shape[1]:
        raise ValueError(f"start has {x.shape[0]} rows, a has {a.shape[1]} columns")
    if not 1 <= rank <= k < min(a.shape):
        raise ValueError(f"need 1 <= rank={rank} <= k={k} < min{a.shape}")
    for _ in range(SUBSPACE_MAX_STEPS):
        q = np.linalg.qr(x)[0]
        b = a @ q
        # a^H b as conj(a^T conj(b)), with no N x M copy of a^H: the same
        # product, rounded in the same order, only with every sign flipped
        x = (a.T @ b.conj()).conj()
        try:
            lam, w = np.linalg.eigh(b.conj().T @ b)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Ritz eigensolve did not converge: {exc}") from exc
        lam, w = lam[::-1], w[:, ::-1]
        sigma = np.sqrt(np.maximum(lam, 0.0))
        *_, (_, stop) = _clusters(sigma, rank)
        gap = x @ w[:, :stop] - (q @ w[:, :stop]) * lam[:stop]
        # ||gap_i|| / s_i is the residual; compared without dividing by an s_i of 0
        gap = np.sqrt((gap.real**2 + gap.imag**2).sum(axis=0))
        if stop < k and (gap <= RITZ_RESIDUAL_RTOL * sigma[0] * sigma[:stop]).all():
            break
    else:
        raise ConvergenceError(
            f"subspace iteration did not reach Ritz residual {RITZ_RESIDUAL_RTOL:.0e} * sigma_0 "
            f"in {SUBSPACE_MAX_STEPS} passes"
        )
    try:
        left, sigma, w_h = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Rayleigh-Ritz SVD did not converge: {exc}") from exc
    return _canonical(left, sigma, q @ w_h.conj().T, rank)


def dft_matrix(k: int, cols=None) -> np.ndarray:
    """Unitary k x k DFT matrix, entry (a, b) = exp(-2j pi a b / k) / sqrt(k).

    ``cols`` (indices) builds only those columns, bitwise equal to the same
    columns of the full matrix; B x c indices build a B x k x c stack. Each
    step runs in place in the one complex result, bitwise equal to
    ``np.exp(-2j * np.pi * np.outer(idx, cols) / k) / np.sqrt(k)``, which
    holds an integer and two complex temporaries.
    """
    if k < 1:
        raise ValueError(f"DFT size must be >= 1, got {k}")
    idx = np.arange(k)
    cols = idx if cols is None else np.asarray(cols, dtype=idx.dtype)
    out = np.empty((*cols.shape[:-1], k, cols.shape[-1]), dtype=np.complex128)
    np.multiply(idx[:, None], cols[..., None, :], out=out)
    out *= -2j * np.pi
    out /= k
    np.exp(out, out=out)
    out /= np.sqrt(k)
    return out


def least_squares(basis, target) -> np.ndarray:
    """Solve min ||target - basis @ x||_F through the normal equations.

    The Gram matrix condition is estimated from its eigenvalues;
    anything past GRAM_COND_LIMIT raises IllConditionedBasisError.
    """
    basis = _as_matrix(basis)
    target = _as_matrix(target)
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
