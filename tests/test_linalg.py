"""Tests for the complex linear algebra core on top of LAPACK."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfocus import linalg, spectral
from beamfocus.linalg import (
    SVD_RANK_RTOL,
    ConvergenceError,
    IllConditionedBasisError,
    NonHermitianError,
    NonSquareError,
    dft_matrix,
    eig_hermitian,
    eig_hermitian_stack,
    least_squares,
    subspace_svd,
    svd,
    svd_stack,
)
from beamfocus.validation import check_dft_unitarity, check_eigen_reconstruction


def random_hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


class TestEigHermitian:
    def test_identity(self):
        spec = eig_hermitian(np.eye(3))
        assert np.allclose(spec.values, [1.0, 1.0, 1.0])
        assert np.abs(spec.vectors.conj().T @ spec.vectors - np.eye(3)).max() < 1e-12

    def test_diagonal_with_ties_broken_by_index(self):
        spec = eig_hermitian(np.diag([5.0, 2.0, -1.0]))
        assert np.allclose(spec.values, [5.0, 2.0, -1.0])
        # columns of a permuted identity
        assert np.allclose(np.abs(spec.vectors), np.eye(3), atol=1e-12)

    def test_two_by_two_hand_case(self):
        # char poly of [[2, i], [-i, 2]]: x^2 - 4x + 3 -> roots 3, 1
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        spec = eig_hermitian(a)
        assert np.allclose(spec.values, [3.0, 1.0], atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_trace_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 17):
            a = random_hermitian(rng, n)
            spec = eig_hermitian(a)
            assert abs(spec.values.sum() - np.trace(a).real) <= 1e-8 * abs(np.trace(a).real) + 1e-12

    def test_reconstruction_and_orthonormality(self):
        assert check_eigen_reconstruction(seed=4).passed

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 40)
        spec = eig_hermitian(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.abs(spec.values - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_zero_matrix(self):
        spec = eig_hermitian(np.zeros((4, 4)))
        assert np.allclose(spec.values, 0.0)

    def test_lapack_failure_reported_as_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            eig_hermitian(np.eye(3))

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_real_symmetric_input_stays_real(self, n):
        rng = np.random.default_rng(17 + n)
        x = rng.standard_normal((n, n))
        a = 0.5 * (x + x.T)
        spec = eig_hermitian(a)
        assert spec.vectors.dtype == np.float64
        assert np.array_equal(spec.values, np.linalg.eigh(a)[0][::-1])
        assert np.abs(a @ spec.vectors - spec.vectors * spec.values).max() <= 1e-12 * np.abs(a).max() * n

    @pytest.mark.parametrize("orthonormal", [False, True])
    def test_callers_do_not_read_eigenvector_phases(self, monkeypatch, orthonormal):
        # rate whitens over the span of W and least_squares is a projection, so
        # a unit phase on each eigenvector (a sign if real) changes neither
        rng = np.random.default_rng(23)
        h, f, w, basis, target = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((6, 5), (5, 2), (6, 2), (8, 3), (8, 2))
        )
        if orthonormal:  # W^H W = I: one degenerate cluster
            w = np.linalg.qr(w)[0]
        before = spectral.rate(h, f, w, 3.0, 2), least_squares(basis, target)
        eigh = np.linalg.eigh

        def phased(a):
            values, vectors = eigh(a)
            if np.iscomplexobj(vectors):
                turn = np.exp(2j * np.pi * rng.uniform(size=vectors.shape[1]))
            else:
                turn = rng.choice([-1.0, 1.0], size=vectors.shape[1])
            return values, vectors * turn

        monkeypatch.setattr(np.linalg, "eigh", phased)
        after = spectral.rate(h, f, w, 3.0, 2), least_squares(basis, target)
        assert abs(after[0] - before[0]) <= 1e-12 * before[0]
        assert np.linalg.norm(after[1] - before[1]) <= 1e-12 * np.linalg.norm(before[1])

    def test_complex_input_stays_complex(self):
        spec = eig_hermitian(np.eye(3, dtype=complex))
        assert spec.vectors.dtype == np.complex128

    def test_real_input_keeps_every_check(self):
        # the square and symmetry checks on real input are tested above
        with pytest.raises(ValueError, match="finite"):
            eig_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(ValueError, match="non-empty"):
            eig_hermitian(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="2-D"):
            eig_hermitian(np.ones(3))


def random_unitary(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def rank_deficient_factorizations(draw):
    """A rank-deficient matrix built twice, its degenerate subspaces mixed differently.

    Returns ``(a1, a2, rank)``. Each repeated nonzero singular value gets
    one random unitary on both sides, and the left and right null spaces
    (each of dimension >= 2) get independent ones, so ``a1 == a2`` up to
    rounding while their factorizations differ.
    """
    multiplicities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rank = sum(multiplicities)
    short = rank + draw(st.integers(2, 4))
    long = short + draw(st.integers(0, 3))
    m, n = (long, short) if draw(st.booleans()) else (short, long)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.repeat(4.0 ** -np.arange(len(multiplicities)), multiplicities)
    u, v = random_unitary(rng, m), random_unitary(rng, n)
    mix_u, mix_v = np.eye(m, dtype=complex), np.eye(n, dtype=complex)
    start = 0
    for count in multiplicities:
        mix_u[start:start + count, start:start + count] = random_unitary(rng, count)
        mix_v[start:start + count, start:start + count] = mix_u[start:start + count, start:start + count]
        start += count
    mix_u[rank:, rank:] = random_unitary(rng, m - rank)
    mix_v[rank:, rank:] = random_unitary(rng, n - rank)
    s = np.zeros((m, n))
    s[np.arange(rank), np.arange(rank)] = sigma
    a1 = u @ s @ v.conj().T
    a2 = (u @ mix_u) @ s @ (v @ mix_v).conj().T
    return a1, a2, rank


def cluster_stops(sigma):
    """End index of each cluster of ``svd``'s singular values, in order."""
    tol = SVD_RANK_RTOL * sigma[0]
    stops, start = [], 0
    while start < sigma.size:
        stop = start + 1
        while stop < sigma.size and sigma[start] - sigma[stop] <= tol:
            stop += 1
        stops.append(stop)
        start = stop
    return np.array(stops)


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(4))
        assert np.allclose(res.singular_values, 1.0)
        assert np.allclose(np.abs(res.left.conj().T @ res.right), np.eye(4), atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u = 2.0 * u / np.linalg.norm(u)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = v / np.linalg.norm(v)
        res = svd(np.outer(u, v.conj()))
        assert abs(res.singular_values[0] - 2.0) <= 1e-12
        assert np.all(res.singular_values[1:] <= 1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        res = svd(a)
        recon = res.left @ np.diag(res.singular_values) @ res.right.conj().T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) <= 1e-8

    def test_orthonormal_factors_and_ordering(self):
        rng = np.random.default_rng(8)
        for shape in ((7, 4), (4, 7), (6, 6)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            res = svd(a)
            k = min(shape)
            assert np.abs(res.left.conj().T @ res.left - np.eye(k)).max() <= 1e-9
            assert np.abs(res.right.conj().T @ res.right - np.eye(k)).max() <= 1e-9
            assert np.all(res.singular_values >= 0)
            assert np.all(np.diff(res.singular_values) <= 1e-12)

    def test_squared_singular_values_match_gram_eigenvalues(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        res = svd(a)
        lam = eig_hermitian(a.conj().T @ a).values
        assert np.abs(res.singular_values**2 - lam).max() <= 1e-8 * lam[0]

    def test_rank_deficient_rectangular(self):
        # two equal columns: rank 2 out of 3
        rng = np.random.default_rng(10)
        base = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        a = np.hstack([base, base[:, :1]])
        res = svd(a)
        recon = res.left @ np.diag(res.singular_values) @ res.right.conj().T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) <= 1e-8
        assert np.abs(res.left.conj().T @ res.left - np.eye(3)).max() <= 1e-9

    def test_graded_spectrum_accuracy(self):
        # LAPACK's error is about eps * sigma_max in absolute terms, so the
        # relative error grows as sigma shrinks; below SVD_RANK_RTOL it is zeroed
        rng = np.random.default_rng(17)
        sigma = np.logspace(0, -12, 24)
        a = random_unitary(rng, 24) @ np.diag(sigma) @ random_unitary(rng, 24).conj().T
        got = svd(a).singular_values
        rel = np.abs(got - sigma) / sigma
        assert rel[sigma >= 1e-6].max() <= 1e-9
        assert rel[sigma > SVD_RANK_RTOL].max() <= 1e-6
        assert np.all(got[sigma < SVD_RANK_RTOL] == 0.0)

    def test_repeated_singular_value_basis_is_canonical(self):
        # the same matrix assembled from two different bases of the
        # three-fold cluster must give the same singular vectors
        rng = np.random.default_rng(18)
        u, v = random_unitary(rng, 8), random_unitary(rng, 8)
        sigma = np.array([3.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.25, 0.0])
        mix = np.eye(8, dtype=complex)
        mix[1:4, 1:4] = random_unitary(rng, 3)
        a1 = u @ np.diag(sigma) @ v.conj().T
        a2 = (u @ mix) @ np.diag(sigma) @ (v @ mix).conj().T
        r1, r2 = svd(a1), svd(a2)
        assert np.abs(r1.right - r2.right).max() <= 1e-12
        assert np.abs(r1.left - r2.left).max() <= 1e-12
        recon = r1.left @ np.diag(r1.singular_values) @ r1.right.conj().T
        assert np.linalg.norm(recon - a1) / np.linalg.norm(a1) <= 1e-12

    @settings(max_examples=80, deadline=None, database=None)
    @given(rank_deficient_factorizations())
    def test_null_space_basis_is_canonical(self, case):
        # the same matrix from two factorizations that mix each repeated
        # sigma and both null spaces differently must give the same vectors
        a1, a2, rank = case
        r1, r2 = svd(a1), svd(a2)
        m, n = a1.shape
        assert np.all(r1.singular_values[rank:] == 0.0)
        assert np.abs(r1.singular_values - r2.singular_values).max() <= 1e-12
        # the thin factor of the longer side holds only part of that side's
        # null space, and which part the matrix does not fix
        left_cols = slice(None) if m <= n else slice(rank)
        right_cols = slice(None) if n <= m else slice(rank)
        assert np.abs(r1.left[:, left_cols] - r2.left[:, left_cols]).max() <= 1e-12
        assert np.abs(r1.right[:, right_cols] - r2.right[:, right_cols]).max() <= 1e-12
        for res in (r1, r2):
            k = min(m, n)
            assert np.abs(res.left.conj().T @ res.left - np.eye(k)).max() <= 1e-12
            assert np.abs(res.right.conj().T @ res.right - np.eye(k)).max() <= 1e-12
            assert np.abs(a1.conj().T @ res.left[:, rank:]).max() <= 1e-12
            assert np.abs(a1 @ res.right[:, rank:]).max() <= 1e-12

    @settings(max_examples=80, deadline=None, database=None)
    @given(rank_deficient_factorizations(), st.integers(0, 2**32 - 1))
    def test_rank_keeps_the_columns_it_covers(self, case, seed):
        a, _, _ = case
        k = min(a.shape)
        rank = int(np.random.default_rng(seed).integers(1, k + 1))
        full, part = svd(a), svd(a, rank)
        end = cluster_stops(full.singular_values)
        end = end[np.searchsorted(end, rank)]
        assert np.array_equal(part.singular_values, full.singular_values)
        assert np.array_equal(part.left[:, :end], full.left[:, :end])
        assert np.array_equal(part.right[:, :end], full.right[:, :end])
        recon = part.left @ np.diag(part.singular_values) @ part.right.conj().T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) <= 1e-12

    def test_rank_inside_a_cluster_canonicalizes_it_whole(self):
        # rank 2 splits the three-fold cluster in columns 1..3
        rng = np.random.default_rng(18)
        u, v = random_unitary(rng, 8), random_unitary(rng, 8)
        sigma = np.array([3.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.25, 0.0])
        mix = np.eye(8, dtype=complex)
        mix[1:4, 1:4] = random_unitary(rng, 3)
        a1 = u @ np.diag(sigma) @ v.conj().T
        a2 = (u @ mix) @ np.diag(sigma) @ (v @ mix).conj().T
        r1, r2, full = svd(a1, 2), svd(a2, 2), svd(a1)
        assert np.abs(r1.right[:, :4] - r2.right[:, :4]).max() <= 1e-12
        assert np.abs(r1.left[:, :4] - r2.left[:, :4]).max() <= 1e-12
        assert np.array_equal(r1.right[:, :4], full.right[:, :4])
        assert np.array_equal(r1.left[:, :4], full.left[:, :4])

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_rank_out_of_range_rejected(self, shape, monkeypatch):
        def fail(a, full_matrices=True):
            raise AssertionError("LAPACK must not run for a bad rank")

        monkeypatch.setattr(np.linalg, "svd", fail)
        for rank in (0, min(shape) + 1):
            with pytest.raises(ValueError, match="rank"):
                svd(np.ones(shape), rank)

    def test_rank_canonicalizes_only_the_clusters_it_reads(self, monkeypatch):
        # the desk channel has two 83-column null-space clusters and dozens
        # of noise-level ones past column 16; none of them may be touched
        calls = []
        to_canonical = linalg._to_canonical_basis

        def count(x, *others):
            calls.append(x.shape[1])
            to_canonical(x, *others)

        monkeypatch.setattr(linalg, "_to_canonical_basis", count)
        res = svd(desk_channel(), 16)
        sigma = res.singular_values
        expected = []
        start = 0
        for stop in cluster_stops(sigma):
            if start >= 16:
                break
            if sigma[start] == 0.0:
                expected += [stop - start, stop - start]
            elif stop - start > 1:
                expected.append(stop - start)
            start = stop
        # the repeated singular values of the centre are among the first 16
        assert expected and calls == expected

    def test_full_canonical_basis_within_rank_tolerance_on_desk(self):
        # rank=None also rotates clusters of noise-level sigma whose values
        # differ by up to SVD_RANK_RTOL * sigma_max, so U S V^H moves off h
        h = desk_channel()
        res = svd(h)
        gap = h - (res.left * res.singular_values) @ res.right.conj().T
        bound = SVD_RANK_RTOL * res.singular_values[0]
        assert np.linalg.norm(gap, 2) <= bound + 1e-12 * res.singular_values[0]
        assert np.linalg.norm(gap) <= np.sqrt(min(h.shape)) * bound

    def test_lapack_failure_reported_as_convergence_error(self, monkeypatch):
        def fail(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError):
            svd(np.eye(3))


class TestStacks:
    """The stacked cores factor each matrix bitwise as the one-matrix calls do."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(rank_deficient_factorizations(), st.integers(0, 2**32 - 1), st.booleans())
    def test_svd_stack_is_svd_of_each(self, case, seed, real):
        # a stack mixing a matrix with clusters and a null space, its mixed
        # twin, and a generic one: only the first two take the cluster rotation
        a1, a2, _ = case
        rng = np.random.default_rng(seed)
        plain = rng.standard_normal(a1.shape) + 1j * rng.standard_normal(a1.shape)
        stack = np.stack([a1, plain, a2]).real if real else np.stack([a1, plain, a2])
        rank = int(rng.integers(1, min(a1.shape) + 1))
        got = svd_stack(stack, rank)
        for i, a in enumerate(stack):
            want = svd(a, rank)
            for field in ("left", "singular_values", "right"):
                assert np.array_equal(getattr(got, field)[i], getattr(want, field)), field

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(1, 9), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_eig_hermitian_stack_is_eig_hermitian_of_each(self, n, count, real, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([random_hermitian(rng, n) for _ in range(count)])
        stack = 0.5 * (stack.real + np.swapaxes(stack.real, 1, 2)) if real else stack
        got = eig_hermitian_stack(stack)
        for i, a in enumerate(stack):
            want = eig_hermitian(a)
            assert np.array_equal(got.values[i], want.values)
            assert np.array_equal(got.vectors[i], want.vectors)

    def test_stacks_keep_every_check(self):
        with pytest.raises(ValueError, match="3-D"):
            svd_stack(np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            eig_hermitian_stack(np.full((2, 3, 3), np.nan))
        with pytest.raises(NonHermitianError):
            eig_hermitian_stack(np.stack([np.eye(3), np.triu(np.ones((3, 3)))]))


class TestSingularValues:
    """The values-only SVD: svd's values to rounding, with its zero cut, and no vectors."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(rank_deficient_factorizations(), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_svd_to_rounding(self, case, seed, real):
        # two backward-stable SVDs of one matrix: by Weyl each value is within
        # its backward error of the exact one, max(m, n) eps sigma_0 each taken
        # here, so the two agree to twice that. The null space of a1 and a2
        # (and of their real parts) lies near eps sigma_0, far below the cut,
        # so both zero it
        a1, a2, rank = case
        rng = np.random.default_rng(seed)
        plain = rng.standard_normal(a1.shape) + 1j * rng.standard_normal(a1.shape)
        for a in (a1, a2, plain):
            a = a.real if real else a
            got, want = linalg.singular_values(a), svd(a).singular_values
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 2 * max(a.shape) * np.finfo(float).eps * want[0]
            assert np.array_equal(got == 0.0, want == 0.0)
        assert np.count_nonzero(linalg.singular_values(a1)) == rank

    @settings(max_examples=20, deadline=None, database=None)
    @given(rank_deficient_factorizations(), st.integers(0, 2**32 - 1))
    def test_stack_is_each_matrix_alone(self, case, seed):
        a1, a2, _ = case
        rng = np.random.default_rng(seed)
        plain = rng.standard_normal(a1.shape) + 1j * rng.standard_normal(a1.shape)
        stack = np.stack([a1, plain, a2])
        got = linalg.singular_values(stack)
        assert got.shape == (3, min(a1.shape))
        for i, a in enumerate(stack):
            assert np.array_equal(got[i], linalg.singular_values(a))

    def test_zero_cut_is_svds_own(self, monkeypatch):
        # one helper cuts for both solvers; values at or below SVD_RANK_RTOL sigma_0 go
        a = np.diag([2.0, 1e-9, 5e-11, 1e-12])
        assert np.array_equal(linalg.singular_values(a), [2.0, 1e-9, 0.0, 0.0])
        assert np.array_equal(svd(a).singular_values, [2.0, 1e-9, 0.0, 0.0])
        calls = []
        zero_cut = linalg._zero_cut

        def record(sigma):
            calls.append(sigma.shape)
            zero_cut(sigma)

        monkeypatch.setattr(linalg, "_zero_cut", record)
        linalg.singular_values(a)
        svd(a)
        linalg.singular_values(np.stack([a, a]))
        assert calls == [(4,), (1, 4), (2, 4)]

    def test_keeps_every_check(self):
        with pytest.raises(ValueError, match="2-D"):
            linalg.singular_values(np.ones(3))
        with pytest.raises(ValueError, match="2-D"):
            linalg.singular_values(np.ones((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="finite"):
            linalg.singular_values(np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError, match="non-empty"):
            linalg.singular_values(np.zeros((2, 0, 3)))

    def test_lapack_failure_reported_as_convergence_error(self, monkeypatch):
        def fail(a, compute_uv=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError):
            linalg.singular_values(np.eye(3))


@st.composite
def gapped_factorizations(draw):
    """(a, rank, start): a spectrum with a cluster among its top ``rank`` values, then a gap.

    The start block is the first k right singular vectors, each moved by
    about 1e-3 as a model of the channel would move them, and the first
    value past it sits 20 times below sigma_rank, as fresnel_start's gate asks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    multiplicities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    rank = sum(multiplicities)
    k = rank + draw(st.integers(1, 6))
    m, n = draw(st.integers(4 * k, 80)), draw(st.integers(4 * k, 80))
    top = np.repeat(np.linspace(1.0, 0.5, len(multiplicities)), multiplicities)
    middle = np.linspace(0.4, 0.1, k - rank)
    tail = 0.5 / 20 * rng.uniform(0.0, 1.0, min(m, n) - k)
    sigma = np.concatenate([top, middle, -np.sort(-tail)])
    u, v = random_unitary(rng, m)[:, : sigma.size], random_unitary(rng, n)[:, : sigma.size]
    a = (u * sigma) @ v.conj().T
    start = v[:, :k] + 1e-3 * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    return a, rank, start


class TestSubspaceSvd:
    @settings(max_examples=40, deadline=None, database=None)
    @given(gapped_factorizations())
    def test_matches_dense_canonical_svd(self, case):
        # the same canonical rule on both: the cluster's vectors agree in the
        # basis its span fixes, not just in span
        a, rank, start = case
        got, want = subspace_svd(a, rank, start), svd(a, rank)
        s0 = want.singular_values[0]
        assert got.singular_values.size == start.shape[1]
        assert np.abs(got.singular_values[:rank] - want.singular_values[:rank]).max() <= 1e-13 * s0
        assert np.abs(got.right[:, :rank] - want.right[:, :rank]).max() <= 1e-10
        assert np.abs(got.left[:, :rank] - want.left[:, :rank]).max() <= 1e-10

    def test_both_solvers_share_the_canonical_rule(self, monkeypatch):
        calls = []
        canonical = linalg._canonical

        def record(left, sigma, right, rank):
            calls.append((right.shape[1], rank))
            return canonical(left, sigma, right, rank)

        monkeypatch.setattr(linalg, "_canonical", record)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((24, 20)) + 1j * rng.standard_normal((24, 20))
        a[:, 0] *= 100.0
        svd(a, 1)
        subspace_svd(a, 1, np.eye(20)[:, :2])
        assert calls == [(20, 1), (2, 1)]

    def test_desk_converges_in_five_passes(self, monkeypatch):
        # sigma_35 / sigma_15 is 0.065, so each pass cuts the residual by about 250
        from beamfocus import beamforming
        from beamfocus.scenario import Scenario, load_config

        config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "desk_scale.yaml"))
        scenario = Scenario(config, 0.0)
        start = beamforming.fresnel_start(
            scenario.tx_spec, scenario.rx_spec, scenario.tx_dictionary.twist, scenario.params, config.ns
        )
        passes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda x, *args: passes.append(x.shape) or qr(x, *args))
        subspace_svd(scenario.h, config.ns, start)
        assert start.shape == (256, 35)
        assert len(passes) - 4 == 5  # 4 QRs canonicalize the clusters among the top 16

    def test_no_gap_raises_convergence_error(self):
        # every value ties, so the cluster of sigma_rank never ends inside the block
        with pytest.raises(ConvergenceError, match="passes"):
            subspace_svd(np.eye(12), 2, np.eye(12)[:, :3])

    def test_rank_past_the_matrix_rank_raises_without_a_warning(self):
        # a zero Ritz value never converges, and the stop test must not divide by it
        rng = np.random.default_rng(4)
        u = random_unitary(rng, 12)[:, :2]
        a = (u * [1.0, 0.5]) @ u.conj().T
        with pytest.raises(ConvergenceError, match="passes"):
            subspace_svd(a, 3, rng.standard_normal((12, 4)))

    @pytest.mark.parametrize("shape, rank, k", [((8, 6), 2, 6), ((8, 6), 3, 2), ((8, 6), 0, 2)])
    def test_rank_and_block_width_checked(self, shape, rank, k):
        with pytest.raises(ValueError, match="rank"):
            subspace_svd(np.ones(shape), rank, np.ones((shape[1], k)))

    def test_start_rows_checked(self):
        with pytest.raises(ValueError, match="rows"):
            subspace_svd(np.ones((8, 6)), 1, np.ones((5, 2)))


def dense_residual_pivots(x):
    """The greedy row pick in its plain form, as an oracle for ``linalg._pivot_rows``.

    Every pick rewrites the whole residual and recomputes every row energy.
    """
    resid = x.copy()
    rows = []
    for _ in range(x.shape[1]):
        i = int(linalg._first_within((resid.real**2 + resid.imag**2).sum(axis=1)))
        rows.append(i)
        r = resid[i] / np.linalg.norm(resid[i])
        resid -= np.outer(resid @ r.conj(), r)
    return rows


def desk_channel():
    from beamfocus.scenario import Scenario, load_config

    config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "desk_scale.yaml"))
    return Scenario(config, config.rotation_deg[0]).h


class TestPivotRows:
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_matches_dense_residual_greedy(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = random_unitary(rng, n)[:, : min(k, n)]
        assert linalg._pivot_rows(x) == dense_residual_pivots(x)

    @pytest.mark.parametrize("n, cols", [(16, [0, 1, 2, 5]), (16, [0, 2, 4, 6, 8, 10]), (12, [3, 7])])
    def test_tied_energies_match_dense_residual_greedy(self, n, cols):
        # every row of a set of DFT columns has the same energy, and
        # even-indexed columns make rows n/2 apart equal, so the picks are
        # decided by the tie rule, not by rounding
        x = dft_matrix(n)[:, cols]
        rows = linalg._pivot_rows(x)
        assert rows[0] == 0
        assert rows == dense_residual_pivots(x)

    def test_matches_dense_residual_greedy_on_desk_clusters(self, monkeypatch):
        clusters = []
        pivot_rows = linalg._pivot_rows

        def record(x):
            clusters.append(x.copy())
            return pivot_rows(x)

        monkeypatch.setattr(linalg, "_pivot_rows", record)
        svd(desk_channel())
        # the null space plus the repeated singular values of the centre
        assert max(x.shape[1] for x in clusters) >= 2
        for x in clusters:
            assert pivot_rows(x) == dense_residual_pivots(x)


class TestDftMatrix:
    def test_size_one(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_size_two(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.abs(dft_matrix(2) - expected).max() <= 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 16, 256])
    def test_unitary(self, k):
        assert check_dft_unitarity(sizes=(k,)).passed

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dft_matrix(0)

    @settings(max_examples=200, deadline=None, database=None)
    @given(k=st.integers(1, 4096), picks=st.lists(st.integers(0, 2**31), max_size=12), whole=st.booleans())
    def test_in_place_build_is_the_one_expression_formula(self, k, picks, whole):
        # bitwise, in values and layout: the in-place steps round as the expression does;
        # whole matrices up to 256 x 256, columns up to phase-extract's 4096-point side
        idx = np.arange(k)
        cols = None if whole and k <= 256 else np.array(picks, dtype=idx.dtype) % k
        want = np.exp(-2j * np.pi * np.outer(idx, idx if cols is None else cols) / k) / np.sqrt(k)
        got = dft_matrix(k, cols)
        assert got.strides == want.strides
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLeastSquares:
    def test_identity_basis(self):
        rng = np.random.default_rng(13)
        t = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        assert np.abs(least_squares(np.eye(4), t) - t).max() <= 1e-12

    def test_single_column_projection(self):
        rng = np.random.default_rng(14)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u = u / np.linalg.norm(u)
        x = least_squares(u[:, None], 3.0 * u[:, None])
        assert np.abs(x - 3.0).max() <= 1e-12

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(15)
        basis = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        target = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x = least_squares(basis, target)
        residual = target - basis @ x
        assert np.abs(basis.conj().T @ residual).max() <= 1e-10

    def test_ill_conditioned_rejected(self):
        col = np.ones((5, 1), dtype=complex)
        basis = np.hstack([col, col * (1.0 + 1e-15)])
        with pytest.raises(IllConditionedBasisError):
            least_squares(basis, np.ones((5, 1), dtype=complex))
