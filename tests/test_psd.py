import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundgrowth.errors import RankDeficient, SingularC, SingularOnSubspace
from fundgrowth.psd import (
    PD_RTOL,
    RANK_RTOL,
    CovMatrix,
    check_lemma_error_reduction,
    inverse_entries,
    is_definite,
    is_full_rank,
    sqrt_entries,
    subspace_pinv,
)
from fundgrowth.verify import _random_psd as random_psd


class TestCovMatrix:
    def test_symmetrised_and_cached(self):
        m = CovMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert m.dim == 2
        assert m.eigenvalues[0] >= m.eigenvalues[-1]
        recon = (m.eigenvectors * m.eigenvalues) @ m.eigenvectors.T
        assert np.linalg.norm(recon - m.entries) <= 1e-9 * np.linalg.norm(m.entries)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            CovMatrix([[1.0, 0.0], [0.0, -0.5]])

    @pytest.mark.parametrize("entries", [[[1e308]], [[1.7e308, 0.0], [0.0, 1.7e308]],
                                         [[1e308, -5e307], [-5e307, 1e308]]])
    def test_finite_entries_near_the_largest_double_are_kept(self, entries):
        # halving each side before adding keeps m + m.T from overflowing
        m = CovMatrix(entries)
        np.testing.assert_array_equal(m.entries, entries)
        assert np.isfinite(m.eigenvalues).all()

    def test_rejects_overflowing_eigenvalues(self):
        # lambda_max = 1.8e308 overflows although every entry is finite
        with pytest.raises(ValueError, match="eigenvalues overflow"):
            CovMatrix([[9e307, 9e307], [9e307, 9e307]])

    def test_clamps_negative_dust(self):
        # rank-1 outer product: round-off can push an eigenvalue slightly below 0
        v = np.array([1.0, 2.0, 3.0])
        m = CovMatrix(np.outer(v, v))
        assert m.eigenvalues[-1] >= 0.0

    def test_immutable(self):
        m = CovMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 3.0

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_psd(rng, int(rng.integers(1, 8)), definite=False)
            recon = (m.eigenvectors * m.eigenvalues) @ m.eigenvectors.T
            assert np.linalg.norm(recon - m.entries) <= 1e-9 * max(np.linalg.norm(m.entries), 1e-30)


class TestMatSqrt:
    """The matrix square root, ``sqrt_entries``."""

    def test_identity(self):
        s = sqrt_entries(CovMatrix(np.eye(3)))
        np.testing.assert_allclose(s, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        s = sqrt_entries(CovMatrix(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_reconstructs(self):
        rng = np.random.default_rng(11)
        m = random_psd(rng, 5)
        s = sqrt_entries(m)
        err = np.linalg.norm(s @ s - m.entries)
        assert err <= 1e-9 * np.linalg.norm(m.entries)
        np.testing.assert_array_equal(s, s.T)
        assert np.linalg.eigvalsh(s)[0] >= 0.0

    def test_commutes_with_input(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = random_psd(rng, int(rng.integers(2, 7)), definite=False)
            s = sqrt_entries(m)
            comm = s @ m.entries - m.entries @ s
            assert np.linalg.norm(comm) <= 1e-8 * np.linalg.norm(m.entries)


class TestDefiniteness:
    def test_scalar_and_stacked_forms_agree(self):
        rng = np.random.default_rng(31)
        lam_max = rng.uniform(0.0, 2.0, size=200)
        lam_min = lam_max * rng.choice([0.0, 0.5 * PD_RTOL, PD_RTOL, 2.0 * PD_RTOL, 0.3], 200)
        lam_min[:10] *= -1.0
        stacked = is_definite(lam_min, lam_max)
        assert stacked.shape == (200,)
        assert [bool(v) for v in stacked] == [
            bool(is_definite(float(lo), float(hi))) for lo, hi in zip(lam_min, lam_max)
        ]
        assert stacked.any() and not stacked.all()

    def test_zero_largest_eigenvalue_is_not_definite(self):
        assert not is_definite(0.0, 0.0)
        assert not is_definite(-1.0, 0.0)

    def test_boundary_is_not_definite(self):
        assert not is_definite(PD_RTOL * 3.0, 3.0)
        assert is_definite(2.0 * PD_RTOL * 3.0, 3.0)

    def test_nan_is_not_definite(self):
        assert not is_definite(np.nan, 1.0)
        assert not is_definite(1.0, np.nan)


class TestFullRank:
    def test_boundary_and_zero_are_not_full_rank(self):
        assert not is_full_rank(np.diag([3.0, RANK_RTOL * 3.0]))
        assert is_full_rank(np.diag([3.0, 2.0 * RANK_RTOL * 3.0]))
        assert not is_full_rank(np.zeros((2, 1)))

    def test_infinite_entry_is_not_full_rank(self):
        # numpy's SVD gives NaN singular values here
        assert not is_full_rank(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestInverseEntries:
    def test_inverts_random_definite(self):
        rng = np.random.default_rng(37)
        for dim in range(1, 7):
            m = random_psd(rng, dim)
            np.testing.assert_allclose(m.entries @ inverse_entries(m), np.eye(dim), atol=1e-9)

    def test_singular_psd_raises(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularC):
            inverse_entries(CovMatrix(np.outer(v, v)))
        with pytest.raises(SingularC):
            inverse_entries(CovMatrix(np.zeros((2, 2))))


class TestProjection:
    """Restricted to a frame's span, the identity's inverse is the orthogonal projection."""

    @staticmethod
    def projection(f):
        return subspace_pinv(CovMatrix(np.eye(len(f))), f)

    def test_axis(self):
        p = self.projection(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_diagonal_direction(self):
        p = self.projection(np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(p, np.full((2, 2), 0.5), atol=1e-12)

    def test_rank_deficient_rejected(self):
        f = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficient):
            self.projection(f)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_invariant_under_column_operations(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim + 1))
        f = rng.standard_normal((dim, k))
        g = rng.standard_normal((k, k)) + 3.0 * np.eye(k)   # comfortably invertible
        p1 = self.projection(f)
        p2 = self.projection(f @ g)
        assert np.abs(p1 - p2).max() <= 1e-9


class TestSubspacePinv:
    def test_full_rank_is_inverse(self):
        rng = np.random.default_rng(5)
        c = random_psd(rng, 4)
        m = subspace_pinv(c, np.eye(4))
        np.testing.assert_allclose(m @ c.entries, np.eye(4), atol=1e-9)

    def test_diagonal_case(self):
        c = CovMatrix(np.diag([2.0, 3.0]))
        m = subspace_pinv(c, [[1.0], [0.0]])
        np.testing.assert_allclose(m, np.diag([0.5, 0.0]), atol=1e-12)

    def test_defining_identities(self):
        rng = np.random.default_rng(17)
        c = random_psd(rng, 4)
        f = rng.standard_normal((4, 2))
        m = subspace_pinv(c, f)
        q, _ = np.linalg.qr(f)
        p = q @ q.T
        pcp = p @ c.entries @ p
        np.testing.assert_allclose(pcp @ m, p, atol=1e-9)
        np.testing.assert_allclose(m @ pcp @ m, m, atol=1e-9)
        # vanishes on the span's complement
        np.testing.assert_allclose(m @ (np.eye(4) - p), 0.0, atol=1e-10)

    def test_singular_restriction_rejected(self):
        c = CovMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SingularOnSubspace):
            subspace_pinv(c, [[0.0], [1.0]])     # the span sits in ker(c)

    def test_matches_the_frame_formula(self):
        """The restricted inverse is ``f (f' c f)^-1 f'``, solved directly, for any basis ``f``.

        That reference loses about ``eps cond(f)^2``: on 20,000 raw Gaussian frames it is
        off by up to 2.5e-9 where the restricted inverse is within 2e-15 of a 50-digit
        result, so the frames mix their columns but keep their singular values in [0.5, 2].
        """
        rng = np.random.default_rng(31)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            c = random_psd(rng, dim)
            k = int(rng.integers(1, dim + 1))
            u, v = (np.linalg.qr(rng.standard_normal((n, k)))[0] for n in (dim, k))
            f = (u * rng.uniform(0.5, 2.0, k)) @ v      # singular values in [0.5, 2]
            expected = f @ np.linalg.solve(f.T @ c.entries @ f, f.T)
            got = subspace_pinv(c, f)
            assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_is_definite_on_the_span_decides(self):
        """Singularity is judged on the span's own scale, not against ``tr c``."""
        c = CovMatrix(np.diag([1.0, 1e-13]))
        m = subspace_pinv(c, [[0.0], [1.0]])      # 1e-13 < 1e-12 tr c, yet definite on the span
        np.testing.assert_allclose(m, np.diag([0.0, 1e13]), rtol=1e-12)

    def test_wrong_shape_rejected(self):
        c = CovMatrix(np.eye(3))
        for f in (np.ones(3), np.ones((2, 1)), np.ones((3, 0)), np.eye(3, 4)):
            with pytest.raises(ValueError, match="frame"):
                subspace_pinv(c, f)


class TestErrorReduction:
    def test_identity_projection_is_equality(self):
        rng = np.random.default_rng(23)
        c = random_psd(rng, 5)
        smallest = check_lemma_error_reduction(c, np.eye(5))
        assert abs(smallest) <= 1e-9 * c.trace

    def test_identity_covariance(self):
        f = np.random.default_rng(2).standard_normal((4, 2))
        smallest = check_lemma_error_reduction(CovMatrix(np.eye(4)), f)
        assert abs(smallest) <= 1e-10   # difference is the projector complement
