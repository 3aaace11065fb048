"""Tests for the matrix algebra layer over R, C, and H."""

import warnings

import numpy as np
import pytest

from hypergeo import algebra, sampling
from oracles import quat_matmul


def random_quat(gen, m, n):
    return gen.standard_normal((m, n, 4))


class TestEmbeddings:
    """The complex embedding is an algebra homomorphism."""

    def test_block_layout(self):
        gen = np.random.default_rng(7)
        a = random_quat(gen, 2, 3)
        c = algebra.complex_embed(a)
        assert c.shape == (4, 6)
        np.testing.assert_allclose(c[:2, :3], a[..., 0] + 1j * a[..., 1])
        np.testing.assert_allclose(c[:2, 3:], a[..., 2] + 1j * a[..., 3])
        np.testing.assert_allclose(c[2:, :3], -np.conj(c[:2, 3:]))
        np.testing.assert_allclose(c[2:, 3:], np.conj(c[:2, :3]))

    def test_homomorphism_against_hamilton_product(self):
        gen = np.random.default_rng(8)
        a = random_quat(gen, 2, 3)
        b = random_quat(gen, 3, 2)
        lhs = algebra.complex_embed(a) @ algebra.complex_embed(b)
        rhs = algebra.complex_embed(quat_matmul(a, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matmul_matches_hamilton_product(self):
        gen = np.random.default_rng(9)
        a = random_quat(gen, 3, 3)
        b = random_quat(gen, 3, 3)
        np.testing.assert_allclose(
            algebra.matmul(a, b, "h"), quat_matmul(a, b), atol=1e-12)

    def test_chi_is_permuted_embed(self):
        gen = np.random.default_rng(10)
        a = random_quat(gen, 3, 3)
        chi = algebra._chi(a)
        np.testing.assert_allclose(algebra._chi_inv(chi), a)
        # same spectrum as the block embedding
        s1 = np.sort(np.linalg.svd(chi, compute_uv=False))
        s2 = np.sort(np.linalg.svd(algebra.complex_embed(a),
                                   compute_uv=False))
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_adjoint_commutes_with_embedding(self):
        gen = np.random.default_rng(11)
        a = random_quat(gen, 2, 3)
        lhs = algebra.complex_embed(algebra.adjoint(a, "h"))
        rhs = np.conj(algebra.complex_embed(a).T)
        np.testing.assert_allclose(lhs, rhs)

    def test_adjoint_is_involution(self):
        gen = np.random.default_rng(12)
        for field in ("r", "c", "h"):
            if field == "h":
                a = random_quat(gen, 3, 2)
            elif field == "c":
                a = gen.standard_normal((3, 2)) + 1j * gen.standard_normal((3, 2))
            else:
                a = gen.standard_normal((3, 2))
            twice = algebra.adjoint(algebra.adjoint(a, field), field)
            np.testing.assert_allclose(twice, a)

    def test_embed_rejects_non_quaternion(self):
        with pytest.raises(ValueError):
            algebra.complex_embed(np.eye(3), "r")
        with pytest.raises(ValueError):
            algebra.complex_embed(np.zeros((2, 2)))


class TestDeterminantsAndMinors:
    """Dieudonne determinants and principal minors."""

    def test_scalar_quaternion_modulus(self):
        a = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        expect = np.sqrt(1.0 + 4.0 + 9.0 + 16.0)
        np.testing.assert_allclose(algebra.det_dieudonne(a, "h"), expect)

    def test_minors_match_dense_determinants(self):
        gen = np.random.default_rng(13)
        for field in ("r", "c", "h"):
            if field == "h":
                m = random_quat(gen, 3, 3)
                x = algebra.matmul(algebra.adjoint(m, field), m, field)
                x[..., 0] += 0.5 * np.eye(3)
            else:
                m = gen.standard_normal((3, 3))
                if field == "c":
                    m = m + 1j * gen.standard_normal((3, 3))
                x = algebra.adjoint(m, field) @ m + 0.5 * np.eye(3)
            for r in (1, 2, 3):
                got = algebra.principal_minor(x, field, r)
                if field == "h":
                    want = algebra.det_dieudonne(x[:r, :r, :], field)
                else:
                    want = abs(np.linalg.det(x[:r, :r]))
                np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_minor_index_range(self):
        with pytest.raises(ValueError):
            algebra.principal_minor(np.eye(3), "r", 0)
        with pytest.raises(ValueError):
            algebra.principal_minor(np.eye(3), "r", 4)


class TestPowerFunction:
    """Delta_lam as the telescoped product of minor powers."""

    def test_matches_minor_products(self):
        gen = np.random.default_rng(14)
        lam = np.array([1.3 + 0.2j, 0.7 - 0.1j, -0.4 + 0.0j])
        for field in ("r", "c", "h"):
            if field == "h":
                m = random_quat(gen, 3, 3)
                x = algebra.matmul(algebra.adjoint(m, field), m, field)
                x[..., 0] += np.eye(3)
            else:
                m = gen.standard_normal((3, 3))
                if field == "c":
                    m = m + 1j * gen.standard_normal((3, 3))
                x = algebra.adjoint(m, field) @ m + np.eye(3)
            minors = [algebra.principal_minor(x, field, r) for r in (1, 2, 3)]
            expo = np.append(lam, 0.0)
            want = np.prod([minors[r] ** (expo[r] - expo[r + 1])
                            for r in range(3)])
            got = algebra.power_function(x, field, lam)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_rank_one_power(self):
        x = np.array([[2.5]])
        lam = np.array([0.3 - 1.1j])
        np.testing.assert_allclose(
            algebra.power_function(x, "r", lam), 2.5 ** (0.3 - 1.1j))

    def test_identity_gives_one(self):
        lam = np.array([0.9, 0.1])
        got = algebra.power_function(np.eye(2), "r", lam)
        assert got == 1.0 + 0.0j

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            algebra.power_function(np.eye(3), "r", np.array([1.0, 2.0]))

    def test_not_positive_definite_raises(self):
        x = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            algebra.power_function(x, "r", np.array([1.0, 0.5]))

    def test_batched_input(self):
        gen = np.random.default_rng(15)
        m = gen.standard_normal((5, 2, 2))
        x = np.swapaxes(m, -2, -1) @ m + np.eye(2)
        lam = np.array([0.5, 0.2])
        got = algebra.power_function(x, "r", lam)
        want = [algebra.power_function(x[i], "r", lam) for i in range(5)]
        np.testing.assert_allclose(got, want)


class TestPowerFromLogs:
    """Two real products give the complex product's exp(diff(logs) @ nu)."""

    @staticmethod
    def _complex_product(logs, nu):
        return np.exp(np.diff(logs, axis=-1, prepend=0.0) @ nu)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_matches_complex_product(self, q):
        gen = np.random.default_rng(40 + q)
        m = 0.5 * gen.standard_normal((3, 50, q, q))
        x = np.swapaxes(m, -2, -1) @ m + np.eye(q)
        logs = algebra._log_minors(x, "r")
        nu = 0.5 * (gen.standard_normal((q, 7))
                    + 1j * gen.standard_normal((q, 7)))
        for lg in (logs[0, 0], logs[0], logs):  # none, one, two batch axes
            for n in (nu[:, 0], nu):  # power_function's vector, or columns
                got = algebra._power_from_logs(lg, n)
                want = self._complex_product(lg, n)
                assert np.shape(got) == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_overflow_is_a_domain_error(self):
        logs = np.array([[0.0, 900.0]])
        nu = np.array([[0.0], [1.0 + 1.0j]])
        with np.errstate(over="ignore"):
            assert np.isinf(algebra._power_from_logs(logs, nu)).all()

        def shard_fn(shard, count):
            return sampling.shard_moments(
                [algebra._power_from_logs(np.repeat(logs, count, 0), nu)])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                sampling.mc_run(shard_fn, 100)


class TestBuildG:
    """The integrand argument built from (t, u, w)."""

    def _uw(self, field, q, gen):
        from hypergeo import sampling
        u = sampling.haar_unitary(field, q, gen)
        w = sampling.sample_mp(field, q, 2 * q + 2.0, gen)
        return u, w

    def test_positive_definite_all_fields(self):
        gen = np.random.default_rng(16)
        t = np.array([0.9, 0.4])
        for field in ("r", "c", "h"):
            u, w = self._uw(field, 2, gen)
            for variant in ("g", "g-tilde"):
                g = algebra.build_g(t, u, w, field, variant)
                logs = algebra._log_minors(g, field)
                assert np.all(np.isfinite(logs))

    def test_variants_share_determinant(self):
        gen = np.random.default_rng(17)
        t = np.array([1.1, 0.3])
        for field in ("r", "c", "h"):
            u, w = self._uw(field, 2, gen)
            d_g = algebra.principal_minor(
                algebra.build_g(t, u, w, field, "g"), field, 2)
            d_gt = algebra.principal_minor(
                algebra.build_g(t, u, w, field, "g-tilde"), field, 2)
            np.testing.assert_allclose(d_g, d_gt, rtol=1e-10)

    def test_zero_t_identity_conjugation(self):
        gen = np.random.default_rng(18)
        u, w = self._uw("r", 2, gen)
        g = algebra.build_g(np.zeros(2), u, w, "r")
        np.testing.assert_allclose(g, u.T @ u, atol=1e-12)

    def test_large_singular_value_rejected(self):
        u = np.eye(2)
        w = np.diag([1.0, 0.2])
        with pytest.raises(ValueError):
            algebra.build_g(np.array([0.5, 0.1]), u, w, "r")

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            algebra.build_g(np.array([0.5]), np.eye(1), np.zeros((1, 1)),
                            "r", "h-tilde")


class TestSingularValues:
    def test_quaternion_pairing(self):
        gen = np.random.default_rng(19)
        a = random_quat(gen, 3, 3)
        s = algebra.singular_values(a, "h")
        assert s.shape == (3,)
        assert np.all(np.diff(s) <= 0)

    def test_real_matches_numpy(self):
        gen = np.random.default_rng(20)
        a = gen.standard_normal((4, 4))
        np.testing.assert_allclose(
            algebra.singular_values(a, "r"),
            np.linalg.svd(a, compute_uv=False))


class TestFieldNames:
    def test_aliases(self):
        assert algebra.normalize_field("Quaternion") == "h"
        assert algebra.normalize_field(" REAL ") == "r"
        assert algebra.field_dim("c") == 2

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            algebra.normalize_field("octonion")
