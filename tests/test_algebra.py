"""Tests for the matrix algebra layer over R, C, and H."""

import warnings

import numpy as np
import pytest

import hypergeo
from hypergeo import algebra, sampling
from oracles import quat_matmul


def random_quat(gen, m, n):
    return gen.standard_normal((m, n, 4))


def _adjoint_ref(a, field):
    """Conjugate transpose over the field; the tests' Hermitian fixtures
    are a* a."""
    a = np.asarray(a)
    if field == "h":
        out = np.swapaxes(a, -3, -2).copy()
        out[..., 1:] = -out[..., 1:]
        return out
    return np.conj(np.swapaxes(a, -2, -1))


def _det_dieudonne_ref(a, field):
    """Nonnegative determinant: |det| over R and C, sqrt(det chi) over H."""
    if field == "h":
        return np.sqrt(np.abs(np.linalg.det(algebra._chi(a))))
    return np.abs(np.linalg.det(np.asarray(a)))


def _principal_minor_ref(x, field, r):
    """Dieudonne determinant of the top-left r x r block, the reference
    for the LDL* log-minors."""
    return _det_dieudonne_ref(x[:r, :r], field)


class TestEmbeddings:
    """The chi embedding is an algebra homomorphism."""

    def test_block_layout(self):
        """Entry (i, j) becomes the 2 x 2 block
        [[a1, a2], [-conj(a2), conj(a1)]], interleaved."""
        gen = np.random.default_rng(7)
        a = random_quat(gen, 2, 3)
        c = algebra._chi(a)
        assert c.shape == (4, 6)
        a1, a2 = a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]
        np.testing.assert_array_equal(c[0::2, 0::2], a1)
        np.testing.assert_array_equal(c[0::2, 1::2], a2)
        np.testing.assert_array_equal(c[1::2, 0::2], -np.conj(a2))
        np.testing.assert_array_equal(c[1::2, 1::2], np.conj(a1))

    def test_homomorphism_against_hamilton_product(self):
        gen = np.random.default_rng(8)
        a = random_quat(gen, 2, 3)
        b = random_quat(gen, 3, 2)
        lhs = algebra._chi(a) @ algebra._chi(b)
        rhs = algebra._chi(quat_matmul(a, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matmul_matches_hamilton_product(self):
        gen = np.random.default_rng(9)
        a = random_quat(gen, 3, 3)
        b = random_quat(gen, 3, 3)
        np.testing.assert_allclose(
            algebra.matmul(a, b, "h"), quat_matmul(a, b), atol=1e-12)

    def test_chi_is_permuted_embed(self):
        """_chi_inv inverts chi, and chi has the spectrum of the block
        embedding [[a1, a2], [-conj(a2), conj(a1)]], its rows and columns
        reordered."""
        gen = np.random.default_rng(10)
        a = random_quat(gen, 3, 3)
        chi = algebra._chi(a)
        np.testing.assert_allclose(algebra._chi_inv(chi), a)
        a1, a2 = a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]
        block = np.block([[a1, a2], [-np.conj(a2), np.conj(a1)]])
        s1 = np.sort(np.linalg.svd(chi, compute_uv=False))
        s2 = np.sort(np.linalg.svd(block, compute_uv=False))
        np.testing.assert_allclose(s1, s2, atol=1e-10)

    def test_adjoint_commutes_with_embedding(self):
        gen = np.random.default_rng(11)
        a = random_quat(gen, 2, 3)
        lhs = algebra._chi(_adjoint_ref(a, "h"))
        rhs = np.conj(algebra._chi(a).T)
        np.testing.assert_allclose(lhs, rhs)


class TestDeterminantsAndMinors:
    """The log-minors against dense Dieudonne determinants."""

    def test_scalar_quaternion_modulus(self):
        a = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        expect = np.sqrt(1.0 + 4.0 + 9.0 + 16.0)
        np.testing.assert_allclose(_det_dieudonne_ref(a, "h"), expect)

    def test_minors_match_dense_determinants(self):
        gen = np.random.default_rng(13)
        for field in ("r", "c", "h"):
            if field == "h":
                m = random_quat(gen, 3, 3)
                x = algebra.matmul(_adjoint_ref(m, field), m, field)
                x[..., 0] += 0.5 * np.eye(3)
            else:
                m = gen.standard_normal((3, 3))
                if field == "c":
                    m = m + 1j * gen.standard_normal((3, 3))
                x = _adjoint_ref(m, field) @ m + 0.5 * np.eye(3)
            got = np.exp(algebra._log_minors_embedded(
                algebra._chi(x) if field == "h" else x, field))
            for r in (1, 2, 3):
                if field == "h":
                    want = _det_dieudonne_ref(x[:r, :r, :], field)
                else:
                    want = abs(np.linalg.det(x[:r, :r]))
                np.testing.assert_allclose(got[r - 1], want, rtol=1e-10)


class TestPowerFunction:
    """Delta_lam as the telescoped product of minor powers, from the
    log-minors and _power_from_logs."""

    def test_matches_minor_products(self):
        gen = np.random.default_rng(14)
        lam = np.array([1.3 + 0.2j, 0.7 - 0.1j, -0.4 + 0.0j])
        for field in ("r", "c", "h"):
            if field == "h":
                m = random_quat(gen, 3, 3)
                x = algebra.matmul(_adjoint_ref(m, field), m, field)
                x[..., 0] += np.eye(3)
            else:
                m = gen.standard_normal((3, 3))
                if field == "c":
                    m = m + 1j * gen.standard_normal((3, 3))
                x = _adjoint_ref(m, field) @ m + np.eye(3)
            minors = [_principal_minor_ref(x, field, r) for r in (1, 2, 3)]
            expo = np.append(lam, 0.0)
            want = np.prod([minors[r] ** (expo[r] - expo[r + 1])
                            for r in range(3)])
            got = algebra._power_from_logs(algebra._log_minors_embedded(
                algebra._chi(x) if field == "h" else x, field), lam)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_rank_one_power(self):
        lam = np.array([0.3 - 1.1j])
        np.testing.assert_allclose(algebra._power_from_logs(
            algebra._log_minors_embedded(np.array([[2.5]]), "r"), lam),
            2.5 ** (0.3 - 1.1j))

    def test_identity_gives_one(self):
        lam = np.array([0.9, 0.1])
        got = algebra._power_from_logs(
            algebra._log_minors_embedded(np.eye(2), "r"), lam)
        assert got == 1.0 + 0.0j

    def test_wrong_length_raises(self):
        logs = algebra._log_minors_embedded(np.eye(3), "r")
        with pytest.raises(ValueError):
            algebra._power_from_logs(logs, np.array([1.0, 2.0]))

    def test_not_positive_definite_raises(self):
        with pytest.raises(ValueError, match="not positive definite"):
            algebra._log_minors_embedded(np.diag([1.0, -1.0]), "r")

    def test_cone_exit_tolerance(self):
        """A squared Cholesky pivot below 1e-13 counts as leaving the
        cone, though the factorization itself succeeds."""
        lam = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match="pivot below tolerance"):
            algebra._log_minors_embedded(np.diag([1.0, 1e-14]), "r")
        got = algebra._power_from_logs(
            algebra._log_minors_embedded(np.diag([1.0, 1e-12]), "r"), lam)
        np.testing.assert_allclose(got, 1e-6, rtol=1e-12)

    def test_batched_input(self):
        gen = np.random.default_rng(15)
        m = gen.standard_normal((5, 2, 2))
        x = np.swapaxes(m, -2, -1) @ m + np.eye(2)
        lam = np.array([0.5, 0.2])
        got = algebra._power_from_logs(
            algebra._log_minors_embedded(x, "r"), lam)
        want = [algebra._power_from_logs(
            algebra._log_minors_embedded(x[i], "r"), lam) for i in range(5)]
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
        logs = algebra._log_minors_embedded(x, "r")
        nu = 0.5 * (gen.standard_normal((q, 7))
                    + 1j * gen.standard_normal((q, 7)))
        for lg in (logs[0, 0], logs[0], logs):  # none, one, two batch axes
            for n in (nu[:, 0], nu):  # one exponent vector, or columns
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


def _draws(field, q, n, seed):
    """n Haar draws and n ball draws of parameter 2q + 1, as the shard
    kernels take them."""
    gen = np.random.default_rng(seed)
    return (sampling._haar_batch(field, q, n, gen),
            sampling._mp_batch(field, q, 2 * q + 1.0, n, gen))


class TestBuildG:
    """The integrand argument built from (t, u, w) by _build_g_embedded."""

    def test_positive_definite_all_fields(self):
        t = np.array([0.9, 0.4])
        for field in ("r", "c", "h"):
            u, w = _draws(field, 2, 200, 16)
            for variant in ("g", "g-tilde"):
                g = algebra._build_g_embedded(t, u, w, field, variant)
                logs = algebra._log_minors_embedded(g, field)
                assert np.all(np.isfinite(logs))

    def test_variants_share_determinant(self):
        """det u* (A* A) u = det u* (A A*) u: the last log-minors agree."""
        t = np.array([1.1, 0.3])
        for field in ("r", "c", "h"):
            u, w = _draws(field, 2, 200, 17)
            d_g, d_gt = (algebra._log_minors_embedded(
                algebra._build_g_embedded(t, u, w, field, variant),
                field)[:, -1] for variant in ("g", "g-tilde"))
            np.testing.assert_allclose(d_g, d_gt, rtol=0, atol=1e-10)

    def test_zero_t_identity_conjugation(self):
        """At t = 0, A = I and g is u* u: its lower triangle, over H on
        the even rows."""
        for field in ("r", "c", "h"):
            u, w = _draws(field, 2, 200, 18)
            uf = algebra._chi_full(u)
            want = np.tril(np.conj(np.swapaxes(uf, -2, -1)) @ uf)
            g = algebra._build_g_embedded(np.zeros(2), u, w, field, "g")
            np.testing.assert_allclose(
                g, want[:, 0::2] if field == "h" else want, atol=1e-12)


class TestInputContract:
    """Every public evaluator, experiment and sampler names the argument
    it rejects."""

    @pytest.mark.parametrize("call,name", [
        (lambda: hypergeo.eval_phi_bc("r", np.inf, [1, 0.5], [0.8, 0.4]),
         "p"),
        (lambda: hypergeo.eval_phi_bc("c", 5, [np.nan, 0.5], [0.8, 0.4]),
         "lam"),
        (lambda: hypergeo.eval_phi_bc("h", 5, [1, 0.5], [np.inf, 0.4]), "t"),
        (lambda: hypergeo.eval_phi_bc_quadrature_q1(np.inf, 1.0, 0.5), "p"),
        (lambda: hypergeo.eval_phi_bc_quadrature_q1(3.0, np.inf, 0.5),
         "lam"),
        (lambda: hypergeo.eval_phi_bc_quadrature_q1(3.0, 1.0, np.nan), "t"),
        (lambda: hypergeo.eval_psi("r", [1.0], [np.nan]), "t"),
        (lambda: hypergeo.eval_psi("c", [np.inf, 1.0], [0.8, 0.4]), "lam"),
        (lambda: hypergeo.eval_ho_polynomial("r", np.inf, [2, 0], [0.5, 0.2]),
         "p"),
        (lambda: hypergeo.eval_ho_polynomial("r", 5, [np.inf, 0], [0.5, 0.2]),
         "mu"),
        (lambda: hypergeo.c_function(
            [np.nan, 1.0], hypergeo.multiplicity_bc(5.0, 1, 2), 2), "lam"),
        (lambda: hypergeo.kappa(np.inf, 1, 2), "p"),
        (lambda: hypergeo.bessel_phi_tilde("r", np.nan, [1, 0.5], [0.7, 0.2]),
         "p"),
        (lambda: hypergeo.bessel_phi_tilde("r", 5, [1, 0.5], [np.nan, 0.2]),
         "t"),
        (lambda: hypergeo.bessel_phi_tilde("r", np.nan, [1, 0.5], [0.7, 0.2],
                                           mode="integral"), "p"),
        (lambda: hypergeo.bessel_phi_tilde("r", 5, [np.inf, 0.5], [0.7, 0.2],
                                           mode="integral"), "lam"),
        (lambda: hypergeo.jack_C((1,), 1.0, [np.nan, 1.0]), "xi"),
        (lambda: hypergeo.rate_p_experiment("r", 1, [2.0], [[0.5]],
                                            [10, np.inf]), "p_list"),
        (lambda: hypergeo.rate_p_experiment("r", 2, [1, 0.5], [[np.nan, 0.2]],
                                            [10, 20]), "t_grid"),
        (lambda: hypergeo.contraction_experiment("r", 1, np.inf, [1.0],
                                                 [0.5], [2, 4]), "p"),
        (lambda: hypergeo.contraction_experiment("r", 1, 5, [1.0],
                                                 [np.nan], [2, 4]), "t"),
        (lambda: hypergeo.boundedness_sweep("r", 1, np.inf), "p"),
        (lambda: hypergeo.moment_decay_experiment("r", 1, 1, [9, np.inf]),
         "p_list"),
    ], ids=["phi-p", "phi-lam", "phi-t", "quadrature-p", "quadrature-lam",
            "quadrature-t", "psi-q1-t", "psi-lam", "ho-poly-p", "ho-poly-mu",
            "c-function-lam", "kappa-p", "series-p",
            "series-t", "integral-p", "integral-lam",
            "jack-xi", "rate-p-p-list", "rate-p-t-grid", "contraction-p",
            "contraction-t", "boundedness-p", "moment-decay-p-list"])
    def test_public_calls_reject_non_finite_input(self, call, name,
                                                  monkeypatch):
        """A NaN or infinite p, t or lam is a ValueError naming it, raised
        before any draw: not a RuntimeWarning, a silent 0 or NaN, or a
        message about overflow."""
        def never(*args):
            raise AssertionError("a random stream was opened")

        monkeypatch.setattr(sampling, "shard_stream", never)
        with pytest.raises(ValueError, match="^%s must be finite, not "
                           % name):
            call()

    @pytest.mark.parametrize("call,name", [
        (lambda: hypergeo.eval_phi_bc("r", 5, [1, 0.5], [0.8, 0.4],
                                      samples=64, seed=1.9), "seed"),
        (lambda: hypergeo.boundedness_sweep("r", 1, 3.0, n_lambda=1, n_t=1,
                                            samples=64, seed=1.9), "seed"),
        (lambda: hypergeo.moment_decay_experiment("r", 1, 1.5, [9, 17],
                                                  samples=64), "n_exponent"),
        (lambda: hypergeo.moment_decay_experiment("r", 1, 0.5, [9, 17],
                                                  samples=64), "n_exponent"),
        (lambda: hypergeo.eval_phi_bc("r", 5, [1, 0.5], [0.8, 0.4],
                                      samples=1.5), "samples"),
        (lambda: hypergeo.eval_psi("c", [1, 0.5], [0.8, 0.4], samples=1.5),
         "samples"),
        (lambda: hypergeo.bessel_phi_tilde("r", 5, [1, 0.5], [0.7, 0.2],
                                           mode="integral", samples=1.5),
         "samples"),
        (lambda: hypergeo.eval_phi_bc("r", 5, [1, 0.5], [0.8, 0.4],
                                      samples=64, workers=0), "workers"),
        (lambda: hypergeo.eval_phi_bc("r", 5, [1, 0.5], [0.8, 0.4],
                                      samples=64, workers=-3), "workers"),
        (lambda: hypergeo.eval_phi_bc("r", 5, [1, 0.5], [0.8, 0.4],
                                      samples=64, workers=2.5), "workers"),
        (lambda: hypergeo.boundedness_sweep("r", 1, 3.0, n_lambda=2.5,
                                            samples=64), "n_lambda"),
        (lambda: hypergeo.boundedness_sweep("r", 1, 3.0, n_t=2.5,
                                            samples=64), "n_t"),
        (lambda: hypergeo.kappa(5.0, 1, 0), "q"),
        (lambda: hypergeo.c_function([1.0, 0.5],
                                     hypergeo.multiplicity_bc(5, 1, 2), 2.5),
         "q"),
        (lambda: hypergeo.rho_a(2, 1.5), "q"),
        (lambda: hypergeo.rho_bc(5, 1, 1.5), "q"),
        (lambda: hypergeo.rho_k((1, 0, 0.5), 1.5), "q"),
        (lambda: hypergeo.multiplicity_bc(5, 1, 1.5), "q"),
        (lambda: hypergeo.bessel.partitions_of_weight(2.5, 2), "k"),
        (lambda: hypergeo.bessel_series(hypergeo.bessel_index("r", 5),
                                        [0.5], [0.1], max_degree=2.5),
         "max_degree"),
        (lambda: hypergeo.bessel_series(hypergeo.bessel_index("r", 5),
                                        [0.5], [0.1], max_degree=-1),
         "max_degree"),
    ], ids=["phi-seed", "boundedness-seed", "moment-n-fraction",
            "moment-n-half", "phi-samples", "psi-samples",
            "integral-samples", "workers-0", "workers-negative",
            "workers-fraction", "n-lambda", "n-t", "kappa-q", "c-function-q",
            "rho-a-q", "rho-bc-q", "rho-k-q", "multiplicity-q", "partitions-k",
            "series-degree-fraction", "series-degree-negative"])
    def test_public_calls_reject_non_count_input(self, call, name):
        """A count or seed that is not a whole number in range is a
        ValueError naming it: not truncated (seed 1.9 drew seed 1's
        numbers, moment exponent 1.5 ran as 1), not a TypeError or
        IndexError from deep inside, and not run as given (workers=0,
        kappa at q = 0, a series truncated at degree -1, a half-sum
        vector at q = 1.5, or c_function's "lam must have q=2 entries" at
        q = 2.5)."""
        least = 2 if name == "samples" else "[01]"
        with pytest.raises(ValueError, match="^%s must be at least %s and "
                           "whole, not " % (name, least)):
            call()

    @pytest.mark.parametrize("bad", [
        dict(samples=1.5, seed=1.9, workers=0), dict(seed=1.9),
        dict(workers=0)], ids=["all", "seed", "workers"])
    @pytest.mark.parametrize("call", [
        lambda **kw: hypergeo.eval_psi("r", [1.0], [0.5], **kw),
        lambda **kw: hypergeo.rate_p_experiment("c", 1, [2.0], [[0.5]],
                                                [4, 8], **kw),
        lambda **kw: hypergeo.bessel_phi_tilde("r", 5, [1.0], [0.0],
                                               mode="integral", **kw),
        lambda **kw: hypergeo.contraction_experiment("h", 1, 3, [1.0], [0.5],
                                                     [2, 4], **kw),
    ], ids=["psi-q1", "rate-p-q1", "integral-t0", "contraction-q1"])
    def test_paths_that_draw_nothing_check_counts(self, call, bad):
        """The exact rank-one values and the t = 0 shortcut draw nothing,
        so mc_run never saw their counts: each returned a value, and
        the shortcut recorded samples=1.5 and seed=1.9."""
        name = next(iter(bad))
        least = 2 if name == "samples" else "[01]"
        with pytest.raises(ValueError, match="^%s must be at least %s and "
                           "whole, not " % (name, least)):
            call(**bad)

    def test_integral_float_counts_run_as_ints(self):
        """2.0 is a count: samples=1e4 raised a TypeError, and now runs
        as 10000 does."""
        args = ("r", 5, [1, 0.5], [0.8, 0.4])
        assert hypergeo.eval_phi_bc(*args, samples=1e4, seed=3.0).value \
            == hypergeo.eval_phi_bc(*args, samples=10000, seed=3).value
        assert algebra._check_count("seed", 2 ** 70, least=0) == 2 ** 70
        assert algebra._check_count("n", np.int64(3)) == 3
        assert algebra._check_count("n", [1, 2.0]) == [1, 2]
        k = (1.0, 0.0, 0.5)  # c_function at q = 1.0 raised a TypeError
        assert hypergeo.c_function([1.0], k, 1.0) \
            == hypergeo.c_function([1.0], k, 1)
        for rho in (lambda q: hypergeo.rho_a(2, q),
                    lambda q: hypergeo.rho_bc(5, 1, q),
                    lambda q: hypergeo.rho_k(k, q),
                    lambda q: hypergeo.multiplicity_bc(5, 1, q)):
            assert np.array_equal(rho(1.0), rho(1))


class TestBatchLastKernels:
    """_build_g_embedded and the log-minors on batch-last memory."""

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("variant", ["g", "g-tilde", None])
    def test_batch_first_inputs_same_bits(self, field, variant):
        """C-contiguous (n, e, e) stacks give the bits that the samplers'
        batch-last views give."""
        t = np.array([1.1, 0.6, 0.2])
        u, w = _draws(field, 3, 300, 60)
        if variant is None:
            w = None
        outs = []
        for copy in (lambda x: x, np.ascontiguousarray):
            g = algebra._build_g_embedded(
                t, copy(u), None if w is None else copy(w), field,
                variant or "g")
            outs.append((g, algebra._log_minors_embedded(copy(g), field)))
        for got, want in zip(*outs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_chi_even_columns_match_rows(self, q):
        """Over H the phase kernel forms u's even columns from its even
        rows: its trace equals, to the bit, the same trace over the stack
        of every row's even-column entries, each odd row from `_row`, on
        a Haar shard's even rows."""
        u, w = _draws("h", q, 300, 63)
        t, lam = np.linspace(1.1, 0.3, q), np.linspace(0.9, -0.4, q)
        rows = algebra._worked_rows(u, 2)
        cols = np.stack([algebra._row(rows, k, 2)[0::2]
                         for k in range(2 * q)])
        assert cols.shape == (2 * q, q, 300)
        wt = algebra._worked_rows(w, 2) * np.repeat(t, 2)[:, None]
        want = np.einsum("ijn,jin->n", wt, cols * lam[:, None]).real
        np.testing.assert_array_equal(
            algebra._phase_trace(w, t, lambda: u, lam, "h"), want)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("field", ["r", "c"])
    def test_phase_trace_matches_matrix_products(self, field, q):
        """Over R and C the phase kernel is Re tr(w diag(t) u diag(lam)) of
        each draw, here by `@` products, on the samplers' stacks under
        the ball law and the boundary law."""
        n, seed, shard = 500, 6, 2
        t, lam = np.linspace(1.1, 0.3, q), np.linspace(0.9, -0.4, q)
        u = sampling.draw_haar(field, q, seed, shard, n)
        for p in (2 * q - 1, 2 * q + 1.5):
            w = sampling.draw_ball(field, q, p, seed, shard, n)
            want = np.trace((w * t) @ (u * lam), axis1=-2, axis2=-1).real
            got = algebra._phase_trace(w, t, lambda: u, lam, field)
            assert got.shape == (n,)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("variant", ["g", "g-tilde"])
    def test_quaternion_pivots_pair(self, variant):
        """g over H, completed from the lower triangle of its even rows,
        has Cholesky pivots in equal pairs, and the log-minors take one
        of each pair."""
        u, w = _draws("h", 4, 200, 61)
        g = algebra._build_g_embedded(np.linspace(1.4, 0.2, 4), u, w, "h",
                                      variant)
        low = np.tril(algebra._chi_full(g))
        full = low + np.conj(np.swapaxes(np.tril(low, -1), -2, -1))
        piv = np.diagonal(np.linalg.cholesky(full), axis1=-2,
                          axis2=-1).real
        np.testing.assert_allclose(piv[:, 0::2], piv[:, 1::2], rtol=1e-12)
        np.testing.assert_allclose(
            algebra._log_minors_embedded(g, "h"),
            np.cumsum(np.log(piv), axis=-1)[:, 1::2], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_build_g_is_exactly_hermitian(self, field):
        """g is formed as the lower triangle of its worked rows, with a
        diagonal real to the bit, so it is the triangle of an exactly
        Hermitian matrix; nothing above the diagonal is written."""
        u, w = _draws(field, 3, 200, 62)
        step = 2 if field == "h" else 1
        lower = np.tril(np.ones((3 * step, 3 * step), bool))[::step]
        t = np.array([1.0, 0.5, 0.25])
        for ww in (w, np.zeros_like(w)):
            g = algebra._build_g_embedded(t, u, ww, field, "g")
            assert np.all(g[:, ~lower] == 0.0)
            assert np.all(g[:, range(3), range(0, 3 * step, step)].imag
                          == 0.0)

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_cone_exit_on_batch_last_stacks(self, field):
        """One draw whose squared pivot is below 1e-13 fails the shard;
        at 1e-12 it passes, and a NaN pivot passes on as a NaN log."""
        e = 4 if field == "h" else 2
        dtype = float if field == "r" else complex
        for last, raises in ((1e-14, True), (1e-12, False), (np.nan, False)):
            g = np.zeros((e, e, 50), dtype)  # batch-last memory
            for i in range(e):
                g[i, i] = 1.0
            g[-1, -1, 7] = last
            if field == "h":
                g[-2, -2, 7] = last
            stack = algebra._batch_first(g)
            if raises:
                with pytest.raises(ValueError, match="pivot below tolerance"):
                    algebra._log_minors_embedded(stack, field)
                continue
            logs = algebra._log_minors_embedded(stack, field)
            np.testing.assert_array_equal(logs[7], [0.0, np.log(last)])
            assert np.all(np.delete(logs, 7, axis=0) == 0.0)


class TestSingularValues:
    def test_quaternion_pairing(self):
        gen = np.random.default_rng(19)
        a = random_quat(gen, 3, 3)
        s = algebra.singular_values(a, "h")
        assert s.shape == (3,)
        assert np.all(np.diff(s) <= 0)

    @pytest.mark.parametrize("scale", [1e9, 1e12, 1e15])
    def test_quaternion_row_at_large_scale(self, scale):
        """One quaternion row scaled far up: the chi pairs agree to
        rounding relative to the largest singular value, not to an
        absolute 1e-9, and one of each pair is returned."""
        a = random_quat(np.random.default_rng(21), 3, 3)
        a[0] *= scale
        s = np.linalg.svd(algebra._chi(a), compute_uv=False)
        np.testing.assert_array_equal(algebra.singular_values(a, "h"),
                                      s[..., 0::2])
        np.testing.assert_allclose(s[0::2], s[1::2], rtol=0,
                                   atol=1e-13 * s[0])

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input_rejected(self, field, bad):
        shape = (2, 2, 4) if field == "h" else (2, 2)
        a = np.ones(shape, complex if field == "c" else float)
        a[1, 0] = bad
        with pytest.raises(ValueError, match="^a must be finite, not "):
            algebra.singular_values(a, field)

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
