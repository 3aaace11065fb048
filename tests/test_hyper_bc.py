"""Tests for the BC spherical-function evaluators and the c-function."""

import tracemalloc

import numpy as np
import pytest

import hypergeo
from hypergeo import algebra, hyper_bc, sampling
from oracles import c_function_gamma, jacobi_2f1, jacobi_poly_normalized

# frozen from the 50-digit Gamma oracle (see c_function_gamma)
C_FROZEN_1 = 0.8387446669103816 + 0.0j
C_FROZEN_2 = 34.87867332329537 - 44.21037830424462j
# frozen from the Gauss series oracle (see jacobi_2f1)
F_FROZEN_1 = 0.4075521837993011 + 0.0j
F_FROZEN_2 = 0.7750338002839698 + 0.07860152688051888j
# frozen from the scaled scipy Jacobi polynomial (jacobi_poly_normalized)
JP_FROZEN = 4.649274944450315


class TestRho:
    """Half sums of positive roots and the multiplicity map."""

    def test_rho_bc_matches_rho_k(self):
        for p, d, q in ((5.0, 1, 2), (4.0, 2, 3), (8.0, 4, 2), (3.0, 1, 1)):
            k = hyper_bc.multiplicity_bc(p, d, q)
            np.testing.assert_allclose(
                hyper_bc.rho_bc(p, d, q), hyper_bc.rho_k(k, q))

    def test_rank_one_value(self):
        np.testing.assert_allclose(hyper_bc.rho_bc(3.0, 1, 1), [1.0])


class TestCFunction:
    """The normalized Harish-Chandra c-function."""

    def test_frozen_real_case(self):
        k = hyper_bc.multiplicity_bc(5.0, 1, 2)
        oracle = c_function_gamma([3.0 + 0j, 1.0 + 0j], k, 2)
        assert oracle == C_FROZEN_1
        got = hyper_bc.c_function(np.array([3.0 + 0j, 1.0 + 0j]), k, 2)
        np.testing.assert_allclose(got, C_FROZEN_1, rtol=1e-12)

    def test_frozen_complex_case(self):
        k = hyper_bc.multiplicity_bc(4.0, 2, 2)
        assert k == (2.0, 0.5, 1.0)
        oracle = c_function_gamma([2.5 + 1j, 1.0 - 0.5j], k, 2)
        assert oracle == C_FROZEN_2
        got = hyper_bc.c_function(np.array([2.5 + 1j, 1.0 - 0.5j]), k, 2)
        np.testing.assert_allclose(got, C_FROZEN_2, rtol=1e-12)

    def test_normalized_to_one_at_rho(self):
        for p, d, q in ((5.0, 1, 2), (4.0, 2, 2), (9.0, 4, 2), (4.0, 1, 3)):
            k = hyper_bc.multiplicity_bc(p, d, q)
            rho = hyper_bc.rho_k(k, q).astype(complex)
            assert hyper_bc.c_function(rho, k, q) == 1.0 + 0.0j

    def test_numerator_pole_raises(self):
        k = hyper_bc.multiplicity_bc(5.0, 1, 2)
        with pytest.raises(hyper_bc.PoleError) as info:
            hyper_bc.c_function(np.array([0.0 + 0j, -1.0 + 0j]), k, 2)
        assert "pole" in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_equal_entries_pole_root_label(self):
        k = hyper_bc.multiplicity_bc(4.0, 2, 2)
        with pytest.raises(hyper_bc.PoleError) as info:
            hyper_bc.c_function(np.array([1.0 + 0j, 1.0 + 0j]), k, 2)
        assert "e_1" in str(info.value)

    def test_denominator_pole_gives_zero(self):
        # (lam_1 - lam_2)/2 + k3 = 0 with every numerator argument regular
        k = (1.0, 0.0, 0.5)
        lam = np.array([0.5 + 0j, 1.5 + 0j])
        got = hyper_bc.c_function(lam, k, 2)
        assert got == 0.0 + 0.0j

    def test_input_validation(self):
        """ValueErrors, not asserts, so they hold under python -O too."""
        k = hyper_bc.multiplicity_bc(5.0, 1, 2)
        with pytest.raises(ValueError,
                           match="^lam must have q=2 entries, got 1$"):
            hyper_bc.c_function(np.array([1.0 + 0j]), k, 2)
        with pytest.raises(ValueError, match="multiplicity must be finite"):
            hyper_bc.c_function(np.array([3.0, 1.0]),
                                hyper_bc.multiplicity_bc(np.inf, 1, 2), 2)


class TestQuadrature:
    """Rank-one evaluation by Gauss-Jacobi quadrature."""

    def test_frozen_real_lambda(self):
        oracle = jacobi_2f1(5.0, 1, 1.5, 1.2)
        assert oracle == F_FROZEN_1
        got = hyper_bc.eval_phi_bc_quadrature_q1(5.0, 1.5, 1.2)
        np.testing.assert_allclose(got, F_FROZEN_1, rtol=1e-10)

    def test_frozen_complex_lambda(self):
        oracle = jacobi_2f1(10.0, 1, 2.0 - 2.0j, 0.5)
        assert oracle == F_FROZEN_2
        got = hyper_bc.eval_phi_bc_quadrature_q1(10.0, 2.0 - 2.0j, 0.5)
        np.testing.assert_allclose(got, F_FROZEN_2, rtol=1e-10)

    def test_hyperbolic_space_closed_form(self):
        """p = 3 over the reals is sin(lam t) / (lam sinh t)."""
        for lam in (0.7, 1.3, 2.4):
            for t in (0.4, 1.0, 2.2):
                want = np.sin(lam * t) / (lam * np.sinh(t))
                got = hyper_bc.eval_phi_bc_quadrature_q1(3.0, lam, t)
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_zero_t_is_exactly_one(self):
        got = hyper_bc.eval_phi_bc_quadrature_q1(4.0, 1.7, 0.0)
        assert got == 1.0 + 0.0j

    def test_grid_broadcast(self):
        lam = np.array([0.5, 1.0])
        t = np.array([0.3, 0.9, 1.5])
        got = hyper_bc.eval_phi_bc_quadrature_q1(6.0, lam[:, None], t[None, :])
        assert got.shape == (2, 3)
        np.testing.assert_allclose(
            got[1, 2], hyper_bc.eval_phi_bc_quadrature_q1(6.0, 1.0, 1.5))

    def test_parameter_validation(self):
        for field in ("r", "c", "h"):
            with pytest.raises(ValueError, match="p >= 1"):
                hyper_bc.eval_phi_bc_quadrature_q1(0.9, 1.0, 0.5, field)
        with pytest.raises(ValueError, match="unknown scalar field"):
            hyper_bc.eval_phi_bc_quadrature_q1(3.0, 1.0, 0.5, field="x")

    @pytest.mark.parametrize("field,d", [("c", 2), ("h", 4)])
    def test_other_fields_match_jacobi_oracle(self, field, d):
        """Over C and H, on the acceptance grid of the real rule, and at
        the boundary p = 1 for t <= 1."""
        grid = [(p, t) for p in (2.0, 3.0, 5.0, 10.0)
                for t in (0.1, 0.5, 1.0, 2.0)]
        grid += [(1.0, t) for t in (0.1, 0.5, 1.0)]
        failures = []
        for p, t in grid:
            for base in (0.5, 1.0, 2.0, 4.0):
                for lam in (base + 0j, base + 2j, base - 2j):
                    got = hyper_bc.eval_phi_bc_quadrature_q1(p, lam, t, field)
                    want = jacobi_2f1(p, d, lam, t)
                    if not abs(got - want) <= 1e-6 * abs(want):
                        failures.append((p, lam, t, got, want))
        assert failures == []

    @pytest.mark.parametrize("field", ["c", "h"])
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_matches_sampler_over_c_and_h(self, field, p):
        """The rule's law is the sampler's, the boundary law included."""
        lam, t = 1.5 - 0.5j, 0.8
        want = hyper_bc.eval_phi_bc_quadrature_q1(p, lam, t, field)
        est = hyper_bc.eval_phi_bc(field, p, np.array([lam]), np.array([t]),
                                   samples=200000, seed=3)
        assert abs(est.value - want) < 4.0 * est.stderr

    def test_real_boundary_is_cosine(self):
        """At p = 1 over R the rule is the atoms x = +-1, so phi is
        cos(lam t)."""
        lam = np.array([0.5, 1.0, 2.5 + 0.5j])
        t = np.array([0.3, 1.0, 2.0])
        got = hyper_bc.eval_phi_bc_quadrature_q1(1.0, lam[:, None], t)
        np.testing.assert_allclose(got, np.cos(np.outer(lam, t)),
                                   rtol=1e-14, atol=1e-15)

    def test_overflow_names_t(self):
        """cosh(800) is out of float range: a named OverflowError, before
        any RuntimeWarning (which the test configuration makes an error)."""
        with pytest.raises(OverflowError, match=r"t=800\.0"):
            hyper_bc.eval_phi_bc_quadrature_q1(3.0, 1.0, 800.0)


class TestMonteCarloPhi:
    """The Monte-Carlo estimator of the BC spherical function."""

    def test_zero_t_exact(self):
        for field, q, p in (("r", 2, 4.0), ("c", 1, 3.0), ("h", 2, 6.0)):
            lam = np.full(q, 1.0 + 0.0j)
            est = hyper_bc.eval_phi_bc(field, p, lam, np.zeros(q),
                                       samples=64, seed=0)
            assert est.value == 1.0 + 0.0j
            assert est.stderr == 0.0

    def test_matches_quadrature_rank_one(self):
        lam, t = 1.5, 0.8
        want = hyper_bc.eval_phi_bc_quadrature_q1(5.0, lam, t)
        est = hyper_bc.eval_phi_bc("r", 5.0, np.array([lam + 0j]),
                                   np.array([t]), samples=200000, seed=1)
        assert abs(est.value - want) < 4.0 * est.stderr

    def test_lambda_at_minus_i_rho_exact(self):
        """lam = -i rho makes the integrand 1 for every sample."""
        for field, q, p in (("r", 2, 5.0), ("c", 2, 4.0)):
            d = {"r": 1, "c": 2}[field]
            lam = -1j * hyper_bc.rho_bc(p, d, q)
            est = hyper_bc.eval_phi_bc(field, p, lam, np.array([1.1, 0.4]),
                                       samples=2048, seed=2)
            np.testing.assert_allclose(est.value, 1.0 + 0.0j, atol=1e-13)
            assert est.stderr < 1e-13

    def test_weyl_invariance_in_lambda(self):
        """Swapping entries of lam changes only the Monte-Carlo noise."""
        t = np.array([0.9, 0.5])
        a = hyper_bc.eval_phi_bc("r", 6.0, np.array([2.0 + 0j, 1.0 + 0j]),
                                 t, samples=200000, seed=3)
        b = hyper_bc.eval_phi_bc("r", 6.0, np.array([1.0 + 0j, 2.0 + 0j]),
                                 t, samples=200000, seed=3)
        assert abs(a.value - b.value) < 4.0 * (a.stderr + b.stderr)

    def test_seeded_and_worker_invariant(self):
        lam = np.array([1.0 + 0j, 0.5 + 0j])
        t = np.array([0.7, 0.2])
        a = hyper_bc.eval_phi_bc("c", 5.0, lam, t, samples=30000, seed=4)
        b = hyper_bc.eval_phi_bc("c", 5.0, lam, t, samples=30000, seed=4,
                                 workers=3)
        assert a.value == b.value and a.stderr == b.stderr

    @pytest.mark.parametrize("field, workers", [
        ("r", 1), ("r", 2), ("c", 1), ("c", 2), ("h", 1), ("h", 2),
    ], ids=["1", "2", "c-1", "c-2", "h-1", "h-2"])
    def test_mixed_laws_match_one_law_runs(self, field, workers):
        """psi and two ball laws in one run give what three runs give."""
        t = np.array([0.7, 0.2])
        nu = np.array([[0.5j, 0.3 - 0.2j], [0.25j, -0.1j]])
        laws = [None, 5.0, 9.0]
        samples = 2 * sampling.SHARD_SIZE + 300
        mean, err, parts = hyper_bc._mc_pairs(
            field, 2, [(p, t, nu) for p in laws], samples, 8, workers)
        for k, p in enumerate(laws):
            one = hyper_bc._mc_pairs(field, 2, [(p, t, nu)], samples, 8,
                                     workers)
            cols = slice(2 * k, 2 * k + 2)
            assert np.array_equal(mean[cols], one[0])
            assert np.array_equal(err[cols], one[1])
            assert all(np.array_equal(a[cols], b)
                       for a, b in zip(parts, one[2], strict=True))

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_integrand_cannot_see_det_u(self, q):
        """u -> u D with D = diag(1, ..., 1, -1) leaves every principal
        minor of u* X u, so phi and psi columns and the g-tilde minors
        keep their bytes, and a Haar draw on O(q) gives the values SO(q)
        gave."""
        t = np.linspace(1.1, 0.2, q)
        p = 2 * q + 1.5
        lam = np.array([np.ones(q), np.linspace(0.3, -0.2, q) + 0.4j])
        nu = 0.5 * (1j * lam - hyper_bc.rho_bc(p, 1, q)).T
        u = sampling.draw_haar("r", q, 11, 0, 1000)
        flipped = u.copy()
        flipped[:, :, -1] *= -1.0
        w = sampling.draw_ball("r", q, p, 11, 0, 1000)
        for law in (w, None):
            cols = [hyper_bc._phi_columns("r", t, nu, lambda x=x: x, law)
                    for x in (u, flipped)]
            assert cols[0].tobytes() == cols[1].tobytes()
        logs = [algebra._log_minors_embedded(
            algebra._build_g_embedded(t, x, w, "r", "g-tilde"), "r")
            for x in (u, flipped)]
        assert logs[0].tobytes() == logs[1].tobytes()

    def test_quaternion_shard_memory(self):
        """One h shard at q = 4 keeps only the even rows of its 8 x 8
        complex draws and kernel arrays: its traced peak is about 19 MiB,
        against 35.8 MiB when every row was kept."""
        lam = np.array([1.0, 0.5, -0.3, 0.2])
        t = np.array([1.2, 0.8, 0.5, 0.2])
        hyper_bc.eval_phi_bc("h", 9.0, lam, t, samples=64)  # lazy imports
        tracemalloc.start()
        try:
            hyper_bc.eval_phi_bc("h", 9.0, lam, t,
                                 samples=sampling.SHARD_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)

    def test_chamber_enforced(self):
        lam = np.array([1.0 + 0j, 0.5 + 0j])
        with pytest.raises(ValueError):
            hyper_bc.eval_phi_bc("r", 5.0, lam, np.array([0.2, 0.7]))
        with pytest.raises(ValueError):
            hyper_bc.eval_phi_bc("r", 5.0, lam, np.array([0.5, -0.1]))

    def test_p_range_enforced(self):
        with pytest.raises(ValueError):
            hyper_bc.eval_phi_bc("r", 2.5, np.array([1.0 + 0j, 0.5 + 0j]),
                                 np.array([0.5, 0.1]))


class TestDegenerate:
    """eval_phi_bc at the boundary parameter p = 2q - 1."""

    def test_rank_one_is_cosine(self):
        """At q = 1, d = 1 the sphere is two points and phi = cos(lam t)."""
        lam, t = 1.7, 0.9
        est = hyper_bc.eval_phi_bc(
            "r", 1, np.array([lam + 0j]), np.array([t]),
            samples=200000, seed=6)
        assert abs(est.value - np.cos(lam * t)) < 4.0 * est.stderr

    def test_continuity_from_above(self):
        """phi_p approaches the boundary value as p drops to 2q - 1."""
        lam = np.array([1.0 + 0j, 0.5 + 0j])
        t = np.array([0.6, 0.2])
        boundary = hyper_bc.eval_phi_bc("r", 3, lam, t,
                                        samples=300000, seed=7)
        near = hyper_bc.eval_phi_bc("r", 3.05, lam, t,
                                    samples=300000, seed=7)
        assert abs(boundary.value - near.value) < 0.02

    def test_zero_t_exact(self):
        est = hyper_bc.eval_phi_bc(
            "c", 3, np.array([1.0 + 0j, 0.5 + 0j]), np.zeros(2),
            samples=64, seed=0)
        assert est.value == 1.0 + 0.0j and est.stderr == 0.0

    def test_t_length_checked(self):
        """q is the length of t, so a shorter t no longer matches lam."""
        with pytest.raises(ValueError,
                           match="^lam must have q=1 entries, got 2$"):
            hyper_bc.eval_phi_bc(
                "r", 3, np.array([1.0 + 0j, 0.5 + 0j]), np.array([0.5]))


class TestHoPolynomial:
    """Symmetric hypergeometric polynomials from the same estimator."""

    def test_rank_one_jacobi_polynomial(self):
        p, mu, t = 6.0, 4, 0.8
        oracle = jacobi_poly_normalized(mu // 2, p / 2.0 - 1.0, -0.5, t)
        assert oracle == JP_FROZEN
        k = hyper_bc.multiplicity_bc(p, 1, 1)
        norm = hyper_bc.c_function(
            np.array([mu]) + hyper_bc.rho_k(k, 1).astype(complex), k, 1)
        est = hyper_bc.eval_ho_polynomial("r", p, [mu], [t],
                                          samples=400000, seed=8)
        want = JP_FROZEN / norm
        assert abs(est.value - want) < 4.0 * est.stderr

    def test_zero_t_value(self):
        """At t = 0 the average is exactly 1, so the value is 1/c."""
        p, q = 5.0, 2
        mu = np.array([2, 0])
        k = hyper_bc.multiplicity_bc(p, 1, q)
        norm = hyper_bc.c_function(
            mu + hyper_bc.rho_k(k, q).astype(complex), k, q)
        est = hyper_bc.eval_ho_polynomial("r", p, mu, np.zeros(q),
                                          samples=64, seed=0)
        np.testing.assert_allclose(est.value, 1.0 / norm, rtol=1e-14)
        assert est.stderr == 0.0

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            hyper_bc.eval_ho_polynomial("r", 5.0, [3, 0], [0.5, 0.1])
        with pytest.raises(ValueError):
            hyper_bc.eval_ho_polynomial("r", 5.0, [2, 4], [0.5, 0.1])
        with pytest.raises(ValueError):
            hyper_bc.eval_ho_polynomial("r", 5.0, [-2, 0], [0.5, 0.1])
        for mu in ([2.5, 0], [2, 0.5]):
            with pytest.raises(ValueError, match="^mu must be a weakly"):
                hyper_bc.eval_ho_polynomial("r", 5.0, mu, [0.5, 0.1])

    def test_boundary_p_rejected(self):
        """The cone admits p = 2q - 1, but the c-function normalization
        needs p above it."""
        with pytest.raises(ValueError,
                           match=r"^eval_ho_polynomial needs p > 2q - 1$"):
            hyper_bc.eval_ho_polynomial("r", 3.0, [2, 0], [0.5, 0.1])


class TestEstimateShape:
    def test_mc_estimate_fields(self):
        est = hyper_bc.eval_phi_bc("r", 3.0, np.array([1.0 + 0j]),
                                   np.array([0.5]), samples=1000, seed=9)
        assert est.samples == 1000
        assert est.seed == 9
        assert est.stderr >= 0.0

    @pytest.mark.parametrize("call", [
        lambda lam: hyper_bc.eval_phi_bc("c", 5.0, lam, [0.8, 0.3]),
        lambda lam: hyper_bc.eval_psi("c", lam, [0.8, 0.3]),
    ], ids=["phi", "psi"])
    def test_lambda_batch_rejected(self, call):
        """Each call takes one spectral point: a (2, q) lam is no batch."""
        with pytest.raises(ValueError,
                           match="^lam must have q=2 entries, got 4$"):
            call(np.array([[1.0, 0.5], [2.0, -1j]]))

    def test_calls_with_one_seed_share_their_draws(self, monkeypatch):
        """Common random numbers: calls with one seed and different lam
        run on the same ball and Haar draws, shard by shard."""
        drawn = []
        for name in ("draw_ball", "draw_haar"):
            def spy(*args, draw=getattr(sampling, name)):
                out = draw(*args)
                drawn.append(out.tobytes())
                return out
            monkeypatch.setattr(sampling, name, spy)
        for lam in ([1.0, 0.5], [2.0, -1j]):
            hyper_bc.eval_phi_bc("c", 5.0, lam, [0.8, 0.3], samples=10000,
                                 seed=6)
        assert len(drawn) == 8  # two calls, two shards, a ball and a Haar
        assert drawn[:4] == drawn[4:]

    @pytest.mark.parametrize("call", [
        lambda lam: hyper_bc.eval_psi("r", lam, [0.5]),
        lambda lam: hyper_bc.eval_phi_bc("r", 3.0, lam, [0.5], samples=64),
    ], ids=["psi", "phi"])
    def test_scalar_lam_at_rank_one(self, call):
        """At q = 1 a scalar lam is the length-one vector."""
        assert repr(call(2.0)) == repr(call([2.0]))

    def test_lambda_length_checked(self):
        with pytest.raises(ValueError):
            hyper_bc.eval_phi_bc("r", 5.0, np.array([1.0 + 0j]),
                                 np.array([0.5, 0.1]))


# Every public call that takes a cone point t, at q = 2, with t in place.
CONE_CALLS = {
    "phi": lambda t: hypergeo.eval_phi_bc("r", 5, [1, 0.5], t, samples=64),
    "ho-poly": lambda t: hypergeo.eval_ho_polynomial("r", 5, [4, 2], t,
                                                     samples=64),
    "psi": lambda t: hypergeo.eval_psi("r", [1, 0.5], t, samples=64),
    "series": lambda t: hypergeo.bessel_phi_tilde("r", 5, [1, 0.5], t),
    "integral": lambda t: hypergeo.bessel_phi_tilde(
        "r", 5, [1, 0.5], t, mode="integral", samples=64),
    "contraction": lambda t: hypergeo.contraction_experiment(
        "r", 2, 5, [1, 0.5], t, [2, 4], samples=64),
    "rate-p-row": lambda t: hypergeo.rate_p_experiment(
        "r", 2, [1, 0.5], [[0.5, 0.2], t], [5, 9], samples=64),
}


class TestCone:
    """One gate, hyper_bc._cone, reads t and p for every evaluator."""

    @pytest.mark.parametrize("t", [[0.2, 0.5], [0.5, -0.2]],
                             ids=["unordered", "negative"])
    @pytest.mark.parametrize("name", list(CONE_CALLS))
    def test_every_entry_point_rejects_t_outside_the_chamber(self, name, t,
                                                             monkeypatch):
        """psi, phi-tilde (both modes), contraction and a rate-p t-grid
        row ran on an unordered or negative t, where the paper states
        none of its functions or bounds; now each is the chamber
        ValueError that phi already raised, before any draw."""
        def never(*args):
            raise AssertionError("a random stream was opened")

        monkeypatch.setattr(sampling, "shard_stream", never)
        with pytest.raises(ValueError, match="^t must lie in the chamber "):
            CONE_CALLS[name](t)

    @pytest.mark.parametrize("call", [
        lambda: hypergeo.eval_phi_bc("r", 3, [], []),
        lambda: hypergeo.eval_psi("r", [], []),
        lambda: hypergeo.eval_ho_polynomial("r", 3, [], []),
        lambda: hypergeo.bessel_phi_tilde("r", 3, [], []),
        lambda: hypergeo.bessel_phi_tilde("r", 3, [], [], mode="integral"),
    ], ids=["phi", "psi", "ho-poly", "series", "integral"])
    def test_empty_t_rejected(self, call):
        """An empty t (with as empty a lam or mu) fell through to numpy's
        reshape error (phi, psi), an IndexError (ho-poly), a count error
        naming q (series) or, in integral mode, the t = 0 shortcut's value
        1; now the gate names t."""
        with pytest.raises(ValueError,
                           match="^t must have at least one entry$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: hypergeo.eval_phi_bc("r", 2.5, [1, 0.5], [0.5, 0.2]),
        lambda: hypergeo.bessel_phi_tilde("r", 2.5, [1, 0.5], [0.5, 0.2],
                                          mode="integral"),
        lambda: hypergeo.contraction_experiment("r", 2, 2.5, [1, 0.5],
                                                [0.5, 0.2], [2, 4]),
        lambda: hypergeo.eval_ho_polynomial("r", 2.5, [4, 2], [0.5, 0.2]),
    ], ids=["phi", "integral", "contraction", "ho-poly"])
    def test_one_message_below_the_boundary(self, call):
        """p < 2q - 1 reads the same wherever it is checked."""
        with pytest.raises(ValueError,
                           match=r"^p must be at least 2q - 1 = 3$"):
            call()
