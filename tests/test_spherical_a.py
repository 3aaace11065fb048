"""Tests for the type-A spherical function estimator."""

import numpy as np
import pytest

from hypergeo import hyper_bc, sampling


class TestRhoA:
    def test_values(self):
        np.testing.assert_allclose(hyper_bc.rho_a(1, 2), [0.5, -0.5])
        np.testing.assert_allclose(hyper_bc.rho_a(2, 3), [2.0, 0.0, -2.0])

    def test_rank_one_is_zero(self):
        np.testing.assert_allclose(hyper_bc.rho_a(4, 1), [0.0])


class TestRankOneExact:
    """At q = 1 the function is (cosh t)^(i lam), computed exactly."""

    def test_closed_form(self):
        for field in ("r", "c", "h"):
            est = hyper_bc.eval_psi(field, np.array([2.0 + 0j]),
                                    np.array([1.0]))
            assert est.value == np.cosh(1.0) ** 2.0j
            assert est.stderr == 0.0
            assert est.samples == 0

    def test_complex_lambda(self):
        est = hyper_bc.eval_psi("c", np.array([1.0 - 0.5j]),
                                np.array([0.7]))
        assert est.value == np.cosh(0.7) ** (1j * (1.0 - 0.5j))


class TestMonteCarloPsi:
    def test_zero_t_exact(self):
        est = hyper_bc.eval_psi("r", np.array([1.0 + 0j, 0.5 + 0j]),
                                np.zeros(2), samples=64, seed=0)
        assert est.value == 1.0 + 0.0j and est.stderr == 0.0

    def test_lambda_at_minus_i_rho_exact(self):
        """lam = -i rho^A collapses the integrand to 1 identically."""
        for field, q in (("r", 2), ("c", 2), ("h", 2)):
            d = {"r": 1, "c": 2, "h": 4}[field]
            lam = -1j * hyper_bc.rho_a(d, q)
            est = hyper_bc.eval_psi(field, lam, np.array([0.8, 0.3]),
                                    samples=2048, seed=1)
            np.testing.assert_allclose(est.value, 1.0 + 0.0j, atol=1e-12)
            assert est.stderr < 1e-12

    def test_permutation_invariance(self):
        """The type-A Weyl group permutes lam without changing psi."""
        t = np.array([1.0, 0.5])
        a = hyper_bc.eval_psi("r", np.array([2.0 + 0j, 1.0 + 0j]), t,
                              samples=200000, seed=2)
        b = hyper_bc.eval_psi("r", np.array([1.0 + 0j, 2.0 + 0j]), t,
                              samples=200000, seed=2)
        assert abs(a.value - b.value) < 4.0 * (a.stderr + b.stderr)

    def test_rank_one_forced_mc_matches_exact(self):
        lam = np.array([1.5 + 0j])
        t = np.array([0.9])
        exact = np.cosh(0.9) ** 1.5j
        u = sampling.draw_haar("c", 1, 3, 0, 4096)
        vals = hyper_bc._phi_columns("c", t, 0.5j * lam.reshape(1, 1),
                                     lambda: u, None)
        np.testing.assert_allclose(vals.mean(), exact, atol=1e-12)

    def test_worker_invariance(self):
        lam = np.array([1.0 + 0j, 0.5 + 0j])
        t = np.array([0.6, 0.1])
        a = hyper_bc.eval_psi("h", lam, t, samples=20000, seed=4)
        b = hyper_bc.eval_psi("h", lam, t, samples=20000, seed=4,
                              workers=4)
        assert a.value == b.value and a.stderr == b.stderr

    def test_bounded_on_imaginary_axis(self):
        """For real lam the modulus never exceeds 1 (up to noise)."""
        lam = np.array([2.0 + 0j, 1.0 + 0j, 0.5 + 0j])
        t = np.array([1.4, 0.7, 0.2])
        est = hyper_bc.eval_psi("r", lam, t, samples=100000, seed=5)
        assert abs(est.value) <= 1.0 + 5.0 * est.stderr

    def test_lambda_length_checked(self):
        with pytest.raises(ValueError):
            hyper_bc.eval_psi("r", np.array([1.0 + 0j]),
                              np.array([0.5, 0.1]))
