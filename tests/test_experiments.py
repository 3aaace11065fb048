"""Tests for the convergence-rate and boundedness experiments."""

import numpy as np
import pytest

from hypergeo import experiments as ex
from hypergeo.sampling import shard_plan


class TestRateQuadrature:
    """The deterministic rank-one sweep."""

    def test_slope_and_constants(self):
        t_grid = np.linspace(0.0, 2.0, 9).reshape(-1, 1)
        rep = ex.rate_p_experiment("r", 1, np.array([2.0 + 0j]), t_grid,
                                   [10, 20, 40, 80])
        assert rep.slope <= -0.45
        assert not rep.unbounded_regime
        assert rep.slope_halfwidth == 0.0
        assert all(s == 0.0 for s in rep.stderrs)
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
        pos = [c for c in rep.normalized if c > 0]
        assert max(pos) / min(pos) < 10.0

    def test_unbounded_regime_flagged(self):
        """Im(lam) - rho outside the hull switches on the envelope."""
        t_grid = np.linspace(0.0, 2.0, 5).reshape(-1, 1)
        rep = ex.rate_p_experiment("r", 1, np.array([10.0j]), t_grid,
                                   [10, 20, 40])
        assert rep.unbounded_regime
        assert rep.slope <= -0.45

    def test_zero_lambda_trivial(self):
        """lam = 0 makes both sides 1, a zero error column."""
        t_grid = np.linspace(0.0, 1.0, 4).reshape(-1, 1)
        rep = ex.rate_p_experiment("r", 1, np.array([0.0 + 0j]), t_grid,
                                   [10, 20])
        assert all(e < 1e-13 for e in rep.errors)
        assert rep.slope == float("-inf")

    def test_p_list_validation(self):
        t_grid = np.linspace(0.0, 1.0, 3).reshape(-1, 1)
        with pytest.raises(ValueError):
            ex.rate_p_experiment("r", 1, np.array([1.0 + 0j]), t_grid,
                                 [1, 2, 4])
        with pytest.raises(ValueError, match="p_list"):
            ex.rate_p_experiment("r", 1, np.array([1.0 + 0j]), t_grid,
                                 [20, 10])


class TestRateMonteCarlo:
    def test_q2_slope_with_band(self):
        t_grid = np.array([[s, 0.5 * s] for s in np.linspace(0.0, 2.0, 5)])
        rep = ex.rate_p_experiment("r", 2, np.array([2.0 + 0j, 1.0 + 0j]),
                                   t_grid, [8, 16, 32], samples=30000,
                                   seed=0)
        assert rep.slope <= -0.45 + rep.slope_halfwidth
        assert rep.slope_halfwidth > 0.0

    def test_common_random_numbers_reproducible(self):
        t_grid = np.array([[s, 0.5 * s] for s in np.linspace(0.5, 1.5, 3)])
        lam = np.array([1.0 + 0j, 0.5 + 0j])
        a = ex.rate_p_experiment("r", 2, lam, t_grid, [8, 16],
                                 samples=20000, seed=1)
        b = ex.rate_p_experiment("r", 2, lam, t_grid, [8, 16],
                                 samples=20000, seed=1, workers=3)
        assert a.errors == b.errors
        assert a.slope == b.slope

    def test_rank_one_complex_field_uses_exact_psi(self):
        t_grid = np.linspace(0.0, 1.5, 4).reshape(-1, 1)
        rep = ex.rate_p_experiment("c", 1, np.array([1.5 + 0j]), t_grid,
                                   [4, 8, 16], samples=30000, seed=2)
        assert rep.slope <= -0.45 + rep.slope_halfwidth


class TestContraction:
    def test_rank_one_quadrature(self):
        rep = ex.contraction_experiment("r", 1, 3.0, np.array([1.0]),
                                        np.array([1.0]), [2, 4, 8, 16])
        assert rep.slope <= -0.8
        pos = [c for c in rep.normalized if c > 0]
        assert max(pos) / min(pos) < 10.0

    def test_q2_regular_and_degenerate(self):
        lam = np.array([1.0, 0.5])
        t = np.array([1.0, 0.4])
        for p in (3.0, 4.0):
            rep = ex.contraction_experiment("r", 2, p, lam, t, [2, 4, 8],
                                            samples=30000, seed=3)
            assert rep.slope <= -0.8 + rep.slope_halfwidth, p

    def test_p_validation(self):
        with pytest.raises(ValueError):
            ex.contraction_experiment("r", 2, 2.0, np.array([1.0, 0.5]),
                                      np.array([0.5, 0.2]), [2, 4])


class TestBoundedness:
    def test_flags_and_rows(self):
        rep = ex.boundedness_sweep("r", 2, 4.0, n_lambda=6, n_t=4,
                                   samples=20000, seed=2)
        assert rep.all_bounded
        assert rep.all_positive
        assert rep.out_of_hull_exceeds
        assert rep.out_of_hull_max > 1.0
        assert len(rep.rows) == 6 * 4
        for row in rep.rows:
            if row["positive"] is not None:
                assert row["value"].imag == 0.0
                assert row["value"].real > 0.0

    def test_p_validation(self):
        with pytest.raises(ValueError):
            ex.boundedness_sweep("r", 2, 3.0, samples=100)


class TestMomentDecay:
    def test_closed_form_matches_sampler(self):
        """The rank-one Beta closed form against importance sampling."""
        for p in (9.0, 17.0):
            want = ex.moment_decay_rate_q1(p, 1)
            rep = ex.moment_decay_experiment("r", 1, 1, [p, p + 4],
                                             samples=200000, seed=4)
            assert abs(rep.errors[0] - want) < 4.0 * rep.stderrs[0]

    def test_q2_decay(self):
        rep = ex.moment_decay_experiment("r", 2, 1, [16, 32, 64],
                                         samples=20000, seed=5)
        assert rep.slope <= -0.9 + rep.slope_halfwidth
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))

    def test_shift_guard(self):
        with pytest.raises(ValueError):
            ex.moment_decay_experiment("r", 1, 2, [8, 12], samples=100)
        with pytest.raises(ValueError):
            ex.moment_decay_rate_q1(9.0, 2)

    def test_p_guard(self):
        with pytest.raises(ValueError):
            ex.moment_decay_experiment("r", 2, 1, [4, 8], samples=100)


class TestSlopeFit:
    def test_zero_errors_give_minus_inf(self):
        assert ex._fit_slope([2, 4], [0.0, 1.0]) == float("-inf")

    def test_exact_power_law(self):
        params = [2.0, 4.0, 8.0]
        errors = [p ** -1.5 for p in params]
        np.testing.assert_allclose(ex._fit_slope(params, errors), -1.5)

    def test_jackknife_zero_for_single_shard(self):
        parts = [[np.array([1.0 + 0j])], [np.array([0.5 + 0j])]]
        got = ex._jackknife_slope_halfwidth([2, 4], parts, 100,
                                            psi_exact=np.zeros(1))
        assert got == 0.0

    def test_jackknife_positive_with_shards(self):
        gen = np.random.default_rng(6)
        samples = 3 * shard_plan(24000)[0]
        parts = []
        for scale in (1.0, 0.5):
            parts.append([np.array([scale * 8000 * (1 + 0.01 * gen.standard_normal()) + 0j])
                          for _ in range(3)])
        got = ex._jackknife_slope_halfwidth([2, 4], parts, samples,
                                            psi_exact=np.zeros(1))
        assert got > 0.0
