"""Tests for the convergence-rate and boundedness experiments."""

import numpy as np
import pytest

from hypergeo import (eval_phi_bc_quadrature_q1, eval_psi, experiments as ex,
                      hyper_bc, rho_bc, sampling)
from hypergeo.sampling import SHARD_SIZE, shard_plan


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

    @pytest.mark.parametrize("field", ["c", "h"])
    def test_rank_one_exact_over_every_field(self, field, monkeypatch):
        """At q = 1 the sweep is quadrature over C and H too: no Monte
        Carlo, zero stderrs and band, and the same report for any seed or
        workers count."""
        def no_mc_run(*args, **kwargs):
            raise AssertionError("mc_run called at q = 1")

        monkeypatch.setattr(sampling, "mc_run", no_mc_run)
        t_grid = np.linspace(0.0, 2.0, 5).reshape(-1, 1)
        a, b = (ex.rate_p_experiment(field, 1, np.array([2.0 + 0j]), t_grid,
                                     [10, 20, 40], samples=5000, seed=seed,
                                     workers=workers)
                for seed, workers in ((0, 1), (7, 2)))
        assert a == b
        assert a.stderrs == (0.0, 0.0, 0.0) and a.slope_halfwidth == 0.0
        assert a.slope <= -0.45

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_phi_means_are_exact_at_rank_one(self, field, monkeypatch):
        """At q = 1 the means are the quadrature's and psi's closed form,
        at lam = -i(2 nu + rho), with zero errors and no shard sums."""
        monkeypatch.setattr(sampling, "mc_run", None)
        d = {"r": 1, "c": 2, "h": 4}[field]
        lam = np.array([1.5 + 0.3j, -0.4 + 0.0j])
        t = np.array([0.7])
        triples = [(None, t, 0.5j * lam.reshape(1, 2)),
                   (5.0, t, (0.5j * lam - 0.5 * rho_bc(5.0, d, 1))
                    .reshape(1, 2))]
        mean, err, parts = hyper_bc._phi_means(field, 1, triples, 100, 0, 1)
        assert parts is None and err.tolist() == [0.0] * 4
        want = [eval_psi(field, [x], t).value for x in lam] + [
            eval_phi_bc_quadrature_q1(5.0, x, 0.7, field) for x in lam]
        np.testing.assert_allclose(mean, want, rtol=1e-14, atol=0.0)

    def test_p_list_validation(self):
        t_grid = np.linspace(0.0, 1.0, 3).reshape(-1, 1)
        with pytest.raises(ValueError):
            ex.rate_p_experiment("r", 1, np.array([1.0 + 0j]), t_grid,
                                 [1, 2, 4])
        with pytest.raises(ValueError, match="p_list"):
            ex.rate_p_experiment("r", 1, np.array([1.0 + 0j]), t_grid,
                                 [20, 10])

    @pytest.mark.parametrize("q, lam, t_grid", [
        (1, [2.0], []),
        (2, [2.0, 1.0], np.zeros((0, 2))),
    ], ids=["q1-list", "q2-array"])
    def test_empty_t_grid_rejected(self, q, lam, t_grid, monkeypatch):
        """A t_grid with no rows failed inside numpy's concatenate; it is
        refused, naming t_grid, before any mean is computed."""
        def never(*args, **kwargs):
            raise AssertionError("evaluated an empty t_grid")

        monkeypatch.setattr(ex, "_phi_means", never)
        with pytest.raises(ValueError, match="t_grid"):
            ex.rate_p_experiment("r", q, lam, t_grid, [4, 8])


class TestSweepLengths:
    """lam and t must have q entries, checked before any mean."""

    @pytest.mark.parametrize("lam, t_grid, message", [
        ([1.0, 0.5, 2.0], [[0.5, 0.2]], "lam must have q=2 entries, got 3"),
        ([1.0, 0.5], [[0.5, 0.2, 0.1]],
         "t_grid rows have 3 entries, expected q=2"),
    ], ids=["lam", "t-grid-width"])
    def test_rate_p(self, lam, t_grid, message, monkeypatch):
        monkeypatch.setattr(ex, "_phi_means", None)
        with pytest.raises(ValueError, match="^%s$" % message):
            ex.rate_p_experiment("r", 2, lam, t_grid, [5, 9])

    @pytest.mark.parametrize("lam, t, message", [
        ([1.0], [0.5, 0.2], "lam must have q=2 entries, got 1"),
        ([1.0, 0.5], [0.5], "t must have q=2 entries, got 1"),
    ], ids=["lam", "t"])
    def test_contraction(self, lam, t, message, monkeypatch):
        monkeypatch.setattr(ex, "bessel_phi_tilde", None)
        with pytest.raises(ValueError, match="^%s$" % message):
            ex.contraction_experiment("r", 2, 5.0, lam, t, [2, 4])


@pytest.mark.parametrize("run, name", [
    (lambda: ex.rate_p_experiment("r", 1, [2.0], [[0.5]], [10]), "p_list"),
    (lambda: ex.contraction_experiment("r", 1, 3.0, [1.0], [0.5], [2]),
     "n_list"),
    (lambda: ex.moment_decay_experiment("r", 1, 1, [9], samples=64),
     "p_list"),
], ids=["rate-p", "contraction", "moment-decay"])
def test_one_point_sweep_rejected(run, name):
    """A slope through one point is arbitrary (contraction at n = 2 read
    -2.3136 and passed), so a sweep needs two parameters."""
    with pytest.raises(ValueError, match="^%s needs at least two entries"
                       % name):
        run()


# Every experiment at rank q, on a small run.
EXPERIMENTS = {
    "rate-p": lambda q: ex.rate_p_experiment(
        "r", q, [1.0, 0.5], [[0.8, 0.3]], [8, 16], samples=512, seed=1),
    "contraction": lambda q: ex.contraction_experiment(
        "r", q, 5, [1.0, 0.5], [0.8, 0.3], [1, 2], samples=512, seed=1),
    "boundedness": lambda q: ex.boundedness_sweep(
        "r", q, 5, n_lambda=2, n_t=2, samples=512, seed=1),
    "moment-decay": lambda q: ex.moment_decay_experiment(
        "r", q, 1, [9, 12], samples=512, seed=1),
}


@pytest.mark.parametrize("q", [2.0, 1.5, 0])
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiments_check_q(name, q):
    """q is a count: 2.0 raised a TypeError in rate-p and contraction, 0
    an IndexError in moment decay, and 1.5 read as a vector length in
    the boundedness sweep.  Now 2.0 runs as 2 and the rest name q."""
    run = EXPERIMENTS[name]
    if q == 2.0:
        assert repr(run(q)) == repr(run(2))
    else:
        with pytest.raises(ValueError,
                           match="^q must be at least 1 and whole, not "):
            run(q)


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


class TestOneRunPerExperiment:
    """Each sweep is one mc_run on draws shared across its grid."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"mc_run": 0, "streams": []}
        mc_run, shard_stream = sampling.mc_run, sampling.shard_stream

        def counting_mc_run(*args, **kwargs):
            counts["mc_run"] += 1
            return mc_run(*args, **kwargs)

        def counting_shard_stream(seed, shard, role):
            counts["streams"].append((seed, shard, role))
            return shard_stream(seed, shard, role)

        monkeypatch.setattr(sampling, "mc_run", counting_mc_run)
        monkeypatch.setattr(sampling, "shard_stream", counting_shard_stream)
        return counts

    def test_rate_p_draws_haar_once_per_shard(self, counts):
        ex.rate_p_experiment("r", 2, np.array([1.0 + 0j, 0.5 + 0j]),
                             np.array([[0.8, 0.3], [0.4, 0.1]]), [5, 9, 17],
                             samples=SHARD_SIZE + 500, seed=3)
        unitary = [key for key in counts["streams"]
                   if key[2] == sampling.ROLE_UNITARY]
        assert counts["mc_run"] == 1
        assert sorted(unitary) == [(3, 0, sampling.ROLE_UNITARY),
                                   (3, 1, sampling.ROLE_UNITARY)]

    def test_moment_decay_is_one_run(self, counts):
        """The sigma_1 moment never asks for a Haar draw."""
        ex.moment_decay_experiment("r", 2, 1, [9, 17, 33], samples=2000,
                                   seed=1)
        assert counts["mc_run"] == 1
        assert all(key[2] == sampling.ROLE_BALL for key in counts["streams"])


class TestContraction:
    def test_rank_one_quadrature(self):
        rep = ex.contraction_experiment("r", 1, 3.0, np.array([1.0]),
                                        np.array([1.0]), [2, 4, 8, 16])
        assert rep.slope <= -0.8
        pos = [c for c in rep.normalized if c > 0]
        assert max(pos) / min(pos) < 10.0

    @pytest.mark.parametrize("field", ["c", "h"])
    def test_rank_one_quadrature_other_fields(self, field, monkeypatch):
        """No Monte Carlo, so the same report for any seed or workers."""
        monkeypatch.setattr(sampling, "mc_run", None)
        rep, again = (ex.contraction_experiment(
            field, 1, 3.0, np.array([1.0]), np.array([1.0]), [2, 4, 8, 16],
            samples=5000, seed=seed, workers=workers)
            for seed, workers in ((0, 1), (7, 3)))
        assert rep == again
        assert rep.stderrs == (0.0,) * 4 and rep.slope_halfwidth == 0.0
        assert rep.slope <= -0.8

    def test_rank_one_real_boundary_is_exact(self):
        """At p = 1 over R, phi_{n lam}(t/n) and phi-tilde_lam(t) are both
        cos(lam t): the errors are rounding, below what the series
        reference resolves, so no rate is fitted to them (it read 0.73)."""
        with pytest.raises(ValueError, match=r"error 1\.11e-16 at n=1 is at "
                           r"or below the series reference's resolution "
                           r"1e-12 .*no rate"):
            ex.contraction_experiment("r", 1, 1.0, np.array([1.0]),
                                      np.array([0.8]), [1, 2, 4, 8])

    def test_q2_regular_and_degenerate(self):
        lam = np.array([1.0, 0.5])
        t = np.array([1.0, 0.4])
        for p in (3.0, 4.0):
            rep = ex.contraction_experiment("r", 2, p, lam, t, [2, 4, 8],
                                            samples=30000, seed=3)
            assert rep.slope <= -0.8 + rep.slope_halfwidth, p

    @pytest.mark.parametrize("lam", [[1 + 1j], np.array([1 + 1j])],
                             ids=["list", "ndarray"])
    def test_complex_lam_rejected(self, lam, monkeypatch):
        """A complex lam raised a TypeError from float() as a list, and
        lost its imaginary part unreported as an ndarray."""
        monkeypatch.setattr(ex, "bessel_phi_tilde", None)
        with pytest.raises(ValueError, match="^contraction needs a real lam$"):
            ex.contraction_experiment("r", 1, 3.0, lam, [0.5], [2, 4])

    def test_p_validation(self):
        with pytest.raises(ValueError):
            ex.contraction_experiment("r", 2, 2.0, np.array([1.0, 0.5]),
                                      np.array([0.5, 0.2]), [2, 4])

    @pytest.mark.parametrize("q, n_list, bad", [
        (1, [0, 1], "0"), (2, [-2, -1], "-2"), (1, [1.5, 2], "1.5"),
    ], ids=["zero", "negative", "fraction"])
    def test_n_list_entries_are_counts(self, q, n_list, bad, monkeypatch):
        """n = 0 divided t by zero, a negative n reached LAPACK, and 1.5
        ran as 1; each is now rejected before the series reference."""
        monkeypatch.setattr(ex, "bessel_phi_tilde", None)
        with pytest.raises(ValueError, match="n_list entries must be "
                           "integers of at least 1, not %s$" % bad):
            ex.contraction_experiment("r", q, 5.0, np.linspace(1.0, 0.5, q),
                                      np.linspace(0.5, 0.2, q), n_list)

    @pytest.mark.parametrize("q, lam, t, tail", [
        (1, [1.0], [1e3], r"9\.29e\+96"),
        (2, [1.0, 0.5], [30.0, 20.0], r"4\.22e\+08"),
    ], ids=["q1", "q2"])
    def test_non_converged_reference_rejected(self, q, lam, t, tail):
        """Errors against a truncated series that did not converge mean
        nothing, so the sweep names the reference and its tail bound."""
        with pytest.raises(ValueError, match=r"series reference phi-tilde "
                           r"did not converge .*: tail bound " + tail):
            ex.contraction_experiment("r", q, 5.0, np.array(lam),
                                      np.array(t), [2, 4], samples=64)


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

    @pytest.mark.parametrize("name", ["n_lambda", "n_t"])
    def test_empty_sweep_rejected(self, name):
        with pytest.raises(ValueError, match="%s must be at least 1" % name):
            ex.boundedness_sweep("r", 1, 3.0, samples=100, **{name: 0})


def _moment_decay_rate_q1_ref(p, n):
    """Closed form of the decay ratio at q = 1, d = 1, via Beta moments."""
    from scipy.special import betaln

    return float(np.exp(betaln(n + 0.5, 0.5 * (p - 1.0) - 2 * n)
                        - betaln(0.5, 0.5 * (p - 1.0))))


class TestMomentDecay:
    def test_closed_form_matches_sampler(self):
        """The rank-one Beta closed form against importance sampling."""
        for p in (9.0, 17.0):
            want = _moment_decay_rate_q1_ref(p, 1)
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

    def test_jackknife_nan_for_single_shard(self):
        """One Monte-Carlo shard has no band: NaN, not an exact mean's 0."""
        parts = [np.array([1.0 + 0j, 0.5 + 0j])]
        got = ex._jackknife_slope_halfwidth([2, 4], parts, 100, np.abs)
        assert np.isnan(got)
        assert ex._jackknife_slope_halfwidth([2, 4], None, 100, np.abs) == 0.0

    @pytest.mark.parametrize("finite", [0, 1])
    def test_jackknife_nan_below_two_finite_slopes(self, finite):
        """A leave-one-out fit with a zero error has slope -inf and is
        dropped; with fewer than two finite slopes there is no band, and
        the halfwidth is NaN, not the 0 of an exact slope."""
        samples = 3 * shard_plan(24000)[0]
        calls = []

        def errors(means):
            calls.append(means)
            return np.array([1.0, 0.5]) if len(calls) <= finite \
                else np.zeros(2)

        got = ex._jackknife_slope_halfwidth(
            [2, 4], [np.ones(2, complex)] * 3, samples, errors)
        assert np.isnan(got) and len(calls) == 3

    def test_jackknife_positive_with_shards(self):
        gen = np.random.default_rng(6)
        samples = 3 * shard_plan(24000)[0]
        sums = np.array([[scale * 8000 * (1 + 0.01 * gen.standard_normal())
                          + 0j for _ in range(3)] for scale in (1.0, 0.5)])
        got = ex._jackknife_slope_halfwidth([2, 4], list(sums.T), samples,
                                            np.abs)
        assert got > 0.0
