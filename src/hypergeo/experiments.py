"""Quantitative sweeps behind the limit theorems.

Each experiment takes its grid's means from one `_mc_pairs` call (common
random numbers): every shard draws its Haar unitary at most once, and
one ball sample per law, and evaluates every grid point on those draws,
so the errors are paired and a rerun with the same seed reproduces every
number bit for bit.  Rate-p and contraction call it through
`hyper_bc._phi_means`, which alone picks the exact values at q = 1
instead, as it does for `eval_psi`.  The jackknife band of a fitted
rate recomputes the experiment's own errors from the run's per-shard
sums with one shard left out at a time.
"""

from dataclasses import dataclass

import numpy as np

from . import sampling, weyl
from .algebra import (_check_count, _check_finite, _chi_full, field_dim,
                      normalize_field)
from .bessel import bessel_phi_tilde
from .hyper_bc import _cone, _mc_pairs, _phi_means, _spectral, rho_bc
from .sampling import kappa


@dataclass(frozen=True)
class RateReport:
    """A decay sweep: errors over a parameter grid and the fitted rate."""

    params: tuple
    errors: tuple
    stderrs: tuple
    slope: float
    slope_halfwidth: float
    normalized: tuple
    scale: float
    unbounded_regime: bool = False


@dataclass(frozen=True)
class BoundednessReport:
    """Sweep of |phi| against 1 over hull-sampled spectral parameters."""

    rows: tuple
    all_bounded: bool
    all_positive: bool
    out_of_hull_max: float
    out_of_hull_exceeds: bool


def _increasing(values, name):
    """values, if at least two and strictly increasing (a slope needs two
    points); ValueError naming them otherwise."""
    if len(values) < 2:
        raise ValueError("%s needs at least two entries to fit a slope, "
                         "got %s" % (name, ",".join("%g" % v for v in values)))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("%s must be strictly increasing, got %s"
                         % (name, ",".join("%g" % v for v in values)))
    return values


def _fit_slope(params, errors):
    """Least-squares slope of log error against log parameter."""
    errors = np.asarray(errors, float)
    if np.any(errors <= 0.0):
        return float("-inf")
    return float(np.polyfit(np.log(np.asarray(params, float)),
                            np.log(errors), 1)[0])


def _jackknife_slope_halfwidth(params, parts, samples, errors):
    """Two-sigma jackknife band for the fitted slope, over sample shards.

    parts[i] is shard i's flat value-sum array, as mc_run returns it,
    or None for exact means, whose band is 0, and errors(means) maps
    flat means to one error per parameter.  A run of under 2 shards, or
    under 2 finite leave-one-out slopes, has no band: NaN.
    """
    if parts is None:
        return 0.0
    sizes = sampling.shard_plan(samples)
    m = len(sizes)
    if m < 2:
        return float("nan")
    tot = sum(parts)
    slopes = []
    for i in range(m):
        s = _fit_slope(params, errors((tot - parts[i]) / (samples - sizes[i])))
        if np.isfinite(s):
            slopes.append(s)
    if len(slopes) < 2:
        return float("nan")
    slopes = np.asarray(slopes)
    var = (len(slopes) - 1) / len(slopes) * np.sum(
        (slopes - slopes.mean()) ** 2)
    return float(2.0 * np.sqrt(var))


def _t_tilde(t):
    return min(float(t[0]), 1.0)


def _envelope(im_lam, t):
    """sup over the Weyl group of <w . Im lam, t> for t in the chamber."""
    return float(np.sort(np.abs(im_lam))[::-1] @ t)


def rate_p_experiment(field, q, lam, t_grid, p_list, samples=100000, seed=0,
                      workers=1):
    """Decay of sup_t |phi_{lam - i rho(p)}(t) - psi_lam(t)| in p.

    Both functions are evaluated in the shifted convention, where the
    spectral exponent is i lam / 2 for every p, so the unitary draws
    pair across the whole grid.  The means come from
    `hyper_bc._phi_means`: exact at q = 1, otherwise Monte Carlo with a
    jackknife band on the fitted slope.
    """
    q = _check_count("q", q)
    field = normalize_field(field)
    d = field_dim(field)
    lam = _spectral(lam, q)
    p_list = _increasing([float(p) for p in _check_finite("p_list", p_list)],
                         "p_list")
    sampling._check_interior("p_list", p_list, q)
    t_grid = _check_finite("t_grid", np.asarray(t_grid, float))
    if t_grid.ndim == 1:
        t_grid = t_grid[:, None]
    if not len(t_grid):
        raise ValueError("t_grid has no rows")
    if t_grid.shape[1] != q:
        raise ValueError("t_grid rows have %d entries, expected q=%d"
                         % (t_grid.shape[1], q))
    for t in t_grid:
        _cone(field, None, t)

    rho0 = rho_bc(p_list[0], d, q)
    poly = weyl.OrbitPolytope(weyl.RootSystemSpec("b", q), rho0)
    unbounded = not weyl.hull_membership(poly, lam.imag - rho0)

    norm1 = float(np.sum(np.abs(lam)))
    scales = np.array([
        norm1 * _t_tilde(t)
        * (np.exp(_envelope(lam.imag, t)) if unbounded else 1.0)
        for t in t_grid])

    # The shifted exponent (i(lam - i rho(p)) - rho(p)) / 2 = i lam / 2
    # carries no p dependence, so one nu column serves psi and every p.
    nu = (0.5j * lam).reshape(q, 1)
    mean, err, parts = _phi_means(
        field, q, [(p, t, nu) for p in [None] + p_list for t in t_grid],
        samples, seed, workers)
    err = err.reshape(-1, len(t_grid))

    def diffs_of(means):
        means = means.reshape(-1, len(t_grid))
        return np.abs(means[1:] - means[0])

    diffs = diffs_of(mean)
    stderrs = [float(np.hypot(e[k], err[0, k]))
               for e, k in zip(err[1:], diffs.argmax(axis=1))]
    halfwidth = _jackknife_slope_halfwidth(
        p_list, parts, samples, lambda means: diffs_of(means).max(axis=1))
    errors = [float(e) for e in diffs.max(axis=1)]

    mask = scales > 0.0
    normalized = [float(np.max(np.sqrt(p) * diffs[i][mask] / scales[mask]))
                  if mask.any() else 0.0
                  for i, p in enumerate(p_list)]
    return RateReport(tuple(p_list), tuple(errors), tuple(stderrs),
                      _fit_slope(p_list, errors), halfwidth,
                      tuple(normalized), float(scales.max()), unbounded)


def contraction_experiment(field, q, p, lam, t, n_list, samples=100000,
                           seed=0, workers=1):
    """Decay of |phi_{n lam - i rho}(t/n) - phi-tilde_lam(t)| in n.

    phi-tilde is the Jack series; an error at or below its resolution,
    rel_tol max(1, |ref|) + tail bound, carries no rate and is a
    ValueError, as a series that did not converge is.
    """
    q = _check_count("q", q)
    lam = _spectral(lam, q)
    if np.any(lam.imag != 0.0):
        raise ValueError("contraction needs a real lam")
    lam = lam.real
    if np.size(t) != q:
        raise ValueError("t must have q=%d entries, got %d" % (q, np.size(t)))
    field, t = _cone(field, p, t)
    n_list = _increasing(_check_count("n_list", np.reshape(n_list, -1)),
                         "n_list")

    rel_tol = 1e-12
    series = bessel_phi_tilde(field, p, lam, t, mode="series",
                              rel_tol=rel_tol)
    if not series.converged:
        raise ValueError("the series reference phi-tilde did not converge "
                         "at lam=%s, t=%s: tail bound %.3g"
                         % (lam.tolist(), t.tolist(), series.tail_bound))
    ref = series.value
    pairs = [(p, t / n, (0.5j * n * lam).reshape(q, 1)) for n in n_list]
    phis, err, parts = _phi_means(field, q, pairs, samples, seed, workers)
    stderrs = [float(e) for e in err]
    halfwidth = _jackknife_slope_halfwidth(
        n_list, parts, samples, lambda means: np.abs(means - ref))
    errors = np.abs(phis - ref)
    resolution = rel_tol * max(1.0, abs(ref)) + series.tail_bound
    if np.any(errors <= resolution):
        raise ValueError("the contraction error %.3g at n=%d is at or below "
                         "the series reference's resolution %.3g "
                         "(rel_tol max(1, |ref|) + tail bound), so it "
                         "carries no rate"
                         % (errors.min(), n_list[int(np.argmin(errors))],
                            resolution))
    norm1 = float(np.sum(np.abs(lam)))
    normalized = tuple(float(n * e / norm1) if norm1 > 0 else 0.0
                       for n, e in zip(n_list, errors))
    return RateReport(tuple(n_list), tuple(float(e) for e in errors),
                      tuple(stderrs), _fit_slope(n_list, errors), halfwidth,
                      normalized, norm1)


def boundedness_sweep(field, q, p, n_lambda=12, n_t=7, samples=100000,
                      seed=0, workers=1):
    """|phi| against 1 for spectral parameters sampled from the hull.

    Im(lam) is drawn uniformly from co(W.rho) by box rejection and
    Re(lam) uniformly at the same scale; every third draw is made
    purely imaginary to exercise positivity.  One extra parameter with
    Im(lam) = -1.5 rho sits outside the hull and must push |phi| above
    1 somewhere on the t grid.
    """
    q = _check_count("q", q)
    field = normalize_field(field)
    d = field_dim(field)
    sampling._check_interior("p", p, q)
    n_lambda = _check_count("n_lambda", n_lambda)
    n_t = _check_count("n_t", n_t)
    rho = rho_bc(p, d, q)
    poly = weyl.OrbitPolytope(weyl.RootSystemSpec("b", q), rho)
    gen = sampling.shard_stream(seed, 0, sampling.ROLE_EXPERIMENT)
    lams = []
    for j in range(n_lambda):
        while True:
            im = gen.uniform(-rho[0], rho[0], size=q)
            if weyl.hull_membership(poly, im):
                break
        re = np.zeros(q) if j % 3 == 0 \
            else gen.uniform(-rho[0], rho[0], size=q)
        lams.append(re + 1j * im)
    lams.append(-1.5j * rho)
    nu_mat = np.array([0.5 * (1j * lam - rho) for lam in lams]).T
    base = np.arange(q, 0, -1) / q
    t_grid = [s * base for s in np.linspace(0.0, 3.0, n_t)]
    mean, err, _ = _mc_pairs(field, q, [(p, t, nu_mat) for t in t_grid],
                             samples, seed, workers)
    mean = mean.reshape(n_t, len(lams))
    err = err.reshape(n_t, len(lams))

    rows = []
    all_bounded = True
    all_positive = True
    for j, lam in enumerate(lams[:-1]):
        purely_imaginary = bool(np.all(lam.real == 0.0))
        for i, t in enumerate(t_grid):
            ok = bool(abs(mean[i, j]) <= 1.0 + 5.0 * err[i, j])
            all_bounded = all_bounded and ok
            positive = None
            if purely_imaginary:
                positive = bool(mean[i, j].imag == 0.0
                                and mean[i, j].real > 0.0)
                all_positive = all_positive and positive
            rows.append({"lam": lam.copy(), "t": np.asarray(t),
                         "value": complex(mean[i, j]),
                         "stderr": float(err[i, j]),
                         "bounded": ok, "positive": positive})
    out_max = float(np.abs(mean[:, -1]).max())
    return BoundednessReport(tuple(rows), all_bounded, all_positive,
                             out_max, out_max > 1.0)


def _top_moment(field, t, power, haar, w):
    """sigma_1(w)^power on one shard's ball draws, as one column; over H
    the singular values of the full chi images."""
    return np.linalg.svd(_chi_full(w), compute_uv=False)[:, :1] ** power


def moment_decay_experiment(field, q, n_exponent, p_list, samples=100000,
                            seed=0, workers=1):
    """Decay of R(p), the 2n-th top-singular-value moment ratio.

    R(p) integrates sigma_1(w)^(2n) / det(I - w*w)^(2n) against the
    ball law m_p.  Sampling instead from m_{p'} with p' = p - 4n/d
    absorbs the determinant factor exactly, leaving kappa(p')/kappa(p)
    times a plain sigma_1 moment under m_{p'}.
    """
    q = _check_count("q", q)
    field = normalize_field(field)
    d = field_dim(field)
    n = _check_count("n_exponent", n_exponent)
    p_list = _increasing([float(p) for p in _check_finite("p_list", p_list)],
                         "p_list")
    shifted = [p - 4.0 * n / d for p in p_list]
    sampling._check_interior("p_list - 4n/d", shifted, q)
    mean, err, parts = _mc_pairs(field, q, [(pp, None, 2 * n)
                                            for pp in shifted],
                                 samples, seed, workers, _top_moment)
    ratio = np.array([kappa(pp, d, q) / kappa(p, d, q)
                      for pp, p in zip(shifted, p_list)])
    values = [float(v) for v in ratio * mean]
    stderrs = [float(e) for e in ratio * err]
    halfwidth = _jackknife_slope_halfwidth(
        p_list, [ratio * part for part in parts], samples, np.abs)
    normalized = tuple(float(v * p ** n) for v, p in zip(values, p_list))
    return RateReport(tuple(p_list), tuple(values), tuple(stderrs),
                      _fit_slope(p_list, values), halfwidth,
                      normalized, 1.0)
