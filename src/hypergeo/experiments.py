"""Quantitative sweeps behind the limit theorems.

Each experiment reuses one set of random draws across its whole
parameter grid (common random numbers): every shard draws its unitary
and ball samples once and evaluates the integrand for all grid points
on them, so the reported errors are paired and rerunning with the same
seed reproduces every number bit for bit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln

from . import sampling, weyl
from .algebra import field_dim, normalize_field
from .bessel import bessel_phi_tilde
from .hyper_bc import (_phi_columns, eval_phi_bc_quadrature_q1, rho_bc,
                       rho_shift)
from .sampling import kappa
from .spherical_a import _psi_columns


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


def _mc_pairs(field, q, p, pairs, samples, seed, workers, psi=False):
    """Integrand means for many (t, exponent) pairs on common draws.

    pairs is a sequence of (t vector, nu matrix of shape (q, m)); every
    shard draws once and evaluates each pair on those draws: the phi
    integrand on (u, w), or with psi the cosh^2 integrand on u alone.
    Returns mc_run's flat means, standard errors and per-shard sums.
    """

    def shard_fn(shard, count):
        u, w = sampling.draw_shard(field, q, p, seed, shard, count,
                                   ball=not psi, unitary=psi or q > 1)
        return sampling.shard_moments(
            _psi_columns(field, t, nu, u) if psi
            else _phi_columns(field, t, nu, u, w) for t, nu in pairs)

    return sampling.mc_run(shard_fn, samples, workers=workers)


def _increasing(values, name):
    """values, if strictly increasing; ValueError naming them otherwise."""
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


def _jackknife_slope_halfwidth(params, phi_parts, samples, psi_parts=None,
                               psi_exact=None):
    """Two-sigma jackknife band for the fitted slope, over sample shards.

    phi_parts[k][i] is the shard-i value-sum array for grid point k;
    the reference is either paired per-shard psi sums or an exact
    value vector.
    """
    sizes = sampling.shard_plan(samples)
    m = len(sizes)
    if m < 2:
        return 0.0
    phi_tot = [sum(parts) for parts in phi_parts]
    psi_tot = sum(psi_parts) if psi_parts is not None else None
    slopes = []
    for i in range(m):
        n = samples - sizes[i]
        psi = psi_exact if psi_parts is None \
            else (psi_tot - psi_parts[i]) / n
        errs = [np.max(np.abs((tot - parts[i]) / n - psi))
                for tot, parts in zip(phi_tot, phi_parts)]
        s = _fit_slope(params, errs)
        if np.isfinite(s):
            slopes.append(s)
    if len(slopes) < 2:
        return 0.0
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
    pair across the whole grid.  At q = 1 over the reals the sweep is
    deterministic quadrature; otherwise Monte Carlo with a jackknife
    band on the fitted slope.
    """
    field = normalize_field(field)
    d = field_dim(field)
    lam = np.asarray(lam, complex).reshape(-1)
    if lam.size != q:
        raise ValueError("lam has %d entries, expected q=%d" % (lam.size, q))
    p_list = _increasing([float(p) for p in p_list], "p_list")
    if not min(p_list) > 2 * q - 1:
        raise ValueError("rate_p_experiment needs min(p_list) > 2q - 1")
    t_grid = np.asarray(t_grid, float)
    if t_grid.ndim == 1:
        t_grid = t_grid[:, None]
    if t_grid.shape[1] != q:
        raise ValueError("t_grid rows have %d entries, expected q=%d"
                         % (t_grid.shape[1], q))

    rho0 = rho_bc(p_list[0], d, q)
    poly = weyl.OrbitPolytope(weyl.RootSystemSpec("b", q),
                              np.sort(np.abs(rho0))[::-1])
    unbounded = not weyl.hull_membership(poly, lam.imag - rho0)

    norm1 = float(np.sum(np.abs(lam)))
    scales = np.array([
        norm1 * _t_tilde(t)
        * (np.exp(_envelope(lam.imag, t)) if unbounded else 1.0)
        for t in t_grid])

    if q == 1 and d == 1:
        psi = np.array([np.cosh(t[0]) ** (1j * lam[0]) for t in t_grid])
        diffs = np.array([
            [abs(eval_phi_bc_quadrature_q1(
                p, rho_shift(lam, rho_bc(p, d, 1))[0], t[0]) - psi[i])
             for i, t in enumerate(t_grid)]
            for p in p_list])
        errors = [float(row.max()) for row in diffs]
        stderrs = [0.0] * len(p_list)
        halfwidth = 0.0
    else:
        # The shifted exponent (i(lam - i rho(p)) - rho(p)) / 2 = i lam / 2
        # carries no p dependence, so one nu column serves every p.
        nu = (0.5j * lam).reshape(q, 1)
        if q == 1:
            psi_mean = np.array([np.cosh(t[0]) ** (1j * lam[0])
                                 for t in t_grid])
            psi_err = np.zeros(len(t_grid))
            psi_parts = psi_exact = None
        else:
            psi_mean, psi_err, psi_parts = _mc_pairs(
                field, q, None, [(t, nu) for t in t_grid], samples, seed,
                workers, psi=True)
        phi_parts, diffs, errors, stderrs = [], [], [], []
        for p in p_list:
            mean, err, parts = _mc_pairs(
                field, q, p, [(t, nu) for t in t_grid], samples, seed,
                workers)
            phi_parts.append(parts)
            diff = np.abs(mean - psi_mean)
            diffs.append(diff)
            k = int(np.argmax(diff))
            errors.append(float(diff[k]))
            stderrs.append(float(np.hypot(err[k], psi_err[k])))
        diffs = np.array(diffs)
        if q == 1:
            halfwidth = _jackknife_slope_halfwidth(
                p_list, phi_parts, samples, psi_exact=psi_mean)
        else:
            halfwidth = _jackknife_slope_halfwidth(
                p_list, phi_parts, samples, psi_parts=psi_parts)

    mask = scales > 0.0
    normalized = [float(np.max(np.sqrt(p) * diffs[i][mask] / scales[mask]))
                  if mask.any() else 0.0
                  for i, p in enumerate(p_list)]
    return RateReport(tuple(p_list), tuple(errors), tuple(stderrs),
                      _fit_slope(p_list, errors), halfwidth,
                      tuple(normalized), float(scales.max()), unbounded)


def contraction_experiment(field, q, p, lam, t, n_list, samples=100000,
                           seed=0, workers=1, max_degree=30):
    """Decay of |phi_{n lam - i rho}(t/n) - phi-tilde_lam(t)| in n."""
    field = normalize_field(field)
    d = field_dim(field)
    lam = np.asarray(lam, float).reshape(-1)
    t = np.asarray(t, float).reshape(-1)
    if lam.size != q or t.size != q:
        raise ValueError("lam and t have %d and %d entries, expected q=%d"
                         % (lam.size, t.size, q))
    n_list = _increasing([int(n) for n in n_list], "n_list")
    if not p >= 2 * q - 1:
        raise ValueError("contraction_experiment needs p >= 2q - 1")

    ref = bessel_phi_tilde(field, p, lam, t, mode="series",
                           max_degree=max_degree).value
    if q == 1 and d == 1:
        phis = np.array([
            eval_phi_bc_quadrature_q1(
                p, rho_shift(n * lam, rho_bc(p, d, 1))[0], t[0] / n)
            for n in n_list])
        errors = np.abs(phis - ref)
        stderrs = [0.0] * len(n_list)
        halfwidth = 0.0
    else:
        pairs = [(t / n, (0.5j * n * lam).reshape(q, 1)) for n in n_list]
        mean, err, parts = _mc_pairs(field, q, p, pairs, samples, seed,
                                     workers)
        errors = np.abs(mean - ref)
        stderrs = [float(e) for e in err]
        phi_parts = [[part[k:k + 1] for part in parts]
                     for k in range(len(n_list))]
        halfwidth = _jackknife_slope_halfwidth(
            n_list, phi_parts, samples, psi_exact=np.array([ref]))
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
    field = normalize_field(field)
    d = field_dim(field)
    if not p > 2 * q - 1:
        raise ValueError("boundedness_sweep needs p > 2q - 1")
    rho = rho_bc(p, d, q)
    poly = weyl.OrbitPolytope(weyl.RootSystemSpec("b", q),
                              np.sort(np.abs(rho))[::-1])
    gen = sampling.shard_stream(seed, 0, sampling.ROLE_EXPERIMENT).generator()
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
    mean, err, _ = _mc_pairs(field, q, p, [(t, nu_mat) for t in t_grid],
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


def moment_decay_rate_q1(p, n):
    """Closed form of the decay ratio at q = 1, d = 1, via Beta moments."""
    if not p - 4 * n > 1:
        raise ValueError("p too small for the importance shift")
    return float(np.exp(betaln(n + 0.5, 0.5 * (p - 1.0) - 2 * n)
                        - betaln(0.5, 0.5 * (p - 1.0))))


def moment_decay_experiment(field, q, n_exponent, p_list, samples=100000,
                            seed=0, workers=1):
    """Decay of R(p), the 2n-th top-singular-value moment ratio.

    R(p) integrates sigma_1(w)^(2n) / det(I - w*w)^(2n) against the
    ball law m_p.  Sampling instead from m_{p'} with p' = p - 4n/d
    absorbs the determinant factor exactly, leaving kappa(p')/kappa(p)
    times a plain sigma_1 moment under m_{p'}.
    """
    field = normalize_field(field)
    d = field_dim(field)
    n = int(n_exponent)
    if n < 1:
        raise ValueError("moment exponent n must be at least 1, not %d" % n)
    p_list = _increasing([float(p) for p in p_list], "p_list")
    if not min(p_list) > 2 * q:
        raise ValueError("moment_decay_experiment needs min(p_list) > 2q")
    shift = 4.0 * n / d
    if not min(p_list) - shift > 2 * q - 1:
        raise ValueError("p too small for the importance shift")

    values, stderrs, parts_all = [], [], []
    for p in p_list:
        pp = p - shift

        def shard_fn(shard, count, pp=pp):
            _, w = sampling.draw_shard(field, q, pp, seed, shard, count,
                                       unitary=False)
            s1 = np.linalg.svd(w, compute_uv=False)[:, :1]
            return sampling.shard_moments([s1 ** (2 * n)])

        mean, err, parts = sampling.mc_run(shard_fn, samples,
                                           workers=workers)
        ratio = kappa(pp, d, q) / kappa(p, d, q)
        values.append(float(ratio * mean[0]))
        stderrs.append(float(ratio * err[0]))
        parts_all.append([ratio * part for part in parts])

    halfwidth = _jackknife_slope_halfwidth(
        p_list, parts_all, samples, psi_exact=np.zeros(1))
    normalized = tuple(float(v * p ** n) for v, p in zip(values, p_list))
    return RateReport(tuple(p_list), tuple(values), tuple(stderrs),
                      _fit_slope(p_list, values), halfwidth,
                      normalized, 1.0)
