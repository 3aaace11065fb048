"""Multivariate Bessel functions and the Jack polynomials behind them.

The series is indexed by partitions and built from Jack polynomials in
the C normalization, which is the one satisfying the binomial identity
sum_{|m|=k} C_m(x) = (x_1 + ... + x_q)^k.

The series is summed one weight shell at a time.  `_shell` is the one
place the tables are built and the one cache: per (weight, alpha,
rank), it runs the eigenvalue recurrence of the Laplace-Beltrami
operator in the monomial basis, one column at a time, and holds the
shell's partitions, the matrix K (`coeffs`) of their C polynomials in
the monomial basis, the exponent rows of every distinct permutation of
each partition, and the values C(1^q).  A shell's monomials at a point
are then one power table, one gather, one product and one sum per
partition, and its C values one product with K.  Integral mode averages
exp(-i `algebra._phase_trace`) with `hyper_bc._mc_pairs`, on phi's draws.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (_check_count, _check_finite, _check_positive,
                      _phase_trace, field_dim, normalize_field)
from .hyper_bc import McEstimate, _check_run, _cone, _mc_pairs, _spectral


@dataclass(frozen=True)
class BesselIndex:
    """Index pair (mu, alpha) of a multivariate Bessel function."""

    mu: float
    alpha: float


@dataclass(frozen=True)
class SeriesResult:
    """A truncated series value with a geometric tail estimate."""

    value: complex
    truncation_degree: int
    tail_bound: float
    converged: bool


def bessel_index(field, p):
    """Bessel index attached to the matrix cone of parameter p."""
    d = field_dim(normalize_field(field))
    return BesselIndex(0.5 * p * d, 2.0 / d)


def partitions_of_weight(k, q):
    """Partitions of k into at most q parts, in descending lex order."""
    k, q = _check_count("k", k, least=0), _check_count("q", q)

    def rec(rem, cap, slots):
        if rem == 0:
            yield ()
            return
        lo = -(-rem // slots)
        for first in range(min(cap, rem), lo - 1, -1):
            for rest in rec(rem - first, first, slots - 1):
                yield (first,) + rest

    return list(rec(k, k, q))


def _conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j)
                 for j in range(1, lam[0] + 1))


def _c_scale(lam, alpha):
    """Factor turning P_lam into C_lam: alpha^|lam| |lam|! / c'_lam.

    c'_lam has one hook factor per cell and lam has |lam| cells, so each
    factor takes one alpha: alpha^|lam| and c'_lam underflow together
    for a tiny alpha, but their ratio does not.  A hook factor beyond
    float range raises OverflowError.
    """
    conj = _conjugate(lam)
    scale = float(math.factorial(sum(lam)))
    for i, part in enumerate(lam, 1):
        for j in range(1, part + 1):
            arm = part - j
            leg = conj[j - 1] - i
            hook = alpha * (arm + 1) + leg
            if hook == math.inf:
                raise OverflowError("alpha=%r overflows a hook factor of %s"
                                    % (alpha, lam))
            scale *= alpha / hook
    return scale


@dataclass(frozen=True)
class _Shell:
    """The partitions of one weight into at most q parts, and their C
    polynomials in the monomial basis.

    Row i of `coeffs` holds C_parts[i] = sum_j coeffs[i, j] m_parts[j]; it
    is zero left of the diagonal, and `support` marks the entries the
    P expansion defines.  `exponents` holds the distinct permutations of
    every partition, in partition order, and `starts` where each
    partition's rows begin.
    """

    weight: int
    parts: list
    coeffs: np.ndarray
    support: np.ndarray
    exponents: np.ndarray
    starts: np.ndarray
    at_ones: np.ndarray


@lru_cache(maxsize=None)
def _shell(weight, alpha, q):
    """The C table of one weight shell; the only Jack recurrence and the
    only permutation walk.

    The P coefficients solve u_mu = sum (mu_i - mu_j + 2r) u_nu
    / (d_lam - d_mu) over the rows lam that dominate mu, where nu is mu
    with r units moved from slot j up to slot i < j and d is the
    Laplace-Beltrami eigenvalue.  Columns mu are filled in descending lex
    order, a linear extension of dominance, so every source is known.
    """
    parts = partitions_of_weight(weight, q)
    padded = [lam + (0,) * (q - len(lam)) for lam in parts]
    grid = np.array(padded, np.intp)
    with np.errstate(over="ignore"):
        eig = 0.5 * alpha * (grid * (grid - 1)).sum(axis=1) \
            + grid @ np.arange(q - 1, -1, -1)
    if eig[0] == math.inf:  # (weight,) has the largest eigenvalue
        raise OverflowError("alpha=%r overflows the eigenvalue of %s"
                            % (alpha, parts[0]))
    support = np.ones((len(parts), len(parts)), bool)
    for sums in grid.cumsum(axis=1).T:
        support &= sums[:, None] >= sums
    index = {mu: k for k, mu in enumerate(padded)}
    coeffs = np.eye(len(parts))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, mu in enumerate(padded):
            lams = np.flatnonzero(support[:k, k])
            total = np.zeros(lams.size)
            for j in range(1, q):
                for r in range(1, mu[j] + 1):
                    for i in range(j):
                        nu = list(mu)
                        nu[i] += r
                        nu[j] -= r
                        src = index[tuple(sorted(nu, reverse=True))]
                        total += (mu[i] - mu[j] + 2 * r) * coeffs[lams, src]
            coeffs[lams, k] = total / (eig[lams] - eig[k])
        coeffs *= np.array([[_c_scale(lam, alpha)] for lam in parts])
    perms = [sorted(set(itertools.permutations(lam)), reverse=True)
             for lam in padded]
    counts = np.array([len(rows) for rows in perms])
    exponents = np.array([row for rows in perms for row in rows], np.intp)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    at_ones = coeffs @ counts
    for a in (coeffs, support, exponents, starts, at_ones):
        a.setflags(write=False)
    return _Shell(weight, parts, coeffs, support, exponents, starts, at_ones)


def _monomial(shell, x):
    """Monomial symmetric functions of every partition of a shell at x."""
    powers = x[:, None] ** np.arange(shell.weight + 1)
    terms = powers[np.arange(x.shape[0]), shell.exponents].prod(axis=1)
    return np.add.reduceat(terms, shell.starts)


def jack_C(m, alpha, xi):
    """Jack polynomial C_m at the point xi (a length-q vector).

    m is a partition: weakly decreasing non-negative integers, trailing
    zeros dropped.  alpha must be positive and finite.
    """
    given = tuple(m)
    integral = all(float(x).is_integer() for x in given)
    if not integral or min(given, default=0) < 0 \
            or list(given) != sorted(given, reverse=True):
        raise ValueError("m=%s is not a partition: its parts must be weakly "
                         "decreasing non-negative integers" % (given,))
    m = tuple(int(x) for x in given if x)
    alpha = _check_positive("alpha", alpha)
    xi = _check_finite("xi", xi)
    q = xi.shape[0]
    if len(m) > q:
        raise ValueError("partition %s has more parts than the %d variables"
                         % (m, q))
    if not m:
        return 1.0
    shell = _shell(sum(m), alpha, q)
    return shell.coeffs[shell.parts.index(m)] @ _monomial(shell, xi)


def gen_pochhammer(x, m, alpha):
    """Generalized Pochhammer symbol (x)_m^alpha."""
    out = 1.0
    for j, part in enumerate(m):
        for l in range(part):
            out = out * (x - j / alpha + l)
    return out


def bessel_series(idx, xi, eta, max_degree=30, rel_tol=1e-12):
    """Partition series of the Bessel function J_idx(xi, eta).

    Terms are summed shell by shell in the partition weight; summation
    stops once three consecutive shells fall below rel_tol relative to
    the running total.  The tail bound extrapolates the last shell
    geometrically from the observed shell ratios.  A shell out of float
    range raises OverflowError, and an argument out of it makes the first
    shell so; numpy's warnings are off inside.  A NaN in xi, eta or
    idx.mu, or an idx.alpha or rel_tol that is not positive and finite,
    raises ValueError naming it.
    """
    xi = np.atleast_1d(np.asarray(xi))
    eta = np.atleast_1d(np.asarray(eta))
    if xi.shape != eta.shape or xi.ndim != 1:
        raise ValueError("xi and eta must be vectors of a common length")
    for name, x in (("xi", xi), ("eta", eta), ("idx.mu", idx.mu)):
        if np.any(np.isnan(x)):
            raise ValueError("%s must not be NaN" % name)
    _check_positive("idx.alpha", idx.alpha)
    _check_positive("rel_tol", rel_tol)
    max_degree = _check_count("max_degree", max_degree)
    q = xi.shape[0]
    shells = [1.0]
    total = 1.0
    quiet = 0
    degree = max_degree
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_degree + 1):
            shell = _shell(k, float(idx.alpha), q)
            poch = np.array([gen_pochhammer(idx.mu, m, idx.alpha)
                             for m in shell.parts])
            if not np.all(poch):
                raise ValueError("Pochhammer symbol (mu)_m vanishes at m=%s"
                                 % (shell.parts[np.argmin(poch != 0)],))
            s = ((-1.0) ** k * (shell.coeffs @ _monomial(shell, xi))
                 * (shell.coeffs @ _monomial(shell, eta))
                 / (poch * float(math.factorial(k)) * shell.at_ones)).sum()
            total = total + s
            if not np.isfinite(total):
                raise OverflowError("the Bessel series overflows at shell %d"
                                    % k)
            shells.append(s)
            if abs(s) < rel_tol * max(1.0, abs(total)):
                quiet += 1
                if quiet == 3:
                    degree = k
                    converged = True
                    break
            else:
                quiet = 0
        ratios = [abs(shells[j]) / abs(shells[j - 1])
                  for j in range(max(1, len(shells) - 3), len(shells))
                  if abs(shells[j - 1]) > 0]
    rho = min(max(ratios), 0.99) if ratios else 0.0
    last = abs(shells[-1])
    tail = last * rho / (1.0 - rho)
    return SeriesResult(total, degree, tail, converged)


def _phase_columns(field, t, lam, haar, w):
    """exp(-i `algebra._phase_trace`) of one shard's draws, as one column."""
    return np.exp(-1j * _phase_trace(w, t, haar, lam, field))[:, None]


def bessel_phi_tilde(field, p, lam, t, mode="series", samples=100000,
                     max_degree=30, seed=0, workers=1, rel_tol=1e-12):
    """Bessel-Fourier transform phi-tilde of the cone with parameter p.

    mode "series" evaluates J_{pd/2}(lam^2/2, t^2/2) by the partition
    series and returns a SeriesResult.  mode "integral" averages the
    unitary-twisted phase exp(-i Re tr(w diag(t) u diag(lam))) over the
    ball and the unitary group and returns a McEstimate.
    """
    if mode not in ("series", "integral"):
        raise ValueError("mode must be 'series' or 'integral'")
    field, t = _cone(field, p if mode == "integral" else None, t)
    _check_finite("p", p)
    lam = _spectral(lam, t.size)
    if mode == "series":
        if np.all(lam.imag == 0.0):
            lam = lam.real
        with np.errstate(over="ignore", invalid="ignore"):
            xi, eta = 0.5 * lam ** 2, 0.5 * t ** 2
        return bessel_series(bessel_index(field, p), xi, eta,
                             max_degree=max_degree, rel_tol=rel_tol)
    if np.any(lam.imag != 0.0):
        raise ValueError("integral mode needs a real lam")
    lam = lam.real
    if np.all(t == 0.0) or np.all(lam == 0.0):
        _check_run(samples, seed, workers)
        return McEstimate(1.0 + 0.0j, 0.0, samples, seed)
    mean, err, _ = _mc_pairs(field, t.size, [(p, t, lam)], samples, seed,
                             workers, _phase_columns)
    return McEstimate(complex(mean[0]), float(err[0]), samples, seed)
