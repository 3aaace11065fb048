"""Evaluators for the matrix-cone hypergeometric functions phi_lambda^p
and their type-A limit psi_lambda.

phi is the mean of a power function of g_t(u, w) over a Haar unitary u
and a matrix-ball draw w, with spectral exponent (i lam - rho)/2.  One
path serves every p >= 2q - 1: only the law of w changes, to the
boundary law at p = 2q - 1.  psi, the p -> infinity limit, is phi's
integrand on the law w = 0, where g_t(u, 0) = u* cosh^2(t) u; it
averages over u alone, on the same Haar draws.  `_mc_pairs` alone draws
and reduces for every Monte-Carlo estimate; phi and psi share one
column function, and the Bessel phase and the moment decay supply their
own.  `_phi_means` alone chooses the exact rank-one means that replace
phi's and psi's at q = 1 (the quadrature, and cosh(t)^(i lam)), for
eval_psi, rate-p and contraction alike.  The module also provides the
half-sum vectors, the normalized c-function, the deterministic rank-one
quadrature (every field, p >= 1), and the polynomial special values.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra, sampling
from .algebra import _check_count, _check_finite, field_dim, normalize_field


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo value with its standard error and provenance."""

    value: object
    stderr: object
    samples: int
    seed: int


class PoleError(ValueError):
    """A Gamma factor of the c-function hit a nonpositive integer."""

    def __init__(self, root, argument):
        self.root = root
        self.argument = argument
        super().__init__(
            "c-function pole at root %s (Gamma argument %s)" % (root, argument)
        )


def multiplicity_bc(p, d, q):
    """Multiplicity triple (k1, k2, k3) of the p-series."""
    return (0.5 * d * (p - q), 0.5 * (d - 1), 0.5 * d)


def rho_bc(p, d, q):
    """Half-sum vector rho_i = d(p + q + 2 - 2i)/2 - 1."""
    i = np.arange(1, q + 1)
    return 0.5 * d * (p + q + 2 - 2 * i) - 1.0


def rho_k(k, q):
    """Half-sum vector for a general multiplicity triple."""
    k1, k2, k3 = k
    i = np.arange(1, q + 1)
    return k1 + 2.0 * k2 + 2.0 * k3 * (q - i)


def _c_factors(lam, k, q):
    """(numerator, denominator, root label) triples of the Gamma product.

    Factors whose multiplicity vanishes are omitted entirely, which
    implements the convention that their Gamma ratios collapse to 1.
    lam = None stands for rho_k(k, q); the argument of its root
    2e_i - 2e_j is then k3 (j - i), formed directly, since the difference
    of two large rho entries can round to 0 and fake a pole.
    """
    k1, k2, k3 = (float(x) for x in k)
    at_rho = lam is None
    lam = np.asarray(rho_k(k, q), complex) if at_rho else lam
    out = []
    for i in range(q):
        li = lam[i]
        if k1 != 0.0:
            out.append((li, li + k1, "2e_%d" % (i + 1,)))
        if k2 != 0.0:
            out.append(
                (0.5 * li + 0.5 * k1, 0.5 * li + 0.5 * k1 + k2, "4e_%d" % (i + 1,))
            )
        if k3 != 0.0:
            for j in range(i + 1, q):
                lj = lam[j]
                half = complex(k3 * (j - i)) if at_rho else 0.5 * (li - lj)
                out.append((half, half + k3, "2e_%d-2e_%d" % (i + 1, j + 1)))
                half = 0.5 * (li + lj)
                out.append((half, half + k3, "2e_%d+2e_%d" % (i + 1, j + 1)))
    return out


def _nonpositive_integer(z):
    z = complex(z)
    if abs(z.imag) > 1e-12:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) < 1e-12


def c_function(lam, k, q):
    """Normalized c-function: the Gamma product over positive roots of the
    doubled BC system, divided by its value at rho_k(k).

    At lam = rho_k(k) the two products cancel factor by factor, so the
    value is exactly 1.  A numerator pole raises PoleError carrying the
    offending root; a denominator pole is a legitimate zero.  A Gamma
    product out of float range raises OverflowError, and one whose
    log-Gamma terms are too large to leave 10 correct digits after they
    cancel (|lam| or the multiplicities beyond about 2e4) raises
    ValueError.
    """
    from scipy.special import loggamma

    _check_finite("multiplicity", k)
    facs = _c_factors(_spectral(lam, q), k, q)
    ref = _c_factors(None, k, q)
    for num, _den, root in facs:
        if _nonpositive_integer(num):
            raise PoleError(root, num)
    for rnum, rden, root in ref:
        if _nonpositive_integer(rnum) or _nonpositive_integer(rden):
            raise PoleError(root, rnum)
    for num, den, _root in facs:
        if _nonpositive_integer(den):
            return 0.0 + 0.0j
    total = 0.0 + 0.0j
    size = 0.0  # sum of |log Gamma|: eps * size bounds the rounding of total
    with np.errstate(over="ignore", invalid="ignore"):
        for (num, den, _), (rnum, rden, _) in zip(facs, ref):
            a, b, c, d = loggamma([num, den, rnum, rden])
            total += a - b
            total -= c - d
            size += abs(a) + abs(b) + abs(c) + abs(d)
        value = complex(np.exp(total))
    if not np.isfinite(value):
        raise OverflowError("the c-function's Gamma product is out of float "
                            "range at lam=%s, k=%s"
                            % (np.asarray(lam).tolist(), k))
    if np.finfo(float).eps * size > 1e-10:
        raise ValueError("the c-function's log-Gamma terms, of total size "
                         "%.3g, cancel below 10 correct digits at lam=%s, "
                         "k=%s" % (size, np.asarray(lam).tolist(), k))
    return value


def _cone(field, p, t):
    """The field's tag and t as a float vector, if t is finite, nonempty
    and in the chamber t1 >= ... >= tq >= 0 and p, unless None, is finite
    and at least 2q - 1; a ValueError names the fault otherwise."""
    field = normalize_field(field)
    t = _check_finite("t", np.asarray(t, float).reshape(-1))
    if not t.size:
        raise ValueError("t must have at least one entry")
    if np.any(np.diff(t) > 1e-12) or t[-1] < -1e-12:
        raise ValueError("t must lie in the chamber t1 >= ... >= tq >= 0")
    if p is not None and not _check_finite("p", p) >= 2 * t.size - 1:
        raise ValueError("p must be at least 2q - 1 = %d" % (2 * t.size - 1))
    return field, t


def _spectral(lam, q):
    """lam as a complex vector, if it has q entries (a scalar is one) and
    each is finite; a ValueError names lam otherwise."""
    lam = np.asarray(_check_finite("lam", lam), complex).reshape(-1)
    if lam.size != q:
        raise ValueError("lam must have q=%d entries, got %d" % (q, lam.size))
    return lam


def _check_run(samples, seed, workers):
    """mc_run's count checks, for the exact paths that draw nothing."""
    _check_count("samples", samples)
    _check_count("workers", workers)
    sampling._check_seed(seed)


def _phi_columns(field, t, nu_mat, haar, w):
    """phi integrand values on one shard's draws, one column per exponent.

    w = None is the p -> infinity law w = 0, on which the integrand is
    psi's.  At t = 0 the integrand is identically 1.  At q = 1 the minors
    are conjugation invariant, and u is drawn only when w is None.
    """
    if np.all(t == 0.0):
        rows = (haar() if w is None else w).shape[0]
        return np.ones((rows, nu_mat.shape[1]), complex)
    u = haar() if t.size > 1 or w is None else None
    g = algebra._build_g_embedded(t, u, w, field, "g")
    return algebra._power_from_logs(algebra._log_minors_embedded(g, field),
                                    nu_mat)


def rho_a(d, q):
    """Half-sum vector rho_i = d(q + 1 - 2i)/2 of the type-A family."""
    i = np.arange(1, q + 1)
    return 0.5 * d * (q + 1 - 2 * i)


def eval_psi(field, lam, t, samples=100000, seed=0, workers=1):
    """Monte-Carlo value of psi_lam(t); exact at q = 1, by `_phi_means`.

    lam is a length-q complex vector in the plain convention, so the
    power-function exponent is (i lam - rho)/2 with rho = rho_a(d, q).
    At q = 1, rho is 0 and psi_lam(t) = cosh(t)^(i lam); a value out of
    float range there raises OverflowError.
    """
    field, t = _cone(field, None, t)
    q = t.size
    nu = 0.5 * (1j * _spectral(lam, q) - rho_a(field_dim(field), q))
    mean, err, parts = _phi_means(field, q, [(None, t, nu[:, None])],
                                  samples, seed, workers)
    return McEstimate(complex(mean[0]), float(err[0]),
                      0 if parts is None else samples, seed)


def _mc_pairs(field, q, pairs, samples, seed, workers, columns=_phi_columns):
    """Integrand means for many (p, t, parameter) triples on common draws.

    Every triple runs columns(field, t, parameter, haar, w) on a ball
    draw w of parameter p, made once per run of equal p; p = None draws
    no ball and passes w = None, the p -> infinity law w = 0.  haar()
    fetches the shard's Haar unitary on its first call, after that run's
    w, from `sampling.draw_haar`'s memo, which draws it only when it is
    not one of the two shards last drawn; haar() holds it for the rest
    of the shard, even if other shards evict it from the memo meanwhile.
    Each block of values is reduced before the next is computed.
    Returns mc_run's flat means, standard errors and per-shard sums, in
    the order of pairs, each equal bit for bit to what a call with that
    triple alone gives.
    """
    def blocks(i, n):
        haar = functools.cache(
            lambda: sampling.draw_haar(field, q, seed, i, n))
        for p, run in itertools.groupby(pairs, key=lambda pair: pair[0]):
            w = None if p is None else sampling.draw_ball(field, q, p, seed,
                                                          i, n)
            for _, t, param in run:
                yield columns(field, t, param, haar, w)

    def shard(i, n):
        return sampling.shard_moments(blocks(i, n))

    return sampling.mc_run(shard, samples, workers=workers)


def _phi_means(field, q, triples, samples, seed, workers):
    """phi's integrand means over (p, t, nu) triples, as _mc_pairs returns
    them, and the one place that makes them exact: at q = 1, with zero
    errors and shard sums None, psi (p = None) is cosh(t)^(2 nu) and phi
    the rank-one quadrature at lam = -i(2 nu + rho), the inverse of
    nu = (i lam - rho)/2."""
    if q > 1:
        return _mc_pairs(field, q, triples, samples, seed, workers)
    _check_run(samples, seed, workers)
    means = []
    for p, t, nu in triples:
        with np.errstate(over="ignore", invalid="ignore"):
            means.append(np.cosh(t[0]) ** (2.0 * nu[0]) if p is None else [
                eval_phi_bc_quadrature_q1(p, lam, t[0], field) for lam in
                -1j * (2 * nu[0] + rho_bc(p, field_dim(field), 1))])
        if not np.isfinite(means[-1]).all():
            raise OverflowError("psi's rank-one value cosh(t)^(i lam) is out "
                                "of float range at lam=%s, t=%s" % (
                                    np.real_if_close(-2j * nu[0]).tolist(),
                                    t.tolist()))
    mean = np.concatenate(means)
    return mean, np.zeros(mean.size), None


def eval_phi_bc(field, p, lam, t, samples=100000, seed=0, workers=1):
    """Monte-Carlo value of phi_lam^p(t) for p >= 2q - 1.

    w follows the matrix-ball law for p > 2q - 1 and, at p = 2q - 1, the
    boundary law whose last factor sits on the unit sphere; the formula
    is the same, so `eval-bc --p 2q-1` prints what `eval-bc-degenerate`
    does.  lam is a length-q complex vector in the plain spectral
    convention.  Calls with one seed share every random draw, which is
    what makes common-random-number comparisons work.
    """
    field, t = _cone(field, p, t)
    q = t.size
    nu = 0.5 * (1j * _spectral(lam, q) - rho_bc(p, field_dim(field), q))
    mean, err, _ = _mc_pairs(field, q, [(p, t, nu[:, None])], samples, seed,
                             workers)
    return McEstimate(complex(mean[0]), float(err[0]), samples, seed)


NODES = 256  # Gauss-Jacobi nodes per axis of the rank-one quadrature


def _gauss_jacobi(a, b):
    """Nodes in [-1, 1] and unit-sum weights for (1 - y)^a (1 + y)^b; an
    exponent -1 is the limit law, an atom at its end (y = 1 for a)."""
    if a == -1.0 or b == -1.0:
        y = np.array([-1.0, 1.0])[[b == -1.0, a == -1.0]]
        return y, np.full(y.size, 1.0 / y.size)
    from scipy.special import roots_jacobi
    y, wts = roots_jacobi(NODES, a, b)
    return y, wts / wts.sum()


def eval_phi_bc_quadrature_q1(p, lam, t, field="r"):
    """Deterministic rank-one value of phi for every field and p >= 1.

    At q = 1 the integrand |cosh t + w sinh t|^(i lam - rho) sees w only
    through x = Re w and |w|^2 = x^2 + (1 - x^2) u, where under the ball
    law x has weight (1 - x^2)^((dp - 3)/2) and u ~ Beta((d - 1)/2,
    d(p - 1)/2) given x.  So phi is exactly this (x, u) integral
    (Koornwinder's Laplace-type integral); a tensor Gauss-Jacobi rule
    takes it, over u first.  A Beta parameter 0 is an atom (u = 0 over R,
    u = 1 at p = 1, x = +-1 over R at p = 1).  lam and t broadcast, and
    scalars give a complex; a value out of float range raises OverflowError.
    """
    d = field_dim(normalize_field(field))
    if not _check_finite("p", p) >= 1:
        raise ValueError("the rank-one quadrature needs p >= 1")
    lam = _check_finite("lam", np.asarray(lam, dtype=complex))
    t = _check_finite("t", np.asarray(t, float))
    x, x_wts = _gauss_jacobi(0.5 * (d * p - 3.0), 0.5 * (d * p - 3.0))
    y, u_wts = _gauss_jacobi(0.5 * d * (p - 1.0) - 1.0, 0.5 * (d - 3.0))
    nu = (1j * lam - 0.5 * (d * p - (2.0 - d)))[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        sh = np.sinh(t)[..., None, None]
        base = np.cosh(t)[..., None, None] + sh * x[:, None]
        logs = np.log(base) + 0.5 * np.log1p(
            (1.0 - x * x)[:, None] * (0.5 + 0.5 * y) * (sh / base) ** 2)
        vals = np.where(t == 0, 1.0 + 0.0j, np.exp(nu * logs) @ u_wts @ x_wts)
    if not np.isfinite(vals).all():
        raise OverflowError("phi's rank-one quadrature is out of float range "
                            "at lam=%s, t=%s" % (lam.tolist(), t.tolist()))
    return vals if vals.shape else complex(vals)


def eval_ho_polynomial(field, p, mu, t, samples=100000, seed=0, workers=1):
    """Polynomial special value at the even dominant weight mu.

    The spectral point lam = -i(mu + rho) makes the integrand exponent
    mu/2; dividing the integral by c_function(mu + rho_k, k_p) fixes the
    normalization through the c-function identity itself.
    """
    field, t = _cone(field, p, t)
    d = field_dim(field)
    q = t.size
    mu = _check_finite("mu", mu)
    if mu.shape != (q,) or np.any(mu % 2 != 0) \
            or np.any(np.diff(mu) > 0) or np.any(mu < 0):
        raise ValueError("mu must be a weakly decreasing vector of even "
                         "nonnegative integers of length q")
    if not p > 2 * q - 1:
        raise ValueError("eval_ho_polynomial needs p > 2q - 1")
    k = multiplicity_bc(p, d, q)
    norm = c_function(mu + rho_k(k, q), k, q)
    nu_mat = 0.5 * mu.astype(complex).reshape(q, 1)
    mean, err, _ = _mc_pairs(field, q, [(p, t, nu_mat)], samples, seed,
                             workers)
    return McEstimate(complex(mean[0]) / norm, float(err[0]) / abs(norm),
                      samples, seed)
