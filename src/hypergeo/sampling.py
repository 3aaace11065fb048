"""Seedable samplers for Haar unitaries and the matrix-ball measures.

Also home of the deterministic shard layout shared by every Monte-Carlo
evaluator in the package: a fixed shard size, one random stream per
(shard, role) pair, and reduction in shard order, so results are
byte-identical for any worker count and common random numbers work
across evaluators that share a role.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .algebra import _chi, _chi_inv, field_dim, normalize_field

SHARD_SIZE = 8192

ROLE_UNITARY = 0
ROLE_BALL = 1
ROLE_AUX = 2
ROLE_EXPERIMENT = 3


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream named by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream id must be nonnegative, not "
                             "(%d, %d)" % (self.seed, self.stream_id))

    def generator(self):
        """A fresh generator; identical inputs give identical draws."""
        key = np.random.SeedSequence((int(self.seed), int(self.stream_id)))
        return np.random.default_rng(key)


def shard_stream(seed, shard, role):
    """The stream used by one role (unitary, ball, aux) on one shard."""
    return RngStream(seed, 4 * shard + role)


def shard_plan(samples):
    """Fixed shard sizes for a sample budget, independent of workers."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    sizes = [SHARD_SIZE] * (samples // SHARD_SIZE)
    if samples % SHARD_SIZE:
        sizes.append(samples % SHARD_SIZE)
    return sizes


def draw_shard(field, q, p, seed, shard, count, ball=True, unitary=True):
    """(u, w) for one shard: embedded Haar and ball draws, None if not asked.

    w follows the ball law of parameter p, or the boundary law when
    p = 2q - 1; each role reads its own stream, so evaluators that
    share a role see the same draws.
    """
    u = w = None
    if ball:
        gen = shard_stream(seed, shard, ROLE_BALL).generator()
        w = _mp_batch(field, q, p, count, gen)
    if unitary:
        gen = shard_stream(seed, shard, ROLE_UNITARY).generator()
        u = _haar_batch(field, q, count, gen)
    return u, w


def shard_moments(blocks):
    """Sums of values and of squared moduli over (count, m) value blocks.

    Blocks are reduced one at a time, and each is dropped before the
    next is asked for, so a generator of blocks never holds more than one
    in memory; the sums of all blocks are joined.
    """
    sums, sqs = [], []
    for vals in blocks:
        sums.append(vals.sum(axis=0))
        sq = np.abs(vals)
        del vals
        np.square(sq, out=sq)
        sqs.append(sq.sum(axis=0))
        del sq
    return np.concatenate(sums), np.concatenate(sqs)


def mc_run(shard_fn, samples, workers=1):
    """Mean, standard error and per-shard value sums of a sharded average.

    shard_fn(shard_index, shard_count) returns the shard's sums of values
    and of squared moduli (see shard_moments).  Sums are accumulated in
    shard order whatever the completion order, so the results do not
    depend on the worker count.  The per-shard value sums are returned
    too; jackknife estimates need them.  A non-finite mean or standard
    error raises ValueError, which is then the only report of an overflow:
    numpy's overflow and invalid-value warnings are off inside, in every
    worker thread too.
    """
    sizes = shard_plan(samples)

    def run(shard, count):
        with np.errstate(over="ignore", invalid="ignore"):
            return shard_fn(shard, count)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(sizes)), sizes))
    else:
        parts = [run(i, n) for i, n in enumerate(sizes)]
    with np.errstate(over="ignore", invalid="ignore"):
        tot, tot2 = parts[0]
        for s, s2 in parts[1:]:
            tot = tot + s
            tot2 = tot2 + s2
        mean = tot / samples
        var = np.maximum(tot2 / samples - np.abs(mean) ** 2, 0.0)
        err = np.sqrt(var / samples)
    if not (np.isfinite(mean).all() and np.isfinite(err).all()):
        raise ValueError("Monte-Carlo estimate is not finite")
    return mean, err, [s for s, _ in parts]


def _haar_batch(field, q, n, gen):
    """n Haar draws from U0(q, F), in the complex working form.

    R and C use QR of a Gaussian matrix with the positive-diagonal
    convention on the triangular factor; the real case then flips one
    column where needed so det = +1.  The quaternion case runs a
    Gram-Schmidt pass in the embedding that inserts each column's
    symplectic partner, which keeps the quaternionic structure exact.
    """
    if field == "r":
        z = gen.standard_normal((n, q, q))
        u, r = np.linalg.qr(z)
        d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        d[d == 0] = 1.0
        u = u * d[:, None, :]
        u[np.linalg.det(u) < 0, :, -1] *= -1.0
        return u
    if field == "c":
        z = gen.standard_normal((n, q, q, 2))
        z = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        u, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1).copy()
        mod = np.abs(d)
        mod[mod == 0] = 1.0
        return u * (d / mod)[:, None, :]
    g = _chi(gen.standard_normal((n, q, q, 4)))
    u = np.empty_like(g)
    for j in range(q):
        v = g[:, :, 2 * j].copy()
        done = u[:, :, : 2 * j]
        for _ in range(2):
            coef = np.einsum("nkm,nk->nm", np.conj(done), v)
            v -= np.einsum("nkm,nm->nk", done, coef)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        u[:, :, 2 * j] = v
        u[:, 0::2, 2 * j + 1] = -np.conj(v[:, 1::2])
        u[:, 1::2, 2 * j + 1] = np.conj(v[:, 0::2])
    return u


def haar_unitary(field, q, rng):
    """One Haar draw from SO(q), U(q), or Sp(q) depending on the field."""
    field = normalize_field(field)
    assert q >= 1
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    u = _haar_batch(field, q, 1, gen)[0]
    return _chi_inv(u) if field == "h" else u


def _row_embed(field, comp):
    """Real components (n, q, d) of row vectors -> embedded rows (n, e, E)."""
    if field == "r":
        return comp[:, :, 0][:, None, :]
    if field == "c":
        return (comp[..., 0] + 1j * comp[..., 1])[:, None, :]
    return _chi(comp[:, None, :, :])


def _sphere_batch(field, q, n, gen):
    """n uniform points on the unit sphere of F^q, embedded rows."""
    d = field_dim(field)
    v = gen.standard_normal((n, q * d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return _row_embed(field, v.reshape(n, q, d))


def _ball_rows(field, q, p, n, gen):
    """Embedded row factors y_1 .. y_q of the ball parametrization.

    y_j = r_j theta_j with theta_j uniform on the unit sphere of F^q and
    r_j^2 Beta distributed with shapes (dq/2, d(p-q-j+1)/2); Beta draws
    use two Gamma variates so non-integer shapes are exact.  At the
    boundary p = 2q-1 the last factor sits on the sphere.
    """
    d = field_dim(field)
    rows = []
    for j in range(1, q + 1):
        theta = _sphere_batch(field, q, n, gen)
        if j == q and p == 2 * q - 1:
            rows.append(theta)
            continue
        g1 = gen.standard_gamma(0.5 * d * q, n)
        g2 = gen.standard_gamma(0.5 * d * (p - q - j + 1), n)
        r2 = g1 / (g1 + g2)
        rows.append(theta * np.sqrt(r2)[:, None, None])
    return rows


def _p_map_batch(rows):
    """Assemble ball matrices from embedded row factors.

    Row j of the result is y_j times the product of the square roots
    (I - y_i* y_i)^(1/2) for i < j.  Each square root is the identity
    plus a rank-one correction, applied as an update of the running
    product: I - y*y has the two eigenvalues 1 and 1 - |y|^2.
    """
    n, e, big = rows[0].shape
    prod = np.broadcast_to(np.eye(big, dtype=rows[0].dtype), (n, big, big)).copy()
    w = np.empty((n, big, big), dtype=rows[0].dtype)
    for j, y in enumerate(rows):
        row = y @ prod
        w[:, j * e : (j + 1) * e, :] = row
        if j + 1 == len(rows):
            break
        s = np.sum(np.abs(y) ** 2, axis=(1, 2)) / e
        safe = np.maximum(s, 1e-300)
        c = np.where(
            s < 1e-8,
            -0.5 - s / 8.0,
            (np.sqrt(np.clip(1.0 - s, 0.0, None)) - 1.0) / safe,
        )
        prod = prod + c[:, None, None] * (np.conj(np.swapaxes(y, 1, 2)) @ row)
    return w


def p_map(factors, field, allow_boundary=False):
    """Ball matrix built from the factors y_1 .. y_q.

    Row j is y_j (I - y_{j-1}* y_{j-1})^(1/2) ... (I - y_1* y_1)^(1/2).
    Factors must have norm < 1; with allow_boundary the last one may sit
    on the unit sphere, as in the degenerate sampler.  The result has
    largest singular value below 1 (equal to 1 in the boundary case).
    """
    field = normalize_field(field)
    q = len(factors)
    rows = []
    for j, y in enumerate(factors):
        if field == "h":
            y = np.asarray(y, float)
            assert y.shape == (q, 4), "quaternion factors have shape (q, 4)"
            comp = y[None]
        elif field == "c":
            y = np.asarray(y, complex)
            assert y.shape == (q,)
            comp = np.stack([y.real, y.imag], axis=-1)[None]
        else:
            y = np.asarray(y, float)
            assert y.shape == (q,)
            comp = y[None, :, None]
        s = float(np.sum(comp**2))
        limit = 1.0 + 1e-12 if (allow_boundary and j == q - 1) else 1.0
        if s >= limit:
            raise ValueError("ball factor %d has norm >= 1" % (j + 1,))
        rows.append(_row_embed(field, comp))
    w = _p_map_batch(rows)[0]
    return _chi_inv(w) if field == "h" else w


def _mp_batch(field, q, p, n, gen):
    return _p_map_batch(_ball_rows(field, q, p, n, gen))


def _mp_degenerate_batch(field, q, n, gen):
    return _mp_batch(field, q, 2 * q - 1, n, gen)


def sample_mp(field, q, p, rng):
    """One draw from the matrix-ball measure with parameter p > 2q - 1."""
    field = normalize_field(field)
    if not p > 2 * q - 1:
        raise ValueError(
            "sample_mp needs p > 2q - 1; use sample_mp_degenerate at the boundary"
        )
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    w = _mp_batch(field, q, p, 1, gen)[0]
    return _chi_inv(w) if field == "h" else w


def sample_mp_degenerate(field, q, rng):
    """One draw from the boundary measure at p = 2q - 1.

    The first q - 1 factors follow the radial Beta laws with exponents
    d(q-j)/2 - 1 and the last factor is uniform on the unit sphere, so
    the resulting ball matrix satisfies det(I - w* w) = 0 identically.
    """
    field = normalize_field(field)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    w = _mp_degenerate_batch(field, q, 1, gen)[0]
    return _chi_inv(w) if field == "h" else w


def kappa(p, d, q):
    """Total mass of the unnormalized ball density, in closed Gamma form."""
    assert d in (1, 2, 4)
    if not p > 2 * q - 1:
        raise ValueError("kappa needs p > 2q - 1 so every Gamma argument is positive")
    out = 0.5 * d * q * q * np.log(np.pi)
    for r in range(1, q + 1):
        out += gammaln(0.5 * d * (p - q - r + 1)) - gammaln(0.5 * d * (p - r + 1))
    return float(np.exp(out))
