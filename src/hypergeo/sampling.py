"""Seedable samplers for Haar unitaries and the matrix-ball measures.

Both samplers draw a whole shard at once, with the batch axis last in
memory, so each step is one vector operation over the shard rather than
one small factorisation per draw.  Haar draws are built by the subgroup
algorithm, one Householder reflection per column, from a normalised
Gaussian vector of shrinking length.  Ball draws build their row
factors with `_ball_rows` and assemble them with `_p_map_batch`.  Each
row factor is a Gaussian vector g in F^q scaled by 1 / sqrt(|g|^2 + 2G)
with G one Gamma variate: |g|^2 / 2 is itself Gamma(dq/2) and
independent of g/|g| (the Beta-Gamma algebra), so the squared radius is
Beta(dq/2, G's shape) and the direction uniform.  A shard of n draws
takes n d q (q + 1) / 2 normal variates for Haar, and n d q^2 normal and
n q Gamma variates for the ball (n (q - 1) at the boundary p = 2q - 1).

Memory layout: `_haar_batch` and `_ball_rows` each write a shard's
draws into one batch-last array, entry (i, j) of every draw one
contiguous length-n vector, and `_p_map_batch` turns the ball's into w
in place.  The draws go on as (n, e, e) views of that memory, which
`algebra._build_g_embedded` reads batch-last again without a copy.
Over H (e = 2q) only the even rows of the chi images are kept, in the
layout that `algebra` documents: Haar and ball draws are (n, q, 2q)
stacks and each row factor is its even row; `_p_map_batch` gets each
factor's full chi form from `algebra._chi_full`.

Also home of the deterministic shard layout behind every Monte-Carlo
estimate in the package: a fixed shard size, one random stream per
(seed, shard, role), which `shard_stream` returns as a fresh numpy
Generator, and reduction in shard order, so results are
byte-identical for any worker count and common random numbers work
across evaluators that share a role.  `draw_haar`, `draw_ball` and
`mc_run` have one caller, `hyper_bc._mc_pairs`.

Haar draws are drawn once per process for the two most recent shards:
`draw_haar` keeps a fixed two-entry memo, as much as a two-worker run
holds in flight (8 MiB at h4), so calls with one seed share u whatever
p, t or lam they ask for.  The memo's draws are read-only.  Ball draws
are redrawn on every call.
"""

import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .algebra import (_batch_first, _batch_last, _check_count, _check_finite,
                      _chi_full, _dot, field_dim)

SHARD_SIZE = 8192

ROLE_UNITARY = 0
ROLE_BALL = 1
ROLE_EXPERIMENT = 3


def shard_stream(seed, shard, role):
    """A fresh generator for one role (unitary, ball, experiment) on one
    shard, keyed by (seed, 4 shard + role); identical inputs give
    identical draws."""
    return np.random.default_rng(np.random.SeedSequence(
        (_check_seed(seed), 4 * shard + role)))


def _check_seed(seed):
    """seed as an int, if it is one whole number of at least 0: 1.9 is no
    alias of 1, and a sequence, which SeedSequence would take, is no seed;
    a ValueError names seed otherwise."""
    if np.ndim(seed) > 0:
        raise ValueError("seed must be at least 0 and whole, not %s"
                         % (seed,))
    return _check_count("seed", seed, least=0)


def _check_samples(samples):
    """samples as an int, if at least 2: one draw has no standard error."""
    samples = _check_count("samples", samples)
    if samples < 2:
        raise ValueError("samples must be at least 2 for a stderr, not 1")
    return samples


def shard_plan(samples):
    """Fixed shard sizes for a sample budget, independent of workers."""
    samples = _check_count("samples", samples)
    sizes = [SHARD_SIZE] * (samples // SHARD_SIZE)
    if samples % SHARD_SIZE:
        sizes.append(samples % SHARD_SIZE)
    return sizes


def draw_haar(field, q, seed, shard, count):
    """Embedded Haar draws (count, e, e) for one shard, from its unitary
    stream; over H the (count, q, 2q) stack of their even rows.

    The draws are a pure function of the arguments, so the two most
    recently drawn shards are kept, a fixed bound, and a repeated call
    returns the same array.  It is read-only, and so is its base: a
    caller that wrote into it would raise rather than change a later
    call's draws.  The seed is checked before the memo is read, so 1.0
    finds seed 1's draws, and a 0-d array or a sequence seed is a
    ValueError, not an unhashable memo key.
    """
    return _haar_memo(field, q, _check_seed(seed), shard, count)


@functools.lru_cache(maxsize=2)
def _haar_memo(field, q, seed, shard, count):
    u = _haar_batch(field, q, count, shard_stream(seed, shard, ROLE_UNITARY))
    u.flags.writeable = False
    u.base.flags.writeable = False
    return u


def draw_ball(field, q, p, seed, shard, count):
    """Embedded ball draws (count, e, e) for one shard; over H the
    (count, q, 2q) stack of their even rows.

    w follows the ball law of parameter p, or the boundary law when
    p = 2q - 1.  The shard's ball stream is opened afresh on every call,
    so each p sees the same variates whatever else the shard draws.
    """
    return _p_map_batch(_ball_rows(field, q, p, count,
                                   shard_stream(seed, shard, ROLE_BALL)))


def shard_moments(blocks):
    """Sums of values and centred sums of squared moduli over (count, m)
    value blocks.

    Each block is reduced in centred form: its sums are taken, its column
    means subtracted in place, and then |v - mean|^2 summed, which does
    not cancel the way the raw second moment does when the values barely
    vary.  Blocks are reduced one at a time and each is dropped (and
    overwritten first) before the next is asked for, so a generator of
    blocks never holds more than one in memory; the sums of all blocks
    are joined.
    """
    sums, m2s = [], []
    for vals in blocks:
        sums.append(vals.sum(axis=0))
        vals -= sums[-1] / len(vals)
        sq = np.abs(vals)
        del vals
        np.square(sq, out=sq)
        m2s.append(sq.sum(axis=0))
        del sq
    return np.concatenate(sums), np.concatenate(m2s)


def mc_run(shard_fn, samples, workers=1):
    """Mean, standard error and per-shard value sums of a sharded average.

    shard_fn(shard_index, shard_count) returns the shard's sums of values
    and centred sums of squared moduli (see shard_moments).  Sums are
    accumulated, and the shards' (count, mean, centred sum) triples
    merged (Chan, Golub and LeVeque 1983), in shard order whatever the
    completion order, so the results do not depend on the worker count.
    The per-shard value sums are returned too; jackknife estimates need
    them.  A non-finite mean or standard error raises ValueError, which
    is then the only report of an overflow: numpy's overflow and
    invalid-value warnings are off inside, in every worker thread too.
    """
    sizes = shard_plan(_check_samples(samples))
    workers = _check_count("workers", workers)

    def run(shard, count):
        with np.errstate(over="ignore", invalid="ignore"):
            return shard_fn(shard, count)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(sizes)), sizes))
    else:
        parts = [run(i, n) for i, n in enumerate(sizes)]
    with np.errstate(over="ignore", invalid="ignore"):
        count = sizes[0]
        tot, m2 = parts[0]
        for (s, m2b), nb in zip(parts[1:], sizes[1:]):
            delta = s / nb - tot / count
            m2 = m2 + m2b + np.abs(delta) ** 2 * (count * nb / (count + nb))
            tot = tot + s
            count += nb
        mean = tot / samples
        err = np.sqrt(m2 / samples / samples)
    if not (np.isfinite(mean).all() and np.isfinite(err).all()):
        raise ValueError("Monte-Carlo estimate is not finite")
    return mean, err, [s for s, _ in parts]


def _haar_batch(field, q, n, gen):
    """n Haar draws from U(q, F) = O(q), U(q) or Sp(q): an (n, e, e) view
    of batch-last memory in the complex working form, e = q; over H the
    (n, q, 2q) view of the even rows of the chi images.

    Each draw is the subgroup algorithm (Diaconis and Shahshahani 1987)
    in Householder form (Mezzadri 2007): u = R(x_1) diag(1, R(x_2)) ...
    diag(1, ..., 1, x_q), where x_k is a normalised Gaussian vector,
    uniform on the unit sphere of F^(q-k+1), and x_q a unit scalar (+-1,
    a phase or a unit quaternion).  R(x) = (I - 2 w w* / |w|^2)
    diag(-sigma, 1, ..., 1), with sigma = x_0 / |x_0| and w = -sigma e_1
    - x, is unitary and sends e_1 to x.  The sign makes the head of w
    -sigma (1 + |x_0|), so |w|^2 = 2 (1 + |x_0|) >= 2 and forming w never
    cancels.  u e_1 = x_1 is uniform on the sphere and the rest is a Haar
    draw of its stabiliser, so u is Haar; over R det u is a random sign,
    so the draw fills O(q).

    u is built from the smallest block outward, on batch-last memory:
    level k writes x_k into column k from row k down, and turns every
    column b already built (zero in row k) into R(x_k) b.  With x_0 the
    head of x_k, x' its tail and s = x'* b, row k gets -sigma s and the
    rows below b - x' s / (1 + |x_0|): 2 sum_(m=2..q) (m-1)^2
    multiply-adds per draw.  Over H the same formulas run on quaternion
    entries a1 + a2 j, each the even-row pair (a1, a2) of its chi block,
    multiplied in the order written; odd rows are never formed.  A
    draw's d q (q + 1) / 2 normal variates are drawn in one draw-major
    call, x_1's first, so draw i does not depend on n.
    """
    d = field_dim(field)
    step = 2 if field == "h" else 1
    z = gen.standard_normal((n, q * (q + 1) // 2, d)).T  # (d, entry, n)
    u = np.empty((step * q, q, n), float if d == 1 else complex)  # [col, row]
    end = z.shape[1]
    for k in reversed(range(q)):
        g = z[:, end - q + k:end]  # this level's (d, q - k, n) normals
        end -= q - k
        comps = [row for comp in g for row in comp]
        r = np.sqrt(_dot(comps, comps))
        x = u[step * k:step * (k + 1), k:]  # column k from row k down
        parts = (x.real, x.imag) if d > 1 else (x,)
        for j, comp in enumerate(g):
            np.divide(comp, r, out=parts[j % 2][j // 2])
        if k == q - 1:
            continue
        x0 = np.sqrt(_dot(g[:, 0], g[:, 0])) / r
        sigma = x[:, 0] / x0
        c = 1.0 / (1.0 + x0)
        if step == 1:
            xt = x[0, 1:]
            b = u[k + 1:, k + 1:]  # the built columns' rows below k
            s = _dot(np.conj(xt)[:, None], b.swapaxes(0, 1))
            u[k + 1:, k] = -sigma[0] * s
            b -= (s * c)[:, None] * xt
            continue
        x1, x2 = x[0, 1:], x[1, 1:]
        b1, b2 = u[2 * k + 2::2, k + 1:], u[2 * k + 3::2, k + 1:]
        xc1, xc2 = np.conj(x1)[:, None], np.conj(x2)[:, None]
        b1t, b2t = b1.swapaxes(0, 1), b2.swapaxes(0, 1)
        s1 = _dot(xc1, b1t) + np.conj(_dot(xc2, b2t))
        s2 = _dot(xc1, b2t) - np.conj(_dot(xc2, b1t))
        u[2 * k + 2::2, k] = -(sigma[0] * s1 - sigma[1] * np.conj(s2))
        u[2 * k + 3::2, k] = -(sigma[0] * s2 + sigma[1] * np.conj(s1))
        t1, t2 = (s1 * c)[:, None], (s2 * c)[:, None]
        b1 -= x1 * t1 - x2 * np.conj(t2)
        b2 -= x1 * t2 + x2 * np.conj(t1)
    return u.T


def _check_interior(name, p, q):
    """A ValueError names p unless finite and above 2q - 1 (ball density)."""
    p = _check_finite(name, p)
    low = p[~(p > 2 * q - 1)]
    if low.size:
        raise ValueError("%s must be above 2q - 1 = %d, not %s"
                         % (name, 2 * q - 1, low[0].item()))


def _ball_rows(field, q, p, n, gen):
    """Embedded row factors y_1 .. y_q of the ball parametrization.

    y_j = r_j theta_j with theta_j uniform on the unit sphere of F^q and
    r_j^2 Beta distributed with shapes (dq/2, d(p-q-j+1)/2).  Row j
    draws a standard Gaussian g in F^q, a batch-last (d, q, n) block of
    real components, then one Gamma variate G_j of shape d(p-q-j+1)/2.
    |g|^2 / 2 is Gamma(dq/2) and independent of g/|g| (Lukacs 1955), so
    y_j = g / sqrt(|g|^2 + 2 G_j) has the uniform direction and the Beta
    radius, exact for non-integer shapes.  At the boundary p = 2q-1 the
    last factor is g/|g|, on the sphere, and draws no Gamma variate.
    Factor j is slot j of one batch-last array (q, 1, E, n), returned as
    its (q, n, 1, E) view, whose entries are the (n, 1, E) factors; over
    H the even row of the factor's chi image, entries 2m and 2m + 1
    being g_0 + i g_1 and g_2 + i g_3 of coordinate m.
    """
    d = field_dim(field)
    step = 2 if field == "h" else 1
    y = np.empty((q, 1, step * q, n), float if d == 1 else complex)
    parts = (y.real, y.imag) if d > 1 else (y,)
    for j in range(1, q + 1):
        g = gen.standard_normal((d, q, n))
        flat = g.reshape(d * q, n)
        r = _dot(flat, flat)
        if j < q or p != 2 * q - 1:
            r += 2.0 * gen.standard_gamma(0.5 * d * (p - q - j + 1), n)
        np.sqrt(r, out=r)
        for k, comp in enumerate(g):
            np.divide(comp, r, out=parts[k % 2][j - 1, 0, k // 2::step])
    return np.moveaxis(y, -1, 1)


def _p_map_batch(rows):
    """Turn the row factors (q, n, 1, E) into ball matrices, in place.

    Row j of the result is y_j S_(j-1) ... S_1, where
    S_i = (I - y_i* y_i)^(1/2) = I + c_i y_i* y_i, since I - y*y has the
    two eigenvalues 1 and 1 - |y|^2.  With s = |y_i|^2, c_i =
    (sqrt(1 - s) - 1) / s is written -1 / (1 + sqrt(1 - s)), which does
    not cancel as s -> 0 and needs no series branch.  Each S_i acts on a
    running row v as the rank-e update v += c_i (v y_i*) y_i, so no
    matrix product is formed: every step is an (e, E, n) slab or
    length-n vector operation on batch-last memory.  The factor index is
    outermost, last first, each S_i applied to every later row in turn,
    so each row still meets S_(j-1) .. S_1 in that order, and factor i
    is read from its own row, which no earlier step touched.  Over H
    each factor is its even row, its chi image (e = 2) formed once for
    its own update, and only w's even rows are formed.  Returns w, the
    (n, E, E) view of the rows' memory; over H its (n, q, 2q) even rows.
    """
    chi = rows.shape[-1] == 2 * len(rows)  # over H, E = 2q
    w = np.moveaxis(rows[:, :, 0], 1, -1)  # (q, E, n), factor j in row j
    for i in reversed(range(len(rows) - 1)):
        y = _batch_last(_chi_full(rows[i]) if chi else rows[i])  # (e, E, n)
        ybar = np.conj(y)
        s = _dot(y[0], ybar[0]).real
        coef = -1.0 / (1.0 + np.sqrt(np.clip(1.0 - s, 0.0, None)))
        for v in w[i + 1:]:
            v += _dot([coef * _dot(v, yb) for yb in ybar], y)
    return _batch_first(w)


def _mp_batch(field, q, p, n, gen):
    """n ball draws as full (n, e, e) stacks, the chi images over H."""
    return _chi_full(_p_map_batch(_ball_rows(field, q, p, n, gen)))


def kappa(p, d, q):
    """Total mass of the unnormalized ball density, in closed Gamma form."""
    if d not in (1, 2, 4):
        raise ValueError("d must be 1, 2 or 4, got %r" % (d,))
    q = _check_count("q", q)
    _check_interior("p", p, q)
    from scipy.special import gammaln

    out = 0.5 * d * q * q * np.log(np.pi)
    for r in range(1, q + 1):
        out += gammaln(0.5 * d * (p - q - r + 1)) - gammaln(0.5 * d * (p - r + 1))
    return float(np.exp(out))
