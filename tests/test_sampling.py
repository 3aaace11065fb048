"""Tests for the Haar and matrix-ball samplers and the shard engine."""

import sys
import weakref

import numpy as np
import pytest

from hypergeo import algebra, bessel, experiments, hyper_bc, sampling
from oracles import kappa_rejection


def _ct_ref(m):
    """Conjugate transpose of a complex (or real) matrix stack."""
    return np.conj(np.swapaxes(m, -2, -1))


def _haar_qr(field, q, n, gen):
    """LAPACK QR of a Gaussian matrix with a positive diagonal on R (over
    H Gram-Schmidt on the chi image, partner columns exact): a second
    Haar construction, the control of the law test."""
    if field == "r":
        z = gen.standard_normal((n, q, q))
        u, r = np.linalg.qr(z)
        d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        d[d == 0] = 1.0
        return u * d[:, None, :]
    if field == "c":
        z = gen.standard_normal((n, q, q, 2))
        z = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        u, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1).copy()
        mod = np.abs(d)
        mod[mod == 0] = 1.0
        return u * (d / mod)[:, None, :]
    g = algebra._chi(gen.standard_normal((n, q, q, 4)))
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


def _chi_rows_ref(x):
    """A batch-last chi matrix (2r, E, ...) from its even rows (r, E, ...),
    written out here rather than taken from the package."""
    full = np.empty((2 * len(x),) + x.shape[1:], x.dtype)
    full[0::2] = x
    full[1::2, 0::2] = -np.conj(x[:, 1::2])
    full[1::2, 1::2] = np.conj(x[:, 0::2])
    return full


def _unit_vectors(field, q, n, gen):
    """x_1 .. x_q of the subgroup algorithm from one draw-major normal
    block (n, q (q + 1) / 2, d), x_1's entries first: for each x_k the
    list of its q - k + 1 entries, an (n,) array each or over H a pair
    (a1, a2) of arrays, g / |g| with |g|^2 summed component-major, and
    |x_0| as |g_0| / |g|."""
    d = algebra.field_dim(field)
    z = gen.standard_normal((n, q * (q + 1) // 2, d))
    xs, off = [], 0
    for m in range(q, 0, -1):
        g = z[:, off:off + m]
        off += m
        comps = [g[:, i, c] for c in range(d) for i in range(m)]
        r = comps[0] * comps[0]
        for v in comps[1:]:
            r = r + v * v
        r = np.sqrt(r)
        head = comps[0] * comps[0]
        for v in comps[m::m]:
            head = head + v * v
        x = g / r[:, None, None]
        if field == "r":
            x = [x[:, i, 0] for i in range(m)]
        elif field == "c":
            x = [x[:, i, 0] + 1j * x[:, i, 1] for i in range(m)]
        else:
            x = [(x[:, i, 0] + 1j * x[:, i, 1], x[:, i, 2] + 1j * x[:, i, 3])
                 for i in range(m)]
        xs.append((x, np.sqrt(head) / r))
    return xs


def _quat_mul(a, b):
    """The quaternion product of even-row pairs (a1, a2) (b1, b2)."""
    return (a[0] * b[0] - a[1] * np.conj(b[1]),
            a[0] * b[1] + a[1] * np.conj(b[0]))


def _haar_full_ref(field, q, n, gen):
    """The subgroup kernel written out one column and one row at a time
    with every row kept: its (n, e, e) draws are the bit-for-bit
    reference of _haar_batch's.  Over H a row of quaternion column c is
    the pair (entry 2c, entry 2c + 1) of a chi row: (a1, a2) on an even
    row and (-conj a2, conj a1), the pair of j a, on the odd row below,
    and the odd rows run the even rows' formulas on their own pairs."""
    xs = _unit_vectors(field, q, n, gen)
    d = algebra.field_dim(field)
    if field != "h":
        u = np.empty((q, q, n), float if d == 1 else complex)  # [row, col]
        for k in reversed(range(q)):
            x, x0 = xs[k]
            for i, xi in enumerate(x):
                u[k + i, k] = xi
            if k == q - 1:
                continue
            for col in range(k + 1, q):
                s = np.conj(x[1]) * u[k + 1, col]
                for i in range(2, len(x)):
                    s += np.conj(x[i]) * u[k + i, col]
                u[k, col] = -(x[0] / x0) * s
                t = s * (1.0 / (1.0 + x0))
                for i in range(1, len(x)):
                    u[k + i, col] = u[k + i, col] - t * x[i]
        return np.moveaxis(u, -1, 0)
    u = np.empty((2 * q, 2 * q, n), complex)  # [row, col]

    def pairs(x):  # the pair of each chi row: x_i, then j x_i
        return [p for a in x for p in (a, (-np.conj(a[1]), np.conj(a[0])))]

    for k in reversed(range(q)):
        x, x0 = xs[k]
        for r, p in enumerate(pairs(x)):
            u[2 * k + r, 2 * k], u[2 * k + r, 2 * k + 1] = p
        if k == q - 1:
            continue
        sigma = (x[0][0] / x0, x[0][1] / x0)
        for col in range(k + 1, q):
            b = [(u[2 * i, 2 * col], u[2 * i, 2 * col + 1])
                 for i in range(k + 1, q)]
            terms = [(a, h) for a in (0, 1) for h in (0, 1)]
            sums = [np.conj(x[1][a]) * b[0][h] for a, h in terms]
            for i in range(2, len(x)):
                for j, (a, h) in enumerate(terms):
                    sums[j] += np.conj(x[i][a]) * b[i - 1][h]
            s = (sums[0] + np.conj(sums[3]), sums[1] - np.conj(sums[2]))
            t = (s[0] * (1.0 / (1.0 + x0)), s[1] * (1.0 / (1.0 + x0)))
            for r, p in enumerate(pairs([sigma])):
                head = _quat_mul(p, s)
                u[2 * k + r, 2 * col] = -head[0]
                u[2 * k + r, 2 * col + 1] = -head[1]
            for r, p in enumerate(pairs(x)[2:], start=2 * k + 2):
                xt = _quat_mul(p, t)
                u[r, 2 * col] = u[r, 2 * col] - xt[0]
                u[r, 2 * col + 1] = u[r, 2 * col + 1] - xt[1]
    return np.moveaxis(u, -1, 0)


def _haar_reflector_ref(field, q, n, gen):
    """The subgroup draw multiplied out with @ on the same variates:
    u = R(x_1) diag(1, R(x_2)) ... diag(1, ..., 1, R(x_q)), each R(x) =
    (I - 2 w w* / |w|^2) diag(-sigma, 1, ..., 1) with sigma = x_0 / |x_0|
    and w = -sigma e_1 - x an explicit (n, e, e) matrix; over H the chi
    image of the quaternion one, built with algebra._chi."""
    d = algebra.field_dim(field)
    step = 2 if field == "h" else 1
    e = step * q
    z = gen.standard_normal((n, q * (q + 1) // 2, d))
    u = np.broadcast_to(np.eye(e, dtype=complex), (n, e, e))
    off = 0
    for k in range(q):
        m = q - k
        x = z[:, off:off + m]
        off += m
        x = x / np.sqrt(np.sum(x * x, axis=(1, 2)))[:, None, None]
        sigma = x[:, 0] / np.sqrt(np.sum(x[:, 0] ** 2, axis=1))[:, None]
        w = -x
        w[:, 0] -= sigma
        diag = np.zeros((n, m, m, d))
        diag[:, 0, 0] = -sigma
        diag[:, np.arange(1, m), np.arange(1, m), 0] = 1.0
        if field == "h":
            wm, dm = algebra._chi(w[:, :, None]), algebra._chi(diag)
        elif field == "c":
            wm, dm = (w[..., 0] + 1j * w[..., 1])[:, :, None], \
                diag[..., 0] + 1j * diag[..., 1]
        else:
            wm, dm = w[..., 0][:, :, None], diag[..., 0]
        refl = np.eye(step * m) - 2.0 * (wm @ _ct_ref(wm)) \
            / np.sum(w * w, axis=(1, 2))[:, None, None]
        level = np.broadcast_to(np.eye(e, dtype=complex), (n, e, e)).copy()
        level[:, step * k:, step * k:] = refl @ dm
        u = u @ level
    return u.real if field == "r" else u


def _p_map_full_ref(rows):
    """The ball kernel over H as it was when every factor and every row of
    w was kept in full chi form, one row at a time: the bit-for-bit
    reference of the even-row kernel."""
    ys = [_chi_rows_ref(algebra._batch_last(y)) for y in rows]
    ybar = [np.conj(y) for y in ys]
    w = np.empty((len(ys), ys[0].shape[1], rows[0].shape[0]), complex)
    coefs = []
    for j, y in enumerate(ys):
        v = y[0].copy()
        for i in reversed(range(j)):
            v += algebra._dot([coefs[i] * algebra._dot(v, yb)
                               for yb in ybar[i]], ys[i])
        w[j] = v
        s = algebra._dot(y[0], ybar[j][0]).real
        coefs.append(-1.0 / (1.0 + np.sqrt(np.clip(1.0 - s, 0.0, None))))
    return algebra._batch_first(_chi_rows_ref(w))


def _build_g_full_ref(t, u, w, variant):
    """_build_g_embedded over H as it was on full (n, 2q, 2q) stacks, C
    formed row by row and its odd rows filled: the bit-for-bit reference
    of the even-row kernel, whose rows are this one's even rows."""
    tt = np.repeat(t, 2)
    ch, sh = np.cosh(tt), np.sinh(tt)
    ub = None if u is None else algebra._batch_last(u)
    wb = None if w is None else algebra._batch_last(w)
    given = [x for x in (ub, wb) if x is not None]
    c = np.empty(np.broadcast_shapes(*(x.shape for x in given)), complex)
    m = np.empty_like(c[0])
    for k in range(0, tt.size, 2):
        if wb is None:
            np.multiply(ch[k], ub[k], out=c[k])
            continue
        if variant == "g":
            np.multiply(sh[k], wb[k], out=m)
        else:
            for i, x in enumerate(sh):
                m[i] = x * np.conj(wb[i, k])
        m[k] += ch[k]
        c[k] = m if ub is None else algebra._dot(m, ub)
    c = _chi_rows_ref(c[0::2])
    g = np.zeros_like(c)
    for i in range(0, tt.size, 2):
        g[i, :i + 1] = algebra._dot(np.conj(c[:, i]), c[:, :i + 1])
        g[i, i] = g[i, i].real
    return algebra._batch_first(g)


def _p_map_reference(rows):
    """The batch-first p_map the batch-last kernel replaced: the row
    product y @ prod and the rank-one update of the running square-root
    product (I - y*y)^(1/2) as batched matrix products."""
    n, e, big = rows[0].shape
    prod = np.broadcast_to(np.eye(big, dtype=rows[0].dtype),
                           (n, big, big)).copy()
    w = np.empty((n, big, big), rows[0].dtype)
    for j, y in enumerate(rows):
        row = y @ prod
        w[:, j * e:(j + 1) * e] = row
        s = np.sum(np.abs(y) ** 2, axis=(1, 2)) / e
        c = (np.sqrt(np.clip(1.0 - s, 0.0, None)) - 1.0) / s
        prod = prod + c[:, None, None] * (_ct_ref(y) @ row)
    return w


def _factor_full(field, y):
    """A ball row factor (n, 1, E) in full chi form (n, 2, E) over H."""
    return algebra._chi_full(y) if field == "h" else y


def _g_reference(t, u, w, field, variant):
    """u* (A* A) u or u* (A A*) u by plain matrix products."""
    tt = np.repeat(t, 2) if field == "h" else t
    a = np.diag(np.cosh(tt)) if w is None \
        else np.sinh(tt)[:, None] * w + np.diag(np.cosh(tt))
    aa = _ct_ref(a) @ a if variant == "g" else a @ _ct_ref(a)
    return aa if u is None else _ct_ref(u) @ aa @ u


def _log_minors_reference(g, field):
    """Logs of the principal minors from LAPACK's Cholesky diagonal."""
    piv = np.diagonal(np.linalg.cholesky(g), axis1=-2, axis2=-1).real
    cum = np.cumsum(np.log(piv), axis=-1)
    return cum[..., 1::2] if field == "h" else 2.0 * cum


class TestHaar:
    """Haar-distributed unitaries over the three fields."""

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_qr_reference(self, field, q):
        """The same Gaussian variates give the same matrices as the
        product of explicit Householder reflectors, the Q of a
        Householder QR, multiplied out with @."""
        got = algebra._chi_full(
            sampling._haar_batch(field, q, 2000, np.random.default_rng(12)))
        want = _haar_reflector_ref(field, q, 2000, np.random.default_rng(12))
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("sampler", [sampling._haar_batch, _haar_qr],
                             ids=["subgroup", "qr-control"])
    def test_law(self, field, q, sampler):
        """Haar moments over 40000 draws, each within 5 standard errors
        (plus 1e-12 for rounding where a moment barely varies): every
        complex entry of the embedded u has mean 0, E|u_ij|^2 = 1/q (over
        H the quaternion entry's squared modulus), and E|tr u|^2 = 1 for
        the embedded trace, the standard representation being
        irreducible.  LAPACK QR is the control."""
        n = 40000
        u = algebra._chi_full(sampler(field, q, n,
                                      np.random.default_rng(700 + q)))
        step = 2 if field == "h" else 1

        def near(vals, want, what):
            se = vals.std(axis=0) / np.sqrt(n)
            dev = np.abs(vals.mean(axis=0) - want)
            assert np.all(dev <= 5.0 * se + 1e-12), (what, dev.max() / se)

        for part in (u.real, u.imag):
            near(part.reshape(n, -1), 0.0, "mean")
        sq = np.abs(u[:, ::step]) ** 2
        if step == 2:
            sq = sq[:, :, 0::2] + sq[:, :, 1::2]
        for i in range(q):
            for j in range(q):
                near(sq[:, i, j], 1.0 / q, ("modulus", i, j))
        near(np.abs(np.trace(u, axis1=1, axis2=2)) ** 2, 1.0, "trace")

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_variates_pinned(self, field):
        """A shard's unitary stream holds d q (q + 1) / 2 normals per draw,
        drawn draw-major, x_1's first: the draws rebuilt by hand from a
        fresh stream equal _haar_batch to the bit, and both streams end
        at the same state."""
        q, n = 4, 257
        gen = sampling.shard_stream(9, 2, sampling.ROLE_UNITARY)
        got = algebra._chi_full(sampling._haar_batch(field, q, n, gen))
        ref = sampling.shard_stream(9, 2, sampling.ROLE_UNITARY)
        np.testing.assert_array_equal(got, _haar_full_ref(field, q, n, ref))
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_real_draws_fill_both_components_of_o_q(self, q):
        """Real draws are Haar on O(q), not SO(q): det u = +-1, and -1 on
        half the draws, within four binomial standard deviations."""
        u = sampling._haar_batch("r", q, 2000, np.random.default_rng(13))
        det = np.linalg.det(u)
        np.testing.assert_allclose(np.abs(det), 1.0, rtol=0, atol=1e-12)
        assert abs(np.count_nonzero(det < 0) - 1000) < 4 * np.sqrt(500)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_quaternion_partner_columns(self, q):
        """Column 2j + 1 is the symplectic partner of column 2j, exactly."""
        u = algebra._chi_full(
            sampling._haar_batch("h", q, 500, np.random.default_rng(14)))
        np.testing.assert_array_equal(u[:, 0::2, 1::2],
                                      -np.conj(u[:, 1::2, 0::2]))
        np.testing.assert_array_equal(u[:, 1::2, 1::2],
                                      np.conj(u[:, 0::2, 0::2]))

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_first_draw_independent_of_batch_size(self, field):
        for q in (1, 2, 3, 4):
            one = sampling._haar_batch(field, q, 1, np.random.default_rng(7))
            full = sampling._haar_batch(field, q, sampling.SHARD_SIZE,
                                        np.random.default_rng(7))
            np.testing.assert_allclose(one[0], full[0], rtol=0, atol=1e-15)

    def test_unitarity(self):
        gen = np.random.default_rng(0)
        for field, q in (("r", 3), ("c", 3), ("h", 2)):
            e = algebra._chi_full(sampling._haar_batch(field, q, 100, gen))
            np.testing.assert_allclose(
                _ct_ref(e) @ e, np.broadcast_to(np.eye(e.shape[-1]), e.shape),
                atol=1e-12)

    def test_quaternion_structure_preserved(self):
        """The full form of an H draw is the chi image of a quaternion
        matrix: re-extraction and embedding round-trip."""
        gen = np.random.default_rng(1)
        u = algebra._chi_full(sampling._haar_batch("h", 3, 100, gen))
        assert u.shape == (100, 6, 6)
        np.testing.assert_array_equal(algebra._chi(algebra._chi_inv(u)), u)

    def test_first_entry_second_moment(self):
        """E|u_11|^2 = 1/q for a Haar column."""
        n = 4000
        for field, q in (("r", 3), ("c", 3), ("h", 3)):
            gen = np.random.default_rng(2)
            us = algebra._chi_full(sampling._haar_batch(field, q, n, gen))
            col = us[:, :, 0]
            s = np.sum(np.abs(col) ** 2, axis=1)
            np.testing.assert_allclose(s, np.ones(n), atol=1e-10)
            ent = np.abs(us[:, 0, 0]) ** 2
            if field == "h":
                ent = ent + np.abs(us[:, 0, 1]) ** 2
            err = ent.std(ddof=1) / np.sqrt(n)
            assert abs(ent.mean() - 1.0 / q) < 4.0 * err

    def test_reproducible(self):
        a = sampling._haar_batch("c", 2, 100, np.random.default_rng(5))
        b = sampling._haar_batch("c", 2, 100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestBallSampler:
    """The triangular parametrization of the matrix ball."""

    def test_row_norm_beta_moments(self):
        """|y_j|^2 is Beta(dq/2, d(p-q-j+1)/2); check the mean."""
        n = 20000
        for field, q, p in (("r", 2, 5.0), ("c", 2, 4.0), ("h", 2, 4.5)):
            d = algebra.field_dim(field)
            gen = np.random.default_rng(3)
            rows = sampling._ball_rows(field, q, p, n, gen)
            for j, y in enumerate(rows, start=1):
                e = y.shape[1]
                s = np.sum(np.abs(y) ** 2, axis=(1, 2)) / e
                a = 0.5 * d * q
                b = 0.5 * d * (p - q - j + 1)
                want = a / (a + b)
                err = s.std(ddof=1) / np.sqrt(n)
                assert abs(s.mean() - want) < 4.0 * err, (field, j)

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("boundary", [False, True],
                             ids=["interior", "boundary"])
    def test_row_law(self, field, q, boundary):
        """|y_j|^2 has the mean and variance of Beta(a, b), a = dq/2 and
        b = d(p-q-j+1)/2, and is uncorrelated with the direction, read
        as the share |y_j1|^2 / |y_j|^2 of the first F-coordinate; each
        within 5 standard errors.  At the boundary p = 2q - 1 the last
        factor is a unit vector."""
        n = 40000
        d = algebra.field_dim(field)
        step = 2 if field == "h" else 1
        p = 2 * q - 1 if boundary else 2 * q + 1.5
        gen = np.random.default_rng(4000 + 10 * q + boundary)
        rows = sampling._ball_rows(field, q, p, n, gen)
        for j, y in enumerate(rows, start=1):
            sq = np.abs(y[:, 0]) ** 2
            s = sq.sum(axis=1)
            a, b = 0.5 * d * q, 0.5 * d * (p - q - j + 1)
            if b == 0.0:
                np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-15)
                continue
            mean = a / (a + b)
            var = a * b / ((a + b) ** 2 * (a + b + 1))
            dev = s - s.mean()
            assert abs(s.mean() - mean) <= 5.0 * np.sqrt(var / n), j
            var_se = np.sqrt(np.var(dev ** 2) / n)
            assert abs(np.var(s) - var) <= 5.0 * var_se, j
            share = sq[:, :step].sum(axis=1) / s
            cross = dev * (share - share.mean())
            assert abs(cross.mean()) <= 5.0 * cross.std() / np.sqrt(n), j

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("p", [5.0, 6.5], ids=["boundary", "interior"])
    def test_row_variates_pinned(self, field, p):
        """Each row draws one (d, q, n) normal block, then one Gamma block
        of shape d(p-q-j+1)/2, which the boundary's last row skips: the
        rows rebuilt by hand from a fresh ball stream equal _ball_rows to
        the bit, and both streams end at the same state."""
        q, n = 3, 257
        d = algebra.field_dim(field)
        gen = sampling.shard_stream(9, 2, sampling.ROLE_BALL)
        got = sampling._ball_rows(field, q, p, n, gen)
        ref = sampling.shard_stream(9, 2, sampling.ROLE_BALL)
        for j, y in enumerate(got, start=1):
            g = ref.standard_normal((d, q, n))
            r = g[0, 0] * g[0, 0]
            for x in g.reshape(d * q, n)[1:]:
                r = r + x * x
            if j < q or p != 2 * q - 1:
                r = r + 2.0 * ref.standard_gamma(0.5 * d * (p - q - j + 1),
                                                  n)
            c = g / np.sqrt(r)
            if field == "r":
                want = c[0]
            elif field == "c":
                want = c[0] + 1j * c[1]
            else:
                want = np.empty((2 * q, n), complex)
                want[0::2], want[1::2] = c[0] + 1j * c[1], c[2] + 1j * c[3]
            assert y.shape == (n, 1, want.shape[0])
            np.testing.assert_array_equal(y[:, 0], want.T)
        assert gen.random() == ref.random()

    def test_ball_constraint(self):
        gen = np.random.default_rng(4)
        for field, q, p in (("r", 2, 3.5), ("c", 3, 6.0), ("h", 2, 4.0)):
            w = sampling._mp_batch(field, q, p, 200, gen)
            s1 = np.linalg.svd(w, compute_uv=False)[:, 0]
            assert np.all(s1 < 1.0)

    def test_degenerate_sits_on_boundary(self):
        gen = np.random.default_rng(5)
        for field, q in (("r", 2), ("c", 2), ("h", 2)):
            w = sampling._mp_batch(field, q, 2 * q - 1, 100, gen)
            s1 = np.linalg.svd(w, compute_uv=False)[:, 0]
            np.testing.assert_allclose(s1, 1.0, atol=1e-8)

    def test_native_shapes(self):
        """Ball draws are full (n, e, e) stacks from _mp_batch and the
        (n, q, 2q) even rows over H from _p_map_batch."""
        gen = np.random.default_rng(6)
        assert sampling._mp_batch("h", 2, 4.0, 5, gen).shape == (5, 4, 4)
        assert sampling._mp_batch("r", 3, 6.0, 5, gen).shape == (5, 3, 3)
        rows = sampling._ball_rows("h", 2, 4.0, 5, gen)
        assert sampling._p_map_batch(rows).shape == (5, 2, 4)

    def test_p_range_enforced(self):
        """Below p = 2q - 1 the last row's Gamma shape d(p - 2q + 1)/2 is
        negative, and the draw is refused, not made from no ball law."""
        for field in ("r", "c", "h"):
            with pytest.raises(ValueError, match="shape < 0"):
                sampling._mp_batch(field, 2, 2.9, 4, np.random.default_rng(0))


class TestBatchLastKernels:
    """The shard kernels after the draws, p_map -> build_g -> log-minors,
    against batch-first references built from @ and LAPACK."""

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_p_map_matches_reference(self, field, q):
        gen = np.random.default_rng(30 + q)
        for p in (2 * q - 1, 2 * q + 1.5):
            rows = sampling._ball_rows(field, q, p, 1000, gen)
            want = _p_map_reference([np.ascontiguousarray(
                _factor_full(field, y)) for y in rows])
            got = algebra._chi_full(sampling._p_map_batch(rows))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", ["g", "g-tilde", None])
    def test_chain_matches_reference(self, field, q, variant):
        """variant None is the w = None law of psi."""
        gen = np.random.default_rng(40 + q)
        t = np.linspace(1.2, 0.3, q)
        u = sampling._haar_batch(field, q, 1000, gen)
        rows = sampling._ball_rows(field, q, 2 * q + 1.0, 1000, gen)
        w_ref = None if variant is None else _p_map_reference(
            [np.ascontiguousarray(_factor_full(field, y)) for y in rows])
        w = None if variant is None else sampling._p_map_batch(rows)
        g = algebra._build_g_embedded(t, u, w, field, variant or "g")
        g_ref = _g_reference(t, np.ascontiguousarray(algebra._chi_full(u)),
                             w_ref, field, variant or "g")
        worked = np.tril(np.ones(g_ref.shape[1:], bool))
        g_rows = g_ref
        if field == "h":  # g is the even rows; the odd are never formed
            worked, g_rows = worked[0::2], g_ref[:, 0::2]
        scale = np.abs(g_ref).max()
        np.testing.assert_allclose(g[:, worked], g_rows[:, worked], rtol=0,
                                   atol=1e-13 * scale)
        assert np.all(g[:, ~worked] == 0.0)
        logs = algebra._log_minors_embedded(g, field)
        np.testing.assert_allclose(logs, _log_minors_reference(g_ref, field),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_quaternion_even_rows_keep_the_bits(self, q):
        """Over H the shard keeps only even rows.  Expanded, its draws are
        the full-row kernels' to the bit, and every kernel, given the
        even-row or the full form of u and w, returns the even rows of
        the full-row kernel's g to the bit."""
        n, seed, shard = 300, 4, 1
        t = np.linspace(1.3, 0.2, q)
        u = sampling.draw_haar("h", q, seed, shard, n)
        assert u.shape == (n, q, 2 * q)
        u_full = algebra._chi_full(u)
        np.testing.assert_array_equal(u_full, _haar_full_ref(
            "h", q, n,
            sampling.shard_stream(seed, shard, sampling.ROLE_UNITARY)))
        for p in (2 * q - 1, 2 * q + 1.5):
            w = sampling.draw_ball("h", q, p, seed, shard, n)
            assert w.shape == (n, q, 2 * q)
            w_full = algebra._chi_full(w)

            def stream():
                return sampling.shard_stream(seed, shard, sampling.ROLE_BALL)

            np.testing.assert_array_equal(
                w_full, sampling._mp_batch("h", q, p, n, stream()))
            np.testing.assert_array_equal(w_full, _p_map_full_ref(
                sampling._ball_rows("h", q, p, n, stream())))
            for variant in ("g", "g-tilde"):
                for uu, ww in ((u_full, w_full), (u_full, None),
                               (None, w_full)):
                    want = _build_g_full_ref(t, uu, ww, variant)[:, 0::2]
                    for even in (False, True):
                        got = algebra._build_g_embedded(
                            t, u if even and uu is not None else uu,
                            w if even and ww is not None else ww, "h",
                            variant)
                        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_draws_are_batch_last(self, field):
        """Draws are (n, e, e) views, and the ball rows one (q, n, 1, E)
        array, whose batch axis has unit stride."""
        gen = np.random.default_rng(50)
        rows = sampling._ball_rows(field, 3, 6.0, 64, gen)
        assert rows.strides[1] == rows.itemsize
        for x in (sampling._haar_batch(field, 3, 64, gen),
                  sampling._mp_batch(field, 3, 6.0, 64, gen)):
            assert x.strides[0] == x.itemsize

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_p_map_batch_first_rows_same_bits(self, field):
        rows = sampling._ball_rows(field, 3, 6.0, 300,
                                   np.random.default_rng(51))
        first = np.ascontiguousarray(rows)
        np.testing.assert_array_equal(sampling._p_map_batch(first),
                                      sampling._p_map_batch(rows))

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_p_map_turns_the_rows_into_w(self, field):
        """w is made in the row factors' own memory: no second array."""
        rows = sampling._ball_rows(field, 3, 6.0, 64,
                                   np.random.default_rng(52))
        assert np.shares_memory(sampling._p_map_batch(rows), rows)


class TestKappa:
    """The closed-form ball mass against rejection sampling."""

    def test_known_exact_values(self):
        np.testing.assert_allclose(sampling.kappa(3.0, 1, 1), 2.0)
        np.testing.assert_allclose(sampling.kappa(2.0, 2, 1), np.pi)

    def test_rejection_oracle(self):
        for p, d, q in ((5.0, 1, 2), (6.0, 2, 2), (7.0, 4, 1)):
            mean, err = kappa_rejection(p, d, q, 120000, seed=11)
            assert abs(sampling.kappa(p, d, q) - mean) < 4.0 * err

    def test_field_dimension_validated(self):
        with pytest.raises(ValueError, match="d must be 1, 2 or 4"):
            sampling.kappa(5.0, 3, 1)

    def test_needs_integrable_density(self):
        with pytest.raises(ValueError):
            sampling.kappa(3.0, 1, 2)


class TestShardEngine:
    """Deterministic sharding of Monte-Carlo sums."""

    def test_shard_plan_totals(self):
        assert sampling.shard_plan(1) == [1]
        assert sum(sampling.shard_plan(100000)) == 100000
        assert max(sampling.shard_plan(100000)) <= sampling.SHARD_SIZE

    def test_shard_plan_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            sampling.shard_plan(0)

    def test_non_finite_estimate_rejected(self):
        def shard_fn(shard, count):
            return sampling.shard_moments([np.full((count, 1), np.inf)])

        with pytest.raises(ValueError):
            sampling.mc_run(shard_fn, 100)

    def test_seed_is_not_truncated(self):
        """int(seed) made 1.9 draw seed 1's numbers while the estimate
        recorded 1.9; a whole float still keys its integer's stream."""
        draw = [sampling.shard_stream(seed, 2, sampling.ROLE_BALL)
                .standard_normal(4) for seed in (1, 1.0, np.int64(1))]
        assert all(np.array_equal(x, draw[0]) for x in draw)
        with pytest.raises(ValueError, match="^seed must be at least 0 and "
                           "whole, not 1.9$"):
            sampling.shard_stream(1.9, 2, sampling.ROLE_BALL)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError,
                           match="^seed must be at least 0 and whole, not -1$"):
            sampling.shard_stream(-1, 0, sampling.ROLE_UNITARY)

    def test_sequence_seed_rejected(self):
        """SeedSequence takes a list of ints, so [3] once keyed a stream of
        its own; a seed is one whole number, and every evaluator says so
        with a ValueError naming seed, exact paths and the memo included."""
        calls = [
            lambda: sampling.shard_stream([3], 0, sampling.ROLE_BALL),
            lambda: sampling.draw_haar("r", 2, [3], 0, 100),
            lambda: hyper_bc.eval_psi("r", [1, 0.5], [0.5, 0.2],
                                      samples=100, seed=[3]),
            lambda: hyper_bc.eval_psi("r", [1], [0.5], samples=100,
                                      seed=(3,)),
            lambda: bessel.bessel_phi_tilde("r", 3.0, [1.0], [0.5],
                                            mode="integral", samples=100,
                                            seed=np.array([3]))]
        for call in calls:
            with pytest.raises(ValueError, match="^seed must be at least 0 "
                               r"and whole, not [\[(]3,?[\])]$"):
                call()

    def test_one_sample_rejected(self):
        """One draw has no spread, so its standard error read 0: eval-bc
        printed "stderr": 0.0 beside "pass": true.  An estimate needs two
        samples, in mc_run and on the exact paths that draw nothing."""
        calls = [
            lambda: sampling.mc_run(lambda i, n: sampling.shard_moments(
                [np.ones((n, 1))]), 1),
            lambda: hyper_bc._check_run(1, 0, 1),
            lambda: hyper_bc.eval_phi_bc("r", 5, [1, 0.5], [0.8, 0.4],
                                         samples=1),
            lambda: hyper_bc.eval_psi("r", [1.0], [0.5], samples=1.0),
            lambda: bessel.bessel_phi_tilde("r", 5, [1.0], [0.0],
                                            mode="integral", samples=1)]
        for call in calls:
            with pytest.raises(ValueError, match=r"^samples must be at least "
                               r"2 and whole, not 1(\.0)?$"):
                call()

    @pytest.mark.parametrize("samples", [0, 1])
    def test_samples_below_two_share_one_message(self, samples):
        """0 and 1 broke two rules with two messages, "at least 1 and
        whole" and "at least 2 for a stderr"; both break the one rule."""
        with pytest.raises(ValueError) as info:
            sampling._check_samples(samples)
        assert str(info.value) == \
            "samples must be at least 2 and whole, not %d" % samples

    def test_shard_moments_bits(self):
        """Value sums, and sums of |v - mean|^2 about each column mean."""
        gen = np.random.default_rng(8)
        real = gen.standard_normal((300, 3))
        cplx = real + 1j * gen.standard_normal((300, 3))
        blocks = (real, cplx)
        sums = [x.sum(axis=0) for x in blocks]
        m2s = [(np.abs(x - s / len(x)) ** 2).sum(axis=0)
               for x, s in zip(blocks, sums)]
        got_sums, got_m2s = sampling.shard_moments([x.copy() for x in blocks])
        np.testing.assert_array_equal(got_sums, np.concatenate(sums))
        np.testing.assert_array_equal(got_m2s, np.concatenate(m2s))

    def test_stderr_of_nearly_constant_values(self):
        """Centred moments keep the stderr of values that differ only in
        their last digits, which the raw second moment cancels to 0."""
        sizes = sampling.shard_plan(20000)

        def values(shard, count):
            noise = sampling.shard_stream(2, shard, 2).standard_normal(
                (count, 1))
            return 1.0 + 1e-13 * noise

        _, err, _ = sampling.mc_run(
            lambda i, n: sampling.shard_moments([values(i, n)]), 20000)
        vals = np.concatenate([values(i, n) for i, n in enumerate(sizes)])
        np.testing.assert_allclose(err, vals.std(axis=0) / np.sqrt(20000),
                                   rtol=1e-3)

    def test_shard_moments_drops_each_block(self):
        """Block k is freed before block k + 1 is built."""
        refs = []

        def block(k):
            vals = np.full((64, 2), k + 1j)
            refs.append(weakref.ref(vals))
            return vals

        def blocks():
            for k in range(3):
                assert all(ref() is None for ref in refs), \
                    "block %d still alive" % (k - 1)
                yield block(k)

        sums, _ = sampling.shard_moments(blocks())
        np.testing.assert_array_equal(sums.real, np.repeat([0, 64, 128], 2))

    def test_streams_differ_by_role(self):
        a = sampling.shard_stream(0, 0, sampling.ROLE_UNITARY)
        b = sampling.shard_stream(0, 0, sampling.ROLE_BALL)
        assert a.random() != b.random()

    def test_streams_reproducible(self):
        a = sampling.shard_stream(9, 3, 1).random(4)
        b = sampling.shard_stream(9, 3, 1).random(4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed,shard,role,first", [
        (0, 0, 0, [0.6369616873214543, 0.2697867137638703,
                   0.04097352393619469, 0.016527635528529094]),
        (9, 3, 1, [0.16109635636534192, 0.7271449845449846,
                   0.737220214590417, 0.7529392075599967]),
        (5, 2, 3, [0.44194661717283856, 0.3211256350053837,
                   0.8798894570541248, 0.7024156594988835]),
    ])
    def test_stream_variates_pinned(self, seed, shard, role, first):
        """The stream of (seed, shard, role) is keyed by
        SeedSequence((seed, 4 shard + role)); its first variates are
        frozen, so every draw of every estimate is."""
        np.testing.assert_array_equal(
            sampling.shard_stream(seed, shard, role).random(4), first)

    def test_worker_count_is_invisible(self):
        def shard_fn(shard, count):
            gen = sampling.shard_stream(0, shard, 2)
            return sampling.shard_moments([gen.random((count, 1))])

        one = sampling.mc_run(shard_fn, 50000, workers=1)
        four = sampling.mc_run(shard_fn, 50000, workers=4)
        np.testing.assert_array_equal(one[0], four[0])
        np.testing.assert_array_equal(one[1], four[1])
        np.testing.assert_array_equal(one[2], four[2])

    def test_keep_parts_sums_to_totals(self):
        def shard_fn(shard, count):
            gen = sampling.shard_stream(1, shard, 2)
            return sampling.shard_moments([gen.random((count, 1))])

        mean, _, parts = sampling.mc_run(shard_fn, 30000)
        assert len(parts) == len(sampling.shard_plan(30000))
        np.testing.assert_allclose(
            30000 * mean[0], sum(p[0] for p in parts), rtol=1e-12)


class TestHaarMemo:
    """draw_haar keeps the two most recent shards' draws, read-only."""

    ARGS = ("c", 2, 3, 1, 100)

    def test_repeated_call_shares_the_draw(self):
        u = sampling.draw_haar(*self.ARGS)
        assert sampling.draw_haar(*self.ARGS) is u
        assert sampling.draw_haar("c", 2, 3.0, 1, 100) is u
        for k, other in enumerate(("r", 3, 4, 2, 101)):
            args = list(self.ARGS)
            args[k] = other
            assert sampling.draw_haar(*args) is not u, args

    def test_checks_the_seed_first(self):
        with pytest.raises(ValueError,
                           match="^seed must be at least 0 and whole, not 3$"):
            sampling.draw_haar("c", 2, np.array(3), 1, 100)

    @pytest.mark.parametrize("field", ["r", "c", "h"])
    def test_draw_keeps_its_bits(self, field):
        u = sampling.draw_haar(field, 3, 5, 2, 200)
        want = sampling._haar_batch(field, 3, 200, sampling.shard_stream(
            5, 2, sampling.ROLE_UNITARY))
        assert u.shape == want.shape and u.strides == want.strides
        np.testing.assert_array_equal(u, want)

    def test_draw_is_read_only(self):
        u = sampling.draw_haar(*self.ARGS)
        for x in (u, u.base, u[:, 0]):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(u, 2.0, out=u)

    def test_same_seed_calls_draw_haar_once(self, monkeypatch):
        """A grid of integral phi-tilde calls on one seed draws each of
        its two shards' unitaries once, whatever p, lam and t."""
        batches = []

        def spy(*args, draw=sampling._haar_batch):
            batches.append(args[:3])
            return draw(*args)

        monkeypatch.setattr(sampling, "_haar_batch", spy)
        for p in (3.0, 4.0, 7.0):
            for x in (0.5, 1.5):
                bessel.bessel_phi_tilde(
                    "r", p, [x, 0.5 * x], [1.0, 0.5 * x], mode="integral",
                    samples=2 * sampling.SHARD_SIZE, seed=13)
        assert batches == [("r", 2, sampling.SHARD_SIZE)] * 2

    def test_warm_memo_keeps_worker_invariance(self):
        """Five shards on up to four threads, more than the cores, evict
        each other's draws from the shared memo while they run, with the
        interpreter switching threads as often as it can; the bytes
        match one worker's, on a cold memo (the conftest clears it) and on
        a warm one."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = [hyper_bc.eval_phi_bc(
                "c", 5.0, [1.0, 0.5j], [0.8, 0.3],
                samples=5 * sampling.SHARD_SIZE - 7, seed=6, workers=workers)
                for workers in (4, 1, 1, 2, 4)]
        finally:
            sys.setswitchinterval(interval)
        assert len({(r.value, r.stderr) for r in run}) == 1


COLUMNS = {
    "phi": lambda field, q: (hyper_bc._phi_columns, np.linspace(
        0.9, 0.2, q), 0.5 * (1j * np.linspace(1.0, -0.5, q) - 1.0)[:, None]),
    "phase": lambda field, q: (bessel._phase_columns, np.linspace(
        0.9, 0.2, q), np.linspace(1.0, -0.5, q)),
    "top-moment": lambda field, q: (experiments._top_moment, None, 2),
}


@pytest.mark.parametrize("name", list(COLUMNS))
@pytest.mark.parametrize("q", [1, 2, 4])
@pytest.mark.parametrize("field", ["r", "c", "h"])
def test_column_functions_only_read_the_draws(field, q, name):
    """The memo hands one u to every call with its key, so no column
    function writes into u or w: each runs on read-only draws (over H
    the phase scales only its fresh even columns of u) and gives the
    bits it gives on writable copies."""
    func, t, param = COLUMNS[name](field, q)
    n, seed = 50, 8
    u = sampling._haar_batch(field, q, n, sampling.shard_stream(
        seed, 0, sampling.ROLE_UNITARY))
    u.flags.writeable = False
    for w in (sampling.draw_ball(field, q, 2 * q + 1.5, seed, 0, n),
              None if name == "phi" else
              sampling.draw_ball(field, q, 2 * q - 1, seed, 0, n)):
        want = func(field, t, param, lambda: u.copy(order="K"),
                    None if w is None else w.copy(order="K"))
        if w is not None:
            w.flags.writeable = False
        got = func(field, t, param, lambda: u, w)
        assert got.tobytes() == want.tobytes()
