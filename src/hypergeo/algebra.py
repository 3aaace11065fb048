"""Matrix algebra over the real, complex, and quaternion scalar fields.

`matmul` and `singular_values` take matrices in native form:

- real and complex matrices are plain numpy arrays of shape (..., m, n);
- quaternion matrices are real arrays of shape (..., m, n, 4) whose last
  axis holds the components of each entry in (1, i, j, k) order;
- quaternion computations route through the complex embedding `_chi`,
  under which a q x q quaternion matrix becomes a 2q x 2q complex matrix.

The shard kernels `_build_g_embedded`, `_log_minors_embedded` and
`_phase_trace` take (n, e, e) stacks and work batch-last: `_batch_last`
views a stack as (e, e, n), whose entry (i, j) is one length-n vector,
contiguous for the samplers' draws, and every step is a vector
operation over such entries, with no per-matrix BLAS or LAPACK call.

Over H (e = 2q) the shard keeps only the even rows of every chi matrix:
chi maps the quaternion entry (a1, a2) to the block
[[a1, a2], [-conj(a2), conj(a1)]], so each odd row is a conj/negate
shuffle of the even row above it (`_odd_rows`), and the LDL* pivots come
in equal pairs.  The samplers hand on (n, q, 2q) even-row stacks, the
kernels take either those or full (n, 2q, 2q) stacks (a stack with as
many rows as columns is full), form an odd row only where they read it
(`_row`), and `_build_g_embedded` returns the even rows of g, of which
only the lower triangle that the log-minors read is formed.  Only the
samplers share this layout; a caller that needs the full 2q x 2q form
gets it from `_chi_full`.
"""

import numpy as np

FIELD_DIMS = {"r": 1, "c": 2, "h": 4}

_FIELD_ALIASES = {
    "r": "r",
    "real": "r",
    "c": "c",
    "complex": "c",
    "h": "h",
    "quaternion": "h",
}


def normalize_field(field):
    """Canonical one-letter tag for a field given by letter or full name."""
    key = str(field).strip().lower()
    if key not in _FIELD_ALIASES:
        raise ValueError(
            "unknown scalar field %r (expected r, c, h or a full name)" % (field,)
        )
    return _FIELD_ALIASES[key]


def field_dim(field):
    """Real dimension d of the scalar field: 1, 2, or 4."""
    return FIELD_DIMS[normalize_field(field)]


def _chi(a):
    """Interleaved complex embedding: entry (i, j) becomes a 2 x 2 block.

    The package's one quaternion embedding.  The interleaved layout makes
    leading r x r quaternion blocks correspond to leading 2r x 2r complex
    blocks, so a single LDL* factorization yields every principal
    minor.  The even rows interleave a1 and a2; `_odd_rows` forms the rest.
    """
    a = np.asarray(a, float)
    out = np.empty(a.shape[:-3] + (2 * a.shape[-3], 2 * a.shape[-2]), complex)
    out[..., 0::2, 0::2] = a[..., 0] + 1j * a[..., 1]
    out[..., 0::2, 1::2] = a[..., 2] + 1j * a[..., 3]
    rows = _batch_last(out)
    _odd_rows(rows[0::2], out=rows[1::2])
    return out


def _chi_inv(c):
    """Invert _chi on matrices with quaternionic block structure."""
    a1 = c[..., 0::2, 0::2]
    a2 = c[..., 0::2, 1::2]
    return np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-1)


def matmul(a, b, field):
    """Matrix product over the field (through the embedding for H)."""
    field = normalize_field(field)
    if field == "h":
        return _chi_inv(_chi(a) @ _chi(b))
    return np.asarray(a) @ np.asarray(b)


def _batch_last(x):
    """(..., a, b) stack -> (a, b, ...) view: entry (i, j) is a vector
    over the batch."""
    return np.moveaxis(x, (-2, -1), (0, 1))


def _batch_first(x):
    """Inverse of _batch_last."""
    return np.moveaxis(x, (0, 1), (-2, -1))


def _dot(x, y):
    """sum_k x[k] y[k] over the first axes, as in-order multiply-adds of
    batch-last slabs, so the bits do not depend on the memory layout."""
    total = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        total += a * b
    return total


def _odd_rows(even, out=None):
    """The odd rows (r, E, ...) of a chi-structured batch-last matrix from
    its even rows: chi sends the quaternion entry (a1, a2) to the block
    [[a1, a2], [-conj(a2), conj(a1)]].  Written into out if given."""
    out = np.empty_like(even) if out is None else out
    np.conj(even[:, 1::2], out=out[:, 0::2])
    np.negative(out[:, 0::2], out=out[:, 0::2])
    np.conj(even[:, 0::2], out=out[:, 1::2])
    return out


def _chi_full(x):
    """The full (..., e, e) form of a kernel stack: x itself if it has as
    many rows as columns, else the chi stack (..., 2r, 2r) whose even
    rows are x (..., r, 2r), in batch-last memory ordered as x's is."""
    xb = _batch_last(x)
    if len(xb) == xb.shape[1]:
        return x
    full = np.empty_like(xb, shape=(2 * len(xb),) + xb.shape[1:])
    full[0::2] = xb
    _odd_rows(xb, out=full[1::2])
    return _batch_first(full)


def _worked_rows(x, step):
    """The rows (r, E, ...) of a stack x that the kernels work, batch-last:
    every row, or over H (step 2) the even rows, read as a view of a full
    stack (as many rows as columns) or taken as they are from an
    even-row stack."""
    xb = _batch_last(x)
    return xb[::step] if len(xb) == xb.shape[1] else xb


def _row(x, i, step):
    """Row i of a batch-last matrix from its worked rows x (see
    _worked_rows); over H an odd row is formed from the even row above."""
    if i % step == 0:
        return x[i // step]
    return _odd_rows(x[i // step:i // step + 1])[0]


def _log_minors_embedded(m, field):
    """Logs of the principal minors of a cone point given in embedded form.

    LDL* pivots encode the minors: the r-th minor is the product of the
    first r pivots.  Elimination runs batch-last on the lower triangle,
    one length-n vector per entry.  Over H the pivots come in equal pairs
    and the Dieudonne minor takes one of each pair, so only the even rows
    are worked: each 2 x 2 pivot block is a real multiple of the identity,
    and the odd-row entries a step reads are chi shuffles of even ones.
    m is an (n, e, e) stack, or over H also the (n, q, 2q) stack of its
    even rows, as _build_g_embedded returns it; only the lower triangle
    is read.  Returns the (n, q) logs.  A pivot below 1e-13 (the square
    of a Cholesky diagonal entry) means the input left the cone; a NaN
    pivot passes on as a NaN log.
    """
    step = 2 if field == "h" else 1
    a = _worked_rows(m, step).copy()  # row r is row step * r of m
    e = a.shape[1]
    total, logs = 0.0, []
    for r in range(len(a)):
        k = step * r
        piv = a[r, k].real.copy()
        if np.any(piv < 1e-13):
            raise ValueError("matrix is not positive definite: pivot below "
                             "tolerance")
        total = total + np.log(piv)
        logs.append(total)
        # col[c, j] is the conjugate of entry (k + step + j, k + c) of the
        # Schur complement.
        col = np.empty((step, e - k - step) + a.shape[2:], a.dtype)
        col[:, ::step] = np.conj(np.swapaxes(a[r + 1:, k:k + step], 0, 1))
        if step == 2:
            col[0, 1::2] = -a[r + 1:, k + 1]
            col[1, 1::2] = a[r + 1:, k]
        for r2 in range(r + 1, len(a)):
            i = step * r2
            low = a[r2, k:k + step] / piv
            a[r2, k + step:i + 1] -= _dot(low, col[:, :i + 1 - k - step])
    return np.stack(logs, axis=-1)


def _power_from_logs(logs, nu):
    """Power function exp(diff(logs) @ nu) from logs of principal minors.

    That is the product over r of Delta_r raised to nu_r - nu_(r+1)
    (with nu_(q+1) = 0); summing logs keeps large exponents from
    overflowing intermediate products.  nu is a length-q exponent
    vector, or a (q, m) matrix with one power function per column.
    """
    dlog = np.diff(logs, axis=-1, prepend=0.0)
    # Two real products written into one complex buffer, not the complex
    # product dlog @ nu: that casts dlog to complex and runs zgemm, after
    # which numpy's complex exp on an (8192, 51) block took 200-270 ms
    # instead of 15-20 ms (SkylakeX, OpenBLAS SkylakeX kernels), which
    # fits an AVX/SSE transition penalty left behind by the BLAS kernel.
    out = np.empty(dlog.shape[:-1] + nu.shape[1:], complex)
    np.matmul(dlog, nu.real, out=out.real)
    np.matmul(dlog, nu.imag, out=out.imag)
    return np.exp(out, out=out)[()]


def _phase_trace(w, t, haar, lam, field):
    """Re tr(w diag(t) u diag(lam)) of each draw in a shard, the Bessel
    phase; u = haar() is fetched after w is scaled (the other order
    re-faulted point-grid's heap pages, +16% wall_s on 2 x86 vCPUs).  Over
    H it is half that of the chi images: entries (2m, 2m) from w's even
    rows and u's even columns, (2i + 1, j) of those -conj(a2) of u_ij."""
    step = 2 if field == "h" else 1
    w = _worked_rows(w, step) * np.repeat(t, step)[:, None]
    u = _worked_rows(haar(), step)
    if step == 2:  # u's even columns, a fresh array that lam scales in place
        cols = np.empty((u.shape[1], len(u)) + u.shape[2:], u.dtype)
        cols[0::2] = u[:, 0::2]
        np.conj(u[:, 1::2], out=cols[1::2])
        np.negative(cols[1::2], out=cols[1::2])
        u = np.multiply(cols, lam[:, None], out=cols)
    else:
        u = u * lam[:, None]
    return np.einsum("ijn,jin->n", w, u).real


def singular_values(a, field):
    """Singular values in descending order.

    Quaternion input routes through the chi embedding, whose 2q singular
    values come in equal pairs; one of each pair is returned.  The pairs
    agree to LAPACK's backward error, which is relative to the largest
    singular value.  A non-finite entry is a ValueError naming a.
    """
    field = normalize_field(field)
    a = _check_finite("a", a)
    if field == "h":
        return np.linalg.svd(_chi(a), compute_uv=False)[..., 0::2]
    return np.linalg.svd(a, compute_uv=False)


def _build_g_embedded(t, u, w, field, variant):
    """The integrand argument in embedded form, without the ball check.

    A = diag(cosh t) + diag(sinh t) w; returns u* (A* A) u for variant
    "g" and u* (A A*) u for "g-tilde", both as C* C with C = A u or A* u.
    u may be None when conjugation is irrelevant (rank one, where minors
    are conjugation invariant).  w = None is the p -> infinity law w = 0:
    A = diag(cosh t) commutes with A*, so both variants give psi's
    argument u* cosh^2(t) u.

    u and w are (..., e, e) stacks, in the shard views of batch-last
    memory; over H either may also be the (..., q, 2q) stack of its even
    rows.  Only the worked rows of C are formed: all of them, over H the
    even ones.  The summed index is outermost, i in C = A u and k in
    C* C, so each odd row of u or C is formed once, where it is read,
    and every entry is summed in index order.  Only what
    _log_minors_embedded reads of C* C is formed: the lower triangle of
    its worked rows; the rest stays zero and is never filled in.  The
    diagonal is made real, so the triangle is that of an exactly
    Hermitian matrix.  Returns the worked rows of g: an (..., e, e)
    stack, or over H the (..., q, 2q) stack of its even rows.
    """
    step = 2 if field == "h" else 1
    tt = np.repeat(t, step)
    ch, sh = np.cosh(tt), np.sinh(tt)
    ub = None if u is None else _worked_rows(u, step)
    wb = None if w is None else _worked_rows(w, step)
    given = [x for x in (ub, wb) if x is not None]
    c = np.empty(np.broadcast_shapes(*(x.shape for x in given)),
                 np.result_type(*given))
    worked = range(0, tt.size, step)  # row step * r of C is c[r]
    if wb is None:
        for r, k in enumerate(worked):
            np.multiply(ch[k], ub[r], out=c[r])
    else:
        for i in range(tt.size):
            urow = None if ub is None else _row(ub, i, step)
            wrow = _row(wb, i, step) if variant == "g-tilde" else None
            for r, k in enumerate(worked):
                # entry (k, i) of A (variant "g") or of A*
                if variant == "g":
                    a = sh[k] * wb[r, i]
                else:
                    a = sh[i] * np.conj(wrow[k])
                if i == k:
                    a += ch[k]
                if ub is None:
                    c[r, i] = a
                elif i == 0:
                    np.multiply(a, urow, out=c[r])
                else:
                    c[r] += a * urow
    g = np.zeros_like(c)
    for k in range(tt.size):
        crow = _row(c, k, step)
        for r, i in enumerate(worked):
            if k == 0:
                np.multiply(np.conj(crow[i]), crow[:i + 1], out=g[r, :i + 1])
            else:
                g[r, :i + 1] += np.conj(crow[i]) * crow[:i + 1]
    for r, i in enumerate(worked):
        g[r, i] = g[r, i].real  # a fused complex product leaves an imag ulp
    return _batch_first(g)


def _check_finite(name, x):
    """x as an array, if every entry is finite; a ValueError names the
    argument and its first bad entry otherwise.  A NaN would pass every
    range check, since it compares false."""
    x = np.asarray(x)
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise ValueError("%s must be finite, not %r" % (name, bad[0].item()))
    return x


def _check_positive(name, x):
    """x as a float, if positive and finite; a ValueError names it
    otherwise."""
    x = float(x)
    if not 0 < x < np.inf:
        raise ValueError("%s must be positive and finite, not %r" % (name, x))
    return x


def _check_count(name, value, least=1):
    """value as an int (a sequence as a list of ints), if it is a whole
    number of at least `least`: 2.0 counts, 1.9 is not truncated, and an
    int passes exactly, however large; a ValueError names it otherwise."""
    many = np.ndim(value) > 0
    for v in value if many else [value]:
        if not (isinstance(v, (int, float, np.integer, np.floating))
                and float(v).is_integer() and v >= least):
            raise ValueError(
                ("%s entries must be integers of at least %d, not %s" if many
                 else "%s must be at least %d and whole, not %s")
                % (name, least, v))
    return [int(v) for v in value] if many else int(value)
