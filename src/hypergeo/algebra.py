"""Matrix algebra over the real, complex, and quaternion scalar fields.

Conventions used throughout the package:

- real and complex matrices are plain numpy arrays of shape (..., m, n);
- quaternion matrices are real arrays of shape (..., m, n, 4) whose last
  axis holds the components of each entry in (1, i, j, k) order;
- quaternion computations route through a complex embedding, under which
  a q x q quaternion matrix becomes a 2q x 2q complex matrix.
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


def identity(q, field):
    """The q x q identity matrix in the storage format of the field."""
    field = normalize_field(field)
    if field == "r":
        return np.eye(q)
    if field == "c":
        return np.eye(q, dtype=complex)
    out = np.zeros((q, q, 4))
    out[..., 0] = np.eye(q)
    return out


def _ct(m):
    """Conjugate transpose of a complex (or real) matrix stack."""
    return np.conj(np.swapaxes(m, -2, -1))


def adjoint(a, field):
    """Conjugate transpose; an involution over each of the three fields."""
    field = normalize_field(field)
    a = np.asarray(a)
    if field == "h":
        out = np.swapaxes(a, -3, -2).copy()
        out[..., 1:] = -out[..., 1:]
        return out
    if field == "c":
        return _ct(a)
    return np.swapaxes(a, -2, -1).copy()


def complex_embed(a, field="h"):
    """Complex 2q x 2p image of a quaternion matrix, in block layout.

    Writes a = a1 + j a2 with complex blocks a1, a2 and returns
    [[a1, a2], [-conj(a2), conj(a1)]].  The map is an algebra
    homomorphism and sends adjoints to adjoints.
    """
    if normalize_field(field) != "h":
        raise ValueError("complex_embed is defined for quaternion matrices only")
    a = np.asarray(a, float)
    if a.ndim < 3 or a.shape[-1] != 4:
        raise ValueError("quaternion matrices have shape (..., m, n, 4)")
    a1 = a[..., 0] + 1j * a[..., 1]
    a2 = a[..., 2] + 1j * a[..., 3]
    top = np.concatenate([a1, a2], axis=-1)
    bot = np.concatenate([-np.conj(a2), np.conj(a1)], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _chi(a):
    """Interleaved complex embedding: entry (i, j) becomes a 2 x 2 block.

    Same homomorphism as complex_embed up to a fixed permutation of rows
    and columns.  The interleaved layout makes leading r x r quaternion
    blocks correspond to leading 2r x 2r complex blocks, so a single
    Cholesky factorization yields every principal minor.
    """
    a = np.asarray(a, float)
    m, n = a.shape[-3], a.shape[-2]
    a1 = a[..., 0] + 1j * a[..., 1]
    a2 = a[..., 2] + 1j * a[..., 3]
    out = np.zeros(a.shape[:-3] + (2 * m, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = a1
    out[..., 0::2, 1::2] = a2
    out[..., 1::2, 0::2] = -np.conj(a2)
    out[..., 1::2, 1::2] = np.conj(a1)
    return out


def _chi_inv(c):
    """Invert _chi on matrices with quaternionic block structure."""
    a1 = c[..., 0::2, 0::2]
    a2 = c[..., 0::2, 1::2]
    return np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-1)


def _embed(a, field):
    """Complex working form: identity on R and C, interleaved chi on H."""
    if field == "h":
        return _chi(a)
    if field == "c":
        return np.asarray(a, complex)
    return np.asarray(a, float)


def matmul(a, b, field):
    """Matrix product over the field (through the embedding for H)."""
    field = normalize_field(field)
    if field == "h":
        return _chi_inv(_chi(a) @ _chi(b))
    return np.asarray(a) @ np.asarray(b)


def det_dieudonne(a, field):
    """Nonnegative determinant: |det| over R and C, sqrt(det chi) over H."""
    field = normalize_field(field)
    if field == "h":
        return np.sqrt(np.abs(np.linalg.det(_chi(a))))
    return np.abs(np.linalg.det(np.asarray(a)))


def principal_minor(x, field, r):
    """Dieudonne determinant of the top-left r x r block."""
    field = normalize_field(field)
    x = np.asarray(x)
    q = x.shape[-3] if field == "h" else x.shape[-2]
    if not 1 <= r <= q:
        raise ValueError("minor index r=%d out of range 1..%d" % (r, q))
    if field == "h":
        return det_dieudonne(x[..., :r, :r, :], field)
    return det_dieudonne(x[..., :r, :r], field)


def _log_minors_embedded(m, field):
    """Logs of the principal minors of a cone point given in embedded form.

    Cholesky pivots encode the minors: the r-th minor is the product of
    the first r squared pivots (first 2r over H, where the Dieudonne
    square root cancels the doubling).  A pivot whose square falls below
    1e-13 means the input left the cone.
    """
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite")
    piv = np.diagonal(low, axis1=-2, axis2=-1).real
    if np.any(piv * piv < 1e-13):
        raise ValueError("matrix is not positive definite: pivot below tolerance")
    cum = np.cumsum(np.log(piv), axis=-1)
    if field == "h":
        return cum[..., 1::2]
    return 2.0 * cum


def _log_minors(x, field):
    """Logs of the principal minors log Delta_1 .. log Delta_q, batched."""
    field = normalize_field(field)
    return _log_minors_embedded(_embed(x, field), field)


def power_function(x, field, lam):
    """Power function Delta_lam(x), the telescoped product of minor powers.

    Equals the product over r of Delta_r(x) raised to lam_r - lam_{r+1}
    (with lam_{q+1} = 0).  x may carry leading batch axes; lam is a
    length-q vector of complex exponents.  Working with logarithms of the
    minors keeps large exponents from overflowing intermediate products.
    """
    field = normalize_field(field)
    lam = np.asarray(lam, complex)
    logs = _log_minors(x, field)
    if lam.shape != logs.shape[-1:]:
        raise ValueError("lam must be a vector of length q")
    return _power_from_logs(logs, lam)


def _power_from_logs(logs, nu):
    """Power function exp(diff(logs) @ nu) from logs of principal minors.

    nu is a length-q exponent vector, or a (q, m) matrix with one
    power function per column.
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


def singular_values(a, field):
    """Singular values in descending order.

    Quaternion input routes through the chi embedding, whose 2q singular
    values come in equal pairs; the pairs are deduplicated back to q
    values after a consistency check.
    """
    field = normalize_field(field)
    if field == "h":
        s = np.linalg.svd(_chi(a), compute_uv=False)
        even, odd = s[..., 0::2], s[..., 1::2]
        assert np.allclose(even, odd, rtol=1e-9, atol=1e-9), (
            "embedded singular values failed to pair"
        )
        return even
    return np.linalg.svd(np.asarray(a), compute_uv=False)


def _build_g_embedded(t, u, w, field, variant):
    """The integrand argument in embedded form, without the ball check.

    A = diag(cosh t) + diag(sinh t) w; returns u* (A* A) u for variant
    "g" and u* (A A*) u for "g-tilde".  u may be None when conjugation
    is irrelevant (rank one, where minors are conjugation invariant).
    """
    tt = np.repeat(t, 2) if field == "h" else t
    a = np.sinh(tt)[:, None] * w
    idx = np.arange(tt.size)
    a[..., idx, idx] += np.cosh(tt)
    aa = _ct(a) @ a if variant == "g" else a @ _ct(a)
    if u is None:
        return aa
    return _ct(u) @ aa @ u


def build_g(t, u, w, field, variant="g"):
    """Argument matrix of the spherical-function integrand.

    With A = diag(cosh t) + diag(sinh t) w, returns u* (A* A) u for
    variant "g" and u* (A A*) u for variant "g-tilde".  Both lie in the
    cone of positive definite matrices whenever sigma_1(w) < 1.
    """
    field = normalize_field(field)
    if variant not in ("g", "g-tilde"):
        raise ValueError("variant must be 'g' or 'g-tilde'")
    t = np.asarray(t, float)
    assert t.ndim == 1, "t must be a vector"
    s1 = np.asarray(singular_values(w, field))[..., 0]
    if np.any(s1 >= 1.0):
        raise ValueError("w must have largest singular value < 1")
    g = _build_g_embedded(t, _embed(u, field), _embed(w, field), field, variant)
    g = 0.5 * (g + _ct(g))
    if field == "h":
        return _chi_inv(g)
    if field == "r":
        return g.real if np.iscomplexobj(g) else g
    return g
