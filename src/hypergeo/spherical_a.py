"""Spherical functions psi_lam of the compact-quotient A-type family.

psi is the Haar-unitary average of the power function of u* cosh^2(t) u.
At q = 1 the average is trivial and psi_lam(t) = (cosh t)^(i lam) holds
exactly, so that case bypasses the sampler.
"""

import numpy as np

from . import algebra, sampling
from .algebra import field_dim, normalize_field
from .hyper_bc import McEstimate, _nu_matrix, _shape_estimate


def rho_a(d, q):
    """Half-sum vector rho_i = d(q + 1 - 2i)/2."""
    i = np.arange(1, q + 1)
    return 0.5 * d * (q + 1 - 2 * i)


def _psi_columns(field, t, nu_mat, u):
    """Integrand values on one shard's Haar draws, one column per exponent.

    At t = 0 the integrand is identically 1.
    """
    if np.all(t == 0.0):
        return np.ones((u.shape[0], nu_mat.shape[1]), complex)
    tt = np.repeat(t, 2) if field == "h" else t
    m = (algebra._ct(u) * np.cosh(tt) ** 2) @ u
    m = 0.5 * (m + algebra._ct(m))
    return algebra._power_from_logs(algebra._log_minors_embedded(m, field),
                                    nu_mat)


def eval_psi(field, lam, t, samples=100000, seed=0, workers=1):
    """Monte-Carlo value of psi_lam(t); exact at q = 1.

    lam is a length-q complex vector (or batch of shape (..., q)) in
    the plain convention, so the power-function exponent is i lam / 2.
    """
    field = normalize_field(field)
    t = np.asarray(t, float).reshape(-1)
    q = t.size
    lam = np.asarray(lam, dtype=complex)
    if lam.shape == () and q == 1:
        lam = lam.reshape(1)
    if lam.shape[-1] != q:
        raise ValueError("lam must have length q along its last axis")
    if q == 1:
        val = np.cosh(t[0]) ** (1j * lam[..., 0])
        if lam.shape == (1,):
            return McEstimate(complex(val), 0.0, 0, seed)
        return McEstimate(val, np.zeros(lam.shape[:-1]), 0, seed)
    nu_mat, batch = _nu_matrix(lam, q, rho_a(field_dim(field), q))
    if np.all(t == 0.0):
        mean = np.ones(nu_mat.shape[1], dtype=complex)
        err = np.zeros(nu_mat.shape[1])
    else:
        def shard(i, n):
            u, _ = sampling.draw_shard(field, q, None, seed, i, n, ball=False)
            return sampling.shard_moments([_psi_columns(field, t, nu_mat, u)])
        mean, err, _ = sampling.mc_run(shard, samples, workers=workers)
    return _shape_estimate(mean, err, batch, samples, seed)
