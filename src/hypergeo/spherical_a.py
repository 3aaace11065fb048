"""Spherical functions psi_lam of the compact-quotient A-type family.

psi is the Haar-unitary average of the power function of u* cosh^2(t) u.
At q = 1 the average is trivial and psi_lam(t) = (cosh t)^(i lam) holds
exactly, so that case bypasses the sampler.
"""

import numpy as np

from .algebra import field_dim, normalize_field
from .hyper_bc import _mc_pairs, _nu_matrix, _shape_estimate


def rho_a(d, q):
    """Half-sum vector rho_i = d(q + 1 - 2i)/2."""
    i = np.arange(1, q + 1)
    return 0.5 * d * (q + 1 - 2 * i)


def eval_psi(field, lam, t, samples=100000, seed=0, workers=1):
    """Monte-Carlo value of psi_lam(t); exact at q = 1.

    lam is a length-q complex vector (or batch of shape (..., q)) in
    the plain convention, so the power-function exponent is i lam / 2.
    """
    field = normalize_field(field)
    t = np.asarray(t, float).reshape(-1)
    q = t.size
    nu_mat, batch = _nu_matrix(lam, q, rho_a(field_dim(field), q))
    if q == 1:  # rho is 0, so cosh(t)^(2 nu) = cosh(t)^(i lam)
        val = np.cosh(t[0]) ** (2.0 * nu_mat[0])
        return _shape_estimate(val, np.zeros(val.size), batch, 0, seed)
    mean, err, _ = _mc_pairs(field, q, [(None, t, nu_mat)], samples, seed,
                             workers)
    return _shape_estimate(mean, err, batch, samples, seed)
