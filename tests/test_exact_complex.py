"""Exact references over C at rank q >= 2, against the Monte-Carlo kernel.

Over C the root multiplicity k3 = d/2 is 1, and the type-A spherical
function is a ratio of determinants of rank-one exponentials
(Harish-Chandra's formula for complex groups; Gelfand and Naimark).
With x_j = 2 log cosh t_j, rho = rho_a(2, q) and
pi(v) = prod_{i<j} (v_i - v_j),

    psi_lam(t) = pi(rho) / pi(i lam) * det[e^{i lam_i x_j / 2}]
                 / det[e^{rho_i x_j / 2}].

Only numpy is used: the points keep the Vandermonde quotients well
conditioned.
"""

import numpy as np
import pytest

from hypergeo import hyper_bc


def _vandermonde(v):
    q = len(v)
    return np.prod([v[i] - v[j] for i in range(q) for j in range(i + 1, q)])


def psi_exact_c(lam, t):
    """Harish-Chandra's determinant formula for psi over C."""
    lam = np.asarray(lam, complex)
    t = np.asarray(t, float)
    rho = hyper_bc.rho_a(2, t.size)
    x = 2.0 * np.log(np.cosh(t))
    return (_vandermonde(rho) / _vandermonde(1j * lam)
            * np.linalg.det(np.exp(0.5j * np.outer(lam, x)))
            / np.linalg.det(np.exp(0.5 * np.outer(rho, x))))


def test_rank_one_reduces_to_closed_form():
    """At q = 1 the formula is cosh(t)^(i lam), eval_psi's exact value."""
    want = hyper_bc.eval_psi("c", np.array([1.5 - 0.5j]), np.array([0.7]))
    assert abs(psi_exact_c([1.5 - 0.5j], [0.7]) - want.value) < 1e-15


@pytest.mark.parametrize("lam,t", [
    ([1.0, 0.5], [0.9, 0.4]),
    ([1.5 + 0.5j, -0.7], [1.2, 0.3]),
    ([1.0 + 0.5j, 0.7], [2.0, 1.0]),
    ([2.0, 0.5, -1.0], [1.0, 0.6, 0.2]),
], ids=["q2-real", "q2-complex", "q2-far", "q3"])
def test_eval_psi_within_four_stderr(lam, t):
    want = psi_exact_c(lam, t)
    est = hyper_bc.eval_psi("c", np.array(lam, complex), np.array(t),
                            samples=200000, seed=4)
    assert abs(est.value - want) < 4.0 * est.stderr
