"""Exact references over C at rank q >= 2, against the Monte-Carlo kernel
and the Bessel series.

Over C the root multiplicity k3 = d/2 is 1, and phi, psi and phi-tilde
are each a ratio of determinants of rank-one functions.  With
x_j = 2 log cosh t_j, rho = rho_a(2, q) and pi(v) = prod_{i<j} (v_i - v_j),
Harish-Chandra's formula for complex groups (Gelfand and Naimark) reads

    psi_lam(t) = pi(rho) / pi(i lam) * det[e^{i lam_i x_j / 2}]
                 / det[e^{rho_i x_j / 2}].

With alpha = p - q, s_j = sinh^2 t_j,
f_lam(s) = 2F1((alpha+1+i lam)/2, (alpha+1-i lam)/2; alpha+1; -s) and
c_k(lam) its s^k Taylor coefficient (Berezin and Karpelevich; Hoogenboom),

    phi_lam^p(t) = det[f_{lam_i}(s_j)] / (V(s) det[c_k(lam_i)]_{k<q}),

where V(s) = prod_{i<j} (s_j - s_i).  The Bessel function phi-tilde is
Gross and Richards' ratio

    J = det[0F1(alpha+1; -lam_i^2 t_j^2 / 4)]
        / (prod_{i<j} (lam_i^2 - lam_j^2)(t_i^2 - t_j^2)
           * prod_{k<q} (-1/4)^k / ((alpha+1)_k k!)).

psi uses numpy only, at points that keep its Vandermonde quotients well
conditioned; phi and phi-tilde use mpmath at 40 digits.  Every point is
benign: at large p and t the estimates are rare-event averages whose
stderr cannot be trusted, and they are left out here.
"""

import mpmath
import numpy as np
import pytest

from hypergeo import bessel, hyper_bc


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


def _mp_vandermonde(v):
    q = len(v)
    return mpmath.fprod(v[j] - v[i] for i in range(q) for j in range(i + 1, q))


def phi_exact_c(p, lam, t):
    """The determinant formula for phi over C, lam in the plain convention."""
    q = len(t)
    with mpmath.workdps(40):
        a = mpmath.mpf(p - q) + 1
        s = [mpmath.sinh(mpmath.mpf(x)) ** 2 for x in t]
        pairs = [((a + 1j * mpmath.mpc(x)) / 2, (a - 1j * mpmath.mpc(x)) / 2)
                 for x in lam]
        f = mpmath.matrix([[mpmath.hyp2f1(b, c, a, -x) for x in s]
                           for b, c in pairs])
        coef = mpmath.matrix([[(-1) ** k * mpmath.rf(b, k) * mpmath.rf(c, k)
                               / (mpmath.rf(a, k) * mpmath.factorial(k))
                               for k in range(q)] for b, c in pairs])
        return complex(mpmath.det(f) / (_mp_vandermonde(s) * mpmath.det(coef)))


def phi_tilde_exact_c(p, lam, t):
    """Gross and Richards' determinant formula for phi-tilde over C."""
    q = len(t)
    with mpmath.workdps(40):
        a = mpmath.mpf(p - q) + 1
        lam2 = [mpmath.mpf(x) ** 2 for x in lam]
        t2 = [mpmath.mpf(x) ** 2 for x in t]
        f = mpmath.matrix([[mpmath.hyp0f1(a, -x * y / 4) for y in t2]
                           for x in lam2])
        coef = mpmath.fprod(mpmath.mpf(-0.25) ** k
                            / (mpmath.rf(a, k) * mpmath.factorial(k))
                            for k in range(q))
        return float(mpmath.det(f) / (_mp_vandermonde(lam2)
                                      * _mp_vandermonde(t2) * coef))


def test_phi_rank_one_reduces_to_jacobi_quadrature():
    """At q = 1 the formula is f_lam(sinh^2 t), the rank-one quadrature."""
    want = hyper_bc.eval_phi_bc_quadrature_q1(4.0, 1.5 - 0.5j, 0.7, "c")
    assert abs(phi_exact_c(4.0, [1.5 - 0.5j], [0.7]) - want) < 1e-10


@pytest.mark.parametrize("p,lam,t", [
    (3.0, [1.0 + 0.5j, 0.7], [0.8, 0.4]),
    (7.5, [1.0, 0.5], [0.9, 0.3]),
    (5.0, [2.0 + 0.5j, 1.0, -0.4], [1.0, 0.6, 0.2]),
    (7.0, [1.0, 0.8, 0.5, 0.2], [0.9, 0.6, 0.4, 0.1]),
], ids=["q2-boundary-complex", "q2", "q3-boundary-complex", "q4-boundary"])
def test_eval_phi_bc_within_four_stderr(p, lam, t):
    want = phi_exact_c(p, lam, t)
    est = hyper_bc.eval_phi_bc("c", p, np.array(lam, complex), np.array(t),
                               samples=300000, seed=4)
    assert abs(est.value - want) < 4.0 * est.stderr


PHI_TILDE_POINTS = pytest.mark.parametrize("p,lam,t", [
    (5.0, [4.0, 2.0], [1.5, 0.6]),
    (7.5, [5.0, 2.0], [1.2, 0.5]),
    (6.0, [4.0, 2.5, 1.0], [1.4, 0.8, 0.3]),
], ids=["q2", "q2-half-integer-p", "q3"])


@PHI_TILDE_POINTS
def test_bessel_series_matches_determinant(p, lam, t):
    want = phi_tilde_exact_c(p, lam, t)
    got = bessel.bessel_phi_tilde("c", p, lam, t, mode="series")
    assert got.converged
    assert abs(got.value - want) < 1e-10 * abs(want)


@PHI_TILDE_POINTS
def test_bessel_integral_within_four_stderr(p, lam, t):
    want = phi_tilde_exact_c(p, lam, t)
    est = bessel.bessel_phi_tilde("c", p, lam, t, mode="integral",
                                  samples=200000, seed=4)
    assert abs(est.value - want) < 4.0 * est.stderr
