"""Tests for Jack polynomials and the Bessel function of matrix argument."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from hypergeo import algebra, bessel, sampling
from oracles import bessel_0f1, partitions_brute

# frozen from the 50-digit confluent series (bessel_0f1)
B_FROZEN = 0.7538717682021518 + 0.0j

ALPHAS = (0.5, 1.0, 2.0, 0.37)


# The per-partition evaluation the shell tables replaced, kept as a
# reference: each monomial a sum over a permutation set, each C value a
# sum over its P expansion.

@lru_cache(maxsize=None)
def _perm_set(mu, q):
    return tuple(set(itertools.permutations(mu + (0,) * (q - len(mu)))))


def _monomial_ref(mu, xi):
    total = 0.0
    for perm in _perm_set(mu, len(xi)):
        total = total + np.prod(xi ** np.asarray(perm))
    return total


def _monomials_ref(k, xi):
    """{mu: (m_mu(xi), m_mu(|xi|))} over the partitions of weight k."""
    return {mu: (_monomial_ref(mu, xi), _monomial_ref(mu, abs(xi)))
            for mu in bessel.partitions_of_weight(k, len(xi))}


# The dict recurrence the shell table replaced, kept as a reference:
# {lam: {mu: P coefficient}}, one pure-Python division per pair.

def _dominates_ref(lam, mu):
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def _lb_eigenvalue_ref(lam, alpha, n):
    return 0.5 * alpha * sum(x * (x - 1) for x in lam) \
        + sum((n - i) * x for i, x in enumerate(lam, 1))


@lru_cache(maxsize=None)
def _jack_tables_ref(weight, alpha, q):
    parts = bessel.partitions_of_weight(weight, q)
    tables = {}
    for idx, lam in enumerate(parts):
        d_lam = _lb_eigenvalue_ref(lam, alpha, q)
        coeffs = {lam: 1.0}
        for mu in parts[idx + 1:]:
            if not _dominates_ref(lam, mu):
                continue
            padded = mu + (0,) * (q - len(mu))
            total = 0.0
            for j in range(1, q):
                for r in range(1, padded[j] + 1):
                    for i in range(j):
                        nu = list(padded)
                        nu[i] += r
                        nu[j] -= r
                        nu = tuple(sorted(nu, reverse=True))
                        src = coeffs.get(tuple(x for x in nu if x))
                        if src:
                            total += (padded[i] - padded[j] + 2 * r) * src
            coeffs[mu] = total / (d_lam - _lb_eigenvalue_ref(mu, alpha, q))
        tables[lam] = coeffs
    return tables


def _shell_ref(k, alpha, xi, monomials=None):
    """C_m(xi) for every partition m of weight k, in shell order, each as
    the sum over its P expansion; and the sums of |terms| of those
    expansions, which bound what rounding can reach."""
    monomials = monomials or _monomials_ref(k, xi)
    values, sizes = [], []
    for m, coeffs in _jack_tables_ref(k, alpha, len(xi)).items():
        scale = bessel._c_scale(m, alpha)
        values.append(scale * sum(c * monomials[mu][0]
                                  for mu, c in coeffs.items()))
        sizes.append(sum(abs(scale * c) * monomials[mu][1]
                         for mu, c in coeffs.items()))
    return np.array(values), np.array(sizes)


def _p_table(k, alpha, q):
    """{lam: {mu: P coefficient}} read from the shell's C table."""
    shell = bessel._shell(k, alpha, q)
    return {lam: {mu: shell.coeffs[i, j] / shell.coeffs[i, i]
                  for j, mu in enumerate(shell.parts) if shell.support[i, j]}
            for i, lam in enumerate(shell.parts)}


def _kostka(lam, q):
    """{mu: K_lam,mu} for the partitions mu with at most q parts, counting
    the semistandard tableaux of shape lam by enumerating every filling
    with entries 1..q."""
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    found = Counter()

    def fill(n, tab):
        if n == len(cells):
            content = [list(tab.values()).count(v) for v in range(1, q + 1)]
            if content == sorted(content, reverse=True):
                found[tuple(x for x in content if x)] += 1
            return
        i, j = cells[n]
        low = max(tab.get((i, j - 1), 1), tab.get((i - 1, j), 0) + 1)
        for v in range(low, q + 1):
            tab[i, j] = v
            fill(n + 1, tab)
        tab.pop((i, j), None)

    fill(0, {})
    return dict(found)


def _series_ref(idx, xi, eta, max_degree=30, rel_tol=1e-12):
    """The shell-summed series on the reference C values:
    (value, truncation degree, converged)."""
    q = len(xi)
    total, quiet = 1.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_degree + 1):
            cx, ce, c1 = (_shell_ref(k, idx.alpha, x)[0]
                          for x in (xi, eta, np.ones(q)))
            s = 0.0
            for j, m in enumerate(bessel.partitions_of_weight(k, q)):
                poch = bessel.gen_pochhammer(idx.mu, m, idx.alpha)
                s = s + (-1.0) ** k * cx[j] * ce[j] \
                    / (poch * math.factorial(k) * c1[j])
            total = total + s
            if abs(s) < rel_tol * max(1.0, abs(total)):
                quiet += 1
                if quiet == 3:
                    return total, k, True
            else:
                quiet = 0
    return total, max_degree, False


def _c_at_ones_closed_form(m, alpha, q):
    """Stanley's C_m(1^q) = alpha^k k! / j_m prod_{(i,j) in m}
    (q - (i-1) + alpha (j-1)), j_m = prod (leg + alpha (arm+1))
    (leg + 1 + alpha arm)."""
    conj = [sum(1 for part in m if part >= j)
            for j in range(1, max(m, default=0) + 1)]
    k = sum(m)
    value = alpha ** k * math.factorial(k)
    for i, part in enumerate(m, 1):
        for j in range(1, part + 1):
            arm, leg = part - j, conj[j - 1] - i
            value *= (q - (i - 1) + alpha * (j - 1)) \
                / ((leg + alpha * (arm + 1)) * (leg + 1 + alpha * arm))
    return value


class TestPartitions:
    def test_matches_brute_force(self):
        for k, q in ((0, 3), (1, 1), (4, 2), (5, 3), (6, 4)):
            assert bessel.partitions_of_weight(k, q) == partitions_brute(k, q)

    def test_descending_lex_order(self):
        parts = bessel.partitions_of_weight(5, 3)
        assert parts == sorted(parts, reverse=True)
        assert parts[0] == (5,)


class TestJack:
    """Jack polynomials in the C normalization."""

    def test_known_p_normalized_coefficients(self):
        """P_2, P_21 and P_3 against their textbook expansions."""
        for alpha in (0.5, 1.0, 2.0):
            t2 = _p_table(2, alpha, 3)
            np.testing.assert_allclose(t2[(2,)][(1, 1)], 2.0 / (alpha + 1.0))
            assert t2[(2,)][(2,)] == 1.0
            t3 = _p_table(3, alpha, 3)
            np.testing.assert_allclose(t3[(2, 1)][(1, 1, 1)],
                                       6.0 / (alpha + 2.0))
            np.testing.assert_allclose(t3[(3,)][(2, 1)],
                                       3.0 / (2.0 * alpha + 1.0))
            np.testing.assert_allclose(
                t3[(3,)][(1, 1, 1)],
                6.0 / ((2.0 * alpha + 1.0) * (alpha + 1.0)))

    @pytest.mark.parametrize("q", range(1, 5))
    def test_schur_coefficients_are_kostka_numbers(self, q):
        """At alpha = 1, P_lam is the Schur polynomial, so its monomial
        coefficients are the Kostka numbers, counted here by tableaux."""
        for k in range(8):
            for lam, row in _p_table(k, 1.0, q).items():
                want = _kostka(lam, q)
                assert row.keys() == want.keys(), lam
                for mu, count in want.items():
                    np.testing.assert_allclose(row[mu], count, rtol=1e-13)

    def test_rank_one_collapse(self):
        xi = np.array([1.7])
        for k in (1, 2, 5):
            np.testing.assert_allclose(bessel.jack_C((k,), 2.0, xi),
                                       1.7 ** k, rtol=1e-12)

    def test_trace_identity(self):
        """Sum of C_m over a weight shell is a power of the trace."""
        gen = np.random.default_rng(21)
        for alpha in (0.5, 1.0, 2.0):
            for q in (2, 3):
                for k in (1, 3, 5):
                    xi = gen.uniform(0.2, 2.0, q)
                    total = sum(bessel.jack_C(m, alpha, xi)
                                for m in bessel.partitions_of_weight(k, q))
                    np.testing.assert_allclose(total, xi.sum() ** k,
                                               rtol=1e-10)

    def test_empty_partition(self):
        assert bessel.jack_C((), 1.0, np.array([2.0, 3.0])) == 1.0

    def test_too_long_partition_rejected(self):
        with pytest.raises(ValueError):
            bessel.jack_C((1, 1, 1), 1.0, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("m", [(1, 2), (2, -1, 1), (1.5,), (2, 0, 1)])
    def test_non_partition_rejected(self, m):
        """Out of order or negative parts raised a bare KeyError, and a
        non-integer part was truncated: (1.5,) gave 2.0 at xi = 1."""
        with pytest.raises(ValueError, match=r"m=\(.*\) is not a partition"):
            bessel.jack_C(m, 1.0, np.ones(3))

    def test_trailing_zeros_dropped(self):
        xi = np.array([0.7, 1.3])
        assert bessel.jack_C((2, 0), 2.0, xi) == bessel.jack_C((2,), 2.0, xi)
        assert bessel.jack_C((1, 0, 0), 0.5, np.array([1.7])) == 1.7
        assert bessel.jack_C((0, 0), 1.0, xi) == 1.0

    @pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0, math.inf])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        """nan returned nan, and 0 or -1 raised ZeroDivisionError."""
        with pytest.raises(ValueError, match="alpha must be positive"):
            bessel.jack_C((2, 1), alpha, np.ones(2))

    def test_input_checks_survive_optimize(self):
        """Under python -O an assert is gone: a too-long partition raised
        KeyError and a negative weight or zero rank gave no partitions."""
        script = "\n".join([
            "import numpy as np",
            "from hypergeo import bessel",
            "for call in (lambda: bessel.partitions_of_weight(-1, 2),",
            "             lambda: bessel.partitions_of_weight(2, 0),",
            "             lambda: bessel.jack_C((1, 2), 1.0, np.ones(2)),",
            "             lambda: bessel.jack_C((1, 1, 1), 1.0,",
            "                                   np.array([1.0, 2.0]))):",
            "    try:",
            "        print(call())",
            "    except Exception as exc:",
            "        print(type(exc).__name__)",
        ])
        src = os.path.dirname(os.path.dirname(bessel.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.stdout.split() == ["ValueError"] * 4, proc.stderr


class TestShell:
    """The cached shell tables against the per-partition reference."""

    @staticmethod
    def _points(q):
        gen = np.random.default_rng(40 + q)
        real = gen.uniform(0.2, 2.0, q)
        zero = real.copy()
        zero[0] = 0.0
        return {"real": real,
                "complex": real + 1j * gen.uniform(-1.0, 1.0, q),
                "zero": zero,
                "negative": -real * (-1.0) ** np.arange(q) if q > 1
                else -real}

    @pytest.mark.parametrize("q", range(1, 7))
    def test_shell_vectors_match_reference(self, q):
        for name, x in self._points(q).items():
            for k in range(13):
                monomials = _monomials_ref(k, x)
                for alpha in ALPHAS:
                    shell = bessel._shell(k, alpha, q)
                    assert shell.parts == bessel.partitions_of_weight(k, q)
                    got = shell.coeffs @ bessel._monomial(shell, x)
                    want, size = _shell_ref(k, alpha, x, monomials)
                    assert np.all(np.abs(got - want) <= 1e-13 * size), \
                        "%s q=%d k=%d alpha=%g" % (name, q, k, alpha)

    def test_jack_C_reads_its_shell_row(self):
        xi = np.array([0.7, -1.2, 0.4 + 0.3j])
        for alpha in ALPHAS:
            for k in (1, 4, 7):
                want, size = _shell_ref(k, alpha, xi)
                for j, m in enumerate(bessel.partitions_of_weight(k, 3)):
                    assert abs(bessel.jack_C(m, alpha, xi) - want[j]) \
                        <= 1e-13 * size[j]

    @pytest.mark.parametrize("q", (1, 2, 3, 4, 6))
    def test_c_at_ones_closed_form(self, q):
        """C_m(1^q) in closed form (Stanley 1989), independent of the
        tables, against both the cached values and jack_C."""
        for alpha in ALPHAS:
            for k in range(11):
                shell = bessel._shell(k, alpha, q)
                for j, m in enumerate(shell.parts):
                    want = _c_at_ones_closed_form(m, alpha, q)
                    np.testing.assert_allclose(shell.at_ones[j], want,
                                               rtol=1e-13)
                    np.testing.assert_allclose(
                        bessel.jack_C(m, alpha, np.ones(q)), want,
                        rtol=1e-13)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_table_bits_match_dict_recurrence(self, q):
        """coeffs and support equal, bit for bit, the C table the dict
        recurrence gives, from a subnormal alpha to a huge one."""
        for k in range(13):
            for alpha in (5e-324, 0.37, 0.5, 1.0, 2.0, 1e300):
                shell = bessel._shell(k, alpha, q)
                index = {lam: i for i, lam in enumerate(shell.parts)}
                coeffs = np.zeros(shell.coeffs.shape)
                support = np.zeros(shell.coeffs.shape, bool)
                for lam, row in _jack_tables_ref(k, alpha, q).items():
                    scale = bessel._c_scale(lam, alpha)
                    for mu, c in row.items():
                        coeffs[index[lam], index[mu]] = scale * c
                        support[index[lam], index[mu]] = True
                assert shell.coeffs.tobytes() == coeffs.tobytes(), (k, alpha)
                assert np.array_equal(shell.support, support), (k, alpha)

    def test_largest_table(self):
        """The largest table jack-table accepts, weight 30 at rank 6 (1206
        partitions), against Stanley's C(1^6) and the trace identity."""
        shell = bessel._shell(30, 1.0, 6)
        assert len(shell.parts) == 1206
        want = [_c_at_ones_closed_form(m, 1.0, 6) for m in shell.parts]
        np.testing.assert_allclose(shell.at_ones, want, rtol=1e-13)
        x = np.random.default_rng(30).uniform(0.2, 2.0, 6)
        np.testing.assert_allclose(
            (shell.coeffs @ bessel._monomial(shell, x)).sum(),
            x.sum() ** 30, rtol=1e-13)

    def test_shell_is_cached_read_only(self):
        shell = bessel._shell(5, 2.0, 3)
        assert bessel._shell(5, 2.0, 3) is shell
        with pytest.raises(ValueError):
            shell.coeffs[0, 0] = 0.0


class TestPochhammer:
    def test_generalized_factorial(self):
        # m = (2, 1): j=1 contributes x(x+1), j=2 contributes x - 1/alpha
        x, alpha = 1.3, 2.0
        want = x * (x + 1.0) * (x - 1.0 / alpha)
        np.testing.assert_allclose(
            bessel.gen_pochhammer(x, (2, 1), alpha), want)

    def test_empty_is_one(self):
        assert bessel.gen_pochhammer(0.7, (), 1.0) == 1.0


class TestBesselIndex:
    def test_values(self):
        idx = bessel.bessel_index("r", 3.0)
        assert idx.mu == 1.5 and idx.alpha == 2.0
        idx = bessel.bessel_index("h", 2.5)
        assert idx.mu == 5.0 and idx.alpha == 0.5


class TestSeries:
    """The shell-summed Bessel series."""

    def test_rank_one_confluent_series(self):
        idx = bessel.bessel_index("r", 3.0)
        oracle = bessel_0f1(idx.mu, -0.5 * 0.8)
        assert oracle == B_FROZEN
        res = bessel.bessel_series(idx, np.array([0.5]), np.array([0.8]))
        np.testing.assert_allclose(res.value, B_FROZEN, rtol=1e-10)
        assert res.converged

    def test_argument_symmetry(self):
        idx = bessel.bessel_index("c", 4.0)
        xi = np.array([0.9, 0.2])
        eta = np.array([0.6, 0.1])
        a = bessel.bessel_series(idx, xi, eta)
        b = bessel.bessel_series(idx, eta, xi)
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12)

    def test_zero_argument(self):
        idx = bessel.bessel_index("r", 5.0)
        res = bessel.bessel_series(idx, np.zeros(2), np.array([0.4, 0.1]))
        assert res.value == 1.0
        assert res.converged and res.tail_bound == 0.0

    def test_truncation_reporting(self):
        idx = bessel.bessel_index("r", 5.0)
        res = bessel.bessel_series(idx, np.array([2.0, 1.0]),
                                   np.array([1.5, 0.5]), max_degree=4)
        assert not res.converged
        assert res.truncation_degree == 4
        assert res.tail_bound > 0.0

    def test_vanishing_pochhammer_raises(self):
        idx = bessel.BesselIndex(0.5, 2.0)
        with pytest.raises(ValueError):
            bessel.bessel_series(idx, np.array([0.5, 0.2]),
                                 np.array([0.4, 0.1]), max_degree=6)

    @pytest.mark.parametrize("xi,eta", [
        ([np.inf, 0.125], [0.245, 0.02]),
        ([0.5, 0.125], [np.inf, 0.02]),
        ([5e199], [0.245]),
    ], ids=["xi", "eta", "shell"])
    def test_out_of_range_is_overflow_error(self, xi, eta):
        """An argument or a shell beyond float range is a named
        OverflowError, not a RuntimeWarning and a non-finite value."""
        idx = bessel.bessel_index("r", 5.0)
        with pytest.raises(OverflowError):
            bessel.bessel_series(idx, np.array(xi), np.array(eta))

    def test_shape_mismatch_raises(self):
        idx = bessel.bessel_index("r", 5.0)
        with pytest.raises(ValueError):
            bessel.bessel_series(idx, np.array([0.5]), np.array([0.4, 0.1]))

    @pytest.mark.parametrize("name,idx,xi,eta", [
        ("xi", (2.5, 2.0), [np.nan], [1.0]),
        ("eta", (2.5, 2.0), [1.0], [np.nan]),
        ("idx.mu", (np.nan, 2.0), [1.0], [1.0]),
        ("idx.alpha", (2.5, np.nan), [1.0], [1.0]),
    ], ids=["xi", "eta", "mu", "alpha"])
    def test_nan_is_value_error(self, name, idx, xi, eta):
        """A NaN is not out of float range: it is a ValueError that names
        the argument, not an overflow at shell 1."""
        with pytest.raises(ValueError, match=name):
            bessel.bessel_series(bessel.BesselIndex(*idx), np.array(xi),
                                 np.array(eta))


    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, np.nan, np.inf])
    def test_rel_tol_must_be_positive_and_finite(self, rel_tol):
        """No shell falls below a rel_tol <= 0 or NaN: the series summed
        every shell and reported converged=False; every shell falls below
        an infinite one, which reported converged=True after 3 shells."""
        with pytest.raises(ValueError, match="^rel_tol must be positive and "
                           "finite, not "):
            bessel.bessel_series(bessel.bessel_index("r", 5.0), [0.5, 0.1],
                                 [0.2, 0.1], rel_tol=rel_tol)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_alpha_is_value_error(self, alpha):
        """alpha <= 0 is outside the Jack polynomials' domain: a ValueError
        naming idx.alpha, not a ZeroDivisionError or a RuntimeWarning."""
        with pytest.raises(ValueError, match="idx.alpha"):
            bessel.bessel_series(bessel.BesselIndex(2.5, alpha),
                                 np.array([1.0, 0.5]), np.array([1.0, 0.2]))


    def test_infinite_alpha_is_value_error(self):
        """alpha = inf passed the positivity test and overflowed a hook
        factor: an OverflowError, where jack_C raised a ValueError."""
        with pytest.raises(ValueError, match="^idx.alpha must be positive "
                           "and finite, not inf$"):
            bessel.bessel_series(bessel.BesselIndex(1.5, np.inf), [0.5],
                                 [0.3])


class TestSeriesReference:
    """The shell-vector series against the per-partition reference: the
    same truncation degree and convergence, and values within 1e-13."""

    def _check(self, idx, xi, eta, max_degree):
        res = bessel.bessel_series(idx, xi, eta, max_degree=max_degree)
        value, degree, converged = _series_ref(idx, xi, eta,
                                               max_degree=max_degree)
        assert (res.truncation_degree, res.converged) == (degree, converged)
        assert abs(res.value - value) <= 1e-13 * abs(value)

    @pytest.mark.parametrize("p", (3.0, 4.0, 7.0))
    def test_point_grid(self, p):
        idx = bessel.bessel_index("r", p)
        for x in np.linspace(0.0, 2.0, 4):
            for y in np.linspace(0.0, 2.0, 4):
                self._check(idx, 0.5 * np.array([x, 0.5 * x]) ** 2,
                            0.5 * np.array([y, 0.5 * y]) ** 2, 40)

    @pytest.mark.parametrize("field", "rch")
    def test_rank_four(self, field):
        arg = 0.5 * np.array([2.0, 1.5, 1.0, 0.5]) ** 2
        self._check(bessel.bessel_index(field, 9.0), arg, arg, 40)


class TestPhiTilde:
    """The rescaled small-t limit in both evaluation modes."""

    def test_series_equals_integral_within_noise(self):
        lam = np.array([1.0, 0.5])
        t = np.array([0.9, 0.4])
        srs = bessel.bessel_phi_tilde("r", 4.0, lam, t, mode="series")
        mc = bessel.bessel_phi_tilde("r", 4.0, lam, t, mode="integral",
                                     samples=200000, seed=3)
        assert abs(srs.value - mc.value) < 4.0 * mc.stderr

    def test_degenerate_boundary_sampler(self):
        lam = np.array([1.0, 0.5])
        t = np.array([0.9, 0.4])
        srs = bessel.bessel_phi_tilde("r", 3.0, lam, t, mode="series")
        mc = bessel.bessel_phi_tilde("r", 3.0, lam, t, mode="integral",
                                     samples=200000, seed=3)
        assert abs(srs.value - mc.value) < 4.0 * mc.stderr

    def test_series_equals_integral_quaternion(self):
        """The H phase halves the real trace of the 2q x 2q working
        form; the full trace would put the integral near 0.941."""
        lam = np.array([1.0, 0.5])
        t = np.array([0.9, 0.4])
        srs = bessel.bessel_phi_tilde("h", 5.0, lam, t, mode="series")
        mc = bessel.bessel_phi_tilde("h", 5.0, lam, t, mode="integral",
                                     samples=40000, seed=3)
        assert abs(srs.value - mc.value) < 4.0 * mc.stderr

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_quaternion_phase_reads_even_rows(self, q):
        """Over H the phase reads w's even rows and u's even columns; it
        equals half the real trace of the full chi images, the formula
        it replaced, on the samplers' even-row stacks."""
        n, seed, shard = 500, 6, 2
        t = np.linspace(1.1, 0.3, q)
        lam = np.linspace(0.9, -0.4, q)
        u = sampling.draw_haar("h", q, seed, shard, n)
        for p in (2 * q - 1, 2 * q + 1.5):
            w = sampling.draw_ball("h", q, p, seed, shard, n)
            wf = algebra._batch_last(algebra._chi_full(w))
            uf = algebra._batch_last(algebra._chi_full(u))
            tr = np.einsum("ijn,jin->n", wf * np.repeat(t, 2)[:, None],
                           uf * np.repeat(lam, 2)[:, None])
            want = np.exp(-0.5j * tr.real)[:, None]
            got = bessel._phase_columns("h", t, lam, lambda: u, w)
            assert got.shape == (n, 1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_series_overflow_is_overflow_error(self):
        """lam^2 / 2 beyond float range raises OverflowError before any
        shell is summed."""
        with pytest.raises(OverflowError):
            bessel.bessel_phi_tilde("r", 5.0, np.array([1e200, 0.5]),
                                    np.array([0.7, 0.2]), mode="series")

    def test_below_boundary_rejected(self):
        with pytest.raises(ValueError):
            bessel.bessel_phi_tilde("r", 2.0, np.array([1.0, 0.5]),
                                    np.array([0.5, 0.2]), mode="integral")

    def test_complex_lambda_needs_series(self):
        with pytest.raises(ValueError):
            bessel.bessel_phi_tilde("r", 4.0, np.array([1.0 + 1.0j, 0.5]),
                                    np.array([0.5, 0.2]), mode="integral")

    def test_zero_t_exact(self):
        est = bessel.bessel_phi_tilde("c", 4.0, np.array([1.0, 0.5]),
                                      np.zeros(2), mode="integral",
                                      samples=64, seed=0)
        assert est.value == 1.0 + 0.0j and est.stderr == 0.0
        srs = bessel.bessel_phi_tilde("c", 4.0, np.array([1.0, 0.5]),
                                      np.zeros(2), mode="series")
        assert srs.value == 1.0

    @pytest.mark.parametrize("mode", ["series", "integral"])
    def test_lambda_length_checked(self, mode):
        with pytest.raises(ValueError,
                           match="^lam must have q=2 entries, got 3$"):
            bessel.bessel_phi_tilde("r", 5.0, np.array([1.0, 0.5, 0.2]),
                                    np.array([0.7, 0.2]), mode=mode)

    def test_mode_validation(self):
        """An unknown mode is named as such, also beside a t outside the
        chamber, which the mode's cone check once reported first."""
        for t in ([0.5], [-1.0]):
            with pytest.raises(ValueError, match="^mode must be 'series' or "
                               "'integral'$"):
                bessel.bessel_phi_tilde("r", 4.0, [1.0], t, mode="mc")

    def test_quaternion_phase_memory(self):
        """Over H the phase scales its fresh even columns of u by lam in
        place: one h4 shard's traced peak is about 8.4 MiB, against
        12.1 MiB with a third 4 MiB temporary."""
        n = sampling.SHARD_SIZE
        u = sampling.draw_haar("h", 4, 5, 0, n)
        w = sampling.draw_ball("h", 4, 9.0, 5, 0, n)
        t = np.array([1.2, 0.8, 0.5, 0.2])
        lam = np.array([1.0, 0.5, -0.3, 0.2])
        tracemalloc.start()
        try:
            bessel._phase_columns("h", t, lam, lambda: u, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)

    def test_quaternion_ball_memory(self):
        """One h4 ball shard is drawn into one array, which becomes w in
        place: its traced peak is about 10.4 MiB, against 14.4 MiB with
        a list of row arrays and a second w array."""
        tracemalloc.start()
        try:
            sampling.draw_ball("h", 4, 9.0, 5, 0, sampling.SHARD_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 2 ** 20, "%.1f MiB" % (peak / 2 ** 20)

    def test_worker_invariance(self):
        lam = np.array([1.0, 0.5])
        t = np.array([0.7, 0.3])
        a = bessel.bessel_phi_tilde("c", 5.0, lam, t, mode="integral",
                                    samples=30000, seed=5)
        b = bessel.bessel_phi_tilde("c", 5.0, lam, t, mode="integral",
                                    samples=30000, seed=5, workers=4)
        assert a.value == b.value and a.stderr == b.stderr
