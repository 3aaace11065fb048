"""End-to-end acceptance checks for the library.

One test per headline property, each printing a single PASS/FAIL line
so the suite doubles as a release checklist.  Deterministic identities
are checked exactly or near machine precision, Monte-Carlo comparisons
go through the reported standard errors, and fitted decay rates allow
the jackknife band computed by the experiment itself.
"""

import numpy as np

from hypergeo import algebra, bessel, experiments, hyper_bc, sampling, weyl
from oracles import bessel_0f1, hull_contains_lp, jacobi_2f1, kappa_rejection


def _report(label, failures):
    print("[acceptance] %s: %s" % (label, "PASS" if not failures else "FAIL"))
    assert not failures, "\n".join(repr(f) for f in failures)


def test_01_normalization_at_zero():
    """phi, psi and phi-tilde all equal 1 exactly at t = 0."""
    rng = np.random.default_rng(11)
    failures = []
    for i in range(20):
        field = ("r", "c", "h")[int(rng.integers(3))]
        q = int(rng.integers(1, 4))
        p = 2 * q - 1 + float(rng.uniform(0.5, 8.0))
        lam = rng.uniform(-3.0, 3.0, q) + 1j * rng.uniform(-2.0, 2.0, q)
        t0 = np.zeros(q)
        est = hyper_bc.eval_phi_bc(field, p, lam, t0, samples=2000, seed=i)
        if not (est.value == 1.0 and est.stderr == 0.0):
            failures.append(("phi", field, q, p, est.value, est.stderr))
        psi = hyper_bc.eval_psi(field, lam, t0, samples=2000, seed=i)
        if not (abs(psi.value - 1.0) <= 1e-12 and psi.stderr == 0.0):
            failures.append(("psi", field, q, psi.value, psi.stderr))
        bt = bessel.bessel_phi_tilde(field, p, lam.real, t0, mode="integral",
                                     samples=2000, seed=i)
        if not (bt.value == 1.0 and bt.stderr == 0.0):
            failures.append(("phi-tilde", field, q, p, bt.value, bt.stderr))
        if q == 1:
            v = hyper_bc.eval_phi_bc_quadrature_q1(p, complex(lam[0]), 0.0)
            if not v == 1.0:
                failures.append(("quadrature", p, lam[0], v))
    _report("01 normalization at t = 0", failures)


def test_02_rank_one_jacobi_oracle():
    """Rank-one quadrature agrees with the Gauss-series Jacobi oracle."""
    failures = []
    for p in (2.0, 3.0, 5.0, 10.0):
        for base in (0.5, 1.0, 2.0, 4.0):
            for lam in (base + 0j, base + 2j, base - 2j):
                for t in (0.1, 0.5, 1.0, 2.0):
                    got = hyper_bc.eval_phi_bc_quadrature_q1(p, lam, t)
                    want = jacobi_2f1(p, 1, lam, t)
                    rel = abs(got - want) / abs(want)
                    if not rel <= 1e-6:
                        failures.append((p, lam, t, rel))
    _report("02 rank-one Jacobi oracle", failures)


def test_03_rate_in_p():
    """sup_t |phi_{lam - i rho(p)} - psi_lam| decays like p^(-1/2)."""
    failures = []
    p_list = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    rep = experiments.rate_p_experiment(
        "r", 1, [2.0], np.linspace(0.0, 2.0, 9), p_list)
    if not rep.slope <= -0.45:
        failures.append(("q1 slope", rep.slope))
    ratio = max(rep.normalized) / min(rep.normalized)
    if not ratio < 10.0:
        failures.append(("q1 normalized ratio", ratio, rep.normalized))
    t_grid = np.array([[s, 0.5 * s] for s in np.linspace(0.0, 2.0, 5)])
    rep2 = experiments.rate_p_experiment(
        "r", 2, [2.0, 1.0], t_grid, p_list, samples=10 ** 6, seed=5)
    if not rep2.slope <= -0.45 + rep2.slope_halfwidth:
        failures.append(("q2 slope", rep2.slope, rep2.slope_halfwidth))
    _report("03 rate of decay in p", failures)


def test_04_contraction_rate():
    """|phi_{n lam - i rho}(t/n) - phi-tilde_lam(t)| decays like 1/n."""
    failures = []
    rep = experiments.contraction_experiment(
        "r", 1, 3.0, [1.0], [1.0], [2, 4, 8, 16, 32])
    if not rep.slope <= -0.8:
        failures.append(("slope", rep.slope))
    ratio = max(rep.normalized) / min(rep.normalized)
    if not ratio < 10.0:
        failures.append(("normalized ratio", ratio, rep.normalized))
    _report("04 Bessel contraction rate", failures)


def test_05_jack_trace_identity():
    """Normalized Jack polynomials of fixed weight sum to (tr x)^k."""
    rng = np.random.default_rng(55)
    failures = []
    for q in range(1, 5):
        xs = rng.uniform(0.25, 1.75, size=(50, q))
        for alpha in (0.5, 1.0, 2.0):
            for k in range(1, 7):
                parts = bessel.partitions_of_weight(k, q)
                for x in xs:
                    total = sum(bessel.jack_C(m, alpha, x) for m in parts)
                    want = float(x.sum()) ** k
                    rel = abs(total - want) / abs(want)
                    if not rel <= 1e-10:
                        failures.append((q, alpha, k, rel))
    _report("05 Jack trace identity", failures)


def test_06_bessel_duality():
    """Partition series and phase integral give the same phi-tilde."""
    failures = []
    grid = np.linspace(0.0, 2.0, 4)
    for p in (3.0, 4.0, 7.0):
        for x in grid:
            lam = np.array([x, 0.5 * x])
            for y in grid:
                t = np.array([y, 0.5 * y])
                ser = bessel.bessel_phi_tilde("r", p, lam, t, mode="series",
                                              max_degree=40)
                mc = bessel.bessel_phi_tilde("r", p, lam, t, mode="integral",
                                             samples=10 ** 6, seed=17)
                diff = abs(ser.value - mc.value)
                tol = 4.0 * mc.stderr + ser.tail_bound
                if not diff <= tol:
                    failures.append((p, x, y, diff, tol))
    for p in (3.0, 5.0):
        idx = bessel.bessel_index("r", p)
        for lam in (0.5, 1.0, 2.0):
            for t in (0.3, 1.0):
                ser = bessel.bessel_phi_tilde("r", p, [lam], [t],
                                              mode="series")
                want = bessel_0f1(idx.mu, -0.25 * (lam * t) ** 2)
                rel = abs(ser.value - want) / abs(want)
                if not rel <= 1e-10:
                    failures.append(("rank one", p, lam, t, rel))
    _report("06 Bessel duality", failures)


def test_07_weyl_polytope_suite():
    """Hull membership, the eps0 thresholds, and the vertex scans."""
    rng = np.random.default_rng(77)
    failures = []
    for family in ("a", "b"):
        for rank in (2, 3):
            spec = weyl.RootSystemSpec(family, rank)
            for _ in range(500):
                rho = np.sort(rng.uniform(0.2, 2.0, spec.dim))[::-1]
                if family == "a":
                    rho = rho - rho.mean()
                poly = weyl.OrbitPolytope(spec, rho)
                pts = np.array(weyl.orbit(spec, rho))
                if rng.uniform() < 0.5:
                    scale = rng.uniform(0.3, 1.6)
                    if abs(scale - 1.0) < 0.05:
                        scale = 1.1
                    x = scale * (rng.dirichlet(np.ones(len(pts))) @ pts)
                else:
                    x = rng.normal(0.0, rho[0], spec.dim)
                    if family == "a":
                        x = x - x.mean()
                got = weyl.hull_membership(poly, x)
                want = hull_contains_lp(pts, x)
                if got != want:
                    failures.append(("membership", family, rank, rho, x,
                                     got, want))
    e_b2 = weyl.eps0_estimate(weyl.RootSystemSpec("b", 2))
    if not e_b2 == 1.0:
        failures.append(("eps0 b2", e_b2))
    e_a2 = weyl.eps0_estimate(weyl.RootSystemSpec("a", 2))
    if not abs(e_a2 - 0.5) <= 0.02:
        failures.append(("eps0 a2", e_a2))
    spec3 = weyl.RootSystemSpec("b", 3)
    for _ in range(100):
        rho = np.cumsum(rng.uniform(0.05, 1.0, 3))[::-1]
        poly = weyl.OrbitPolytope(spec3, rho)
        for y in weyl.polytope_vertices_K(poly):
            if not weyl.prop65_check(poly, 0.05, y):
                failures.append(("vertex scan at 0.05", rho, y))
    poly_bad = weyl.OrbitPolytope(spec3, np.array([2.0, 1.9, 0.1]))
    found = any(not weyl.prop65_check(poly_bad, 1.0, y)
                for y in weyl.polytope_vertices_K(poly_bad))
    if not found:
        failures.append(("no violation found at eps = 1",))
    _report("07 Weyl polytope suite", failures)


def test_08_boundedness_sweep():
    """|phi| stays within 1 on the hull and exceeds it off the hull."""
    failures = []
    rep = experiments.boundedness_sweep("r", 2, 4.0, n_lambda=50, n_t=7,
                                        samples=10 ** 5, seed=8)
    if not rep.all_bounded:
        worst = max((r for r in rep.rows if not r["bounded"]),
                    key=lambda r: abs(r["value"]))
        failures.append(("bounded", worst))
    if not rep.all_positive:
        failures.append(("positivity",
                         [r for r in rep.rows if r["positive"] is False][:3]))
    if not rep.out_of_hull_exceeds:
        failures.append(("out of hull stayed at", rep.out_of_hull_max))
    _report("08 boundedness sweep", failures)


def _random_batch(field, q, n, rng):
    if field == "r":
        return rng.normal(size=(n, q, q))
    if field == "c":
        return rng.normal(size=(n, q, q)) + 1j * rng.normal(size=(n, q, q))
    return rng.normal(size=(n, q, q, 4))


def test_09_singular_value_lemmas_and_decay():
    """Perturbation and product bounds, minor ratios, and moment decay."""
    rng = np.random.default_rng(99)
    failures = []
    for field in ("r", "c", "h"):
        for q, count in ((1, 3000), (2, 4000), (3, 3000)):
            a1 = _random_batch(field, q, count, rng)
            a2 = _random_batch(field, q, count, rng)
            s1 = algebra.singular_values(a1, field)
            s2 = algebra.singular_values(a2, field)
            ssum = algebra.singular_values(a1 + a2, field)
            sprod = algebra.singular_values(
                algebra.matmul(a1, a2, field), field)
            add_slack = np.abs(ssum - s1) - s2[..., :1]
            mul_slack = sprod - s1 * s2[..., :1]
            if np.any(add_slack > 1e-10):
                failures.append(("additive", field, q,
                                 float(add_slack.max())))
            if np.any(mul_slack > 1e-10):
                failures.append(("multiplicative", field, q,
                                 float(mul_slack.max())))
        gen = np.random.default_rng(900 + ord(field))
        for _ in range(100):
            t = np.sort(gen.uniform(0.0, 2.0, 3))[::-1]
            t_tilde = min(t[0], 1.0)
            u = sampling._haar_batch(field, 3, 100, gen)
            w = sampling._mp_batch(field, 3, 6.0, 100, gen)
            lm_w = algebra._log_minors_embedded(
                algebra._build_g_embedded(t, u, w, field, "g-tilde"), field)
            lm_0 = algebra._log_minors_embedded(
                algebra._build_g_embedded(t, u, np.zeros_like(w), field,
                                          "g-tilde"), field)
            sig = np.linalg.svd(w, compute_uv=False)[:, 0]
            ratio = np.exp(lm_w - lm_0)
            for r in range(1, 4):
                lo = (1.0 - t_tilde * sig) ** (2 * r) - 1e-10
                hi = (1.0 + t_tilde * sig) ** (2 * r) + 1e-10
                col = ratio[:, r - 1]
                if np.any((col < lo) | (col > hi)):
                    failures.append(("minor ratio", field, r, t.tolist()))
    for n in (1, 2):
        rep = experiments.moment_decay_experiment(
            "r", 2, n, [16.0, 32.0, 64.0, 128.0], samples=200000, seed=9)
        if not rep.slope <= -0.9 * n:
            failures.append(("decay slope", n, rep.slope))
    _report("09 singular-value lemmas and moment decay", failures)


def test_10_ball_mass_and_radial_moments():
    """Closed-form ball mass and the Beta law of the factor norms."""
    failures = []
    cases = (((1, 1, 3.0), "r"), ((2, 1, 5.0), "r"), ((2, 2, 6.0), "c"))
    for (q, d, p), field in cases:
        closed = sampling.kappa(p, d, q)
        est, err = kappa_rejection(p, d, q, 300000, seed=10)
        if not abs(closed - est) <= 3.0 * err:
            failures.append(("kappa", q, d, p, closed, est, err))
        gen = np.random.default_rng(1010)
        rows = sampling._ball_rows(field, q, p, 40000, gen)
        for j, y in enumerate(rows, start=1):
            s = np.sum(np.abs(y) ** 2, axis=(1, 2)) / y.shape[1]
            a = 0.5 * d * q
            b = 0.5 * d * (p - q - j + 1)
            want = a / (a + b)
            sem = s.std(ddof=1) / np.sqrt(s.size)
            if not abs(s.mean() - want) <= 3.0 * sem:
                failures.append(("row moment", q, d, p, j,
                                 float(s.mean()), want, float(sem)))
    _report("10 ball mass and radial moments", failures)
