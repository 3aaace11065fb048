"""Weyl-orbit geometry for the type A and type B root systems.

Membership in the convex hull of a Weyl orbit co(W.rho) is decided by
chamber projection followed by the dual-cone partial-sum inequalities,
so the hull is never triangulated.  The polytope K is the part of the
hull inside the closed positive chamber.  Its vertices are in closed
form: rho averaged over runs of consecutive coordinates, with family b
zero after the last run.  A vertex has rank independent tight walls or
partial sums, and these cut rho into runs on which the vertex is flat.

Family "b" acts on R^q by signed permutations; family "a" acts on
R^(q+1) by permutations, on data lowered to the sum-zero subspace.

Invalid arguments raise ValueError with a message that starts with the
argument's name, so the command line can name the flag it came from.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import _check_count, _check_finite, _check_positive

TOL = 1e-9  # rounding slack of every membership test


@dataclass(frozen=True)
class RootSystemSpec:
    """Family ("a" or "b") and rank."""

    family: str
    rank: int

    def __post_init__(self):
        fam = str(self.family).strip().lower()
        if fam not in ("a", "b"):
            raise ValueError("family must be 'a' or 'b'")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "rank", _check_count("rank", self.rank))

    @property
    def dim(self):
        """Ambient dimension: q for family b, q + 1 for family a."""
        return self.rank + (self.family == "a")


@dataclass(frozen=True, eq=False)
class OrbitPolytope:
    """co(W.rho) for a chamber point rho, held as its defining data."""

    spec: RootSystemSpec
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, float)
        object.__setattr__(self, "rho", rho)
        _check_vector("rho", rho, self.spec.dim)
        if not np.all(np.diff(rho) <= TOL):
            raise ValueError("rho must be weakly decreasing, got %s"
                             % ",".join("%g" % x for x in rho))
        if self.spec.family == "b" and not rho[-1] >= -TOL:
            raise ValueError("rho must be nonnegative for family b")
        if self.spec.family == "a" and not abs(rho.sum()) <= TOL:
            raise ValueError("rho must sum to zero for family a")


def _check_vector(name, x, n):
    if x.shape != (n,):
        raise ValueError("%s must be a vector of %d entries, got shape %s"
                         % (name, n, x.shape))
    return _check_finite(name, x)


def chamber_project(spec, x):
    """Chamber representative of x and the Weyl element achieving it.

    Family b takes absolute values and sorts in descending order;
    family a only sorts.  The returned element is a pair of tuples
    (perm, signs) with signs[i] * x[perm[i]] equal to entry i of the
    projection, bitwise.
    """
    x = np.asarray(x, float)
    _check_vector("x", x, spec.dim)
    if spec.family == "b":
        signs = np.where(x < 0, -1.0, 1.0)
    else:
        signs = np.ones(spec.dim)
    perm = np.argsort(-signs * x, kind="stable")
    proj = signs[perm] * x[perm]
    return proj, (tuple(int(i) for i in perm), tuple(signs[perm]))


def _in_chamber(spec, x):
    if np.any(np.diff(x) > TOL):
        return False
    return spec.family == "a" or x[-1] >= -TOL


def hull_membership(poly, x):
    """Whether x lies in co(W.rho), via the dual-cone inequalities.

    After projecting x to the chamber, membership is equivalent to all
    partial sums of rho - x+ being nonnegative; family a additionally
    pins the full sum to zero (permutations preserve it).
    """
    proj, _ = chamber_project(poly.spec, np.asarray(x, float))
    cums = np.cumsum(poly.rho - proj)
    if poly.spec.family == "b":
        return bool(np.all(cums >= -TOL))
    return bool(np.all(cums[:-1] >= -TOL) and abs(cums[-1]) <= TOL)


def polytope_contains(poly, y):
    """Whether y lies in K = co(W.rho) intersected with the closed chamber."""
    y = _check_vector("y", np.asarray(y, float), poly.spec.dim)
    return _in_chamber(poly.spec, y) and hull_membership(poly, y)


def orbit(spec, rho):
    """The Weyl orbit of rho as a list of distinct points."""
    if spec.rank > 8:
        raise ValueError("rank must be at most 8 for orbit enumeration, "
                         "got %d" % spec.rank)
    rho = np.asarray(rho, float)
    _check_vector("rho", rho, spec.dim)
    pts = set()
    if spec.family == "b":
        for perm in itertools.permutations(rho.tolist()):
            for signs in itertools.product((1.0, -1.0), repeat=spec.dim):
                pts.add(tuple(s * p for s, p in zip(signs, perm)))
    else:
        pts.update(itertools.permutations(rho.tolist()))
    return [np.array(p) for p in sorted(pts)]


def check_vertex_rank(spec):
    """Raise ValueError unless polytope_vertices_K enumerates at this rank."""
    if spec.rank > 6:
        raise ValueError("rank must be at most 6 for vertex enumeration, "
                         "got %d" % spec.rank)


def polytope_vertices_K(poly):
    """Vertices of K in closed form: rho averaged over runs of coordinates.

    A vertex has rank independent tight walls or partial sums of rho:
    the tight partial sums cut rho into runs and the tight walls make
    each run flat.  Each cut mask, in product order, gives one vertex;
    family b is zero after the last cut, and family a closes its last
    run at the final coordinate.  With ties in rho, masks that give one
    point keep the first.
    """
    spec, rho = poly.spec, poly.rho
    check_vertex_rank(spec)
    out, seen = [], set()
    for mask in itertools.product((False, True), repeat=spec.rank):
        cuts = [i + 1 for i, cut in enumerate(mask) if cut]
        if spec.family == "a":
            cuts.append(spec.dim)
        v = np.zeros(spec.dim)
        for a, b in zip([0] + cuts, cuts):
            v[a:b] = rho[a:b].mean()
        key = tuple(np.round(v, 9) + 0.0)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def _stretch_in_hull(poly, epsilon, y, sign):
    """Whether (1+eps)y + sign eps rho lies in the hull; a stretch that
    overflows has left the bounded hull."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = (1.0 + _check_finite("epsilon", epsilon)) * y \
            + sign * epsilon * poly.rho
    return bool(np.all(np.isfinite(z))) and hull_membership(poly, z)


def prop65_check(poly, epsilon, y):
    """Whether the stretched point (1+eps)y - eps rho stays in the hull.

    y must belong to K; by convexity it is enough to verify this on the
    vertices of K, which is what the scans and eps0_estimate do.
    """
    y = np.asarray(y, float)
    if not polytope_contains(poly, y):
        raise ValueError("y must lie in K, the chamber part of co(W.rho)")
    return _stretch_in_hull(poly, epsilon, y, -1.0)


def lemma44_check(poly, epsilon, y):
    """Whether (1+eps)y + eps rho stays in the hull.

    y must lie in co(W.rho) with -y in the closed chamber.  One formula
    serves both families; for family b, x -> -x is a Weyl element, so
    the result equals prop65_check at -y.
    """
    y = _check_vector("y", np.asarray(y, float), poly.spec.dim)
    if not (_in_chamber(poly.spec, -y) and hull_membership(poly, y)):
        raise ValueError(
            "y must lie in co(W.rho) with -y in the closed chamber")
    return _stretch_in_hull(poly, epsilon, y, 1.0)


def _unit_rho_samples(spec, count):
    """Unit-norm chamber points: random interior ones, from one fixed
    seed so every scan sees the same points, plus wall pinches.

    The pinches walk every subset of the simple walls and squeeze the
    corresponding gaps to a small delta, because the binding geometry
    for the stretch map sits arbitrarily close to the chamber walls
    and random interior points alone would miss it.
    """
    n, q = spec.dim, spec.rank
    gen = np.random.default_rng(408122)
    out = []
    for _ in range(_check_count("rho_samples", count, least=0)):
        if spec.family == "b":
            v = np.sort(np.abs(gen.standard_normal(n)))[::-1]
        else:
            v = np.sort(gen.standard_normal(n))[::-1]
            v = v - v.mean()
        out.append(v / np.linalg.norm(v))
    delta = 1e-4
    for mask in itertools.product((False, True), repeat=q):
        v = np.zeros(n)
        if spec.family == "b":
            v[-1] = delta if mask[-1] else 1.0
        else:
            v[-1] = 0.0
        gaps = n - 1 if spec.family == "a" else q - 1
        for r in range(gaps - 1, -1, -1):
            v[r] = v[r + 1] + (delta if mask[r] else 1.0)
        if spec.family == "a":
            v = v - v.mean()
        out.append(v / np.linalg.norm(v))
    return out


def eps0_estimate(spec, rho_samples=40, resolution=1e-3):
    """Empirical largest epsilon for which the stretch map stays inside.

    Scans the vertices of K, which suffice by convexity, over unit-norm
    chamber points, and bisects epsilon to the requested resolution.  The
    search is capped at 1.  The sampling is internally seeded so the
    report is a deterministic function of its arguments.  The bisection
    cannot narrow below one float spacing, so resolution must be a
    positive finite number.
    """
    if spec.rank > 4:
        raise ValueError("rank must be at most 4 to estimate eps0, got %d"
                         % spec.rank)
    resolution = _check_positive("resolution", resolution)
    scans = []
    for rho in _unit_rho_samples(spec, rho_samples):
        poly = OrbitPolytope(spec, rho)
        scans.append((poly, polytope_vertices_K(poly)))

    def ok(eps):
        return all(prop65_check(poly, eps, y)
                   for poly, pts in scans for y in pts)

    if ok(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
