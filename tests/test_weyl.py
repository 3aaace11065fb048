"""Tests for Weyl chambers, orbit polytopes, and the shrink condition."""

import itertools

import numpy as np
import pytest

from hypergeo import weyl
from oracles import hull_contains_lp


def _apply_weyl_ref(element, x):
    """Apply a (permutation, signs) pair as chamber_project returns it."""
    perm, signs = element
    return np.asarray(signs) * x[list(perm)]


def spec_b(rank):
    return weyl.RootSystemSpec("b", rank)


def spec_a(rank):
    return weyl.RootSystemSpec("a", rank)


class TestSpec:
    def test_families_normalized(self):
        assert weyl.RootSystemSpec("B", 2).family == "b"
        assert weyl.RootSystemSpec("A", 2).dim == 3
        assert spec_b(3).dim == 3

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            weyl.RootSystemSpec("d", 3)

    def test_rank_is_a_checked_count(self):
        """2.0 ran into itertools as a float and 2.5 failed on rho's
        shape: the rank is a whole number, stored as an int."""
        spec = weyl.RootSystemSpec("b", 2.0)
        assert spec.rank == 2 and type(spec.rank) is int
        assert len(weyl.orbit(spec, [2.0, 1.0])) == 8
        for rank in (2.5, 0):
            with pytest.raises(ValueError, match="^rank must be at least 1 "
                               "and whole, not %s$" % rank):
                weyl.RootSystemSpec("b", rank)


class TestChamberProject:
    def test_witness_reproduces_projection(self):
        gen = np.random.default_rng(30)
        for spec in (spec_b(3), spec_a(2)):
            for _ in range(20):
                x = gen.standard_normal(spec.dim)
                if spec.family == "a":
                    x = x - x.mean()
                proj, elem = weyl.chamber_project(spec, x)
                assert weyl._in_chamber(spec, proj)
                np.testing.assert_array_equal(
                    _apply_weyl_ref(elem, x), proj)

    def test_type_a_keeps_signs(self):
        x = np.array([-2.0, 1.0, 1.0])
        proj, (perm, signs) = weyl.chamber_project(spec_a(2), x)
        assert signs == (1.0, 1.0, 1.0)
        np.testing.assert_array_equal(proj, np.array([1.0, 1.0, -2.0]))

    def test_type_b_flips_signs(self):
        proj, _ = weyl.chamber_project(spec_b(2), np.array([-3.0, 1.0]))
        np.testing.assert_array_equal(proj, np.array([3.0, 1.0]))


class TestOrbit:
    def test_sizes(self):
        assert len(weyl.orbit(spec_b(2), np.array([2.0, 1.0]))) == 8
        assert len(weyl.orbit(spec_a(2), np.array([1.0, 0.0, -1.0]))) == 6

    def test_degenerate_orbit_deduplicates(self):
        assert len(weyl.orbit(spec_b(2), np.array([1.0, 1.0]))) == 4
        assert len(weyl.orbit(spec_a(2), np.array([0.0, 0.0, 0.0]))) == 1

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            weyl.orbit(spec_b(9), np.arange(9, 0, -1.0))


class TestHullMembership:
    """Closed-form membership against a linear-programming oracle."""

    def test_agrees_with_lp(self):
        gen = np.random.default_rng(31)
        for spec in (spec_b(2), spec_b(3), spec_a(2), spec_a(3)):
            rho = np.sort(gen.uniform(0.1, 2.0, spec.dim))[::-1]
            if spec.family == "a":
                rho = rho - rho.mean()
            poly = weyl.OrbitPolytope(spec, rho)
            pts = np.array(weyl.orbit(spec, rho))
            for _ in range(60):
                wts = gen.random(len(pts))
                x = (wts / wts.sum()) @ pts
                x = x * gen.uniform(0.3, 1.6)
                if spec.family == "a":
                    x = x - x.mean()
                got = weyl.hull_membership(poly, x)
                want = hull_contains_lp(pts, x)
                assert got == want, (spec.family, spec.rank, x)

    def test_rho_and_origin_inside(self):
        rho = np.array([2.0, 1.0])
        poly = weyl.OrbitPolytope(spec_b(2), rho)
        assert weyl.hull_membership(poly, rho)
        assert weyl.hull_membership(poly, np.zeros(2))

    def test_scaled_rho_outside(self):
        rho = np.array([2.0, 1.0])
        poly = weyl.OrbitPolytope(spec_b(2), rho)
        assert not weyl.hull_membership(poly, 1.001 * rho)

    def test_non_finite_entries_rejected(self):
        """A NaN point compared false in every partial sum and read as
        outside the hull."""
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="^x must be finite, not nan$"):
            weyl.hull_membership(poly, [np.nan, 0.0])
        with pytest.raises(ValueError, match="^rho must be finite, not inf$"):
            weyl.OrbitPolytope(spec_b(2), np.array([np.inf, 1.0]))

    def test_polytope_contains_needs_chamber(self):
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        assert weyl.polytope_contains(poly, np.array([1.0, 0.5]))
        assert not weyl.polytope_contains(poly, np.array([0.5, 1.0]))


class TestPolytopeValidation:
    def test_requires_chamber_order(self):
        with pytest.raises(ValueError):
            weyl.OrbitPolytope(spec_b(2), np.array([1.0, 2.0]))

    def test_type_a_requires_zero_sum(self):
        with pytest.raises(ValueError):
            weyl.OrbitPolytope(spec_a(2), np.array([1.0, 0.0, -0.5]))


class TestVertices:
    def test_b2_vertex_set(self):
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        verts = {tuple(v) for v in weyl.polytope_vertices_K(poly)}
        assert verts == {(0.0, 0.0), (1.5, 1.5), (2.0, 0.0), (2.0, 1.0)}

    def test_a2_vertex_set(self):
        poly = weyl.OrbitPolytope(spec_a(2), np.array([1.0, 0.0, -1.0]))
        verts = {tuple(v) for v in weyl.polytope_vertices_K(poly)}
        assert verts == {(0.0, 0.0, 0.0), (0.5, 0.5, -1.0),
                         (1.0, -0.5, -0.5), (1.0, 0.0, -1.0)}

    def test_vertices_lie_in_polytope(self):
        gen = np.random.default_rng(32)
        rho = np.sort(gen.uniform(0.2, 2.0, 3))[::-1]
        poly = weyl.OrbitPolytope(spec_b(3), rho)
        for v in weyl.polytope_vertices_K(poly):
            assert weyl.polytope_contains(poly, v)


class TestClosedFormVertices:
    """The closed-form vertices against the LP hull oracle: each lies in
    K, none lies in the hull of the others, and random points of K lie
    in the hull of them all."""

    @staticmethod
    def _points_of_k(poly, count, gen):
        """Chamber projections of random convex combinations of orbit
        points, drawn without enumerating the orbit."""
        spec, n = poly.spec, poly.spec.dim
        out = []
        for _ in range(count):
            images = np.array([poly.rho[gen.permutation(n)]
                               for _ in range(n + 1)])
            if spec.family == "b":
                images *= gen.choice([-1.0, 1.0], images.shape)
            wts = gen.random(n + 1)
            x = (wts / wts.sum()) @ images
            out.append(weyl.chamber_project(spec, x)[0])
        return out

    @pytest.mark.parametrize("rank", range(1, 7))
    @pytest.mark.parametrize("family", ["a", "b"])
    def test_against_lp(self, family, rank):
        spec = weyl.RootSystemSpec(family, rank)
        gen = np.random.default_rng(40 + rank)
        distinct = np.sort(gen.uniform(0.2, 2.0, spec.dim))[::-1]
        tied = (np.arange(spec.dim, 0, -1) // 2).astype(float)
        for rho in (distinct, tied):
            poly = weyl.OrbitPolytope(
                spec, rho - rho.mean() if family == "a" else rho)
            verts = weyl.polytope_vertices_K(poly)
            if rho is distinct:
                assert len(verts) == 2 ** rank
            assert all(weyl.polytope_contains(poly, v) for v in verts)
            for i, v in enumerate(verts):
                others = verts[:i] + verts[i + 1:]
                assert not (others and hull_contains_lp(others, v))
            for x in self._points_of_k(poly, 20, gen):
                assert weyl.polytope_contains(poly, x)
                assert hull_contains_lp(verts, x)


class TestProp65:
    """The shrink-and-shift membership predicate."""

    def test_b2_holds_at_eps_one(self):
        gen = np.random.default_rng(33)
        for _ in range(10):
            rho = np.sort(gen.uniform(0.1, 3.0, 2))[::-1]
            poly = weyl.OrbitPolytope(spec_b(2), rho)
            for v in weyl.polytope_vertices_K(poly):
                assert weyl.prop65_check(poly, 1.0, v)

    def test_a2_fails_at_point_six_passes_at_point_45(self):
        """Vertex scan: violated at eps = 0.6, satisfied at eps = 0.45.

        The infimum 1/2 is approached as rho pinches against a chamber
        wall, so the scan uses rho_1 = rho_2; the origin is the vertex
        that breaks first.
        """
        poly = weyl.OrbitPolytope(spec_a(2), np.array([1.0, 1.0, -2.0]))
        verts = weyl.polytope_vertices_K(poly)
        assert any(not weyl.prop65_check(poly, 0.6, v) for v in verts)
        assert all(weyl.prop65_check(poly, 0.45, v) for v in verts)

    def test_b3_violation_at_eps_one(self):
        """An acute chamber point close to two walls breaks eps = 1."""
        poly = weyl.OrbitPolytope(spec_b(3), np.array([2.0, 1.9, 0.1]))
        verts = weyl.polytope_vertices_K(poly)
        assert any(not weyl.prop65_check(poly, 1.0, v) for v in verts)

    def test_monotone_in_eps(self):
        poly = weyl.OrbitPolytope(spec_b(3), np.array([2.0, 1.9, 0.1]))
        y = np.array([4.0, 4.0, 4.0]) / 3.0
        ok = [weyl.prop65_check(poly, e, y)
              for e in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        assert ok == sorted(ok, reverse=True)

    def test_zero_eps_trivial(self):
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        assert weyl.prop65_check(poly, 0.0, np.array([1.0, 0.5]))

    def test_precondition_y_in_k(self):
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            weyl.prop65_check(poly, 0.5, np.array([3.0, 0.5]))
        with pytest.raises(ValueError):
            weyl.prop65_check(poly, 0.5, np.array([0.5, 1.0]))


class TestStretchInputs:
    """Both stretch predicates check epsilon, and a stretch that
    overflows is outside the bounded hull, not an input error."""

    @pytest.mark.parametrize("check,y", [(weyl.prop65_check, [1.0, 0.5]),
                                         (weyl.lemma44_check, [-1.0, -0.5])],
                             ids=["prop65", "lemma44"])
    def test_non_finite_epsilon_rejected(self, check, y):
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        with pytest.raises(ValueError,
                           match="^epsilon must be finite, not nan$"):
            check(poly, np.nan, np.array(y))

    @pytest.mark.parametrize("check", [weyl.prop65_check,
                                       weyl.lemma44_check])
    @pytest.mark.parametrize("spec,rho", [(spec_a(1), [1.0, -1.0]),
                                          (spec_b(2), [2.0, 1.0])],
                             ids=["a", "b"])
    def test_non_finite_y_named(self, check, spec, rho):
        """A NaN y failed the precondition, or was named x."""
        poly = weyl.OrbitPolytope(spec, np.array(rho))
        with pytest.raises(ValueError, match="^y must be finite, not nan$"):
            check(poly, 0.5, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("check", [
        lambda poly, y: weyl.prop65_check(poly, 0.5, y),
        lambda poly, y: weyl.lemma44_check(poly, 0.5, y),
        weyl.polytope_contains], ids=["prop65", "lemma44", "contains"])
    def test_wrong_shape_y_named(self, check):
        """A y of the wrong length was named x, from the chamber
        projection, or failed lemma44's precondition."""
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match=r"^y must be a vector of 2 "
                           r"entries, got shape \(1,\)$"):
            check(poly, [1.0])

    def test_overflowing_stretch_is_outside(self):
        """No RuntimeWarning either, which the suite turns into an
        error."""
        poly = weyl.OrbitPolytope(spec_a(1), np.array([5.0, -5.0]))
        assert not weyl.prop65_check(poly, 1e308, np.zeros(2))
        assert not weyl.lemma44_check(poly, 1e308, np.array([-5.0, 5.0]))


def _hull_ref(poly, x):
    """Hull membership by the dual-cone partial sums, written out afresh
    with np.sort in place of the chamber projection's argsort."""
    b = poly.spec.family == "b"
    cums = np.cumsum(poly.rho - np.sort(np.abs(x) if b else x)[::-1])
    if b:
        return bool(np.all(cums >= -weyl.TOL))
    return bool(np.all(cums[:-1] >= -weyl.TOL)
                and abs(cums[-1]) <= weyl.TOL)


class TestLemma44:
    """The mirrored condition for antidominant points."""

    def test_agrees_with_explicit_formula(self):
        """One formula serves both families: lemma44_check is membership
        of (1+eps)y + eps rho, and for family b it equals prop65_check
        at -y, the path it once took.  The points are the vertices of K
        and random mixtures of them, mapped to the antidominant side
        (-v for family b, v reversed for family a), on rho with ties
        half the time."""
        gen = np.random.default_rng(44)
        results = []
        for spec in [weyl.RootSystemSpec(f, q)
                     for f in "ab" for q in range(1, 5)]:
            for _ in range(10):
                rho = gen.integers(0, 4, spec.dim) \
                    + gen.random(spec.dim) * (gen.random() < 0.5)
                rho = np.sort(rho)[::-1]
                if spec.family == "a":
                    rho = rho - rho.mean()
                poly = weyl.OrbitPolytope(spec, rho)
                verts = np.array(weyl.polytope_vertices_K(poly))
                wts = gen.dirichlet(np.ones(len(verts)), size=12)
                for v in list(verts) + list(wts @ verts):
                    y = -v if spec.family == "b" else v[::-1]
                    for eps in (0.01, 0.1, 0.5, 1.0, 2.0):
                        got = weyl.lemma44_check(poly, eps, y)
                        assert got == _hull_ref(
                            poly, (1.0 + eps) * y + eps * rho), (rho, y, eps)
                        if spec.family == "b":
                            assert got == weyl.prop65_check(poly, eps, -y)
                        results.append(got)
        assert len(results) >= 6000
        assert 0 < sum(results) < len(results)

    def test_b_family_mirrors_prop65(self):
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        y = np.array([-1.0, -0.5])
        assert weyl.lemma44_check(poly, 0.5, y) == \
            weyl.prop65_check(poly, 0.5, -y)

    def test_a_family_direct(self):
        rho = np.array([1.0, 0.0, -1.0])
        poly = weyl.OrbitPolytope(spec_a(2), rho)
        assert weyl.lemma44_check(poly, 0.2, -rho)

    def test_precondition(self):
        poly = weyl.OrbitPolytope(spec_b(2), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            weyl.lemma44_check(poly, 0.5, np.array([1.0, 0.5]))


class TestEps0:
    """The estimated largest shrink factor."""

    def test_b2_is_one(self):
        assert weyl.eps0_estimate(spec_b(2), rho_samples=8) == 1.0

    def test_a2_near_half(self):
        got = weyl.eps0_estimate(spec_a(2), rho_samples=8)
        assert abs(got - 0.5) < 0.02

    def test_b3_below_one(self):
        got = weyl.eps0_estimate(spec_b(3), rho_samples=8)
        assert got < 1.0

    @pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan, np.inf])
    def test_resolution_must_be_positive_and_finite(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            weyl.eps0_estimate(spec_a(2), rho_samples=0,
                               resolution=resolution)

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            weyl.eps0_estimate(spec_b(5), rho_samples=2)

    @pytest.mark.parametrize("count", [-5, 2.5])
    def test_rho_samples_is_a_count(self, count):
        """A negative count scanned the wall pinches alone and printed
        eps0 1.0; a fraction raised a TypeError from range."""
        with pytest.raises(ValueError, match="^rho_samples must be at least "
                           "0 and whole, not %s$" % count):
            weyl.eps0_estimate(spec_b(2), rho_samples=count)
