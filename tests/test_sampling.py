"""Tests for the Haar and matrix-ball samplers and the shard engine."""

import weakref

import numpy as np
import pytest

from hypergeo import algebra, sampling
from oracles import kappa_rejection


class TestHaar:
    """Haar-distributed unitaries over the three fields."""

    def test_unitarity(self):
        gen = np.random.default_rng(0)
        for field, q in (("r", 3), ("c", 3), ("h", 2)):
            u = sampling.haar_unitary(field, q, gen)
            e = algebra._embed(u, field)
            np.testing.assert_allclose(
                algebra._ct(e) @ e, np.eye(e.shape[-1]), atol=1e-12)

    def test_quaternion_structure_preserved(self):
        gen = np.random.default_rng(1)
        u = sampling.haar_unitary("h", 3, gen)
        assert u.shape == (3, 3, 4)
        # embedding and re-extraction round-trips
        np.testing.assert_allclose(
            algebra._chi_inv(algebra._chi(u)), u, atol=1e-14)

    def test_first_entry_second_moment(self):
        """E|u_11|^2 = 1/q for a Haar column."""
        n = 4000
        for field, q in (("r", 3), ("c", 3), ("h", 3)):
            gen = np.random.default_rng(2)
            us = sampling._haar_batch(field, q, n, gen)
            col = us[:, :, 0]
            s = np.sum(np.abs(col) ** 2, axis=1)
            np.testing.assert_allclose(s, np.ones(n), atol=1e-10)
            ent = np.abs(us[:, 0, 0]) ** 2
            if field == "h":
                ent = ent + np.abs(us[:, 0, 1]) ** 2
            err = ent.std(ddof=1) / np.sqrt(n)
            assert abs(ent.mean() - 1.0 / q) < 4.0 * err

    def test_reproducible(self):
        a = sampling.haar_unitary("c", 2, np.random.default_rng(5))
        b = sampling.haar_unitary("c", 2, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestBallSampler:
    """The triangular parametrization of the matrix ball."""

    def test_row_norm_beta_moments(self):
        """|y_j|^2 is Beta(dq/2, d(p-q-j+1)/2); check the mean."""
        n = 20000
        for field, q, p in (("r", 2, 5.0), ("c", 2, 4.0), ("h", 2, 4.5)):
            d = algebra.field_dim(field)
            gen = np.random.default_rng(3)
            rows = sampling._ball_rows(field, q, p, n, gen)
            for j, y in enumerate(rows, start=1):
                e = y.shape[1]
                s = np.sum(np.abs(y) ** 2, axis=(1, 2)) / e
                a = 0.5 * d * q
                b = 0.5 * d * (p - q - j + 1)
                want = a / (a + b)
                err = s.std(ddof=1) / np.sqrt(n)
                assert abs(s.mean() - want) < 4.0 * err, (field, j)

    def test_ball_constraint(self):
        gen = np.random.default_rng(4)
        for field, q, p in (("r", 2, 3.5), ("c", 3, 6.0), ("h", 2, 4.0)):
            w = sampling._mp_batch(field, q, p, 200, gen)
            s1 = np.linalg.svd(w, compute_uv=False)[:, 0]
            assert np.all(s1 < 1.0)

    def test_degenerate_sits_on_boundary(self):
        gen = np.random.default_rng(5)
        for field, q in (("r", 2), ("c", 2), ("h", 2)):
            w = sampling._mp_degenerate_batch(field, q, 100, gen)
            s1 = np.linalg.svd(w, compute_uv=False)[:, 0]
            np.testing.assert_allclose(s1, 1.0, atol=1e-8)

    def test_native_shapes(self):
        w = sampling.sample_mp("h", 2, 4.0, np.random.default_rng(6))
        assert w.shape == (2, 2, 4)
        w = sampling.sample_mp("r", 3, 6.0, np.random.default_rng(6))
        assert w.shape == (3, 3)

    def test_p_range_enforced(self):
        with pytest.raises(ValueError):
            sampling.sample_mp("r", 2, 3.0, np.random.default_rng(0))

    def test_p_map_matches_batch(self):
        gen = np.random.default_rng(7)
        factors = [np.array([0.3, 0.1]), np.array([0.2, -0.4])]
        w = sampling.p_map(factors, "r")
        rows = [sampling._row_embed("r", f[None, :, None]) for f in factors]
        np.testing.assert_allclose(
            w, sampling._p_map_batch(rows)[0], atol=1e-12)

    def test_p_map_rejects_large_factor(self):
        with pytest.raises(ValueError):
            sampling.p_map([np.array([0.3, 0.1]), np.array([1.0, 0.2])], "r")

    def test_p_map_boundary_flag(self):
        top = np.array([0.3, 0.1])
        last = np.array([0.6, 0.8])
        with pytest.raises(ValueError):
            sampling.p_map([top, last], "r")
        w = sampling.p_map([top, last], "r", allow_boundary=True)
        s1 = np.linalg.svd(w, compute_uv=False)[0]
        np.testing.assert_allclose(s1, 1.0, atol=1e-12)


class TestKappa:
    """The closed-form ball mass against rejection sampling."""

    def test_known_exact_values(self):
        np.testing.assert_allclose(sampling.kappa(3.0, 1, 1), 2.0)
        np.testing.assert_allclose(sampling.kappa(2.0, 2, 1), np.pi)

    def test_rejection_oracle(self):
        for p, d, q in ((5.0, 1, 2), (6.0, 2, 2), (7.0, 4, 1)):
            mean, err = kappa_rejection(p, d, q, 120000, seed=11)
            assert abs(sampling.kappa(p, d, q) - mean) < 4.0 * err

    def test_needs_integrable_density(self):
        with pytest.raises(ValueError):
            sampling.kappa(3.0, 1, 2)


class TestShardEngine:
    """Deterministic sharding of Monte-Carlo sums."""

    def test_shard_plan_totals(self):
        assert sampling.shard_plan(1) == [1]
        assert sum(sampling.shard_plan(100000)) == 100000
        assert max(sampling.shard_plan(100000)) <= sampling.SHARD_SIZE

    def test_shard_plan_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            sampling.shard_plan(0)

    def test_non_finite_estimate_rejected(self):
        def shard_fn(shard, count):
            return sampling.shard_moments([np.full((count, 1), np.inf)])

        with pytest.raises(ValueError):
            sampling.mc_run(shard_fn, 100)

    def test_negative_seed_rejected(self):
        for seed, stream_id in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                sampling.RngStream(seed, stream_id)

    def test_shard_moments_bits(self):
        gen = np.random.default_rng(8)
        real = gen.standard_normal((300, 3))
        cplx = real + 1j * gen.standard_normal((300, 3))
        sums, sqs = sampling.shard_moments([real, cplx])
        np.testing.assert_array_equal(
            sums, np.concatenate([real.sum(axis=0), cplx.sum(axis=0)]))
        np.testing.assert_array_equal(
            sqs, np.concatenate([(np.abs(real) ** 2).sum(axis=0),
                                 (np.abs(cplx) ** 2).sum(axis=0)]))

    def test_shard_moments_drops_each_block(self):
        """Block k is freed before block k + 1 is built."""
        refs = []

        def block(k):
            vals = np.full((64, 2), k + 1j)
            refs.append(weakref.ref(vals))
            return vals

        def blocks():
            for k in range(3):
                assert all(ref() is None for ref in refs), \
                    "block %d still alive" % (k - 1)
                yield block(k)

        sums, _ = sampling.shard_moments(blocks())
        np.testing.assert_array_equal(sums.real, np.repeat([0, 64, 128], 2))

    def test_streams_differ_by_role(self):
        a = sampling.shard_stream(0, 0, sampling.ROLE_UNITARY)
        b = sampling.shard_stream(0, 0, sampling.ROLE_BALL)
        assert a.generator().random() != b.generator().random()

    def test_streams_reproducible(self):
        a = sampling.shard_stream(9, 3, 1).generator().random(4)
        b = sampling.shard_stream(9, 3, 1).generator().random(4)
        np.testing.assert_array_equal(a, b)

    def test_worker_count_is_invisible(self):
        def shard_fn(shard, count):
            gen = sampling.shard_stream(0, shard, sampling.ROLE_AUX).generator()
            return sampling.shard_moments([gen.random((count, 1))])

        one = sampling.mc_run(shard_fn, 50000, workers=1)
        four = sampling.mc_run(shard_fn, 50000, workers=4)
        np.testing.assert_array_equal(one[0], four[0])
        np.testing.assert_array_equal(one[1], four[1])
        np.testing.assert_array_equal(one[2], four[2])

    def test_keep_parts_sums_to_totals(self):
        def shard_fn(shard, count):
            gen = sampling.shard_stream(1, shard, 2).generator()
            return sampling.shard_moments([gen.random((count, 1))])

        mean, _, parts = sampling.mc_run(shard_fn, 30000)
        assert len(parts) == len(sampling.shard_plan(30000))
        np.testing.assert_allclose(
            30000 * mean[0], sum(p[0] for p in parts), rtol=1e-12)
