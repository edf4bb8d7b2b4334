import hashlib
import math
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from graphcorr.detect import TESTS, qap_local_search
from graphcorr.graphs import BinaryGraph, Permutation, intersect, relabel
from graphcorr import graphs, sampling
from graphcorr.sampling import (
    ErParams,
    GaussianParams,
    SeedSpec,
    random_permutation,
    rho_er,
    rng_from_seed,
    sample_null_er,
    sample_null_gaussian,
    sample_planted_er,
    sample_planted_gaussian,
)


def er_joint_pmf(p: float, s: float) -> dict[tuple[int, int], float]:
    """Joint pmf of an aligned edge pair (a, b) under the planted model."""
    return {
        (1, 1): p * s * s,
        (1, 0): p * s * (1 - s),
        (0, 1): p * s * (1 - s),
        (0, 0): 1 - 2 * p * s + p * s * s,
    }


def aligned_pairs_er(params, seed, sampler, draws):
    """Pooled (A_ij, B_{pi(i)pi(j)}) cell counts over several planted draws."""
    counts = np.zeros((2, 2), dtype=np.int64)
    for t in range(draws):
        a, b, pi = sampler(params, SeedSpec(seed, t))
        bpi = relabel(b, pi)
        both = len(a.edges & bpi.edges)
        a_only = a.edge_count - both
        b_only = bpi.edge_count - both
        m = params.n * (params.n - 1) // 2
        counts += np.array([[m - a.edge_count - b_only, b_only], [a_only, both]])
    return counts


def sample_planted_er_parent(params, seed):
    """Correlated pair via the parent-graph construction (cross-check oracle).

    A parent G(n, p) is drawn and independently subsampled twice with
    probability s; the second subsample is pushed through pi.  Realizes the
    same per-edge joint law as :func:`sample_planted_er`.
    """
    rng = rng_from_seed(seed)
    n, p, s = params.n, params.p, params.s
    pi = random_permutation(n, rng)
    parent = sampling._gnp_indices(n * (n - 1) // 2, p, rng)
    a_idx = parent[rng.random(len(parent)) < s]
    matched = parent[rng.random(len(parent)) < s]
    b = BinaryGraph.from_trusted_indices(n, graphs.map_pair_indices(matched, n, pi.array))
    return BinaryGraph.from_trusted_indices(n, a_idx), b, pi


def _gnp_indices_parent(m, q, rng, forbidden=None):
    """The decode as it stood before the ranks were sorted: ranks searched in draw order (oracle)."""
    if forbidden is None:
        return rng.choice(m, int(rng.binomial(m, q)), replace=False)
    f = np.sort(np.asarray(forbidden, dtype=np.int64))
    admissible = m - len(f)
    r = rng.choice(admissible, int(rng.binomial(admissible, q)), replace=False)
    return r + np.searchsorted(f - np.arange(len(f)), r, side="right")


def _gnp_deferred_parent(m, q, rng, forbidden=None):
    """The unsorted decode drawn at once, in the ``(count, draw)`` form the samplers take (oracle)."""
    idx = _gnp_indices_parent(m, q, rng, forbidden)
    return len(idx), lambda: idx


class WatchedGenerator:
    """A generator from ``rng_from_seed`` that counts its ``choice`` draws; once gated, each one waits for ``release``."""

    def __init__(self, rng):
        self.rng, self.choices, self.gated = rng, 0, False
        self.started, self.release = threading.Event(), threading.Event()

    def choice(self, *args, **kwargs):
        self.choices += 1
        if self.gated:
            self.started.set()
            assert self.release.wait(60)
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def watched_draw(monkeypatch, sampler, params, seed):
    """``sampler(params, seed)`` on a :class:`WatchedGenerator`, returned next to the draw."""
    watched = []
    with monkeypatch.context() as m:
        m.setattr(sampling, "rng_from_seed", lambda s: watched.append(WatchedGenerator(rng_from_seed(s))) or watched[-1])
        draw = sampler(params, seed)
    return draw, watched[0]


def eager_relabel(g, pi):
    """``relabel(g, pi)`` built from vertex pairs: an edge {pi^-1(u), pi^-1(v)} for each edge {u, v} of ``g`` (oracle)."""
    inv = pi.invert()
    return BinaryGraph(g.n, [(inv(u), inv(v)) for u, v in g.edges])


def in_thread(call):
    """``call()`` run in a daemon thread, so a call that deadlocks fails the test after 60 s instead of hanging.

    It takes no arguments, since a failure report shows arguments, and the repr of a graph reads its index.
    """
    out = []
    worker = threading.Thread(target=lambda: out.append(call()), daemon=True)
    worker.start()
    worker.join(60)
    assert not worker.is_alive(), "the call did not return within 60 s"
    assert out, "the call raised in its thread"
    return out[0]


def planted_gaussian_oracle(params, seed):
    """The zeros, scatter and transpose construction of B, on the sampler's stream."""
    rng = rng_from_seed(seed)
    n, m, rho = params.n, params.n * (params.n - 1) // 2, params.rho
    pi = random_permutation(n, rng)
    a_flat = rng.standard_normal(m)
    matched = rho * a_flat + math.sqrt(1 - rho * rho) * rng.standard_normal(m)
    b = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    p = np.asarray(pi.mapping)
    b[p[iu], p[ju]] = matched
    return b + b.T, pi


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianParams(5, 1.0)
        with pytest.raises(ValueError):
            ErParams(5, 0.0, 0.5)
        with pytest.raises(ValueError):
            ErParams(5, 0.5, 0.0)
        ErParams(5, 0.5, 1.0)  # s = 1 allowed

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ErParams(2.5, 0.5, 0.5),
            lambda: ErParams(5.0, 0.5, 0.5),
            lambda: ErParams(True, 0.5, 0.5),
            lambda: ErParams("5", 0.5, 0.5),
            lambda: GaussianParams(3.0, 0.5),
            lambda: GaussianParams(True, 0.5),
            lambda: GaussianParams(np.float64(3), 0.5),
        ],
    )
    def test_rejects_non_integer_n(self, make):
        with pytest.raises(ValueError, match="vertices n must be an integer"):
            make()

    @pytest.mark.parametrize(
        "make",
        [lambda: ErParams(5, 0.5, True), lambda: GaussianParams(5, False), lambda: ErParams(5, 0.5, np.True_)],
    )
    def test_rejects_bool_parameters(self, make):
        # the range checks read True as 1 and False as 0
        with pytest.raises(ValueError, match="not bools"):
            make()

    def test_numpy_integer_n_is_an_int(self):
        for params in (ErParams(np.int64(5), 0.5, 0.5), GaussianParams(np.int32(5), 0.5)):
            assert type(params.n) is int and params.n == 5
        with pytest.raises(ValueError, match="n must be positive"):
            ErParams(0, 0.5, 0.5)

    def test_rho_er_values(self):
        assert rho_er(0.5, 1.0) == 1.0
        assert abs(rho_er(0.5, 0.5) - 1 / 3) < 1e-15
        assert rho_er(0.5, 0.0) == 0.0
        with pytest.raises(ValueError):
            rho_er(1.0, 0.5)

    def test_er_joint_pmf_sums_to_one(self):
        pmf = er_joint_pmf(0.4, 0.7)
        assert abs(sum(pmf.values()) - 1) < 1e-15
        assert abs(pmf[(1, 1)] - 0.4 * 0.49) < 1e-15


class TestDeterminism:
    def test_bit_identical_reproduction(self):
        for sampler, params in [
            (sample_null_gaussian, GaussianParams(20, 0.0)),
            (sample_planted_gaussian, GaussianParams(20, 0.5)),
            (sample_null_er, ErParams(30, 0.3, 0.5)),
            (sample_planted_er, ErParams(30, 0.3, 0.5)),
        ]:
            one = sampler(params, SeedSpec(123, 7))
            two = sampler(params, SeedSpec(123, 7))
            for x, y in zip(one, two):
                if hasattr(x, "edges"):
                    assert x.edges == y.edges
                elif hasattr(x, "weight"):
                    assert np.array_equal(x.weight, y.weight)
                else:
                    assert x == y

    def test_distinct_streams_differ(self):
        params = ErParams(30, 0.3, 0.5)
        a1, _ = sample_null_er(params, SeedSpec(123, 0))
        a2, _ = sample_null_er(params, SeedSpec(123, 1))
        assert a1.edges != a2.edges

    def test_tuple_stream_ids(self):
        g1 = rng_from_seed(SeedSpec(5, (1, 2, 3))).integers(0, 1 << 30, 4)
        g2 = rng_from_seed(SeedSpec(5, (1, 2, 3))).integers(0, 1 << 30, 4)
        g3 = rng_from_seed(SeedSpec(5, (1, 2, 4))).integers(0, 1 << 30, 4)
        assert np.array_equal(g1, g2) and not np.array_equal(g1, g3)


class TestSeedRefusals:
    """A seed is an integer address: a bool, float or string is refused, not truncated or parsed."""

    @pytest.mark.parametrize(
        "seed",
        [2.7, 2.0, "5", True, np.True_, np.float64(3), SeedSpec(True, 0), SeedSpec(2.5, 0), SeedSpec("1", 0),
         SeedSpec(1, True), SeedSpec(1, (True, 0)), SeedSpec(1, (0, 1.5)), SeedSpec(1, ("2",))],
        ids=repr,
    )
    def test_rng_from_seed_refuses(self, seed):
        with pytest.raises(TypeError, match=f"seed must be built of integers, got {re.escape(repr(seed))}"):
            rng_from_seed(seed)

    def test_extra_indices_refused_too(self):
        with pytest.raises(TypeError, match="seed"):
            rng_from_seed(SeedSpec(1, 0), True)
        with pytest.raises(TypeError, match="seed"):
            rng_from_seed(3, 0.5)

    def test_samplers_and_search_refuse_a_float_seed(self):
        a, b, _ = sample_planted_er(ErParams(12, 0.5, 0.8), SeedSpec(1, 0))
        with pytest.raises(TypeError, match="2.5"):
            qap_local_search(a, b, seed=2.5)
        with pytest.raises(TypeError, match="seed"):
            sample_null_er(ErParams(12, 0.5, 0.8), 1.0)

    def test_numpy_integers_give_the_same_streams(self):
        draw = lambda seed, *extra: rng_from_seed(seed, *extra).integers(0, 1 << 30, 4)
        assert np.array_equal(draw(np.int64(7)), draw(7))
        assert np.array_equal(draw(SeedSpec(np.int32(7), (np.int8(1), 2))), draw(SeedSpec(7, (1, 2))))
        assert np.array_equal(draw(SeedSpec(7, 1), np.uint8(4)), draw(SeedSpec(7, 1), 4))

    def test_negative_seed_keeps_numpys_refusal(self):
        with pytest.raises(ValueError):
            rng_from_seed(-1)
        with pytest.raises(ValueError):
            rng_from_seed(SeedSpec(-3, 0))


# sha256 over the sorted edges and the alignments of the three ER samplers at
# 3 seeds and n in {30, 2000}; the value pins the ER streams across changes to
# how graphs are stored.
ER_STREAM_SHA256 = "c485a58463315aa91eb8f8cd1a01a253ed120f08e63aa22fbbd657ed4c89296d"


class TestStreamPin:
    def test_er_streams_unchanged(self):
        h = hashlib.sha256()
        for sampler in (sample_null_er, sample_planted_er, sample_planted_er_parent):
            for n, p in ((30, 0.3), (2000, 0.01)):
                for seed in (0, 1, 2):
                    for x in sampler(ErParams(n, p, 0.8), SeedSpec(seed, 5)):
                        h.update(repr(sorted(x.edges) if isinstance(x, BinaryGraph) else x.mapping).encode())
        assert h.hexdigest() == ER_STREAM_SHA256


class TestSampledGraphs:
    """Sampler graphs draw B's edge set, sort and relabel on first read, into the same value as an eager build."""

    @pytest.mark.parametrize("n", [1, 2, 30, 2000])
    @pytest.mark.parametrize("p, s", [(0.01, 0.8), (0.01, 1.0), (1e-9, 1e-3)], ids=["er", "s=1", "empty"])
    def test_value_matches_eager_build(self, n, p, s):
        params = ErParams(n, p, s)
        for sampler in (sample_null_er, sample_planted_er):
            for t in range(2):
                draw = sampler(params, SeedSpec(15, t))
                for g in draw[:2]:
                    count = g.edge_count  # read before anything builds index
                    eager = BinaryGraph.from_indices(n, g.index)
                    assert g.edge_count == count == len(g.index)
                    assert g == eager and hash(g) == hash(eager)
                    assert pickle.loads(pickle.dumps(g)) == g
                    assert g.index.dtype == np.int64 and not g.index.flags.writeable
                    assert (np.diff(g.index) > 0).all()
                    if p < 1e-6:
                        assert count == 0 and g.edges == frozenset()

    @pytest.mark.parametrize("n", [1, 2, 30, 2000])
    def test_relabel_of_an_unread_graph_matches_the_eager_relabel(self, n, monkeypatch):
        monkeypatch.setattr(graphs, "_FIRST_READ", threading.Lock())  # a deadlock keeps this lock, not the suite's
        params = ErParams(n, 0.01, 0.8)
        for t in range(2):
            b, pi = sample_planted_er(params, SeedSpec(18, t))[1:]
            sigma = random_permutation(n, rng_from_seed(SeedSpec(18, t), 1))
            # B^pi of a B never read, then its relabel, read first: a draw that took the first-read lock again would deadlock
            once = in_thread(lambda: relabel(b, pi))
            twice = in_thread(lambda: relabel(once, sigma))
            in_thread(lambda: twice.index)
            eager_once = eager_relabel(b, pi)
            eager_twice = eager_relabel(eager_once, sigma)
            assert once == eager_once and twice == eager_twice
            for source, perm, eager in ((b, pi, eager_once), (once, sigma, eager_twice)):
                # each read below is the first read of a relabelled graph
                assert relabel(source, perm).edge_count == eager.edge_count
                assert relabel(source, perm) == eager and hash(relabel(source, perm)) == hash(eager)
                assert pickle.dumps(relabel(source, perm)) == pickle.dumps(eager)
                index = relabel(source, perm).index
                assert index.dtype == np.int64 and not index.flags.writeable

    def test_threads_racing_on_the_first_read_agree(self, monkeypatch):
        params = ErParams(300, 0.05, 0.8)
        monkeypatch.setattr(graphs, "_FIRST_READ", threading.Lock())  # a deadlock keeps this lock, not the suite's
        probe = relabel(sample_planted_er(params, SeedSpec(17, 0))[1], Permutation.identity(params.n))
        in_thread(lambda: probe.index)  # a relabel that deadlocks fails here, not in the pool
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for sampler in (sample_null_er, sample_planted_er):
                    for t in range(10):
                        eager = BinaryGraph.from_indices(params.n, sampler(params, SeedSpec(17, t))[1].index)
                        sigma = random_permutation(params.n, rng_from_seed(SeedSpec(17, t), 1))
                        b, moved = sampler(params, SeedSpec(17, t))[1], relabel(sampler(params, SeedSpec(17, t))[1], sigma)
                        unread = ((b, eager, int(sampler is sample_planted_er)), (moved, eager_relabel(eager, sigma), 1))
                        for g, ref, relabels in unread:
                            calls, real = [], graphs.map_pair_indices
                            with monkeypatch.context() as m:
                                m.setattr(graphs, "map_pair_indices", lambda *args: calls.append(args) or real(*args))
                                seen = list(pool.map(lambda k: g.index if k % 4 else g.edge_count, range(16), timeout=60))
                            counts, indices = seen[::4], [x for k, x in enumerate(seen) if k % 4]
                            assert all(x == ref.edge_count for x in counts)
                            assert all(np.array_equal(x, ref.index) and not x.flags.writeable for x in indices)
                            assert len(calls) == relabels  # the draw, with its relabel, ran once
                        expected = eager.index
                    # edge_count read while the first read of index is drawing B's edges
                    draw, rng = watched_draw(monkeypatch, sampler, params, SeedSpec(17, t))
                    b = draw[1]
                    rng.gated = True
                    first = pool.submit(lambda: b.index)
                    assert rng.started.wait(60)
                    waiting = pool.submit(lambda: b.index)
                    assert b.edge_count == len(expected) and not first.done() and not waiting.done()
                    rng.release.set()
                    assert np.array_equal(first.result(60), expected) and waiting.result(60) is first.result()
                    assert rng.choices == 2  # A's draw in the sampler, B's once on first read
        finally:
            sys.setswitchinterval(old)

    def test_edge_count_test_never_relabels(self, monkeypatch):
        params = ErParams(200, 0.1, 0.8)
        for sampler, relabels in ((sample_null_er, 0), (sample_planted_er, 1)):
            with monkeypatch.context() as m:
                m.setattr(sampling, "_gnp_deferred", _gnp_deferred_parent)
                eager = sampler(params, SeedSpec(16, 0))[1]  # drawn and decoded at once
                eager.index
            unread = [sampler(params, SeedSpec(16, 0))[1] for _ in range(2)]
            assert unread[0] == eager and hash(unread[1]) == hash(eager)
            (a, b, *_), rng = watched_draw(monkeypatch, sampler, params, SeedSpec(16, 0))
            calls, real = [], graphs.map_pair_indices
            with monkeypatch.context() as m:
                m.setattr(graphs, "map_pair_indices", lambda *args: calls.append(args) or real(*args))
                TESTS["edges"].statistic(a, b, params)
                assert calls == [] and rng.choices == 1  # A's draw only: B's edges are neither drawn nor relabeled
                assert pickle.dumps(b) == pickle.dumps(eager)  # the first read of index
                assert rng.choices == 2 and len(calls) == relabels
                assert b.edge_count == eager.edge_count and np.array_equal(b.to_dense(), eager.to_dense())
                assert b.edges == eager.edges and rng.choices == 2 and len(calls) == relabels


class TestGaussian:
    def test_null_moments(self):
        # ~1.3e5 weight pairs pooled over draws
        n, draws = 80, 42
        a_vals, b_vals = [], []
        for t in range(draws):
            a, b = sample_null_gaussian(GaussianParams(n, 0.0), SeedSpec(1, t))
            iu = np.triu_indices(n, 1)
            a_vals.append(a.weight[iu])
            b_vals.append(b.weight[iu])
        a_vals = np.concatenate(a_vals)
        b_vals = np.concatenate(b_vals)
        n_pairs = len(a_vals)
        assert n_pairs >= 10**5
        assert abs(a_vals.mean()) < 0.01
        assert abs(np.corrcoef(a_vals, b_vals)[0, 1]) < 0.01

    def test_planted_correlation(self):
        n, draws, rho = 80, 42, 0.8
        prods = []
        b_vals = []
        for t in range(draws):
            a, b, pi = sample_planted_gaussian(GaussianParams(n, rho), SeedSpec(2, t))
            bpi = relabel(b, pi)
            iu = np.triu_indices(n, 1)
            x, y = a.weight[iu], bpi.weight[iu]
            prods.append((x, y))
            b_vals.append(b.weight[iu])
        x = np.concatenate([p[0] for p in prods])
        y = np.concatenate([p[1] for p in prods])
        assert abs(np.corrcoef(x, y)[0, 1] - rho) < 0.01
        # marginal of B stays standard
        bv = np.concatenate(b_vals)
        assert abs(bv.var() - 1) < 0.02

    def test_rho_zero_equals_null_law(self):
        # same machinery, independence at rho = 0
        a, b, pi = sample_planted_gaussian(GaussianParams(60, 0.0), SeedSpec(3, 0))
        iu = np.triu_indices(60, 1)
        x = a.weight[iu]
        y = relabel(b, pi).weight[iu]
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05


    def test_planted_b_matches_scatter_oracle(self):
        for n in (1, 2, 5, 9, 30):
            for t in range(6):
                params = GaussianParams(n, 0.7)
                _, b, pi = sample_planted_gaussian(params, SeedSpec(13, t))
                b_ref, pi_ref = planted_gaussian_oracle(params, SeedSpec(13, t))
                assert pi == pi_ref
                assert b.weight.tobytes() == b_ref.tobytes()


class TestGnpIndices:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(0, 60),
        q=st.floats(0, 1),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distinct_in_range_and_admissible(self, m, q, data, seed):
        forbidden = data.draw(st.lists(st.integers(0, max(m - 1, 0)), unique=True, max_size=m))
        idx = sampling._gnp_indices(m, q, rng_from_seed(seed), forbidden=forbidden)
        assert len(set(idx.tolist())) == len(idx)
        assert all(0 <= v < m for v in idx.tolist())
        assert not set(idx.tolist()) & set(forbidden)
        if q == 1:
            assert sorted(idx.tolist()) == sorted(set(range(m)) - set(forbidden))

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 300), q=st.floats(0, 1), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_sorted_decode_matches_parent_decode(self, m, q, data, seed):
        forbidden = data.draw(st.lists(st.integers(0, max(m - 1, 0)), unique=True, max_size=m))
        self.assert_same_as_parent(m, q, forbidden, seed)

    # a fresh-edge q of the planted sampler, p s (1 - s) / (1 - p s), near its supremum 1 (p, s -> 1)
    Q_MAX = 0.999999 * 0.999 * 0.001 / (1 - 0.999999 * 0.999)

    @pytest.mark.parametrize("q", [0.0, 0.01, 0.5, Q_MAX, 1.0])
    @pytest.mark.parametrize(
        "m, forbidden",
        [
            (0, []),
            (1, []),
            (500, []),
            (500, [v for v in range(500) if v != 137]),
            (500, [v for v in range(500) if v != 0]),
            (500, [0, 499]),
            (500, [0, 1, 2, 250, 497, 498, 499]),
            (20000, list(range(0, 20000, 3))),
        ],
        ids=["m0", "m1", "none", "all-but-one", "all-but-first", "both-ends", "ends-runs", "every-third"],
    )
    def test_sorted_decode_matches_parent_at_the_edges(self, m, forbidden, q):
        for seed in range(4):
            self.assert_same_as_parent(m, q, forbidden, seed)

    @staticmethod
    def assert_same_as_parent(m, q, forbidden, seed):
        rng, rng_parent = rng_from_seed(SeedSpec(seed, 3)), rng_from_seed(SeedSpec(seed, 3))
        for fb in (forbidden, None):
            idx = sampling._gnp_indices(m, q, rng, forbidden=fb)
            ref = _gnp_indices_parent(m, q, rng_parent, forbidden=fb)
            assert idx.dtype == ref.dtype and np.array_equal(np.sort(idx), np.sort(ref))
            if fb is not None:
                assert (np.diff(idx) > 0).all()  # sorted ranks decode to ascending indices
        assert rng.integers(1 << 62) == rng_parent.integers(1 << 62)  # the sort moved no draw

    @pytest.mark.parametrize("n", [2, 30, 2000])
    def test_planted_graphs_match_parent_decode(self, n, monkeypatch):
        draws = [
            (params, SeedSpec(seed, t))
            for params in (ErParams(n, 0.01, 0.8), ErParams(n, 0.6, 0.3))
            for seed in (0, 29)
            for t in range(3)
        ]
        got = [sample_planted_er(params, seed) for params, seed in draws]
        monkeypatch.setattr(sampling, "_gnp_deferred", _gnp_deferred_parent)  # A's and B's draws, decoded at once
        for (params, seed), (a, b, pi) in zip(draws, got):
            a_ref, b_ref, pi_ref = sample_planted_er(params, seed)
            assert pi == pi_ref
            for g, ref in ((a, a_ref), (b, b_ref)):
                assert g.edge_count == ref.edge_count
                assert g == ref and hash(g) == hash(ref)
                assert g.edges == ref.edges

    def test_inclusion_patterns_uniform(self):
        # q = 1/2: each admissible index an independent fair coin, so all 2^5
        # inclusion patterns of {0, 2, 3, 5, 6} are equally likely
        admissible = [0, 2, 3, 5, 6]
        rng = rng_from_seed(SeedSpec(14, 0))
        counts = np.zeros(32, dtype=np.int64)
        for _ in range(32 * 200):
            idx = set(sampling._gnp_indices(7, 0.5, rng, forbidden=[4, 1]).tolist())
            counts[sum(1 << b for b, v in enumerate(admissible) if v in idx)] += 1
        assert counts.sum() == 32 * 200
        assert stats.chisquare(counts).pvalue > 1e-4


class TestEr:
    def test_null_density_and_independence(self):
        n, p, s, draws = 100, 0.5, 0.5, 21
        m = n * (n - 1) // 2
        dens = []
        joint11 = []
        for t in range(draws):
            a, b = sample_null_er(ErParams(n, p, s), SeedSpec(4, t))
            dens.append(a.edge_count / m)
            joint11.append(len(a.edges & b.edges) / m)
        total = draws * m
        hw = 3 * math.sqrt(0.25 * 0.75 / total)
        assert abs(np.mean(dens) - 0.25) < max(hw, 0.01)
        assert abs(np.mean(joint11) - 0.25**2) < 0.01

    def test_planted_joint_pmf(self):
        params = ErParams(100, 0.5, 0.5)
        counts = aligned_pairs_er(params, 5, sample_planted_er, draws=21)
        total = counts.sum()
        pmf = er_joint_pmf(0.5, 0.5)
        assert total >= 10**5
        for (a, b), prob in pmf.items():
            assert abs(counts[a, b] / total - prob) < 0.01
        # exact cell probabilities: (0.625, 0.125, 0.125, 0.125)
        assert pmf[(0, 0)] == 0.625

    def test_both_planted_routes_same_law(self):
        # chi-square goodness of fit for each route; reject only below 1e-4
        params = ErParams(100, 0.4, 0.6)
        pmf = er_joint_pmf(params.p, params.s)
        for sampler in (sample_planted_er, sample_planted_er_parent):
            counts = aligned_pairs_er(params, 6, sampler, draws=21)
            total = counts.sum()
            expected = np.array([[pmf[(0, 0)], pmf[(0, 1)]], [pmf[(1, 0)], pmf[(1, 1)]]])
            chi2 = ((counts - total * expected) ** 2 / (total * expected)).sum()
            pval = stats.chi2.sf(chi2, df=3)
            assert pval > 1e-4, f"{sampler.__name__}: chi2={chi2:.2f}"

    def test_s_one_gives_isomorphic_pair(self):
        a, b, pi = sample_planted_er(ErParams(40, 0.3, 1.0), SeedSpec(7, 0))
        assert intersect(a, relabel(b, pi)) == a
        assert a.edge_count == b.edge_count

    def test_marginal_of_b(self):
        params = ErParams(100, 0.4, 0.6)
        m = 100 * 99 // 2
        dens = []
        for t in range(21):
            _, b, _ = sample_planted_er(params, SeedSpec(8, t))
            dens.append(b.edge_count / m)
        assert abs(np.mean(dens) - 0.24) < 0.01

    def test_intersection_density(self):
        params = ErParams(150, 0.4, 0.5)
        m = 150 * 149 // 2
        vals = []
        for t in range(10):
            a, b, pi = sample_planted_er(params, SeedSpec(9, t))
            vals.append(intersect(a, relabel(b, pi)).edge_count / m)
        assert abs(np.mean(vals) - 0.4 * 0.25) < 0.01

    def test_tiny_density_nearly_empty(self):
        a, b = sample_null_er(ErParams(50, 1e-6, 1e-3), SeedSpec(10, 0))
        assert a.edge_count == 0 and b.edge_count == 0
