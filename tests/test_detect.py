import itertools
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphcorr.errors import ExactLimitError
from graphcorr.graphs import (
    BinaryGraph,
    Permutation,
    WeightedGraph,
    permutation_table,
    relabel,
    symmetric_from_flat,
)
from graphcorr import detect
from graphcorr.detect import (
    TESTS,
    all_statistic_values,
    edge_count_threshold,
    kernel_er,
    kernel_gaussian,
    qap_exact,
    qap_local_search,
    statistic_given_pi,
    threshold_er,
    threshold_gaussian,
)
from graphcorr.sampling import (
    ErParams,
    GaussianParams,
    SeedSpec,
    rng_from_seed,
    sample_null_er,
    sample_null_gaussian,
    sample_planted_er,
    sample_planted_gaussian,
)


def brute_lr(a, b, params):
    """Permutation-average of kernel products, computed directly."""
    n = a.n
    am, bm = a.to_dense(), b.to_dense()
    if isinstance(params, ErParams):
        kern = lambda x, y: kernel_er(int(x), int(y), params.p, params.s)
    else:
        kern = lambda x, y: kernel_gaussian(x, y, params.rho)
    total = 0.0
    for pi in itertools.permutations(range(n)):
        prod = 1.0
        for i in range(n):
            for j in range(i + 1, n):
                prod *= kern(am[i, j], bm[pi[i], pi[j]])
        total += prod
    return total / math.factorial(n)


class TestKernels:
    def test_gaussian_rho_zero(self):
        for a, b in [(0.0, 0.0), (1.5, -2.0), (3.0, 3.0)]:
            assert kernel_gaussian(a, b, 0.0) == 1.0

    def test_gaussian_symmetry(self):
        for a in np.linspace(-2, 2, 5):
            for b in np.linspace(-2, 2, 5):
                assert kernel_gaussian(a, b, 0.6) == pytest.approx(
                    kernel_gaussian(b, a, 0.6), abs=1e-15
                )

    def test_gaussian_normalization_by_quadrature(self):
        # integral of L(a,b) phi(a) phi(b) over the plane equals 1
        nodes, weights = np.polynomial.hermite.hermgauss(60)
        x = math.sqrt(2) * nodes
        w = weights / math.sqrt(math.pi)
        for rho in (0.2, 0.5, 0.7):
            vals = np.array([[kernel_gaussian(ai, bi, rho) for bi in x] for ai in x])
            integral = w @ vals @ w
            assert integral == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_domain(self):
        with pytest.raises(ValueError):
            kernel_gaussian(0.0, 0.0, 1.0)

    def test_er_values(self):
        assert kernel_er(1, 1, 0.5, 0.9) == 2.0
        # (1 - 2ps + ps^2) / (1 - ps)^2 at p = s = 1/2 is 0.625/0.5625 = 10/9
        assert kernel_er(0, 0, 0.5, 0.5) == pytest.approx(10 / 9, abs=1e-15)
        assert kernel_er(1, 0, 0.3, 0.4) == kernel_er(0, 1, 0.3, 0.4)

    def test_er_normalization_exact(self):
        for p, s in [(0.2, 0.3), (0.5, 0.5), (0.7, 0.9)]:
            q = p * s
            total = sum(
                kernel_er(a, b, p, s) * q ** (a + b) * (1 - q) ** (2 - a - b)
                for a in (0, 1)
                for b in (0, 1)
            )
            assert total == pytest.approx(1.0, abs=1e-14)


class TestStatistic:
    def test_identity_self(self):
        g = BinaryGraph(5, frozenset({(0, 1), (2, 3), (3, 4)}))
        assert statistic_given_pi(g, g, Permutation.identity(5)) == 3

    def test_matches_dense_computation(self):
        a, b, pi = sample_planted_er(ErParams(12, 0.4, 0.8), SeedSpec(1, 0))
        expected = float(np.triu(a.to_dense() * relabel(b, pi).to_dense(), 1).sum())
        assert statistic_given_pi(a, b, pi) == expected

    def test_planted_er_mean(self):
        params = ErParams(40, 0.3, 0.6)
        m = 40 * 39 // 2
        vals = [
            statistic_given_pi(*sample_planted_er(params, SeedSpec(2, t))[0:2],
                               sample_planted_er(params, SeedSpec(2, t))[2])
            for t in range(60)
        ]
        mu = m * params.p * params.s**2
        sd = math.sqrt(m * params.p * params.s**2)  # binomial scale
        assert abs(np.mean(vals) - mu) < 4 * sd / math.sqrt(60)

    def test_planted_gaussian_mean(self):
        params = GaussianParams(30, 0.7)
        m = 30 * 29 // 2
        vals = []
        for t in range(60):
            a, b, pi = sample_planted_gaussian(params, SeedSpec(3, t))
            vals.append(statistic_given_pi(a, b, pi))
        assert abs(np.mean(vals) - params.rho * m) < 4 * math.sqrt(2 * m / 60)


class TestQapExact:
    def test_n2_single_edge(self):
        a = BinaryGraph(2, frozenset({(0, 1)}))
        val, _ = qap_exact(a, a)
        assert val == 1

    def test_small_instance(self):
        a = BinaryGraph(3, frozenset({(0, 1), (0, 2)}))
        b = BinaryGraph(3, frozenset({(0, 1), (1, 2)}))
        val, arg = qap_exact(a, b)
        assert val == 2
        # brute-force cross-check
        best = max(
            statistic_given_pi(a, b, Permutation(p))
            for p in itertools.permutations(range(3))
        )
        assert val == best

    def test_self_match(self):
        g = BinaryGraph(5, frozenset({(0, 1), (1, 2), (3, 4)}))
        val, arg = qap_exact(g, g)
        assert val == g.edge_count
        assert statistic_given_pi(g, g, arg) == val

    def test_lexicographic_tie_break(self):
        empty = BinaryGraph.empty(3)
        _, arg = qap_exact(empty, empty)
        assert arg == Permutation.identity(3)

    def test_refusal_beyond_limit(self):
        g = BinaryGraph.empty(12)
        with pytest.raises(ExactLimitError, match="local_search"):
            qap_exact(g, g)

    def test_isomorphism_invariance(self):
        params = ErParams(6, 0.4, 0.7)
        a, b = sample_null_er(params, SeedSpec(4, 0))
        tau = Permutation((3, 1, 0, 5, 4, 2))
        ups = Permutation((2, 0, 4, 1, 5, 3))
        v1, _ = qap_exact(a, b)
        v2, _ = qap_exact(relabel(a, tau), relabel(b, ups))
        assert v1 == v2


EDGE_IMAGE_BLOCK = 1 << 17  # permutations per edge-image block of the reference engine


def edge_image_blocks(n):
    """Reference engine: blocks ``(start, k)`` of flat (n, n) edge-image positions.

    ``k[t, e] = pi(i) * n + pi(j)`` for pi = permutation_table(n)[start + t] and
    (i, j) the pair with linear index e.
    """
    perms = permutation_table(n)
    iu, ju = np.triu_indices(n, 1)
    for start in range(0, len(perms), EDGE_IMAGE_BLOCK):
        block = perms[start : start + EDGE_IMAGE_BLOCK].astype(np.intp)
        yield start, block[:, iu] * n + block[:, ju]


def all_statistic_values_oracle(a, b):
    """Reference engine: one gather of all C(n, 2) entries of B per permutation."""
    n = a.n
    a_flat = a.to_dense()[np.triu_indices(n, 1)]
    b_flat = b.to_dense().ravel()
    out = np.empty(math.factorial(n))
    for start, k in edge_image_blocks(n):
        out[start : start + len(k)] = b_flat[k] @ a_flat
    return out


def _broadcast_gathers(am, bm, pre, rest, pos):
    """The (n, n) gathers of the broadcast engine: B prefix pairs, A prefix pairs, B feature rows, A weights."""
    q, r = pre.shape[1], rest.shape[1]
    (ip, jp), (ir, jr) = np.triu_indices(q, 1), np.triu_indices(r, 1)
    feats = np.concatenate(
        [bm[pre[:, :, None], rest[:, None, :]].reshape(len(pre), q * r), bm[rest[:, ir], rest[:, jr]]],
        axis=1,
    )
    w = np.concatenate(
        [
            am[:q, q:][:, pos].transpose(0, 2, 1).reshape(q * r, math.factorial(r)),
            am[q:, q:][pos[:, ir], pos[:, jr]].T,
        ]
    )
    return bm[pre[:, ip], pre[:, jp]], am[ip, jp], feats, w


def broadcast_engine(a, b):
    """Reference engine: the prefix x suffix split with broadcast gathers, which the flat plan must match bit for bit."""
    pre, rest, pos, *_ = detect._plan(a.n)
    b_pp, a_pp, feats, w = _broadcast_gathers(a.to_dense(), b.to_dense(), pre, rest, pos)
    out = feats @ w
    out += (b_pp @ a_pp)[:, None]
    return out.ravel()


def _edge_images(pi, n):
    return [pi[i] * n + pi[j] for i, j in itertools.combinations(range(n), 2)]


def _draws(n, weighted, seed):
    """An independent pair, a relabeled copy and a self pair on n vertices from a fixed seed."""
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    if weighted:
        graph = lambda: WeightedGraph(symmetric_from_flat(n, rng.standard_normal(m)))
    else:
        graph = lambda: BinaryGraph.from_indices(n, np.flatnonzero(rng.random(m) < 0.4))
    a = graph()
    return [(a, graph()), (a, relabel(a, Permutation(rng.permutation(n)))), (a, a)]


class TestSplitEngine:
    """The prefix x suffix engine against the edge-image engine it replaced."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edge_image_blocks_match_loop(self, n):
        blocks = list(edge_image_blocks(n))
        assert [start for start, _ in blocks] == [0]
        k = np.concatenate([k for _, k in blocks])
        want = [_edge_images(pi, n) for pi in itertools.permutations(range(n))]
        assert k.tolist() == want

    def test_edge_image_block_seams_at_n9(self):
        n = 9
        table = permutation_table(n)
        seams = {0, 131071, 131072, 262143, 262144, math.factorial(n) - 1}
        starts = []
        for start, k in edge_image_blocks(n):
            starts.append(start)
            for t in seams:
                if start <= t < start + len(k):
                    assert k[t - start].tolist() == _edge_images(table[t].tolist(), n)
        assert starts == [0, 131072, 262144]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_er_values_equal_oracle(self, n):
        for a, b in _draws(n, weighted=False, seed=100 + n):
            want = all_statistic_values_oracle(a, b)
            got = all_statistic_values(a, b)
            np.testing.assert_array_equal(got, want)
            idx = int(np.argmax(want))
            val, arg = qap_exact(a, b)
            assert val == want[idx]
            assert arg.mapping == tuple(permutation_table(n)[idx].tolist())

    @pytest.mark.parametrize("n", range(0, 9))
    def test_gaussian_values_match_oracle(self, n):
        for a, b in _draws(n, weighted=True, seed=200 + n):
            want = all_statistic_values_oracle(a, b)
            got = all_statistic_values(a, b)
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
            idx = int(np.argmax(want))
            assert int(np.argmax(got)) == idx
            _, arg = qap_exact(a, b)
            assert arg.mapping == tuple(permutation_table(n)[idx].tolist())

    def test_nearly_symmetric_weights_match_oracle(self):
        # asymmetry within np.allclose: the engine and the oracle read different triangles of B
        a, b = _draws(7, weighted=True, seed=400)[0]
        lower = np.tril(np.ones((7, 7), dtype=bool), -1)
        b = WeightedGraph(np.where(lower, b.weight * (1 + 5e-6), b.weight))
        want = all_statistic_values_oracle(a, b)
        got = all_statistic_values(a, b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", range(0, 11))
    def test_plan_is_read_only_and_matches_itertools(self, n):
        r = min(detect.SUFFIX, n)
        pre, rest, pos, *flat = plan = detect._plan(n)
        prefixes = list(itertools.permutations(range(n), n - r))
        assert pre.tolist() == [list(p) for p in prefixes]
        assert rest.tolist() == [sorted(set(range(n)).difference(p)) for p in prefixes]
        assert pos.tolist() == np.argsort(permutation_table(r), axis=1).tolist()
        # gathering the row and column number of every entry shows where each flat index points
        rows, cols = np.indices((n, n))
        want = zip(_broadcast_gathers(rows, rows, pre, rest, pos), _broadcast_gathers(cols, cols, pre, rest, pos))
        for index, (want_i, want_j) in zip(flat, want):
            i, j = np.divmod(index, n)
            assert i.tolist() == want_i.tolist()
            assert j.tolist() == want_j.tolist()
        for arr in plan:
            assert not arr.flags.writeable
        assert detect._plan(n) is plan

    @pytest.mark.parametrize("n", range(0, 11))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_values_equal_broadcast_engine_bit_for_bit(self, n, weighted):
        for a, b in _draws(n, weighted, seed=500 + n)[:2 if n == 10 else 3]:
            np.testing.assert_array_equal(all_statistic_values(a, b), broadcast_engine(a, b))

    def test_plan_cache_holds_only_sizes_within_the_exact_limit(self, monkeypatch):
        # above the limit the engine refuses before it builds a plan or an output
        a, b = _draws(6, False, seed=5)[0]
        detect._plan.cache_clear()
        monkeypatch.setattr(detect, "QAP_EXACT_DEFAULT_LIMIT", 5)
        with pytest.raises(ExactLimitError, match="n=6 exceeds limit 5"):
            all_statistic_values(a, b)
        assert detect._plan.cache_info().currsize == 0

    def test_size_mismatch_is_refused_in_either_order(self):
        # checked before the size limit, so an oversized pair is refused for its mismatch
        for a, b in [(BinaryGraph(4), BinaryGraph(6)), (BinaryGraph(12), BinaryGraph(4))]:
            for x, y in [(a, b), (b, a)]:
                with pytest.raises(ValueError, match="size mismatch"):
                    all_statistic_values(x, y)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_n10_value_is_attained_by_argmax(self, weighted):
        for a, b in _draws(10, weighted, seed=300)[:2]:
            val, arg = qap_exact(a, b)
            assert val == pytest.approx(statistic_given_pi(a, b, arg), rel=1e-12, abs=1e-12)


class TestQapLocalSearch:
    def test_self_match_attains_edge_count(self):
        g = BinaryGraph(8, frozenset({(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)}))
        val, _ = qap_local_search(g, g, restarts=5, seed=0)
        assert val == g.edge_count

    def test_never_exceeds_exact_and_often_matches(self):
        hits = 0
        for t in range(100):
            a, b = sample_null_er(ErParams(8, 0.4, 0.8), SeedSpec(5, t))
            exact, _ = qap_exact(a, b)
            approx, _ = qap_local_search(a, b, restarts=20, seed=SeedSpec(6, t), rounds=3)
            assert approx <= exact + 1e-9
            hits += abs(approx - exact) < 1e-9
        assert hits >= 80

    def test_at_least_identity(self):
        a, b = sample_null_er(ErParams(10, 0.5, 0.8), SeedSpec(7, 0))
        val, _ = qap_local_search(a, b, restarts=1, seed=0, rounds=2)
        assert val >= statistic_given_pi(a, b, Permutation.identity(10))

    def test_deterministic(self):
        a, b = sample_null_gaussian(GaussianParams(9, 0.0), SeedSpec(8, 0))
        r1 = qap_local_search(a, b, restarts=10, seed=42, rounds=4)
        r2 = qap_local_search(a, b, restarts=10, seed=42, rounds=4)
        assert r1 == r2


def _climb_oracle(am, bm, p):
    """Reference climb: one start at a time, B[p][:, p] gathered and A @ bp recomputed per swap."""
    n = am.shape[0]
    p = p.copy()
    while True:
        bp = bm[np.ix_(p, p)]
        g = am @ bp
        diag = np.diag(g)
        delta = g + g.T - diag[:, None] - diag[None, :] + 2 * am * bp
        cand = np.triu(delta, 1) > detect.CLIMB_TOL
        if not cand.any():
            break
        i, j = np.unravel_index(int(np.argmax(cand)), cand.shape)
        p[i], p[j] = p[j], p[i]
    val = float(np.triu(am * bm[np.ix_(p, p)], 1).sum())
    return val, p


def qap_local_search_oracle(a, b, restarts=20, seed=0, rounds=30):
    """Reference search: each start climbed and kicked in turn, kicks drawn as they are used."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    n = a.n
    am, bm = a.to_dense(), b.to_dense()
    rng = rng_from_seed(seed)
    starts = [np.arange(n), detect._profile_start(am, bm)]
    while len(starts) < max(1, restarts):
        starts.append(rng.permutation(n))
    best_val, best_p = -math.inf, np.arange(n)
    for p0 in starts[: max(1, restarts)]:
        cur_val, cur_p = _climb_oracle(am, bm, p0)
        for _ in range(rounds):
            p = cur_p.copy()
            for _ in range(detect.LOCAL_SEARCH_KICK):
                i, j = rng.integers(0, n, 2)
                p[i], p[j] = p[j], p[i]
            val, p = _climb_oracle(am, bm, p)
            if val >= cur_val:
                cur_val, cur_p = val, p
        if cur_val > best_val:
            best_val, best_p = cur_val, cur_p
    return best_val, Permutation(best_p)


def _search_pairs(model, n):
    """A null pair, a planted pair and a self pair on n vertices from fixed seeds."""
    if model == "er":
        params = ErParams(n, 0.3, 0.8)
        a, b = sample_null_er(params, SeedSpec(31, n))
        c, d, _ = sample_planted_er(params, SeedSpec(32, n))
    else:
        params = GaussianParams(n, 0.7)
        a, b = sample_null_gaussian(params, SeedSpec(33, n))
        c, d, _ = sample_planted_gaussian(params, SeedSpec(34, n))
    return [(a, b), (c, d), (c, c)]


# (restarts, rounds) settings; the larger instances run the first three only
SEARCH_SETTINGS = [(1, 0), (2, 1), (20, 10), (1, 10), (20, 0), (20, 1), (2, 10)]


@pytest.fixture
def time_limit():
    """Fail a test that runs past two minutes: a climb that misreads its gains can cycle for ever."""

    def expire(signum, frame):
        raise TimeoutError("the search did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("time_limit")
class TestBatchedSearch:
    """The batched climb and search against the sequential ones they replaced."""

    @pytest.mark.parametrize(
        "model,n",
        [("er", n) for n in (1, 2, 3, 8, 30, 50)] + [("gaussian", n) for n in (2, 9, 30)],
    )
    def test_search_equals_oracle(self, model, n):
        small = n <= 9
        for a, b in _search_pairs(model, n):
            for restarts, rounds in SEARCH_SETTINGS if small else SEARCH_SETTINGS[:3]:
                for seed in (0, 5, SeedSpec(9, n)) if small else (0, 5):
                    want = qap_local_search_oracle(a, b, restarts=restarts, seed=seed, rounds=rounds)
                    got = qap_local_search(a, b, restarts=restarts, seed=seed, rounds=rounds)
                    assert got == want, (model, n, restarts, rounds, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 2**31 - 1, 2**31 + 1, 2**32 - 5, 2**32 + 3])
    def test_bulk_kick_draw_equals_per_call_draws(self, n):
        # the search draws all kicks in one call; the oracle draws them one call at a time
        shape = (20, 10, detect.LOCAL_SEARCH_KICK, 2)
        for seed in (0, 5, SeedSpec(9, 1), SeedSpec(31, 7)):
            for lead in (0, 1):  # draws before the kicks, leaving a half-used 32-bit word or none
                bulk, calls = rng_from_seed(seed), rng_from_seed(seed)
                bulk.integers(0, 7, lead), calls.integers(0, 7, lead)
                want = [calls.integers(0, n, 2).tolist() for _ in range(math.prod(shape) // 2)]
                assert bulk.integers(0, n, shape).reshape(-1, 2).tolist() == want, (n, seed, lead)

    # the dtype qap_local_search climbs each model in at n=12, and float64 on the 0/1 pairs too
    @pytest.mark.parametrize(
        "model,n,dtype",
        [
            pytest.param("er", 12, np.int8, id="er-12"),
            pytest.param("gaussian", 12, np.float64, id="gaussian-12"),
            pytest.param("er", 12, np.float64, id="er-12-float64"),
        ],
    )
    @pytest.mark.parametrize("block", [detect.CLIMB_BLOCK, 300])  # 300 entries: blocks of 2 rows at n=12
    def test_climb_rows_equal_single_climbs(self, model, n, dtype, block, monkeypatch):
        monkeypatch.setattr(detect, "CLIMB_BLOCK", block)
        rng = np.random.default_rng(n)
        for a, b in _search_pairs(model, n):
            am, bm = a.to_dense(), b.to_dense()
            starts = np.array([rng.permutation(n) for _ in range(7)])
            vals, ps = detect._climb(am, bm, starts, dtype)
            for row, start in enumerate(starts):
                val, p = _climb_oracle(am, bm, start)
                assert vals[row] == val
                assert ps[row].tolist() == p.tolist()

    @pytest.mark.parametrize("n", [2, 31, 32, 70])  # int8 up to n=31, int16 above
    def test_integer_climb_equals_float_climb(self, n):
        rng = np.random.default_rng(n)
        dtype = np.min_scalar_type(-(4 * n + 2))
        assert dtype == (np.int8 if n <= 31 else np.int16)
        m = n * (n - 1) // 2
        pairs = [_search_pairs("er", n)[1], (BinaryGraph.complete(n), BinaryGraph.empty(n))]
        for drop in (1, 3):  # complete graphs minus a few edges: every g entry is near n
            kept = [np.delete(np.arange(m), rng.choice(m, min(drop, m), replace=False)) for _ in range(2)]
            pairs.append(tuple(BinaryGraph.from_indices(n, idx) for idx in kept))
        for a, b in pairs:
            am, bm = a.to_dense(), b.to_dense()
            starts = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(4)])
            want_vals, want_ps = detect._climb(am, bm, starts, np.float64)
            vals, ps = detect._climb(am, bm, starts, dtype)
            assert vals.dtype == np.float64
            assert vals.tolist() == want_vals.tolist()
            assert ps.tolist() == want_ps.tolist()

    @pytest.mark.parametrize(
        "model,n,dtype", [("er", 31, np.int8), ("er", 32, np.int16), ("gaussian", 31, np.float64)]
    )
    def test_search_climbs_in_the_input_dtype(self, model, n, dtype, monkeypatch):
        seen, climb = set(), detect._climb

        def spy(am, bm, p, work):
            seen.add(np.dtype(work))
            return climb(am, bm, p, work)

        monkeypatch.setattr(detect, "_climb", spy)
        a, b = _search_pairs(model, n)[0]
        qap_local_search(a, b, restarts=2, rounds=1)
        assert seen == {np.dtype(dtype)}

    @pytest.mark.parametrize("restarts,rounds", [(0, 10), (-1, 10), (1, -1)])
    def test_rejects_bad_settings(self, restarts, rounds):
        a, b = sample_null_er(ErParams(6, 0.4, 0.8), SeedSpec(1, 0))
        with pytest.raises(ValueError, match="restarts must be >= 1|rounds must be >= 0"):
            qap_local_search(a, b, restarts=restarts, rounds=rounds)

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_pair_to_swap(self, n):
        for a in (BinaryGraph(n), WeightedGraph(np.zeros((n, n)))):
            assert qap_local_search(a, a, restarts=3, rounds=3) == (0.0, Permutation.identity(n))

    def test_weighted_twins_end(self):
        # vertices 0 and 1 are twins in both graphs, so swapping them gains exactly 0; on weights near
        # 1e4 that gain reads as rounding noise near 1e-9, and a climb that takes it swaps the twins for
        # ever.  The search runs in a child process, so a hang fails the test instead of stalling the suite.
        script = """
import numpy as np
from graphcorr.detect import qap_exact, qap_local_search, statistic_given_pi
from graphcorr.graphs import Permutation, WeightedGraph
for seed in (1, 2, 3):
    rng = np.random.default_rng(seed)
    pair = []
    for _ in range(2):
        w = np.triu(rng.uniform(0, 1e4, (6, 6)), 1)
        w = w + w.T
        w[1, 2:] = w[2:, 1] = w[0, 2:]
        pair.append(WeightedGraph(w))
    val, _ = qap_local_search(*pair, restarts=4, seed=seed, rounds=2)
    assert statistic_given_pi(*pair, Permutation.identity(6)) <= val <= qap_exact(*pair)[0] * (1 + 1e-12)
"""
        src = str(Path(detect.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=30)


def exact_lr(a, b, params):
    """The exact likelihood ratio: the exponential of the registry's ``lr`` statistic."""
    return math.exp(TESTS["lr"].statistic(a, b, params)[0])


def kernel_sum_log_lr(a, b, params):
    """log of (1/n!) sum over ``permutation_table(n)`` of the kernel products, one kernel call per pair of edges."""
    n = a.n
    iu, ju = np.triu_indices(n, 1)
    perms = permutation_table(n)
    flat_b = np.zeros((n, n), dtype=np.intp)  # index of each pair of B in its upper-triangle order
    flat_b[iu, ju] = flat_b[ju, iu] = np.arange(len(iu))
    xs, ys = a.to_dense()[iu, ju], b.to_dense()[iu, ju]
    if isinstance(params, ErParams):
        kern = lambda x, y: kernel_er(int(x), int(y), params.p, params.s)
    else:
        kern = lambda x, y: kernel_gaussian(x, y, params.rho)
    with np.errstate(divide="ignore"):  # a vanishing kernel at s = 1 has log -inf
        logk = np.log([[kern(x, y) for y in ys] for x in xs])
    logs = logk[np.arange(len(iu)), flat_b[perms[:, iu], perms[:, ju]]].sum(axis=1)
    peak = logs.max()
    if peak == -math.inf:
        return -math.inf
    return float(peak + math.log(np.exp(logs - peak).sum()) - math.lgamma(n + 1))


class TestLikelihoodRatio:
    def test_n2_equals_kernel(self):
        params = ErParams(2, 0.4, 0.6)
        a = BinaryGraph(2, frozenset({(0, 1)}))
        b = BinaryGraph.empty(2)
        assert exact_lr(a, b, params) == pytest.approx(
            kernel_er(1, 0, 0.4, 0.6), rel=1e-12
        )

    def test_rho_zero_is_one(self):
        params = GaussianParams(4, 0.0)
        a, b = sample_null_gaussian(params, SeedSpec(9, 0))
        assert exact_lr(a, b, params) == 1.0

    def test_er_against_brute(self):
        params = ErParams(3, 0.5, 0.5)
        a = BinaryGraph(3, frozenset({(0, 1)}))
        b = BinaryGraph(3, frozenset({(0, 1)}))
        assert exact_lr(a, b, params) == pytest.approx(
            brute_lr(a, b, params), rel=1e-12
        )

    def test_gaussian_against_brute(self):
        params = GaussianParams(4, 0.6)
        a, b, _ = sample_planted_gaussian(params, SeedSpec(10, 0))
        assert exact_lr(a, b, params) == pytest.approx(
            brute_lr(a, b, params), rel=1e-10
        )

    def test_s_one_matches_brute_on_match(self):
        params = ErParams(3, 0.4, 1.0)
        a, b, _ = sample_planted_er(params, SeedSpec(11, 0))
        got = exact_lr(a, b, params)
        # direct count of exact matches
        n = 3
        hits = sum(
            1
            for p in itertools.permutations(range(n))
            if relabel(b, Permutation(p)) == a
        )
        m, e = 3, a.edge_count
        want = hits / 6 * (1 / 0.4) ** e * (1 / 0.6) ** (m - e)
        assert got == pytest.approx(want, rel=1e-12)

    def test_refusal(self):
        params = ErParams(11, 0.4, 0.5)
        g = BinaryGraph.empty(11)
        with pytest.raises(ExactLimitError, match="averages over 11! permutations; limit is 10"):
            exact_lr(g, g, params)

    @pytest.mark.parametrize(
        "sample, params",
        [
            (sample_planted_er, ErParams(8, 0.3, 0.9)),
            (sample_null_er, ErParams(8, 0.3, 0.9)),
            (sample_planted_er, ErParams(8, 0.4, 1.0)),
            (sample_null_er, ErParams(8, 0.4, 1.0)),
            (sample_planted_gaussian, GaussianParams(8, 0.6)),
        ],
    )
    def test_n8_against_kernel_sum(self, sample, params):
        a, b = sample(params, SeedSpec(16, 0))[:2]
        got = detect.log_likelihood_ratio_exact(a, b, params)
        want = kernel_sum_log_lr(a, b, params)
        if want == -math.inf:  # s = 1 and B is no relabelling of A
            assert got == -math.inf
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_argmax_equivalence_er(self):
        # maximizers of the kernel product coincide with maximizers of T_pi
        params = ErParams(5, 0.3, 0.6)
        for t in range(6):
            a, b = sample_null_er(params, SeedSpec(12, t))
            tvals = all_statistic_values(a, b)
            prods = []
            am, bm = a.to_dense(), b.to_dense()
            for p in itertools.permutations(range(5)):
                prod = 1.0
                for i in range(5):
                    for j in range(i + 1, 5):
                        prod *= kernel_er(int(am[i, j]), int(bm[p[i], p[j]]), 0.3, 0.6)
                prods.append(prod)
            prods = np.array(prods)
            assert set(np.flatnonzero(tvals == tvals.max())) == set(
                np.flatnonzero(np.isclose(prods, prods.max(), rtol=1e-10))
            )

    def test_argmax_equivalence_gaussian(self):
        params = GaussianParams(5, 0.5)
        for t in range(4):
            a, b, _ = sample_planted_gaussian(params, SeedSpec(13, t))
            tvals = all_statistic_values(a, b)
            prods = []
            am, bm = a.to_dense(), b.to_dense()
            for p in itertools.permutations(range(5)):
                logp = 0.0
                for i in range(5):
                    for j in range(i + 1, 5):
                        logp += math.log(kernel_gaussian(am[i, j], bm[p[i], p[j]], 0.5))
                prods.append(logp)
            prods = np.array(prods)
            assert int(np.argmax(tvals)) == int(np.argmax(prods))


class TestThresholds:
    def test_gaussian_value(self):
        assert threshold_gaussian(10, 0.5) == pytest.approx(0.5 * 45 - 10**1.1, abs=1e-12)
        assert threshold_gaussian(10, 0.0) == -(10**1.1)

    def test_gaussian_monotone_in_rho(self):
        taus = [threshold_gaussian(20, r) for r in np.linspace(0, 0.9, 10)]
        assert all(x < y for x, y in zip(taus, taus[1:]))

    def test_gaussian_custom_slack(self):
        assert threshold_gaussian(10, 0.5, a_n=7.0) == 0.5 * 45 - 7.0

    def test_er_value_and_domain(self):
        n, p, s = 100, 0.5, 0.5
        mu = (100 * 99 // 2) * p * s * s
        assert threshold_er(n, p, s) == pytest.approx(mu * (1 - mu**-0.4), rel=1e-12)
        delta = (threshold_er(n, p, s) / mu - 1) * -1
        assert 0 < delta < 1
        with pytest.raises(ValueError):
            threshold_er(4, 0.1, 0.1)

    def test_er_full_density(self):
        m = 10 * 9 // 2
        assert threshold_er(10, 1 - 1e-12, 1.0) == pytest.approx(m * (1 - m**-0.4), rel=1e-6)


class TestEdgeCountTest:
    def test_s_one_decides_planted(self):
        params = ErParams(40, 0.3, 1.0)
        a, b, _ = sample_planted_er(params, SeedSpec(14, 0))
        test = TESTS["edges"]
        stat, argmax = test.statistic(a, b, params)
        assert stat == 0.0 and argmax is None and stat >= test.threshold(params)

    def test_variance_laws(self):
        params = ErParams(100, 0.3, 0.5)
        m = 100 * 99 // 2
        q = params.p * params.s
        diffs_null, diffs_planted = [], []
        for t in range(3000):
            a, b = sample_null_er(params, SeedSpec(15, (t, 0)))
            diffs_null.append(a.edge_count - b.edge_count)
            a, b, _ = sample_planted_er(params, SeedSpec(15, (t, 1)))
            diffs_planted.append(a.edge_count - b.edge_count)
        v_null = np.var(diffs_null)
        v_planted = np.var(diffs_planted)
        assert v_null == pytest.approx(2 * m * q * (1 - q), rel=0.12)
        assert v_planted == pytest.approx(2 * m * q * (1 - params.s), rel=0.12)

    def test_threshold_between_scales(self):
        tau = edge_count_threshold(100, 0.3, 0.5)
        m = 100 * 99 // 2
        v1 = 2 * m * 0.15 * 0.5
        v0 = 2 * m * 0.15 * 0.85
        assert math.sqrt(v1) < tau < math.sqrt(v0) * 2


class TestRegistry:
    def test_entries(self):
        assert set(TESTS) == {"qap-exact", "qap-ls", "lr", "edges"}
        assert TESTS["edges"].models == ("er",)
        assert TESTS["qap-exact"].limit == detect.QAP_EXACT_DEFAULT_LIMIT
        assert TESTS["lr"].limit == detect.QAP_EXACT_DEFAULT_LIMIT

    def test_statistics_match_direct_calls(self):
        params = ErParams(6, 0.4, 0.8)
        a, b, _ = sample_planted_er(params, 11)
        assert TESTS["qap-exact"].statistic(a, b, params) == qap_exact(a, b)
        assert TESTS["qap-ls"].statistic(a, b, params, restarts=3, seed=2) == qap_local_search(
            a, b, restarts=3, seed=2
        )
        assert TESTS["lr"].statistic(a, b, params) == (detect.log_likelihood_ratio_exact(a, b, params), None)
        assert TESTS["lr"].threshold(params) == 0.0
        assert TESTS["edges"].statistic(a, b, params) == (-float(abs(a.edge_count - b.edge_count)), None)
        assert TESTS["edges"].threshold(params) == -edge_count_threshold(6, 0.4, 0.8)
        assert TESTS["qap-exact"].threshold(params) == threshold_er(6, 0.4, 0.8)
        assert TESTS["qap-ls"].threshold(GaussianParams(6, 0.5)) == threshold_gaussian(6, 0.5)

    def test_functions_resolved_at_call_time(self, monkeypatch):
        calls = []
        monkeypatch.setattr(detect, "qap_exact", lambda a, b: calls.append("qap") or (1.0, None))
        a, b, _ = sample_planted_er(ErParams(5, 0.4, 0.8), 1)
        assert TESTS["qap-exact"].statistic(a, b, ErParams(5, 0.4, 0.8)) == (1.0, None)
        assert calls == ["qap"]

    @pytest.mark.parametrize(
        "params", [ErParams(6, 0.4, 0.8), ErParams(6, 0.4, 1.0), GaussianParams(6, 0.5), GaussianParams(6, 0.0)]
    )
    def test_shared_table_equals_direct_calls(self, params, monkeypatch):
        sample = sample_planted_er if isinstance(params, ErParams) else sample_planted_gaussian
        a, b, _ = sample(params, 13)
        want_lr, want_qap = TESTS["lr"].statistic(a, b, params), qap_exact(a, b)
        calls = []
        real = detect.all_statistic_values
        monkeypatch.setattr(detect, "all_statistic_values", lambda a, b: calls.append(a.n) or real(a, b))
        with detect.shared_table():
            assert TESTS["lr"].statistic(a, b, params) == want_lr
            assert TESTS["qap-exact"].statistic(a, b, params) == want_qap
        assert calls == [6]

    def test_shared_table_is_per_pair_and_per_block(self, monkeypatch):
        params = ErParams(5, 0.4, 0.8)
        (a, b, _), (c, d, _) = sample_planted_er(params, 1), sample_planted_er(params, 2)
        want = [qap_exact(a, b), qap_exact(c, d), qap_exact(c, d), qap_exact(a, b)]
        calls = []
        real = detect.all_statistic_values
        monkeypatch.setattr(detect, "all_statistic_values", lambda a, b: calls.append((a, b)) or real(a, b))
        qap_exact(a, b), qap_exact(a, b)  # outside a block every call builds its own table
        with detect.shared_table():  # inside, a table is reused only while the pair stays the same
            assert [qap_exact(a, b), qap_exact(c, d), qap_exact(c, d), qap_exact(a, b)] == want
        assert calls == [(a, b), (a, b), (a, b), (c, d), (a, b)]
        with pytest.raises(RuntimeError), detect.shared_table():
            qap_exact(a, b)
            raise RuntimeError
        assert detect._SHARED.get() is None  # no table outlives its block, even on an error

    def test_shared_table_calls_the_public_functions(self, monkeypatch):
        params = ErParams(5, 0.4, 0.8)
        a, b, _ = sample_planted_er(params, 1)
        calls = []
        for name in ("qap_exact", "log_likelihood_ratio_exact"):
            real = getattr(detect, name)
            monkeypatch.setattr(detect, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args))
        with detect.shared_table():
            TESTS["qap-exact"].statistic(a, b, params)
            TESTS["lr"].statistic(a, b, params)
        assert calls == ["qap_exact", "log_likelihood_ratio_exact"]

    @pytest.mark.parametrize("name", [name for name, test in TESTS.items() if test.limit is not None])
    def test_shared_table_refuses_before_allocating(self, name, monkeypatch):
        big = BinaryGraph(TESTS[name].limit + 1)
        monkeypatch.setattr(detect, "all_statistic_values", lambda a, b: pytest.fail("allocated"))
        monkeypatch.setattr(detect, "_plan", lambda n: pytest.fail("planned"))
        with detect.shared_table(), pytest.raises(ExactLimitError):
            TESTS[name].statistic(big, big, ErParams(big.n, 0.4, 0.8))

    def test_check(self):
        TESTS["edges"].check("er", 1000)
        with pytest.raises(ValueError):
            TESTS["edges"].check("gaussian", 5)
        TESTS["lr"].check("er", 10)
        with pytest.raises(ValueError, match="the lr test is limited to n <= 10, got n=11"):
            TESTS["lr"].check("er", 11)

    def test_lr_decides_on_the_log_scale_where_the_ratio_overflows(self):
        params = GaussianParams(7, 0.999)
        a, b, _ = sample_planted_gaussian(params, SeedSpec(17, 0))
        a, b = WeightedGraph(30 * a.to_dense()), WeightedGraph(30 * b.to_dense())
        stat, argmax = TESTS["lr"].statistic(a, b, params)
        assert argmax is None and math.isfinite(stat) and stat > math.log(np.finfo(float).max)
        assert stat >= TESTS["lr"].threshold(params) == 0.0

    def test_lr_leaves_the_shared_table_unchanged(self):
        params = ErParams(7, 0.4, 0.8)
        a, b, _ = sample_planted_er(params, 18)
        with detect.shared_table():
            table = detect._pair_values(a, b)
            before = table.copy()
            want = detect.log_likelihood_ratio_exact(a, b, params)
            assert np.array_equal(table, before) and detect._pair_values(a, b) is table
        assert detect.log_likelihood_ratio_exact(a, b, params) == want
