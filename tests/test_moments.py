import itertools
import math
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

from graphcorr import moments
from graphcorr import orbits as orbits_module
from graphcorr.errors import ExactLimitError
from graphcorr.graphs import BinaryGraph, Permutation
from graphcorr.moments import (
    cycle_count_product_average,
    cycle_type_tv_check,
    enumerate_orbit_pseudoforests,
    gf_bound_forest,
    gf_bound_pseudoforest,
    gf_orbit_forests_bruteforce,
    gf_orbit_pseudoforests_bruteforce,
    incomplete_orbit_moment_er,
    lambert_w,
    orbit_moment_er,
    orbit_moment_er_oracle,
    orbit_moment_gaussian,
    orbit_moment_gaussian_mc,
    partitions_as_cycle_types,
    planted_intersection_edge_bound,
    poisson_cycle_moment,
    poisson_truncation_bound,
    second_moment_bruteforce_er,
    second_moment_exact,
    second_moment_mc,
)
from graphcorr.detect import kernel_er
from graphcorr.orbits import (
    CycleType,
    census_from_cycle_type,
    connected_components,
    cycle_type,
    edge_orbits,
    is_pseudoforest,
    node_cycles,
    orbits_up_to,
)
from graphcorr.sampling import ErParams, GaussianParams, rho_er, rng_from_seed

TABLE_SIGMA = Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5, 6, 7)])


class TestOrbitMoments:
    def test_gaussian_values(self):
        assert orbit_moment_gaussian(1, 0.0) == 1.0
        assert orbit_moment_gaussian(1, 0.5) == pytest.approx(4 / 3, abs=1e-15)
        with pytest.raises(ValueError):
            orbit_moment_gaussian(1, 1.0)

    def test_er_values(self):
        assert orbit_moment_er(1, 0.5, 0.5) == pytest.approx(10 / 9, abs=1e-15)
        # vanishing correlation in the s -> 0 limit
        assert orbit_moment_er(3, 0.5, 1e-9) == pytest.approx(1.0, abs=1e-15)

    def test_er_matches_exhaustive_oracle(self):
        for k in (1, 2, 3, 4):
            for p, s in [(0.2, 0.3), (0.5, 0.5), (0.35, 0.8)]:
                assert orbit_moment_er(k, p, s) == pytest.approx(
                    orbit_moment_er_oracle(k, p, s), abs=1e-12
                )

    def test_gaussian_mc_oracle(self):
        # finite-variance regime; tight agreement
        est, se = orbit_moment_gaussian_mc(2, 0.3, samples=200_000, seed=1)
        assert abs(est - orbit_moment_gaussian(2, 0.3)) < 3 * se

    def test_oracle_refusal(self):
        with pytest.raises(ExactLimitError):
            orbit_moment_er_oracle(7, 0.3, 0.3)


def incomplete_orbit_moment_er_oracle(k: int, p: float, s: float) -> float:
    """Exhaustive conditional sum over the 4^k assignments on a k-orbit but the all-ones one."""
    q = p * s
    ones = (1,) * k
    total = 0.0
    for a in itertools.product((0, 1), repeat=k):
        for b in itertools.product((0, 1), repeat=k):
            if a == ones and b == ones:
                continue
            weight = math.prod(q if x else 1 - q for x in a + b)
            total += weight * math.prod(
                kernel_er(a[l], b[l], p, s) * kernel_er(a[l], b[(l + 1) % k], p, s) for l in range(k)
            )
    return total / (1 - q ** (2 * k))


class TestIncompleteOrbitMoment:
    def test_spec_value(self):
        assert incomplete_orbit_moment_er(1, 0.5, 0.5) == pytest.approx(
            (1 + 1 / 9 - 1 / 4) / (1 - 1 / 16), abs=1e-15
        )

    def test_small_s_limit(self):
        assert incomplete_orbit_moment_er(2, 0.4, 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_matches_conditional_oracle(self):
        for k in (1, 2, 3):
            for p, s in [(0.2, 0.3), (0.5, 0.5), (0.45, 0.45)]:
                assert incomplete_orbit_moment_er(k, p, s) == pytest.approx(
                    incomplete_orbit_moment_er_oracle(k, p, s), abs=1e-12
                )

    def test_below_one_in_small_parameter_region(self):
        for p in np.linspace(0.05, 0.5, 8):
            for s in np.linspace(0.05, 0.5, 8):
                for k in (1, 2, 3, 5):
                    assert incomplete_orbit_moment_er(k, float(p), float(s)) <= 1 + 1e-12


def second_moment_by_census(params):
    """Reference exact second moment: an edge-orbit census per cycle type and an exact Fraction sum.

    Returns (value, rows), one (counts, weight, factor) row per cycle type.
    """
    if isinstance(params, GaussianParams):
        f = lambda k: orbit_moment_gaussian(k, params.rho)
    else:
        f = lambda k: orbit_moment_er(k, params.p, params.s)
    total, rows = Fraction(0), []
    for ct, weight in partitions_by_dict_recursion(params.n):
        try:
            factor = math.exp(sum(nk * math.log(f(k)) for k, nk in census_from_cycle_type(ct).items()))
        except OverflowError:
            factor = math.inf
        total += weight * Fraction(factor) if factor < math.inf else math.inf
        rows.append((ct.counts, float(weight), factor))
    return float(total), rows


def second_moment_cells(count: int, seed: int) -> list:
    """Seeded ER and Gaussian cells at n <= 8; every tenth Gaussian cell has rho = 0."""
    rng = rng_from_seed(seed)
    cells = []
    for i in range(count):
        n = int(rng.integers(1, 9))
        if i % 2:
            cells.append(GaussianParams(n, 0.0 if i % 20 == 1 else float(rng.uniform(0, 0.95))))
        else:
            cells.append(ErParams(n, float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 1.0))))
    return cells


class TestSecondMoment:
    def test_walk_matches_the_census_oracle(self):
        for params in second_moment_cells(400, 32):
            report = second_moment_exact(params)
            value, rows = second_moment_by_census(params)
            assert report.value == pytest.approx(value, rel=1e-13)
            assert [counts for counts, *_ in report.contributions] == [counts for counts, *_ in rows]
            for (_, weight, factor), (_, want_weight, want_factor) in zip(report.contributions, rows):
                assert weight == pytest.approx(want_weight, rel=1e-13)
                assert factor == pytest.approx(want_factor, rel=1e-13)

    def test_rho_zero_exact_one_at_every_n(self):
        # the shifted log sum alone reads 1.0000000000000002 at n = 8 and 0.9999999999999999 at n = 15
        assert all(second_moment_exact(GaussianParams(n, 0.0)).value == 1.0 for n in range(1, 31))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_near_one_matches_the_census_oracle(self, n):
        # factors up to exp(1008) here: exp turns the log sum's few-ulp error into a relative
        # one of about |log F| * eps per rounding, so the bound scales with log F and n
        rho = math.nextafter(1.0, 0.0)
        report = second_moment_exact(GaussianParams(n, rho))
        value, rows = second_moment_by_census(GaussianParams(n, rho))
        close = lambda got, want: got == want if math.isinf(want) else got == pytest.approx(
            want, rel=4 * n * sys.float_info.epsilon * max(1.0, math.log(want))
        )
        assert close(report.value, value)
        for (counts, _, factor), (want_counts, _, want_factor) in zip(report.contributions, rows, strict=True):
            assert counts == want_counts and close(factor, want_factor)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_brute_force_over_the_symmetric_group(self, n):
        lengths = [
            [len(o) for o in edge_orbits(Permutation(pm))[0]] for pm in itertools.permutations(range(n))
        ]
        for params, f in [
            (ErParams(n, 0.3, 0.6), lambda k: orbit_moment_er(k, 0.3, 0.6)),
            (GaussianParams(n, 0.7), lambda k: orbit_moment_gaussian(k, 0.7)),
        ]:
            brute = math.fsum(math.prod(f(k) for k in ls) for ls in lengths) / len(lengths)
            assert second_moment_exact(params).value == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_mc_brackets_exact_past_eight(self, n):
        # where the near-identity types carry the sum, MC misses them: ER s = 0.6 at n = 20
        # reads 9.84 exact against 1.72 +- 0.20 from 4000 draws
        for params in (ErParams(n, 0.3, 0.5), GaussianParams(n, 0.3)):
            report = second_moment_mc(params, trials=4000, seed=2)
            assert abs(report.value - second_moment_exact(params).value) < 3 * report.mc_halfwidth

    def test_rho_zero_exact_one(self):
        assert second_moment_exact(GaussianParams(6, 0.0)).value == 1.0

    def test_n3_er_closed_form(self):
        p, s = 0.4, 0.6
        rho = rho_er(p, s)
        want = ((1 + rho**2) ** 3 + 3 * (1 + rho**2) * (1 + rho**4) + 2 * (1 + rho**6)) / 6
        assert second_moment_exact(ErParams(3, p, s)).value == pytest.approx(want, abs=1e-14)

    def test_n3_gaussian_closed_form(self):
        rho = 0.5
        f = lambda k: 1 / (1 - rho ** (2 * k))
        want = (f(1) ** 3 + 3 * f(1) * f(2) + 2 * f(3)) / 6
        assert second_moment_exact(GaussianParams(3, rho)).value == pytest.approx(want, abs=1e-14)

    def test_brute_force_agrees(self):
        for n in (2, 3, 4):
            params = ErParams(n, 0.3, 0.5)
            assert second_moment_exact(params).value == pytest.approx(
                second_moment_bruteforce_er(params), abs=1e-9
            )

    def test_n2_brute_is_one_plus_rho_sq(self):
        params = ErParams(2, 0.35, 0.65)
        rho = rho_er(0.35, 0.65)
        assert second_moment_bruteforce_er(params) == pytest.approx(1 + rho**2, abs=1e-12)

    def test_monotone_in_correlation(self):
        for n in (4, 6):
            vals = [second_moment_exact(GaussianParams(n, r)).value for r in np.linspace(0, 0.8, 9)]
            assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))
            vals = [second_moment_exact(ErParams(n, 0.3, s)).value for s in np.linspace(0.05, 0.9, 9)]
            assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))

    def test_census_consistency_exhaustive(self):
        # per-orbit product equals the census power product, every sigma in S_5
        import itertools

        params = ErParams(5, 0.4, 0.6)
        rho = rho_er(0.4, 0.6)
        for pm in itertools.permutations(range(5)):
            sigma = Permutation(pm)
            orbits, census = edge_orbits(sigma)
            direct = math.prod(1 + rho ** (2 * len(o)) for o in orbits)
            powered = math.prod(
                (1 + rho ** (2 * k)) ** nk for k, nk in census.by_length.items()
            )
            assert direct == pytest.approx(powered, rel=1e-12)

    def test_partition_weights_sum_to_one(self):
        for n in (1, 4, 8):
            assert sum(w for _, w in partitions_as_cycle_types(n)) == Fraction(1)

    def test_mc_brackets_exact(self):
        params = ErParams(6, 0.3, 0.6)
        exact = second_moment_exact(params).value
        report = second_moment_mc(params, trials=4000, seed=2)
        assert abs(report.value - exact) < 3 * report.mc_halfwidth

    def test_mc_needs_two_trials(self):
        with pytest.raises(ValueError):
            second_moment_mc(ErParams(6, 0.3, 0.6), trials=1)
        assert math.isfinite(second_moment_mc(ErParams(6, 0.3, 0.6), trials=2).mc_halfwidth)

    def test_past_the_float_range_reads_inf(self):
        # near rho = 1 the orbit products pass the float range: inf, not OverflowError
        rho = math.nextafter(1.0, 0.0)
        report = second_moment_exact(GaussianParams(8, rho))
        assert report.value == math.inf and math.inf in {factor for *_, factor in report.contributions}
        report = second_moment_mc(GaussianParams(40, rho), trials=20)
        assert report.value == report.mc_halfwidth == math.inf

    def test_refusal(self):
        with pytest.raises(ExactLimitError):
            second_moment_exact(GaussianParams(moments.SECOND_MOMENT_EXACT_LIMIT + 1, 0.1))
        with pytest.raises(ExactLimitError):
            second_moment_bruteforce_er(ErParams(5, 0.3, 0.5))


def orbit_pseudoforests_by_bitmask(sigma: Permutation, orbits):
    """Independent oracle: (subset, edge count, forest) for every orbit subset whose union passes is_pseudoforest.

    Subsets are index tuples, the empty one included, in lexicographic order;
    ``forest`` holds when every component of the union has fewer edges than vertices.
    """
    found = []
    for mask in range(1 << len(orbits)):
        subset = tuple(j for j in range(len(orbits)) if mask >> j & 1)
        edges = frozenset(e for j in subset for e in orbits[j].edges)
        g = BinaryGraph(sigma.n, edges)
        if is_pseudoforest(g):
            found.append((subset, len(edges), all(e < len(vs) for vs, e in connected_components(g))))
    return sorted(found)


def gf_orbit_pseudoforests_unpruned(sigma: Permutation, k: int, s: float) -> float:
    """Independent oracle: test every subset of short orbits without pruning."""
    orbits = orbits_up_to(sigma, k)
    if len(orbits) > 16:
        raise ExactLimitError("unpruned oracle supports at most 16 orbits")
    return sum(s ** (2 * count) for _, count, _ in orbit_pseudoforests_by_bitmask(sigma, orbits))


def tuple_join(root: tuple[int, ...], excess: tuple[int, ...], u: int, v: int, length: int):
    """Add an orbit of ``length`` edges between node cycles u and v, or None past excess 0.

    ``root[c]`` is the component of node cycle c; ``excess[r]`` is component r's edges minus vertices.
    """
    ru, rv = root[u], root[v]
    x = excess[ru] + length + (excess[rv] if rv != ru else 0)
    if x > 0:
        return None
    if rv != ru:
        root = tuple(ru if r == rv else r for r in root)
    return root, excess[:ru] + (x,) + excess[ru + 1 :]


def orbit_unions_tuple_oracle(sigma: Permutation, orbits):
    """The contracted search on fresh tuples: every join builds a new state, nothing is undone.

    Yields (subset, edge count, forest) per nonempty orbit subset whose union
    is a pseudoforest, depth first in index order, each before its extensions.
    """
    cycles = node_cycles(sigma)[0]
    index = {v: c for c, cyc in enumerate(cycles) for v in cyc}
    ends = [(index[o.edges[0][0]], index[o.edges[0][1]], len(o)) for o in orbits]

    def rec(root, excess, start: int, chosen: tuple[int, ...], edge_count: int, forest: bool):
        for j, (u, v, length) in enumerate(ends[start:], start):
            joined = tuple_join(root, excess, u, v, length)
            if joined is not None:
                subset, count = chosen + (j,), edge_count + length
                tree = forest and joined[1][root[u]] < 0  # root[u] names the joined component
                yield subset, count, tree
                yield from rec(*joined, j + 1, subset, count, tree)

    return rec(tuple(range(len(cycles))), tuple(-len(cyc) for cyc in cycles), 0, (), 0, True)


def theory_sized_sigmas(count: int, seed: int):
    """(sigma, k) at the sizes of the benchmark's GF items: n 6-12, k 3-5, 6-16 short orbits."""
    rng = rng_from_seed(seed)
    while count:
        k, n = int(rng.integers(3, 6)), int(rng.integers(6, 13))
        sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
        if 6 <= len(orbits_up_to(sigma, k)) <= 16:
            count -= 1
            yield sigma, k


def orbit_union_tallies(sigma: Permutation, k: int):
    """(pseudoforest, forest) tallies of the tuple search as (edge count, unions) pairs, the empty union included."""
    pseudo, forest = Counter({0: 1}), Counter({0: 1})
    for _, count, tree in orbit_unions_tuple_oracle(sigma, orbits_up_to(sigma, k)):
        pseudo[count] += 1
        forest[count] += tree
    return tuple(tuple(sorted((e, c) for e, c in tally.items() if c)) for tally in (pseudo, forest))


def short_type(sigma: Permutation, k: int) -> tuple[int, ...]:
    return cycle_type(sigma).counts[:k]


def lister_cells(n: int):
    """(sigma, k): every sigma in S_n at k <= 4 for n <= 5, else 12 seeded draws with 4-10 short orbits."""
    if n <= 5:
        yield from ((Permutation(perm), k) for perm in itertools.permutations(range(n)) for k in range(1, 5))
        return
    rng, count = rng_from_seed(n), 12
    while count:
        sigma, k = Permutation(tuple(int(v) for v in rng.permutation(n))), int(rng.integers(1, 5))
        if 4 <= len(orbits_up_to(sigma, k)) <= 10:
            count -= 1
            yield sigma, k


class TestContractedSearch:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_subsets_as_vertex_search(self, n):
        # the lister, and the contracted tuple search behind the count oracle,
        # yield the subsets the bitmask search over vertices keeps, in its
        # order; the tuple search also gets each edge count and forest flag
        for sigma, k in lister_cells(n):
            orbits = orbits_up_to(sigma, k)
            want = orbit_pseudoforests_by_bitmask(sigma, orbits)
            position = {o: j for j, o in enumerate(orbits)}
            listed = [tuple(position[o] for o in found) for found in enumerate_orbit_pseudoforests(sigma, k)]
            assert [()] + listed == [subset for subset, _, _ in want], (sigma.mapping, k)
            assert [((), 0, True)] + list(orbit_unions_tuple_oracle(sigma, orbits)) == want, (sigma.mapping, k)

    @pytest.mark.parametrize("s", [0.05, 0.3, 1.0])
    def test_gf_sums_add_the_tuple_search_terms_in_order(self, s):
        # the counts behind both sums are the search's tallies, exactly; the
        # sums add the same terms grouped by edge count, so they agree to rounding
        for sigma, k in theory_sized_sigmas(200, seed=19):
            pseudo = forest = 1.0
            for _, count, tree in orbit_unions_tuple_oracle(sigma, orbits_up_to(sigma, k)):
                term = s ** (2 * count)
                pseudo += term
                if tree:
                    forest += term
            assert moments._orbit_forest_counts(short_type(sigma, k), k) == orbit_union_tallies(sigma, k)
            assert moments._gf_sums(sigma, k, s) == pytest.approx((pseudo, forest), rel=1e-12, abs=0)


class TestOrbitForestCounts:
    def test_counts_equal_search_tallies_on_random_cells(self):
        rng = rng_from_seed(23)
        for _ in range(400):
            n, k = int(rng.integers(2, 11)), int(rng.integers(1, 6))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            if len(orbits_up_to(sigma, k)) <= 20:  # the search lists up to 2^20 subsets
                assert moments._orbit_forest_counts(short_type(sigma, k), k) == orbit_union_tallies(sigma, k)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_contracted_multigraph_from_the_cycle_type(self, n):
        # vertex i of length l is the i-th node cycle of length l by least
        # node; every orbit of orbits_up_to is one edge between the vertices
        # of the node cycles it joins, weighted by its length
        for perm in itertools.permutations(range(n)):
            sigma = Permutation(perm)
            cycles = sorted(node_cycles(sigma)[0], key=lambda c: (len(c), c[0]))
            for k in range(1, 8):
                short = [c for c in cycles if len(c) <= k]
                vertex = {v: i for i, c in enumerate(short) for v in c}
                want = sorted(
                    tuple(sorted((vertex[o.edges[0][0]], vertex[o.edges[0][1]]))) + (len(o),)
                    for o in orbits_up_to(sigma, k)
                )
                weights, groups = moments._contracted(short_type(sigma, k), k)
                edges = [(u, v, length) for u, v, length, count in groups for _ in range(count)]
                assert weights == [len(c) for c in short] and sorted(edges) == want, (perm, k)

    def test_gf_equals_the_unpruned_oracle(self):
        rng = rng_from_seed(24)
        checked = 0
        while checked < 40:
            n, k = int(rng.integers(4, 10)), int(rng.integers(1, 6))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            if len(orbits_up_to(sigma, k)) > 12:  # the oracle tests every subset of short orbits
                continue
            for s in (0.05, 0.3, 1.0):
                want = gf_orbit_pseudoforests_unpruned(sigma, k, s)
                assert gf_orbit_pseudoforests_bruteforce(sigma, k, s) == pytest.approx(want, rel=1e-12, abs=0)
            checked += 1

    def test_identity_totals(self, deadline):
        # the forest totals of K_n are the labeled-forest numbers (OEIS A001858);
        # the pseudoforest totals are the lister's subsets plus the empty union
        forests = [1, 2, 7, 38, 291, 2932, 36961, 561948, 10026505, 205608536]
        for n, want in enumerate(forests, 1):
            pseudo, forest = moments._orbit_forest_counts((n,), 1)
            assert sum(c for _, c in forest) == want
            if n <= 7:
                sigma = Permutation.identity(n)
                assert sum(c for _, c in pseudo) == 1 + sum(1 for _ in enumerate_orbit_pseudoforests(sigma, 1))
        moments._orbit_forest_counts.cache_clear()
        with deadline(1.0, "the identity on 9 nodes at k = 1"):
            value = gf_orbit_pseudoforests_bruteforce(Permutation.identity(9), 1, 1.0)
        assert value == 66617234.0


class TestGeneratingFunctions:
    def test_one_search_serves_both(self):
        # one count per (short cycle type, k) serves both GFs, every s and every
        # sigma of that type; a new k counts again
        moments._orbit_forest_counts.cache_clear()
        gf_orbit_pseudoforests_bruteforce(TABLE_SIGMA, 4, 0.3)
        forest = gf_orbit_forests_bruteforce(TABLE_SIGMA, 4, 0.3)
        gf_orbit_forests_bruteforce(TABLE_SIGMA, 4, 0.2)
        gf_orbit_pseudoforests_bruteforce(TABLE_SIGMA, 4, 0.2)
        same_type = Permutation.from_cycles(8, [(0, 7), (1, 2), (3, 4, 5, 6)])
        assert gf_orbit_forests_bruteforce(same_type, 4, 0.3) == forest
        assert moments._orbit_forest_counts.cache_info().misses == 1
        gf_orbit_forests_bruteforce(TABLE_SIGMA, 3, 0.3)
        assert moments._orbit_forest_counts.cache_info().misses == 2

    @pytest.mark.parametrize("s", [-0.1, 1.5, math.nan])
    def test_brute_force_rejects_s_outside_unit_interval(self, s):
        before = moments._orbit_forest_counts.cache_info()
        for gf in (gf_orbit_pseudoforests_bruteforce, gf_orbit_forests_bruteforce):
            with pytest.raises(ValueError, match=r"s must lie in \[0, 1\]"):
                gf(TABLE_SIGMA, 4, s)
        assert moments._orbit_forest_counts.cache_info() == before  # rejected before any count or cache lookup

    def test_no_short_orbits(self):
        sigma = Permutation.from_cycles(7, [tuple(range(7))])
        assert gf_orbit_pseudoforests_bruteforce(sigma, 3, 0.4) == 1.0

    def test_s_zero(self):
        assert gf_orbit_pseudoforests_bruteforce(TABLE_SIGMA, 4, 0.0) == 1.0

    def test_table_sigma_k2_hand_value(self):
        s = 0.3
        want = 1 + 2 * s**2 + 3 * s**4 + 4 * s**6 + 3 * s**8
        assert gf_orbit_pseudoforests_bruteforce(TABLE_SIGMA, 2, s) == pytest.approx(
            want, abs=1e-14
        )

    def test_pruned_equals_unpruned(self):
        for seed in range(5):
            rng = rng_from_seed(seed)
            n = int(rng.integers(5, 9))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            for k in (2, 4):
                a = gf_orbit_pseudoforests_bruteforce(sigma, k, 0.35)
                b = gf_orbit_pseudoforests_unpruned(sigma, k, 0.35)
                assert a == pytest.approx(b, abs=1e-12)

    def test_forest_below_pseudoforest(self):
        for seed in range(5):
            rng = rng_from_seed(100 + seed)
            n = int(rng.integers(5, 10))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            f = gf_orbit_forests_bruteforce(sigma, 4, 0.3)
            pf = gf_orbit_pseudoforests_bruteforce(sigma, 4, 0.3)
            assert f <= pf + 1e-12

    def test_bounds_dominate(self):
        for seed in range(20):
            rng = rng_from_seed(200 + seed)
            n = int(rng.integers(4, 11))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            ct = cycle_type(sigma)
            for k in (2, 3, 5):
                for s in (0.05, 0.3):
                    assert gf_orbit_pseudoforests_bruteforce(sigma, k, s) <= (
                        gf_bound_pseudoforest(ct, k, s) + 1e-12
                    )
                    assert gf_orbit_forests_bruteforce(sigma, k, s) <= (
                        gf_bound_forest(ct, k, s) + 1e-12
                    )

    @pytest.mark.parametrize("k", [0, -2])
    def test_bounds_reject_k_below_one(self, k):
        ct = cycle_type(TABLE_SIGMA)
        for bound in (gf_bound_pseudoforest, gf_bound_forest):
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                bound(ct, k, 0.3)

    def test_bound_s_zero_and_empty_type(self):
        ct = cycle_type(TABLE_SIGMA)
        assert gf_bound_pseudoforest(ct, 4, 0.0) == 1.0
        lonely = cycle_type(Permutation.from_cycles(6, [tuple(range(6))]))
        assert gf_bound_pseudoforest(lonely, 3, 0.4) == 1.0

    def test_orbit_limit_refusal(self):
        with pytest.raises(ExactLimitError, match="^13 short node cycles exceed the counting limit 12$"):
            gf_orbit_pseudoforests_bruteforce(Permutation.identity(13), 1, 0.3)

    @pytest.mark.parametrize(
        "cycles, k, message",
        [
            ((30000, 30001, 2), 30001, "30003 short orbits on 3 node cycles need 6.8e+10 work units, over 2e+10"),
            ((6,) * 11 + (2,), 6, "386 short orbits on 12 node cycles need 2.1e+11 work units, over 2e+10"),
        ],
    )
    def test_work_limit_refusal(self, deadline, cycles, k, message):
        # few node cycles can carry many orbits or long polynomials: the work
        # estimate refuses them from the cycle type and the degree table
        starts = itertools.accumulate(cycles, initial=0)
        sigma = Permutation.from_cycles(sum(cycles), [tuple(range(a, a + l)) for a, l in zip(starts, cycles)])
        with deadline(0.5, f"the refusal of {cycles[:3]} at k = {k}"):
            with pytest.raises(ExactLimitError, match=f"^{re.escape(message)}$"):
                gf_orbit_pseudoforests_bruteforce(sigma, k, 0.3)

    def test_refusal_builds_no_orbit(self, monkeypatch):
        def built(*args):
            raise AssertionError("an edge orbit or a contracted graph was built before the refusal")

        monkeypatch.setattr(orbits_module, "EdgeOrbit", built)
        monkeypatch.setattr(moments, "_contracted", built)
        sigma = Permutation.identity(2000)
        with pytest.raises(ExactLimitError, match="^2000 short node cycles exceed the counting limit 12$"):
            gf_orbit_forests_bruteforce(sigma, 1, 0.5)
        with pytest.raises(ExactLimitError, match="^1999000 short orbits exceed the brute-force limit 24$"):
            list(moments.enumerate_orbit_pseudoforests(sigma, 1))
        with pytest.raises(ValueError, match="k must be >= 1"):
            gf_orbit_pseudoforests_bruteforce(sigma, 0, 0.5)

    def test_empty_levels_cost_nothing(self, deadline):
        # levels above n hold no node cycle: k = 10**12 gives the values of k = n
        for perm in [(1, 0, 2, 3), (1, 2, 0, 4, 3, 5)]:
            sigma = Permutation(perm)
            ct = cycle_type(sigma)

            def values(k):
                return (
                    gf_orbit_pseudoforests_bruteforce(sigma, k, 0.3),
                    gf_orbit_forests_bruteforce(sigma, k, 0.3),
                    gf_bound_pseudoforest(ct, k, 0.3),
                    gf_bound_forest(ct, k, 0.3),
                )

            with deadline(2.0, "the GFs and their bounds at k = 10**12"):
                huge = values(10**12)
            assert huge == values(len(perm))


class TestLambertW:
    def test_special_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w(-1 / math.e) == -1.0

    def test_round_trip_grid(self):
        for x in np.logspace(-9, 3, 50):
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12

    def test_negative_branch_segment(self):
        for x in np.linspace(-0.367, -0.001, 40):
            w = lambert_w(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-13

    def test_against_scipy(self):
        for x in [1e-8, 0.1, 1.0, 5.0, 500.0, -0.3, -0.05]:
            assert lambert_w(x) == pytest.approx(float(scipy_lambertw(x).real), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)


class TestIntersectionEdgeBound:
    def test_definitional_round_trip(self):
        k, n, p, s = 30, 500, 0.4, 0.5
        arg = 2 * math.log(2 * math.e * n / k) / (math.e * (k - 1) * p * s * s) - 1 / math.e
        w = lambert_w(arg)
        zeta = planted_intersection_edge_bound(k, n, p, s)
        assert zeta == pytest.approx(math.comb(k, 2) * p * s * s * math.exp(1 + w), rel=1e-12)

    def test_dominates_mean(self):
        for k in (5, 20, 80):
            for p in (0.2, 0.5):
                zeta = planted_intersection_edge_bound(k, 100, p, 0.5)
                assert zeta >= math.comb(k, 2) * p * 0.25

    def test_range_check(self):
        with pytest.raises(ValueError):
            planted_intersection_edge_bound(1, 10, 0.3, 0.5)
        with pytest.raises(ValueError):
            planted_intersection_edge_bound(11, 10, 0.3, 0.5)


def partitions_by_dict_recursion(n: int):
    """Reference (CycleType, weight) walk: a dict of counts rebuilt at every step, weights multiplied out per type."""

    def parts(remaining, max_part):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in parts(remaining - part, part):
                counts = dict(rest)
                counts[part] = counts.get(part, 0) + 1
                yield counts

    for counts in parts(n, n):
        weight = Fraction(1)
        for l, c in counts.items():
            weight /= Fraction(l) ** c * math.factorial(c)
        yield CycleType.from_counts(n, counts), weight


def cycle_type_tv_check_by_walk(n: int, k: int, trials: int, seed=0) -> moments.TvCheckResult:
    """Reference TV check: the same draws, each permutation's short cycles counted by walking it one element at a time."""
    rng = rng_from_seed(seed)
    counts = {}
    for _ in range(trials):
        perm = rng.permutation(n)
        cvec = [0] * k
        seen = np.zeros(n, dtype=bool)
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            if length <= k:
                cvec[length - 1] += 1
        key = tuple(cvec)
        counts[key] = counts.get(key, 0) + 1
    pmf_1d = []
    for l in range(1, k + 1):
        lam = 1.0 / l
        pmf_1d.append(np.array([math.exp(-lam) * lam**z / math.factorial(z) for z in range(moments.TV_CUTOFF + 1)]))
    tv = 0.0
    pmf_mass = 0.0
    emp_seen = 0
    for key in itertools.product(range(moments.TV_CUTOFF + 1), repeat=k):
        pmf = math.prod(pmf_1d[l][key[l]] for l in range(k))
        tv += abs(counts.get(key, 0) / trials - pmf)
        pmf_mass += pmf
        if key in counts:
            emp_seen += counts[key]
    tv += (1 - pmf_mass) + (trials - emp_seen) / trials
    return moments.TvCheckResult(0.5 * tv, poisson_truncation_bound(n / k), trials)


class TestPoissonCycleFacts:
    def test_single_fixed_point(self):
        assert poisson_cycle_moment([1]) == 1.0

    def test_pair_of_fixed_points_vs_s5(self):
        assert poisson_cycle_moment([2]) == 0.5
        assert cycle_count_product_average(5, [2]) == Fraction(1, 2)

    def test_two_cycle_vs_s5(self):
        assert poisson_cycle_moment([0, 1]) == 0.5
        assert cycle_count_product_average(5, [0, 1]) == Fraction(1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_identity_whenever_weight_fits(self, n, data):
        a = []
        budget = n
        for l in range(1, n + 1):
            al = data.draw(st.integers(0, budget // l))
            a.append(al)
            budget -= l * al
        got = cycle_count_product_average(n, a)
        want = Fraction(1)
        for l, al in enumerate(a, start=1):
            want /= Fraction(l) ** al * math.factorial(al)
        assert got == want

    def test_tv_check_small(self):
        res = cycle_type_tv_check(30, 2, trials=20_000, seed=3)
        assert res.tv_estimate <= 0.05
        assert res.poisson_bound < 1e-5

    @pytest.mark.parametrize(
        "n, k, trials, seed",
        [
            (30, 2, 20_000, 3),
            (12, 4, 5000, 5),  # n_4 subtracts the points on 1- and 2-cycles from those sigma^4 fixes
            (40, 3, 3000, 9),
            (2, 1, 100, 1),
            (20, 3, 3 * (65536 // 20) + 17, 4),  # three full blocks of 3276 permutations and a partial one
        ],
    )
    def test_tv_check_equals_the_element_walk(self, n, k, trials, seed):
        assert cycle_type_tv_check(n, k, trials, seed) == cycle_type_tv_check_by_walk(n, k, trials, seed)

    def test_partitions_equal_the_dict_recursion(self):
        for n in range(13):
            assert list(partitions_as_cycle_types(n)) == list(partitions_by_dict_recursion(n))

    def test_fixed_point_law_close_to_poisson(self):
        # exact law of the fixed-point count for n = 8 against Poisson(1)
        probs = {}
        for ct, w in partitions_as_cycle_types(8):
            probs[ct.count(1)] = probs.get(ct.count(1), Fraction(0)) + w
        tv = Fraction(0)
        for j in range(0, 30):
            pois = math.exp(-1) / math.factorial(j)
            tv += abs(float(probs.get(j, Fraction(0))) - pois)
        assert float(tv) / 2 < 1e-3

    def test_trials_contract(self):
        with pytest.raises(ValueError):
            cycle_type_tv_check(10, 2, trials=0)
        with pytest.raises(ValueError):
            cycle_type_tv_check(10, 10, trials=10)

    def test_tv_check_refuses_large_box(self):
        # (30 + 1)^5 = 28.6 M keys: refused before any sampling
        with pytest.raises(ExactLimitError):
            cycle_type_tv_check(40, 5, trials=10)

    def test_truncation_bound_shape(self):
        assert poisson_truncation_bound(25) < 1e-15
        assert poisson_truncation_bound(3) > poisson_truncation_bound(6)


class TestCensusFromCycleTypePowers:
    def test_table_sigma_factors(self):
        ct = cycle_type(TABLE_SIGMA)
        census = census_from_cycle_type(ct)
        assert census == {1: 2, 2: 3, 4: 5}
