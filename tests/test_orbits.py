import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcorr import orbits as orbits_module
from graphcorr.graphs import BinaryGraph, Permutation, canonical_pair
from graphcorr.orbits import (
    BackboneGraph,
    CycleType,
    EdgeOrbit,
    backbone,
    census_from_cycle_type,
    census_predict_small,
    classify_orbit,
    complete_orbits,
    components,
    connected_components,
    cycle_type,
    edge_orbits,
    is_pseudoforest,
    node_cycles,
    orbit_from_backbone_edge,
    orbit_label,
    orbits_up_to,
    reconstruct_orbit_graph,
)

TABLE_SIGMA = Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5, 6, 7)])


def edge_permutation(sigma: Permutation) -> dict[tuple[int, int], tuple[int, int]]:
    """The induced permutation on unordered pairs: (i,j) -> (sigma(i), sigma(j))."""
    return {
        (i, j): canonical_pair(sigma(i), sigma(j)) for i, j in itertools.combinations(range(sigma.n), 2)
    }


def is_forest(g: BinaryGraph) -> bool:
    """True when the graph is acyclic."""
    return all(e == len(v) - 1 for v, e in connected_components(g))


def search_components(n: int, edges) -> list[tuple[tuple[int, ...], int]]:
    """Components of a multigraph on [n] by depth-first search from each vertex in turn."""
    adj = {v: set() for v in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    found, seen = [], set()
    for start in range(n):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(adj[v])
        seen |= comp
        found.append((tuple(sorted(comp)), sum(1 for i, _ in edges if i in comp)))
    return found


def label_by_partner_walk(sigma, orbit):
    """Orbit label by walking the orbit's edges for the partners of p_0 (the
    definition in orbit_label's docstring), as an oracle for the shortcut
    that reads the label off the representative pair."""
    cycles, _ = node_cycles(sigma)
    of_node = {v: c for c in cycles for v in c}
    i, j = orbit.representative
    oi, oj = of_node[i], of_node[j]
    if oi is oj:
        m = len(oi)
        d = (oi.index(j) - oi.index(i)) % m
        return None if m % 2 == 0 and d == m // 2 else min(d, m - d)
    pp, rr = (oi, oj) if (len(oi), oi[0]) <= (len(oj), oj[0]) else (oj, oi)
    partners = [rr.index(b if a == pp[0] else a) for a, b in orbit.edges if pp[0] in (a, b)]
    if len(pp) == len(rr):
        return 1 + partners[0]
    g = math.gcd(len(pp), len(rr))
    return 1 + min(p % g for p in partners)


def two_orbit_sigma(l, m):
    """A permutation with exactly one l-orbit and one m-orbit."""
    return Permutation.from_cycles(
        l + m, [tuple(range(l)), tuple(range(l, l + m))]
    )


class TestNodeCycles:
    def test_identity(self):
        _, ct = node_cycles(Permutation.identity(5))
        assert ct.count(1) == 5 and ct.n == 5

    def test_table_sigma(self):
        orbits, ct = node_cycles(TABLE_SIGMA)
        assert ct.count(2) == 2 and ct.count(4) == 1
        assert orbits == [(0, 1), (2, 3), (4, 5, 6, 7)]

    def test_single_cycle(self):
        _, ct = node_cycles(Permutation.from_cycles(6, [tuple(range(6))]))
        assert ct.count(6) == 1

    @pytest.mark.parametrize("counts", [(1.5, True), (True,), (0, 2.0), ("1",)])
    def test_cycle_type_rejects_non_integer_counts(self, counts):
        # int() would truncate 1.5, take True as 1 and parse '1'
        with pytest.raises(ValueError, match="orbit counts must be integers"):
            CycleType(counts)

    def test_cycle_type_stores_numpy_counts_as_ints(self):
        ct = CycleType((np.int64(2), np.int8(1)))
        assert ct.counts == (2, 1) and all(type(c) is int for c in ct.counts)

    def test_cycle_type_invariant(self):
        with pytest.raises(ValueError):
            CycleType.from_counts(5, {2: 3})

    @pytest.mark.parametrize("n, counts", [(0, {0: 1}), (-3, {3: -1}), (4, {2: 3, 1: -2})])
    def test_from_counts_rejects_bad_lengths_and_counts(self, n, counts):
        with pytest.raises(ValueError, match="need orbit length >= 1 and count >= 0"):
            CycleType.from_counts(n, counts)

    @pytest.mark.parametrize("counts", [{2: 1, 5: 0}, {5: 1}])
    def test_from_counts_rejects_a_length_above_n(self, counts):
        with pytest.raises(ValueError, match="orbit length 5 exceeds n=2"):
            CycleType.from_counts(2, counts)


class TestEdgePermutation:
    def test_identity(self):
        ep = edge_permutation(Permutation.identity(4))
        assert all(ep[e] == e for e in itertools.combinations(range(4), 2))

    def test_table_examples(self):
        ep = edge_permutation(TABLE_SIGMA)
        assert ep[(4, 5)] == (5, 6)  # (5,6) -> (6,7) in 1-based labels
        assert ep[(0, 1)] == (0, 1)  # (1,2) is fixed

    def test_bijection(self):
        ep = edge_permutation(TABLE_SIGMA)
        assert sorted(ep.values()) == sorted(itertools.combinations(range(8), 2))


def edge_orbits_oracle(sigma: Permutation):
    """The pair-walk census: walk sigma's edge action from each unseen pair, in lexicographic order."""
    seen, orbits, by_length = set(), [], {}
    for pair in itertools.combinations(range(sigma.n), 2):
        if pair in seen:
            continue
        cyc = [pair]
        while True:
            cur = tuple(sorted((sigma(cyc[-1][0]), sigma(cyc[-1][1]))))
            if cur == pair:
                break
            cyc.append(cur)
        seen.update(cyc)
        orbits.append(EdgeOrbit(tuple(cyc)))
        by_length[len(cyc)] = by_length.get(len(cyc), 0) + 1
    return orbits, by_length


class TestEdgeOrbits:
    @pytest.mark.parametrize("n", [*range(1, 8), 20, 60])
    def test_same_orbits_as_pair_walk(self, n):
        # every sigma in S_n (a few random ones at n = 20 and 60, for long
        # cross-cycle orbits): the same orbits, listed alike, and by_length
        # with the same key order
        rng = np.random.default_rng(n)
        perms = itertools.permutations(range(n)) if n < 8 else (tuple(rng.permutation(n).tolist()) for _ in range(8))
        for perm in perms:
            sigma = Permutation(perm)
            orbits, census = edge_orbits(sigma)
            want, by_length = edge_orbits_oracle(sigma)
            assert orbits == want, perm
            assert list(census.by_length.items()) == list(by_length.items()), perm
            assert census.n == n

    def test_table_census(self):
        _, census = edge_orbits(TABLE_SIGMA)
        assert dict(census.by_length) == {1: 2, 2: 3, 4: 5}
        assert census.total_weight() == 28

    def test_identity_n4(self):
        _, census = edge_orbits(Permutation.identity(4))
        assert dict(census.by_length) == {1: 6}

    def test_three_cycle(self):
        _, census = edge_orbits(Permutation.from_cycles(3, [(0, 1, 2)]))
        assert dict(census.by_length) == {3: 1}

    def test_orbit_listing_follows_sigma(self):
        orbits, _ = edge_orbits(TABLE_SIGMA)
        ep = edge_permutation(TABLE_SIGMA)
        for o in orbits:
            assert o.representative == min(o.edges)
            for cur, nxt in zip(o.edges, o.edges[1:] + o.edges[:1]):
                assert ep[cur] == nxt


class TestCensusPrediction:
    def test_table_sigma(self):
        assert census_predict_small(cycle_type(TABLE_SIGMA)) == (2, 3)

    def test_identity(self):
        ct = CycleType.from_counts(6, {1: 6})
        assert census_predict_small(ct) == (15, 0)

    def test_transposition_n3(self):
        ct = CycleType.from_counts(3, {1: 1, 2: 1})
        assert census_predict_small(ct) == (1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(2, 9))
    def test_matches_brute_force(self, data, n):
        sigma = Permutation(tuple(data.draw(st.permutations(range(n)))))
        _, census = edge_orbits(sigma)
        ct = cycle_type(sigma)
        assert (census.count(1), census.count(2)) == census_predict_small(ct)
        assert census_from_cycle_type(ct) == dict(census.by_length)
        assert census.total_weight() == n * (n - 1) // 2


class TestClassification:
    def test_table_types(self):
        orbits, _ = edge_orbits(TABLE_SIGMA)
        by_repr = {o.representative: o for o in orbits}
        assert str(classify_orbit(TABLE_SIGMA, by_repr[(0, 2)])) == "M_2"
        assert str(classify_orbit(TABLE_SIGMA, by_repr[(0, 4)])) == "B_{4,2}"
        s4 = by_repr[(4, 6)]
        assert str(classify_orbit(TABLE_SIGMA, s4)) == "S_4" and len(s4) == 2

    def test_rejects_non_orbit(self):
        with pytest.raises(ValueError):
            classify_orbit(TABLE_SIGMA, EdgeOrbit(((0, 2), (0, 3))))
        with pytest.raises(ValueError):
            orbit_label(TABLE_SIGMA, EdgeOrbit(((0, 2), (0, 3))))
        with pytest.raises(ValueError):  # orbit edges are written low-high, so (1, 0) is in no orbit
            classify_orbit(TABLE_SIGMA, EdgeOrbit(((1, 0),)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(2, 7))
    def test_rejects_any_non_orbit_edge_set(self, data, n):
        sigma = Permutation(tuple(data.draw(st.permutations(range(n)))))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
        orbit = EdgeOrbit(tuple(edges))
        real = {o.edge_set() for o in edge_orbits(sigma)[0]}
        if orbit.edge_set() in real and len(set(edges)) == len(edges):
            return
        with pytest.raises(ValueError):
            classify_orbit(sigma, orbit)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(3, 12))
    def test_structural_laws(self, data, n):
        sigma = Permutation(tuple(data.draw(st.permutations(range(n)))))
        node_orbs, _ = node_cycles(sigma)
        of_node = {v: orb for orb in node_orbs for v in orb}
        for o in edge_orbits(sigma)[0]:
            cls = classify_orbit(sigma, o)
            graph = BinaryGraph(n, o.edge_set())
            comps = connected_components(graph)
            i, j = o.representative
            if cls.kind == "M":
                # perfect matching between the two node orbits
                assert len(o) == cls.m
                verts = {v for e in o.edges for v in e}
                assert verts == set(of_node[i]) | set(of_node[j])
                assert all(e == 1 and len(v) == 2 for v, e in comps)
            elif cls.kind == "S":
                assert len(o) == cls.m // 2
                assert all(e == 1 and len(v) == 2 for v, e in comps)
                assert {v for e in o.edges for v in e} == set(of_node[i])
            elif cls.kind == "C":
                # disjoint union of equal-length cycles; a single m-cycle
                # exactly when the step is coprime with the orbit length
                assert len(o) == cls.m
                assert all(e == len(v) >= 3 for v, e in comps)
                d = (of_node[i].index(j) - of_node[i].index(i)) % cls.m
                assert len(comps) == math.gcd(d, cls.m)
            else:
                M = math.lcm(cls.ell, cls.m)
                assert len(o) == M
                assert len(comps) == cls.ell * cls.m // M
                for verts, e in comps:
                    assert e == M // cls.ell * (M // cls.m)  # complete bipartite

    def test_counts_between_fixed_orbits(self):
        # one m-orbit: floor((m-1)/2) cycles plus one split for even m;
        # a pair of distinct orbits: gcd bridges (or m matchings)
        for m in range(2, 11):
            sigma = Permutation.from_cycles(m, [tuple(range(m))])
            orbits, _ = edge_orbits(sigma)
            kinds = [classify_orbit(sigma, o).kind for o in orbits]
            assert kinds.count("C") == (m - 1) // 2
            assert kinds.count("S") == (1 if m % 2 == 0 else 0)
        for m in range(2, 7):
            sigma = Permutation.from_cycles(2 * m, [tuple(range(m)), tuple(range(m, 2 * m))])
            orbits, _ = edge_orbits(sigma)
            m_orbits = [o for o in orbits if classify_orbit(sigma, o).kind == "M"]
            assert len(m_orbits) == m
            labels = sorted(orbit_label(sigma, o) for o in m_orbits)
            assert labels == list(range(1, m + 1))
        for l in range(1, 6):
            for m in range(l + 1, 8):
                sigma = two_orbit_sigma(l, m)
                orbits, _ = edge_orbits(sigma)
                bridges = [o for o in orbits if classify_orbit(sigma, o).kind == "B"]
                assert len(bridges) == math.gcd(l, m)
                labels = sorted(orbit_label(sigma, o) for o in bridges)
                assert labels == list(range(1, math.gcd(l, m) + 1))

    def test_label_matches_partner_walk_on_all_of_s6(self):
        for n in range(2, 7):
            for p in itertools.permutations(range(n)):
                sigma = Permutation(p)
                for o in edge_orbits(sigma)[0]:
                    assert orbit_label(sigma, o) == label_by_partner_walk(sigma, o)

    def test_bridge_acyclic_iff_divisor(self):
        for l in range(1, 10):
            for m in range(l + 1, 11):
                sigma = two_orbit_sigma(l, m)
                for o in edge_orbits(sigma)[0]:
                    if classify_orbit(sigma, o).kind != "B":
                        continue
                    forest = is_forest(BinaryGraph(l + m, o.edge_set()))
                    assert forest == (m % l == 0)


class TestOrbitsUpTo:
    def test_large_k_gives_all(self):
        assert len(orbits_up_to(TABLE_SIGMA, 8)) == 10

    def test_window_excludes_long_node_orbits(self):
        # k=2: both fixed edges and both matchings, but nothing touching the 4-orbit
        names = sorted(str(classify_orbit(TABLE_SIGMA, o)) for o in orbits_up_to(TABLE_SIGMA, 2))
        assert names == ["M_2", "M_2", "S_2", "S_2"]
        # k=1: no node orbit is that short here
        assert orbits_up_to(TABLE_SIGMA, 1) == []

    def test_identity_fixed_edges(self):
        assert len(orbits_up_to(Permutation.identity(4), 1)) == 6

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_filter_over_all_orbits(self, n):
        for p in itertools.permutations(range(n)):
            sigma = Permutation(p)
            of_node = {v: c for c in node_cycles(sigma)[0] for v in c}
            every = edge_orbits(sigma)[0]
            for k in range(1, 8):
                want = [
                    o for o in every
                    if len(o) <= k and all(len(of_node[v]) <= k for v in o.representative)
                ]
                assert orbits_up_to(sigma, k) == want


class TestCompleteOrbits:
    def test_complete_graph_gives_all_short(self):
        a = BinaryGraph.complete(8)
        complete, h = complete_orbits(TABLE_SIGMA, a, a, 4)
        assert len(complete) == len(orbits_up_to(TABLE_SIGMA, 4))
        assert h.edge_count == sum(len(o) for o in complete)

    def test_empty_intersection(self):
        a = BinaryGraph.complete(8)
        b = BinaryGraph.empty(8)
        complete, h = complete_orbits(TABLE_SIGMA, a, b, 4)
        assert complete == [] and h.edge_count == 0

    def test_single_fixed_edge(self):
        sigma = Permutation.identity(3)
        a = BinaryGraph(3, frozenset({(0, 1)}))
        complete, h = complete_orbits(sigma, a, a, 1)
        assert [o.edges for o in complete] == [((0, 1),)]
        assert h.edges == frozenset({(0, 1)})


class TestBackbone:
    def fig2_graph(self):
        edges1 = [
            (1, 2), (1, 3), (2, 4), (1, 4), (2, 3),
            (3, 5), (4, 6), (3, 7), (4, 8),
            (5, 6), (6, 7), (7, 8), (5, 8),
        ]
        return BinaryGraph(8, frozenset((i - 1, j - 1) for i, j in edges1))

    def test_roots_are_ignored_by_equality(self):
        rooted, bare = BackboneGraph((), (), ((1, 0),)), BackboneGraph((), (), ())
        assert rooted == bare and hash(rooted) == hash(bare)

    def test_fig2_backbone(self):
        gamma = backbone(TABLE_SIGMA, self.fig2_graph(), 8)
        assert [nd.gid for nd in gamma.nodes] == [(2, 0), (2, 1), (4, 0)]
        assert [nd.split for nd in gamma.nodes] == [True, False, False]
        kinds = sorted((e.kind, e.u, e.v) for e in gamma.edges)
        assert kinds == [
            ("B", (2, 1), (4, 0)),
            ("C", (4, 0), (4, 0)),
            ("M", (2, 0), (2, 1)),
            ("M", (2, 0), (2, 1)),
        ]
        m_labels = sorted(e.label for e in gamma.edges if e.kind == "M")
        assert m_labels == [1, 2]
        for e in gamma.edges:
            if e.kind == "B":
                assert 1 <= e.label <= 2
            if e.kind == "C":
                assert e.label == 1

    def test_empty_graph(self):
        gamma = backbone(TABLE_SIGMA, BinaryGraph.empty(8), 8)
        assert gamma.edges == () and not any(nd.split for nd in gamma.nodes)

    def test_single_fixed_edge(self):
        sigma = Permutation.identity(2)
        gamma = backbone(sigma, BinaryGraph(2, frozenset({(0, 1)})), 2)
        assert len(gamma.edges) == 1
        e = gamma.edges[0]
        assert e.kind == "M" and e.u[0] == e.v[0] == 1 and e.label == 1

    def test_rejects_partial_orbit(self):
        h = BinaryGraph(8, frozenset({(0, 2)}))  # half of an M_2 orbit
        with pytest.raises(ValueError):
            backbone(TABLE_SIGMA, h, 8)

    def test_partial_orbit_is_named_before_the_window(self):
        bridge = next(o for o in edge_orbits(TABLE_SIGMA)[0] if o.representative == (0, 4))  # B_{4,2}
        part = BinaryGraph(8, frozenset(bridge.edges[:2]))
        with pytest.raises(ValueError, match="graph is not a union of complete edge orbits"):
            backbone(TABLE_SIGMA, part, 2)
        with pytest.raises(ValueError, match="graph contains an orbit outside the length-k window"):
            backbone(TABLE_SIGMA, BinaryGraph(8, bridge.edge_set()), 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labeled_walk_rebuilds_every_pair_walk_orbit(self, n):
        for perm in itertools.permutations(range(n)):
            sigma = Permutation(perm)
            of_node = {v: c for c in node_cycles(sigma)[0] for v in c}
            for o in edge_orbits_oracle(sigma)[0]:
                i, j = o.representative
                kind, label = classify_orbit(sigma, o).kind, orbit_label(sigma, o)
                assert orbit_from_backbone_edge(of_node[i], of_node[j], kind, label) == o.edge_set(), perm

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(3, 9))
    def test_reconstruction_is_identity(self, data, n):
        sigma = Permutation(tuple(data.draw(st.permutations(range(n)))))
        orbits = orbits_up_to(sigma, n)
        if not orbits:
            return
        picks = data.draw(st.sets(st.integers(0, len(orbits) - 1), max_size=5))
        edges = frozenset().union(*(orbits[i].edge_set() for i in picks)) if picks else frozenset()
        h = BinaryGraph(n, edges)
        gamma = backbone(sigma, h, n)
        assert reconstruct_orbit_graph(sigma, gamma) == h

    def test_walks_node_cycles_once(self, monkeypatch):
        calls = []
        real = orbits_module.node_cycles
        monkeypatch.setattr(orbits_module, "node_cycles", lambda s: calls.append(s) or real(s))
        everything = frozenset(itertools.combinations(range(8), 2))
        gamma = backbone(TABLE_SIGMA, BinaryGraph(8, everything), 8)
        assert len(gamma.edges) + sum(nd.split for nd in gamma.nodes) == 10
        assert len(calls) == 1


class TestExcessAndPredicates:
    def test_tree(self):
        tree = BinaryGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
        assert is_forest(tree) and is_pseudoforest(tree)

    def test_cycle(self):
        tri = BinaryGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        assert not is_forest(tri) and is_pseudoforest(tri)

    def test_two_triangles_sharing_edge(self):
        g = BinaryGraph(4, frozenset({(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)}))
        assert not is_pseudoforest(g)

    def test_empty(self):
        g = BinaryGraph.empty(4)
        assert is_forest(g) and is_pseudoforest(g)

    def test_isolated_vertices_ignored_by_default(self):
        g = BinaryGraph(10, frozenset({(0, 1)}))
        assert connected_components(g) == [(frozenset({0, 1}), 1)]
        assert is_forest(g) and is_pseudoforest(g)


class TestComponents:
    def test_components_count_loops_and_repeats(self):
        edges = ((4, 2), (2, 2), (0, 1), (1, 0))
        assert components(6, edges) == [((0, 1), 2), ((2, 4), 2), ((3,), 0), ((5,), 0)]

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(0, 9))
    def test_matches_search_components(self, data, n):
        # multigraphs with loops and repeated pairs, isolated vertices included
        vertex = st.integers(0, max(n - 1, 0))
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=12 if n else 0))
        assert components(n, edges) == search_components(n, edges)
        simple = {(min(e), max(e)) for e in edges if e[0] != e[1]}
        want = [(frozenset(vs), e) for vs, e in search_components(n, simple) if e]
        g = BinaryGraph(n, frozenset(simple))
        assert connected_components(g) == want
        assert is_forest(g) == all(e == len(v) - 1 for v, e in want)
        assert is_pseudoforest(g) == all(e <= len(v) for v, e in want)
