import itertools
import math
from dataclasses import dataclass

import pytest

from graphcorr.errors import ExactLimitError
from graphcorr.graphs import BinaryGraph, Permutation
from graphcorr.moments import enumerate_orbit_pseudoforests
from graphcorr.orbits import (
    BackboneGraph,
    CycleType,
    EdgeOrbit,
    GiantEdge,
    GiantNode,
    backbone,
    classify_orbit,
    cycle_type,
    connected_components,
    edge_orbits,
    node_cycles,
    orbits_up_to,
)
from graphcorr.enumeration import (
    ConstructionParams,
    GeneratedBackbone,
    _forests,
    algorithm1_forests,
    algorithm2_pseudoforests,
    count_rooted_forests,
    enumerate_rooted_forests,
    enumerate_rooted_pseudoforests,
    params_from_backbone,
    pseudoforest_count_bound,
    stream_bound_forest,
    stream_bound_pseudoforest,
    validate_forest,
    validate_pseudoforest,
)
from graphcorr.sampling import rng_from_seed

TABLE_SIGMA = Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5, 6, 7)])


def _orbit_graph_excess(node_orbit_sets, edge_orbits) -> int:
    verts = set()
    for orb in node_orbit_sets:
        verts.update(orb)
    edges = set()
    for o in edge_orbits:
        edges.update(o.edge_set())
    return len(edges) - len(verts)


def is_forest(g: BinaryGraph) -> bool:
    """True when the graph is acyclic."""
    return all(e == len(v) - 1 for v, e in connected_components(g))


@dataclass(frozen=True)
class ComponentState:
    """A level-m backbone component made concrete: node orbits plus edge orbits."""

    node_orbits: tuple[tuple[int, ...], ...]
    edge_orbits: tuple[EdgeOrbit, ...]


def excess_operations_oracle(
    sigma: Permutation, component: ComponentState, op
) -> int:
    """Exact excess change from adding one orbit to a component's orbit graph.

    The vertex set is built from an explicit node -> orbit map.  Splits raise
    the excess by exactly m/2; bridges by at least lcm(l, m) - l, with
    equality when the shorter orbit arrives fresh; cycle orbits by m.
    Violating a law raises ValueError.
    """
    node_orbits, of_node = {}, {}
    orbits, _ = node_cycles(sigma)
    for idx, orb in enumerate(orbits):
        node_orbits[idx] = orb
        for v in orb:
            of_node[v] = idx

    cls = classify_orbit(sigma, op)
    before_nodes = list(component.node_orbits)
    for o in component.edge_orbits:
        for i, j in o.edges:
            for v in (i, j):
                orb = orbits[of_node[v]]
                if orb not in before_nodes:
                    before_nodes.append(orb)
    before = _orbit_graph_excess(before_nodes, component.edge_orbits)
    after_nodes = list(before_nodes)
    for i, j in op.edges:
        for v in (i, j):
            orb = orbits[of_node[v]]
            if orb not in after_nodes:
                after_nodes.append(orb)
    after = _orbit_graph_excess(after_nodes, component.edge_orbits + (op,))
    delta = after - before

    if cls.kind == "S":
        if delta != cls.m // 2:
            raise ValueError(f"split changed excess by {delta}, expected {cls.m // 2}")
    elif cls.kind == "B":
        floor = math.lcm(cls.ell, cls.m) - cls.ell
        if delta < floor:
            raise ValueError(f"bridge changed excess by {delta}, expected >= {floor}")
    elif cls.kind == "C":
        if delta != cls.m:
            raise ValueError(f"cycle orbit changed excess by {delta}, expected {cls.m}")
    else:
        raise ValueError("only split, bridge, or cycle operations are supported")
    return delta


class TestRootedForestCount:
    def test_examples(self):
        assert count_rooted_forests(3, 0) == 1
        assert count_rooted_forests(3, 1) == 6
        assert count_rooted_forests(4, 3) == 64  # rooted labeled trees

    def test_matches_enumeration(self):
        for n in range(1, 7):
            for a in range(0, n):
                assert count_rooted_forests(n, a) == sum(
                    1 for _ in enumerate_rooted_forests(n, a)
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            count_rooted_forests(3, 3)
        with pytest.raises(ValueError):
            count_rooted_forests(3, -1)


class TestPseudoforestBound:
    def test_examples(self):
        assert pseudoforest_count_bound(2, 2) == 16
        assert pseudoforest_count_bound(3, 0) == 1
        assert pseudoforest_count_bound(3, 2) == 108

    def test_dominates_enumeration(self):
        for n in range(1, 5):
            for a in range(0, 6):
                brute = sum(1 for _ in enumerate_rooted_pseudoforests(n, a))
                assert brute <= pseudoforest_count_bound(n, a)

    def test_enumerated_objects_are_pseudoforests(self):
        for edges, roots in enumerate_rooted_pseudoforests(3, 3):
            comps = {}
            # loops and parallels allowed; per component edges <= vertices
            parent = list(range(3))

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for u, v in edges:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[rv] = ru
            for v in range(3):
                comps.setdefault(find(v), []).append(v)
            for members in comps.values():
                e = sum(1 for u, v in edges if find(u) == find(members[0]))
                assert e <= len(members)
            assert len(roots) == len(comps)


class TestAlgorithm1:
    def test_all_zero_params(self):
        ct = CycleType.from_counts(4, {2: 2})
        items = list(algorithm1_forests(ct, 2, ConstructionParams()))
        assert len(items) == 1
        assert items[0].backbone.edges == () and items[0].valid

    def test_two_singletons_one_edge(self):
        ct = CycleType.from_counts(2, {1: 2})
        params = ConstructionParams(a={1: 1})
        items = list(algorithm1_forests(ct, 1, params))
        assert len(items) == 2  # one labeled edge, two rootings
        assert len(items) <= stream_bound_forest(ct, 1, params)
        assert all(it.valid for it in items)

    def test_stream_within_bound_random_types(self):
        rng = rng_from_seed(11)
        for _ in range(10):
            counts = {}
            n = 0
            for m in (1, 2, 3, 4):
                c = int(rng.integers(0, 3))
                if c:
                    counts[m] = c
                    n += m * c
            if not counts:
                continue
            ct = CycleType.from_counts(n, counts)
            k = max(counts)
            a = {m: min(1, ct.count(m) - 1) for m in counts if ct.count(m) >= 2}
            b = {m: 1 for m in counts if m % 2 == 0 and ct.count(m) - a.get(m, 0) >= 1}
            params = ConstructionParams(a=a, b=b)
            stream = list(algorithm1_forests(ct, k, params))
            assert len(stream) <= stream_bound_forest(ct, k, params)

    def test_infeasible_gives_empty(self):
        ct = CycleType.from_counts(2, {1: 2})
        assert list(algorithm1_forests(ct, 1, ConstructionParams(a={1: 5}))) == []
        # splits need an even length
        assert list(algorithm1_forests(ct, 1, ConstructionParams(b={1: 1}))) == []


class TestStreamBounds:
    @pytest.mark.parametrize(
        "ct, k", [(CycleType.from_counts(4, {2: 2}), 2), (CycleType.from_counts(7, {1: 1, 2: 1, 4: 1}), 4)]
    )
    def test_bounds_hold_on_every_param_grid_point(self, ct, k):
        # negative and oversized stage counts give empty streams; the bounds say 0, not raise
        for a, b, c, d in itertools.product((-1, 0, 1, 2, 3), repeat=4):
            params = ConstructionParams(a={2: a}, b={2: b}, c={2: c}, d={2: d})
            assert stream_bound_forest(ct, k, params) >= len(list(algorithm1_forests(ct, k, params)))
            assert stream_bound_pseudoforest(ct, k, params) >= len(list(algorithm2_pseudoforests(ct, k, params)))


class TestAlgorithm2:
    def test_all_zero(self):
        ct = CycleType.from_counts(4, {4: 1})
        items = list(algorithm2_pseudoforests(ct, 4, ConstructionParams()))
        assert len(items) == 1 and items[0].backbone.edges == ()

    def test_self_loop_label_range(self):
        ct = CycleType.from_counts(5, {5: 1})
        items = list(algorithm2_pseudoforests(ct, 5, ConstructionParams(a={5: 1})))
        labels = sorted(e.label for it in items for e in it.backbone.edges)
        assert labels == [1, 2]  # floor((5-1)/2) label values
        ct3 = CycleType.from_counts(2, {2: 1})
        assert list(algorithm2_pseudoforests(ct3, 2, ConstructionParams(a={2: 1}))) == []

    def test_stream_within_bound(self):
        ct = CycleType.from_counts(10, {2: 3, 4: 1})
        params = ConstructionParams(a={2: 1}, b={2: 1}, d={2: 1})
        items = list(algorithm2_pseudoforests(ct, 4, params))
        assert 0 < len(items) <= stream_bound_pseudoforest(ct, 4, params)

    def test_backward_bridge_requires_room(self):
        ct = CycleType.from_counts(8, {2: 2, 4: 1})
        # d at level 4 would need level 8 <= k
        assert list(algorithm2_pseudoforests(ct, 4, ConstructionParams(d={4: 1}))) == []

    def test_over_generation_is_flagged_not_dropped(self):
        # a backward bridge may land on a unicyclic level-4 component; the
        # resulting orbit graph has positive excess, so the item is flagged
        ct = CycleType.from_counts(6, {2: 1, 4: 1})
        params = ConstructionParams(a={4: 1}, d={2: 1})
        items = list(algorithm2_pseudoforests(ct, 4, params))
        assert items and all(not it.valid for it in items)
        assert all("unicyclic-component-not-plain" in it.violations for it in items)
        for it in items:
            ok, viol = validate_pseudoforest(it.backbone)
            assert ok == it.valid and viol == it.violations


# -- the dict-plan stream builder that _level_plans/_stream replaced, kept as the oracle


def _bridge_targets_oracle(ct: CycleType, t: int) -> list[tuple[int, int, int]]:
    out = []
    for l in range(1, t):
        if t % l or ct.count(l) == 0:
            continue
        for v in range(ct.count(l)):
            for lab in range(1, l + 1):
                out.append((l, v, lab))
    return out


def _edge_label_assignments_oracle(edges, loops, t: int):
    groups: dict[tuple[int, int], int] = {}
    for e in edges:
        groups[e] = groups.get(e, 0) + 1
    keys = sorted(groups)
    per_group = [list(itertools.combinations(range(1, t + 1), groups[e])) for e in keys]
    loop_groups: dict[int, int] = {}
    for v in loops:
        loop_groups[v] = loop_groups.get(v, 0) + 1
    loop_keys = sorted(loop_groups)
    loop_range = (t - 1) // 2
    per_loop = [
        list(itertools.combinations(range(1, loop_range + 1), loop_groups[v])) for v in loop_keys
    ]
    for combo in itertools.product(*per_group, *per_loop):
        edge_combo, loop_combo = combo[: len(keys)], combo[len(keys) :]
        edge_labels = tuple((e, lab) for e, labs in zip(keys, edge_combo) for lab in labs)
        loop_labels = tuple((v, lab) for v, labs in zip(loop_keys, loop_combo) for lab in labs)
        yield edge_labels, loop_labels


def _level_plans_oracle(ct, t, a, b, c, d, pseudo):
    fwd_targets = _bridge_targets_oracle(ct, t)
    bwd_range = ct.count(2 * t)
    for edges, comps in _forests(ct.count(t), a, pseudo):
        plain_edges = [e for e in edges if e[0] != e[1]]
        loops = [e[0] for e in edges if e[0] == e[1]]
        tree_idx = [ci for ci, (vs, e) in enumerate(comps) if e == len(vs) - 1]
        if b + c + d > len(tree_idx):
            continue
        comp_nodes = [vs for vs, _ in comps]
        for edge_labels, loop_labels in _edge_label_assignments_oracle(tuple(plain_edges), loops, t):
            for roots in itertools.product(*comp_nodes):
                for split_cis in itertools.combinations(tree_idx, b):
                    split_nodes_opts = []
                    for ci in split_cis:
                        if pseudo:
                            split_nodes_opts.append(list(comp_nodes[ci]))
                        else:
                            split_nodes_opts.append([roots[ci]])
                    for split_choice in itertools.product(*split_nodes_opts):
                        splits = set()
                        for ci, chosen_node in zip(split_cis, split_choice):
                            splits.add(roots[ci])
                            splits.add(chosen_node)
                        rem = [ci for ci in tree_idx if ci not in split_cis]
                        for fwd_cis in itertools.combinations(rem, c):
                            for fwd_assign in itertools.product(fwd_targets, repeat=c):
                                rem2 = [ci for ci in rem if ci not in fwd_cis]
                                for bwd_cis in itertools.combinations(rem2, d):
                                    bwd_opts = itertools.product(
                                        itertools.product(range(bwd_range), range(1, t + 1)),
                                        repeat=d,
                                    )
                                    for bwd_assign in bwd_opts:
                                        yield {
                                            "edges": tuple(edge_labels),
                                            "loops": tuple(loop_labels),
                                            "roots": roots,
                                            "splits": frozenset(splits),
                                            "fwd": tuple(
                                                (roots[ci], tgt)
                                                for ci, tgt in zip(fwd_cis, fwd_assign)
                                            ),
                                            "bwd": tuple(
                                                (roots[ci], tgt)
                                                for ci, tgt in zip(bwd_cis, bwd_assign)
                                            ),
                                        }


def _assemble_oracle(ct: CycleType, k: int, plans: dict) -> BackboneGraph:
    nodes = []
    split_sets = {t: plan["splits"] for t, plan in plans.items()}
    for t in range(1, k + 1):
        for i in range(ct.count(t)):
            nodes.append(GiantNode((t, i), i in split_sets.get(t, frozenset())))
    edges = []
    roots = []
    for t, plan in plans.items():
        for (u, v), lab in plan["edges"]:
            edges.append(GiantEdge("M", (t, u), (t, v), lab))
        for v, lab in plan["loops"]:
            edges.append(GiantEdge("C", (t, v), (t, v), lab))
        for src, (l, v, lab) in plan["fwd"]:
            edges.append(GiantEdge("B", (l, v), (t, src), lab))
        for src, (v, lab) in plan["bwd"]:
            edges.append(GiantEdge("B", (t, src), (2 * t, v), lab))
        roots.extend((t, r) for r in plan["roots"])
    edges.sort(key=lambda e: (e.endpoints_key(), e.kind, e.label))
    return BackboneGraph(tuple(nodes), tuple(edges), tuple(sorted(roots)))


def stream_oracle(ct: CycleType, k: int, params: ConstructionParams, pseudo: bool):
    if not params.check(ct, k, allow_backward=pseudo):
        return
    validate = validate_pseudoforest if pseudo else validate_forest
    levels = list(range(1, k + 1))
    per_level = []
    for t in levels:
        a, b, c, d = params.at(t)
        if not pseudo:
            d = 0
        per_level.append(list(_level_plans_oracle(ct, t, a, b, c, d, pseudo)))
    for combo in itertools.product(*per_level):
        gamma = _assemble_oracle(ct, k, dict(zip(levels, combo)))
        yield GeneratedBackbone(gamma, *validate(gamma))


ORACLE_TYPES = [
    {1: 3}, {1: 4}, {2: 3}, {2: 4}, {3: 2}, {3: 3}, {5: 2}, {1: 2, 2: 1}, {1: 2, 2: 2},
    {2: 2, 4: 1}, {2: 2, 4: 2}, {1: 2, 3: 1}, {2: 1, 4: 2}, {3: 1, 6: 1}, {1: 1, 2: 1, 4: 1},
]


def _oracle_grid():
    """(cycle type, k, params): a <= 2 and b, c, d <= 1 at every level of types with at
    most two levels; one nonzero count at a time on three-level types."""
    stages = list(itertools.product(range(3), range(2), range(2), range(2)))
    for counts in ORACLE_TYPES:
        ct = CycleType.from_counts(sum(m * c for m, c in counts.items()), counts)
        levels = sorted(counts)
        if len(levels) <= 2:
            choices = itertools.product(stages, repeat=len(levels))
        else:
            choices = (
                tuple(s if i == j else (0, 0, 0, 0) for j in range(len(levels)))
                for i in range(len(levels))
                for s in stages
            )
        for per_level in choices:
            yield ct, max(counts), ConstructionParams(
                *({t: s[i] for t, s in zip(levels, per_level) if s[i]} for i in range(4))
            )


class TestStreamOracle:
    @pytest.mark.parametrize("pseudo", [False, True], ids=["forest", "pseudoforest"])
    def test_same_items_in_same_order(self, pseudo):
        algorithm = algorithm2_pseudoforests if pseudo else algorithm1_forests
        total = parallel = loops = 0
        for ct, k, params in _oracle_grid():
            got = list(algorithm(ct, k, params))
            want = list(stream_oracle(ct, k, params, pseudo))
            assert len(got) == len(want), (ct, params)
            for g, w in zip(got, want):
                assert g == w and g.backbone.roots == w.backbone.roots, (ct, params)
                keys = [e.endpoints_key() for e in g.backbone.edges if e.kind == "M"]
                parallel += len(keys) != len(set(keys))
                loops += any(e.kind == "C" for e in g.backbone.edges)
            total += len(got)
        assert total > 1500
        if pseudo:
            assert parallel > 500 and loops > 1000


class TestEmptyLevels:
    def test_huge_k_gives_the_streams_and_bounds_of_k_equal_n(self, deadline):
        # no level above n holds a node cycle, so k = 10**12 takes the time
        # and gives the bounds and items of k = n
        for ct, _, params in _oracle_grid():
            with deadline(2.0, f"the streams of {ct.counts} at k = 10**12"):
                huge = [
                    (bound(ct, 10**12, params), list(stream(ct, 10**12, params)))
                    for bound, stream in (
                        (stream_bound_forest, algorithm1_forests),
                        (stream_bound_pseudoforest, algorithm2_pseudoforests),
                    )
                ]
            assert huge == [
                (stream_bound_forest(ct, ct.n, params), list(algorithm1_forests(ct, ct.n, params))),
                (stream_bound_pseudoforest(ct, ct.n, params), list(algorithm2_pseudoforests(ct, ct.n, params))),
            ], (ct, params)

    def test_a_stage_at_an_empty_level_still_fails(self, deadline):
        ct = CycleType.from_counts(4, {1: 4})
        with deadline(2.0, "check at k = 10**12"):
            assert ConstructionParams(a={1: 2}).check(ct, 10**12, allow_backward=True)
            for params in (
                ConstructionParams(a={3: 1}),
                ConstructionParams(c={10**11: 1}),
                ConstructionParams(d={1: 0, 10**11: 1}),
            ):
                assert not params.check(ct, 10**12, allow_backward=True)
                assert stream_bound_pseudoforest(ct, 10**12, params) == 0
                assert list(algorithm2_pseudoforests(ct, 10**12, params)) == []
        # the backward-bridge room test reads the caller's k
        assert not ConstructionParams(d={1: 1}).check(ct, 1, allow_backward=True)
        assert ConstructionParams(d={1: 1}).check(ct, 2, allow_backward=True)


def fig2_backbone():
    edges1 = [
        (1, 2), (1, 3), (2, 4), (1, 4), (2, 3),
        (3, 5), (4, 6), (3, 7), (4, 8),
        (5, 6), (6, 7), (7, 8), (5, 8),
    ]
    h = BinaryGraph(8, frozenset((i - 1, j - 1) for i, j in edges1))
    return backbone(TABLE_SIGMA, h, 8)


class TestValidators:
    def make(self, nodes, edges):
        return BackboneGraph(tuple(nodes), tuple(edges))

    def test_empty_is_valid(self):
        gamma = self.make([GiantNode((2, 0)), GiantNode((4, 0))], [])
        assert validate_forest(gamma) == (True, ())
        assert validate_pseudoforest(gamma) == (True, ())

    def test_single_plain_tree(self):
        gamma = self.make(
            [GiantNode((3, 0)), GiantNode((3, 1))], [GiantEdge("M", (3, 0), (3, 1), 2)]
        )
        assert validate_forest(gamma)[0] and validate_pseudoforest(gamma)[0]

    def test_forest_rejects_two_bridges(self):
        gamma = self.make(
            [GiantNode((2, 0)), GiantNode((2, 1)), GiantNode((4, 0))],
            [GiantEdge("B", (2, 0), (4, 0), 1), GiantEdge("B", (2, 1), (4, 0), 1)],
        )
        ok, viol = validate_forest(gamma)
        assert not ok and "split-or-bridge-overload" in viol

    def test_forest_rejects_two_splits(self):
        gamma = self.make(
            [GiantNode((4, 0), True), GiantNode((4, 1)), GiantNode((4, 2), True)],
            [GiantEdge("M", (4, 0), (4, 1), 1), GiantEdge("M", (4, 1), (4, 2), 1)],
        )
        ok, viol = validate_forest(gamma)
        assert not ok and "split-or-bridge-overload" in viol

    def test_forest_rejects_split_plus_bridge(self):
        gamma = self.make(
            [GiantNode((2, 0)), GiantNode((4, 0)), GiantNode((4, 1), True)],
            [GiantEdge("M", (4, 0), (4, 1), 1), GiantEdge("B", (2, 0), (4, 0), 1)],
        )
        ok, viol = validate_forest(gamma)
        assert not ok and "split-or-bridge-overload" in viol

    def test_forest_rejects_self_loop(self):
        gamma = self.make([GiantNode((4, 0))], [GiantEdge("C", (4, 0), (4, 0), 1)])
        ok, viol = validate_forest(gamma)
        assert not ok and "self-loop-present" in viol
        # but the pseudoforest validator accepts a lone unicyclic component
        assert validate_pseudoforest(gamma)[0]

    def test_pseudo_rejects_three_splits(self):
        gamma = self.make(
            [GiantNode((4, 0), True), GiantNode((4, 1), True), GiantNode((4, 2), True)],
            [GiantEdge("M", (4, 0), (4, 1), 1), GiantEdge("M", (4, 1), (4, 2), 1)],
        )
        ok, viol = validate_pseudoforest(gamma)
        assert not ok and "component-with-more-than-two-splits" in viol

    def test_pseudo_rejects_mixed_length_sibling_bridges(self):
        gamma = self.make(
            [GiantNode((1, 0)), GiantNode((2, 0)), GiantNode((4, 0)), GiantNode((4, 1))],
            [
                GiantEdge("M", (4, 0), (4, 1), 1),
                GiantEdge("B", (1, 0), (4, 0), 1),
                GiantEdge("B", (2, 0), (4, 1), 1),
            ],
        )
        ok, viol = validate_pseudoforest(gamma)
        assert not ok and "sibling-bridges-not-half-length" in viol

    def test_pseudo_rejects_split_with_non_half_bridge(self):
        gamma = self.make(
            [GiantNode((1, 0)), GiantNode((4, 0), True)],
            [GiantEdge("B", (1, 0), (4, 0), 1)],
        )
        ok, viol = validate_pseudoforest(gamma)
        assert not ok and "split-component-bridge-not-half-length" in viol

    def test_pseudo_rejects_split_bridge_into_busy_component(self):
        # split component bridges into a level-2 component that itself bridges down
        gamma = self.make(
            [GiantNode((1, 0)), GiantNode((2, 0)), GiantNode((4, 0), True)],
            [
                GiantEdge("B", (2, 0), (4, 0), 1),
                GiantEdge("B", (1, 0), (2, 0), 1),
            ],
        )
        ok, viol = validate_pseudoforest(gamma)
        assert not ok and "split-component-bridge-endpoint-not-plain-tree" in viol

    def test_pseudo_rejects_shared_endpoint_components(self):
        # two sibling half-length bridges ending at the same short component
        gamma = self.make(
            [GiantNode((2, 0)), GiantNode((2, 1)), GiantNode((4, 0)), GiantNode((4, 1))],
            [
                GiantEdge("M", (4, 0), (4, 1), 1),
                GiantEdge("M", (2, 0), (2, 1), 1),
                GiantEdge("B", (2, 0), (4, 0), 1),
                GiantEdge("B", (2, 1), (4, 1), 1),
            ],
        )
        ok, viol = validate_pseudoforest(gamma)
        assert not ok and "double-bridge-endpoints-share-component" in viol

    def test_pseudo_rejects_nonplain_unicyclic(self):
        gamma = self.make(
            [GiantNode((4, 0), True)],
            [GiantEdge("C", (4, 0), (4, 0), 1)],
        )
        ok, viol = validate_pseudoforest(gamma)
        assert not ok and "unicyclic-component-not-plain" in viol

    def test_fig2_is_not_pseudoforest(self):
        # the worked orbit graph has excess 5: several conditions fire
        ok, viol = validate_pseudoforest(fig2_backbone())
        assert not ok and viol


class TestBruteForceAgreement:
    def test_all_brute_orbit_objects_validate(self):
        rng = rng_from_seed(21)
        for _ in range(6):
            n = int(rng.integers(5, 9))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            k = 4
            for found in enumerate_orbit_pseudoforests(sigma, k):
                g = BinaryGraph(n, frozenset().union(*(o.edge_set() for o in found)))
                gamma = backbone(sigma, g, k)
                assert validate_pseudoforest(gamma)[0]
                if is_forest(g):
                    assert validate_forest(gamma)[0]

    def test_pseudoforests_come_lazily(self, deadline):
        # the 36 edges of K_9 are the identity's orbits at k = 1; K_8 alone has
        # 2,918,122 pseudoforests, so an eager stream would not start in time
        sigma = Permutation.identity(9)
        with deadline(2.0, "the stream's first subsets"):
            first = list(itertools.islice(enumerate_orbit_pseudoforests(sigma, 1, limit=36), 4))
        orbits = orbits_up_to(sigma, 1)
        assert len(orbits) == 36
        assert first == [orbits[:j] for j in range(1, 5)]  # depth first: each subset before its extensions

    def test_containment_in_stream(self):
        rng = rng_from_seed(22)
        done = 0
        while done < 4:
            n = int(rng.integers(5, 9))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            k = 4
            try:
                pflist = list(enumerate_orbit_pseudoforests(sigma, k, limit=12))
            except ExactLimitError:
                continue
            done += 1
            ct_full = cycle_type(sigma)
            ct = CycleType(tuple(ct_full.counts[m - 1] if m <= k else 0 for m in range(1, n + 1)))
            cache = {}
            for orbit_list in pflist:
                union = frozenset().union(*(o.edge_set() for o in orbit_list))
                gamma = backbone(sigma, BinaryGraph(n, union), k)
                params = params_from_backbone(gamma, k)
                key = (
                    tuple(sorted(params.a.items())),
                    tuple(sorted(params.b.items())),
                    tuple(sorted(params.c.items())),
                    tuple(sorted(params.d.items())),
                )
                if key not in cache:
                    cache[key] = {
                        it.backbone.canonical_key()
                        for it in algorithm2_pseudoforests(ct, k, params)
                    }
                assert gamma.canonical_key() in cache[key]


class TestLemmaPlainPredicate:
    def test_component_excess_floor(self):
        # every level-m component of a generated backbone obeys the floor -m,
        # with equality exactly for plain tree components
        rng = rng_from_seed(23)
        for _ in range(6):
            n = int(rng.integers(5, 9))
            sigma = Permutation(tuple(int(v) for v in rng.permutation(n)))
            k = 4
            node_orbs, _ = node_cycles(sigma)
            of_node = {v: orb for orb in node_orbs for v in orb}
            for found in [[]] + list(itertools.islice(enumerate_orbit_pseudoforests(sigma, k), 39)):
                union = frozenset().union(*(o.edge_set() for o in found))
                gamma = backbone(sigma, BinaryGraph(n, union), k)
                from graphcorr.enumeration import _level_structure

                for m in sorted({nd.length for nd in gamma.nodes}):
                    comp_of, info = _level_structure(gamma, m)
                    for ci, comp in enumerate(info):
                        verts = set()
                        for gid in comp["members"]:
                            verts.update(gamma.node_by_gid(gid).members)
                        edges = set()
                        for e in gamma.edges:
                            mu = gamma.node_by_gid(e.u).members
                            mv = gamma.node_by_gid(e.v).members if e.v != e.u else None
                            from graphcorr.orbits import orbit_from_backbone_edge

                            if e.kind in ("M", "C") and e.u in comp["members"]:
                                edges |= orbit_from_backbone_edge(mu, mv, e.kind, e.label)
                            elif e.kind == "B" and (
                                (e.u in comp["members"] and e.u[0] == m)
                                or (e.v in comp["members"] and e.v[0] == m)
                            ):
                                edges |= orbit_from_backbone_edge(mu, mv, e.kind, e.label)
                                verts |= {v for pair in edges for v in pair}
                        for gid in comp["members"]:
                            nd = gamma.node_by_gid(gid)
                            if nd.split:
                                from graphcorr.orbits import orbit_from_backbone_edge

                                edges |= orbit_from_backbone_edge(nd.members, None, "S", None)
                        ex = len(edges) - len(verts | {v for pair in edges for v in pair})
                        assert ex >= -m
                        plain_tree = (
                            comp["is_tree"]
                            and comp["splits"] == 0
                            and not any(
                                max(e.u[0], e.v[0]) == m
                                and (e.u in comp["members"] or e.v in comp["members"])
                                for e in gamma.bridges_from(m)
                            )
                        )
                        assert (ex == -m) == plain_tree


class TestExcessOperations:
    def orbit_by_kind(self, sigma, kind, m=None, ell=None):
        for o in edge_orbits(sigma)[0]:
            cls = classify_orbit(sigma, o)
            if cls.kind == kind and (m is None or cls.m == m) and (
                ell is None or cls.ell == ell
            ):
                return o
        raise LookupError

    def test_split_delta(self):
        comp = ComponentState(((4, 5, 6, 7),), ())
        op = self.orbit_by_kind(TABLE_SIGMA, "S", m=4)
        assert excess_operations_oracle(TABLE_SIGMA, comp, op) == 2

    def test_bridge_delta_fresh(self):
        comp = ComponentState(((4, 5, 6, 7),), ())
        op = self.orbit_by_kind(TABLE_SIGMA, "B", m=4, ell=2)
        assert excess_operations_oracle(TABLE_SIGMA, comp, op) == 2  # lcm - ell

    def test_divisor_star_bridge_exact(self):
        # B with ell | m adds exactly m - ell when the short orbit is fresh
        for l, m in [(1, 4), (2, 4), (2, 6), (3, 6)]:
            sigma = Permutation.from_cycles(l + m, [tuple(range(l)), tuple(range(l, l + m))])
            comp = ComponentState((tuple(range(l, l + m)),), ())
            op = self.orbit_by_kind(sigma, "B")
            assert excess_operations_oracle(sigma, comp, op) == m - l

    def test_bridge_to_present_orbit_costs_more(self):
        sigma = TABLE_SIGMA
        b1 = self.orbit_by_kind(sigma, "B", m=4, ell=2)
        comp = ComponentState(((4, 5, 6, 7),), (b1,))
        # a second bridge between the same two orbits adds lcm with no new nodes
        others = [
            o
            for o in edge_orbits(sigma)[0]
            if classify_orbit(sigma, o).kind == "B" and o != b1
            and {v for e in o.edges for v in e} == {v for e in b1.edges for v in e}
        ]
        delta = excess_operations_oracle(sigma, comp, others[0])
        assert delta == 4 >= math.lcm(2, 4) - 2

    def test_cycle_delta(self):
        comp = ComponentState(((4, 5, 6, 7),), ())
        op = self.orbit_by_kind(TABLE_SIGMA, "C", m=4)
        assert excess_operations_oracle(TABLE_SIGMA, comp, op) == 4
