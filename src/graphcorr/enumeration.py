"""Counting and generating backbone forests and pseudoforests.

The generation algorithms build candidate backbone graphs for a given cycle
type level by level: a rooted (pseudo)forest of matchings per level, then
splits, then bridges attached at component roots (pseudoforests additionally
bridge backward into the doubled level).  The streams deliberately
over-generate; every emitted graph carries the verdict of the structural
validator, and the stream length is bounded by the closed-form product
formulas that drive the generating-function bounds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

from .orbits import BackboneGraph, CycleType, GiantEdge, GiantNode, components

__all__ = [
    "ConstructionParams",
    "GeneratedBackbone",
    "count_rooted_forests",
    "pseudoforest_count_bound",
    "enumerate_rooted_forests",
    "enumerate_rooted_pseudoforests",
    "algorithm1_forests",
    "algorithm2_pseudoforests",
    "stream_bound_forest",
    "stream_bound_pseudoforest",
    "validate_forest",
    "validate_pseudoforest",
    "params_from_backbone",
]


# -- closed-form counts and their brute-force twins ------------------------------


def count_rooted_forests(n: int, a: int) -> int:
    """Number of rooted forests on n labeled vertices with a edges: C(n-1, a) n^a."""
    if not 0 <= a <= n - 1:
        raise ValueError(f"need 0 <= a <= n-1, got a={a}, n={n}")
    return math.comb(n - 1, a) * n**a


def pseudoforest_count_bound(n: int, a: int) -> int:
    """Upper bound C(n, a) (2n)^a on rooted pseudoforests with a edges.

    Self-loops and parallel edges are allowed in the counted multigraphs.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    return math.comb(n, a) * (2 * n) ** a


def _forests(n: int, a: int, pseudo: bool):
    """Yield (edges, components) of every forest on [n] with a edges.

    With ``pseudo`` the edges are multisets over unordered pairs and
    self-loops, and components may carry one cycle; the excess bound keeps
    each pair to at most two copies and each loop to one.
    """
    if pseudo:
        slots = [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))
        graphs = (
            tuple(slots[i] for i in chosen)
            for chosen in itertools.combinations_with_replacement(range(len(slots)), a)
        )
    else:
        graphs = itertools.combinations(itertools.combinations(range(n), 2), a)
    max_excess = 0 if pseudo else -1
    for edges in graphs:
        comps = components(n, edges)
        if all(e - len(vs) <= max_excess for vs, e in comps):
            yield edges, comps


def enumerate_rooted_forests(n: int, a: int):
    """Yield (edges, roots) for every rooted forest on [n] with a edges."""
    for edges, comps in _forests(n, a, pseudo=False):
        for roots in itertools.product(*(vs for vs, _ in comps)):
            yield edges, roots


def enumerate_rooted_pseudoforests(n: int, a: int):
    """Yield (edges, roots) over rooted pseudoforest multigraphs with a edges.

    Edges are multisets over unordered pairs and self-loops; each component
    carries at most one cycle and one root.
    """
    for edges, comps in _forests(n, a, pseudo=True):
        for roots in itertools.product(*(vs for vs, _ in comps)):
            yield edges, roots


# -- construction parameters and streams -----------------------------------------


@dataclass(frozen=True)
class ConstructionParams:
    """Per-length stage counts for the generation algorithms.

    ``a[t]`` matchings/cycles, ``b[t]`` split components, ``c[t]`` forward
    bridges, ``d[t]`` backward bridges (forests take no ``d``).  Missing keys
    mean zero.
    """

    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict)
    c: dict = field(default_factory=dict)
    d: dict = field(default_factory=dict)

    def at(self, t: int) -> tuple[int, int, int, int]:
        return (
            self.a.get(t, 0),
            self.b.get(t, 0),
            self.c.get(t, 0),
            self.d.get(t, 0),
        )

    def check(self, ct: CycleType, k: int, allow_backward: bool) -> bool:
        """Stage feasibility for the cycle type; infeasible params give empty streams."""
        for t in {t for stage in (self.a, self.b, self.c, self.d) for t in stage if 1 <= t <= k}:  # no other level can fail
            a, b, c, d = self.at(t)
            if min(a, b, c, d) < 0:
                return False
            if b and t % 2:
                return False
            if d and (not allow_backward or 2 * t > k):
                return False
            if a + b + c + d > ct.count(t):
                return False
        return True


@dataclass(frozen=True)
class GeneratedBackbone:
    """A stream item: the generated backbone plus its validator verdict."""

    backbone: BackboneGraph
    valid: bool
    violations: tuple[str, ...]


def _stream_bound(ct: CycleType, k: int, params: ConstructionParams, pseudo: bool) -> int:
    """Product bound on the stream length; forests pass ``check`` only with d = 0 at every level."""
    if not params.check(ct, k, allow_backward=pseudo):
        return 0
    total, lower = 1, 0  # lower: sum of l * n_l over l < t
    for t in ct.levels(k):
        nt = ct.count(t)
        a, b, c, d = params.at(t)
        total *= (
            math.comb(nt, a)
            * math.comb(nt - a, b)
            * math.comb(nt - a - b, c)
            * math.comb(nt - a - b - c, d)
            * ((1 + pseudo) * t * nt) ** a
            * (nt**b if pseudo else 1)
            * lower**c
            * (t * ct.count(2 * t)) ** d
        )
        lower += t * nt
    return total


def stream_bound_forest(ct: CycleType, k: int, params: ConstructionParams) -> int:
    """Product bound on the forest stream length for the given parameters."""
    return _stream_bound(ct, k, params, pseudo=False)


def stream_bound_pseudoforest(ct: CycleType, k: int, params: ConstructionParams) -> int:
    """Product bound on the pseudoforest stream length for the given parameters."""
    return _stream_bound(ct, k, params, pseudo=True)


def _labeled_level_edges(edges, t: int):
    """Every labeling of a level-t multigraph, as lists of giant edges.

    Copies of a pair get distinct M labels from [1, t], copies of a loop
    distinct C labels from [1, (t-1)//2]; pairs vary slowest, then loops.
    """
    groups = sorted(Counter(edges).items(), key=lambda g: (g[0][0] == g[0][1], g[0]))
    per_group = []
    for (u, v), count in groups:
        kind, top = ("C", (t - 1) // 2) if u == v else ("M", t)
        per_group.append(
            [
                [GiantEdge(kind, (t, u), (t, v), lab) for lab in labs]
                for labs in itertools.combinations(range(1, top + 1), count)
            ]
        )
    for combo in itertools.product(*per_group):
        yield [e for group in combo for e in group]


def _level_plans(ct, t, a, b, c, d, pseudo: bool):
    """Enumerate all stage choices at level t.

    Yields (giant edges, split gids, root gids): the labeled matchings and
    loops of the level plus its forward and backward bridges, each bridge
    attached at a component root.
    """
    fwd_targets = [  # (shorter length l | t, node index, label)
        (l, v, lab) for l in range(1, t) if t % l == 0 for v in range(ct.count(l)) for lab in range(1, l + 1)
    ]
    bwd_targets = list(itertools.product(range(ct.count(2 * t)), range(1, t + 1)))

    for edges, comps in _forests(ct.count(t), a, pseudo):
        tree_idx = [ci for ci, (vs, e) in enumerate(comps) if e == len(vs) - 1]
        if b + c + d > len(tree_idx):
            continue
        comp_nodes = [vs for vs, _ in comps]
        for level_edges in _labeled_level_edges(edges, t):
            for roots in itertools.product(*comp_nodes):
                root_gids = [(t, r) for r in roots]
                for split_cis in itertools.combinations(tree_idx, b):
                    split_opts = [comp_nodes[ci] if pseudo else (roots[ci],) for ci in split_cis]
                    for split_choice in itertools.product(*split_opts):
                        splits = {
                            (t, v) for ci, w in zip(split_cis, split_choice) for v in (roots[ci], w)
                        }
                        rem = [ci for ci in tree_idx if ci not in split_cis]
                        for fwd_cis in itertools.combinations(rem, c):
                            rem2 = [ci for ci in rem if ci not in fwd_cis]
                            for fwd_assign in itertools.product(fwd_targets, repeat=c):
                                fwd = [
                                    GiantEdge("B", (l, v), (t, roots[ci]), lab)
                                    for ci, (l, v, lab) in zip(fwd_cis, fwd_assign)
                                ]
                                for bwd_cis in itertools.combinations(rem2, d):
                                    for bwd_assign in itertools.product(bwd_targets, repeat=d):
                                        bwd = [
                                            GiantEdge("B", (t, roots[ci]), (2 * t, v), lab)
                                            for ci, (v, lab) in zip(bwd_cis, bwd_assign)
                                        ]
                                        yield level_edges + fwd + bwd, splits, root_gids


def _stream(ct: CycleType, k: int, params: ConstructionParams, pseudo: bool):
    """Merge one plan per level into a backbone; levels vary like nested loops, level 1 slowest."""
    if not params.check(ct, k, allow_backward=pseudo):  # so forests have d = 0 at every level
        return
    validate = validate_pseudoforest if pseudo else validate_forest
    levels = ct.levels(k)  # an empty level has one empty plan once check passes
    per_level = [list(_level_plans(ct, t, *params.at(t), pseudo)) for t in levels]
    for combo in itertools.product(*per_level):
        edges = sorted(
            (e for level_edges, _, _ in combo for e in level_edges),
            key=lambda e: (e.endpoints_key(), e.kind, e.label),
        )
        splits = set().union(*(s for _, s, _ in combo))
        nodes = tuple(
            GiantNode((t, i), (t, i) in splits) for t in levels for i in range(ct.count(t))
        )
        roots = tuple(sorted(r for _, _, level_roots in combo for r in level_roots))
        gamma = BackboneGraph(nodes, tuple(edges), roots)
        ok, violations = validate(gamma)
        yield GeneratedBackbone(gamma, ok, violations)


def algorithm1_forests(ct: CycleType, k: int, params: ConstructionParams):
    """Stream of candidate backbone forests for the given stage counts.

    Each item carries the forest-validator verdict; the stream length never
    exceeds :func:`stream_bound_forest`.
    """
    return _stream(ct, k, params, pseudo=False)


def algorithm2_pseudoforests(ct: CycleType, k: int, params: ConstructionParams):
    """Stream of candidate backbone pseudoforests for the given stage counts.

    Over-generates by design; items carry the pseudoforest-validator verdict
    and the stream length never exceeds :func:`stream_bound_pseudoforest`.
    """
    return _stream(ct, k, params, pseudo=True)


# -- structural validators --------------------------------------------------------


def _level_structure(gamma: BackboneGraph, m: int):
    """Components of the level-m subgraph with per-component bookkeeping.

    Each component record lists its member gids, level edge count, tree
    flag, split count, and the bridges that leave it toward shorter levels.
    """
    nodes = [nd.gid for nd in gamma.nodes if nd.length == m]
    index = {gid: i for i, gid in enumerate(nodes)}
    comps = components(len(nodes), [(index[e.u], index[e.v]) for e in gamma.level_edges(m)])
    comp_of = {nodes[i]: ci for ci, (comp, _) in enumerate(comps) for i in comp}
    info = []
    splits = gamma.split_gids()
    for comp, ecount in comps:
        members = {nodes[i] for i in comp}
        info.append(
            {
                "members": members,
                "edges": ecount,
                "is_tree": ecount == len(members) - 1,
                "splits": sum(1 for g in members if g in splits),
                "bridges": [],
            }
        )
    for e in gamma.bridges_from(m):
        info[comp_of[e.u if e.u[0] == m else e.v]]["bridges"].append(e)
    return comp_of, info


def _is_plain_tree(comp_of, info, gid) -> bool:
    c = info[comp_of[gid]]
    return c["is_tree"] and not c["splits"] and not c["bridges"]


def _common_checks(gamma: BackboneGraph) -> list[str]:
    violations = []
    for e in gamma.edges:
        if e.kind == "B":
            lo, hi = sorted((e.u[0], e.v[0]))
            if lo == hi or hi % lo:
                violations.append("bridge-between-non-divisor-lengths")
            if not 1 <= e.label <= lo:
                violations.append("bridge-label-out-of-range")
        elif e.kind == "M":
            if e.u[0] != e.v[0] or e.u == e.v:
                violations.append("matching-endpoints-not-distinct-equal-length")
            if not 1 <= e.label <= e.u[0]:
                violations.append("matching-label-out-of-range")
        elif e.kind == "C":
            if e.u != e.v:
                violations.append("self-loop-endpoints-differ")
            if not 1 <= e.label <= (e.u[0] - 1) // 2:
                violations.append("self-loop-label-out-of-range")
    for nd in gamma.nodes:
        if nd.split and nd.length % 2:
            violations.append("split-on-odd-length-orbit")
    return violations


def validate_forest(gamma: BackboneGraph) -> tuple[bool, tuple[str, ...]]:
    """Necessary conditions for the orbit graph of ``gamma`` to be a forest.

    Checks, per level: the level graph is a simple forest; bridges connect
    divisor lengths; no self-loops; and no component carries more than one
    split-or-bridge attachment in total.
    """
    violations = _common_checks(gamma)
    if any(e.kind == "C" for e in gamma.edges):
        violations.append("self-loop-present")
    for m in sorted({nd.length for nd in gamma.nodes}):
        keys = [e.endpoints_key() for e in gamma.level_edges(m)]
        if len(keys) != len(set(keys)):
            violations.append("parallel-giant-edges")
        for c in _level_structure(gamma, m)[1]:
            if c["edges"] > len(c["members"]) - 1:
                violations.append("level-graph-not-forest")
            if c["splits"] + len(c["bridges"]) > 1:
                violations.append("split-or-bridge-overload")
    violations = sorted(set(violations))
    return (not violations, tuple(violations))


def validate_pseudoforest(gamma: BackboneGraph) -> tuple[bool, tuple[str, ...]]:
    """Necessary conditions for the orbit graph of ``gamma`` to be a pseudoforest.

    Per level: the level multigraph is a pseudoforest; bridges connect
    divisor lengths; unicyclic components are plain; tree components carry
    at most two splits; components with several bridges, or with a split and
    a bridge, only bridge into the half length, and such bridges end in
    pairwise distinct plain tree components there.
    """
    violations = _common_checks(gamma)
    lengths = sorted({nd.length for nd in gamma.nodes})
    structure = {m: _level_structure(gamma, m) for m in lengths}
    for m in lengths:
        double_endpoints = []
        for c in structure[m][1]:
            blist = c["bridges"]
            if c["edges"] > len(c["members"]):
                violations.append("level-graph-not-pseudoforest")
            if not c["is_tree"] and (c["splits"] or blist):
                violations.append("unicyclic-component-not-plain")
            if c["is_tree"] and c["splits"] > 2:
                violations.append("component-with-more-than-two-splits")
            half_ok = m % 2 == 0
            if len(blist) >= 2:
                if not (half_ok and all(min(e.u[0], e.v[0]) == m // 2 for e in blist)):
                    violations.append("sibling-bridges-not-half-length")
            if c["splits"] and blist:
                for e in blist:
                    l = min(e.u[0], e.v[0])
                    v = e.u if e.u[0] == l else e.v
                    if not (half_ok and l == m // 2):
                        violations.append("split-component-bridge-not-half-length")
                    elif m // 2 in structure and not _is_plain_tree(*structure[m // 2], v):
                        violations.append("split-component-bridge-endpoint-not-plain-tree")
            if c["splits"] or len(blist) >= 2:
                double_endpoints.extend(blist)
        endpoint_comps = []
        for e in double_endpoints:
            l = min(e.u[0], e.v[0])
            if m % 2 or l != m // 2 or l not in structure:
                continue
            v = e.u if e.u[0] == l else e.v
            comp_of_l, info_l = structure[l]
            if not _is_plain_tree(comp_of_l, info_l, v):
                violations.append("double-bridge-endpoint-not-plain-tree")
            endpoint_comps.append(comp_of_l[v])
        if len(endpoint_comps) != len(set(endpoint_comps)):
            violations.append("double-bridge-endpoints-share-component")
    violations = sorted(set(violations))
    return (not violations, tuple(violations))


def params_from_backbone(gamma: BackboneGraph, k: int) -> ConstructionParams:
    """Stage counts that let the pseudoforest stream regenerate ``gamma``.

    Bridges whose start component carries a split or further bridges are
    counted backward (at the half length); the rest count forward.
    """
    a, b, c, d = Counter(), Counter(), Counter(), Counter()
    for m in sorted({nd.length for nd in gamma.nodes}):
        a[m] = len(gamma.level_edges(m))
        info = _level_structure(gamma, m)[1]
        b[m] = sum(1 for comp in info if comp["splits"] > 0)
        for comp in info:
            nb = len(comp["bridges"])
            if nb and (comp["splits"] > 0 or nb >= 2):
                d[m // 2] += nb
            elif nb:
                c[m] += nb
    return ConstructionParams(*({t: v for t, v in x.items() if v} for x in (a, b, c, d)))
