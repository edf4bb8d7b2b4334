"""Permutation orbit algebra on nodes and edges.

A node permutation sigma acts on the unordered pairs of [n] by permuting
endpoints; the cycles of that induced action are the *edge orbits*.  This
module computes cycle decompositions, the edge-orbit census, the four-way
structural classification of edge orbits (matching / bridge / cycle / split),
the backbone multigraph summary of a union of orbits, and the union-find and
pseudoforest predicate that drive the second-moment enumeration machinery.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

from .graphs import BinaryGraph, Permutation, intersect

__all__ = [
    "CycleType",
    "EdgeOrbit",
    "OrbitClass",
    "EdgeOrbitCensus",
    "GiantNode",
    "GiantEdge",
    "BackboneGraph",
    "node_cycles",
    "cycle_type",
    "edge_orbits",
    "census_predict_small",
    "census_from_cycle_type",
    "classify_orbit",
    "orbit_label",
    "orbits_up_to",
    "complete_orbits",
    "backbone",
    "reconstruct_orbit_graph",
    "orbit_from_backbone_edge",
    "components",
    "connected_components",
    "is_pseudoforest",
]


# -- cycle decomposition -------------------------------------------------------


@dataclass(frozen=True)
class CycleType:
    """Cycle type of a permutation: ``counts[m-1]`` is the number of m-node orbits."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("orbit counts must be nonnegative")

    @property
    def n(self) -> int:
        return sum((m + 1) * c for m, c in enumerate(self.counts))

    def count(self, m: int) -> int:
        """Number of m-node orbits (0 when m exceeds the stored range)."""
        if m < 1:
            raise ValueError("orbit length must be >= 1")
        return self.counts[m - 1] if m <= len(self.counts) else 0

    def levels(self, k: int) -> list[int]:
        """The lengths m <= k that hold a node cycle, ascending; no level above n does."""
        return [m for m, c in enumerate(self.counts[:k], 1) if c]

    @staticmethod
    def from_counts(n: int, counts: dict[int, int]) -> "CycleType":
        arr = [0] * n
        for m, c in counts.items():
            if m < 1 or c < 0:
                raise ValueError(f"need orbit length >= 1 and count >= 0, got {m}:{c}")
            if m > n:
                raise ValueError(f"orbit length {m} exceeds n={n}")
            arr[m - 1] = c
        ct = CycleType(tuple(arr))
        if ct.n != n:
            raise ValueError("orbit lengths do not sum to n")
        return ct


def node_cycles(sigma: Permutation) -> tuple[list[tuple[int, ...]], CycleType]:
    """Decompose sigma into node orbits.

    Each orbit is listed starting from its minimal element and following
    sigma; orbits are sorted by their minimal element.  Also returns the
    cycle type.
    """
    n = sigma.n
    seen = [False] * n
    orbits = []
    counts = [0] * n
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        v = sigma(start)
        while v != start:
            orbit.append(v)
            seen[v] = True
            v = sigma(v)
        orbits.append(tuple(orbit))
        counts[len(orbit) - 1] += 1
    return orbits, CycleType(tuple(counts))


def cycle_type(sigma: Permutation) -> CycleType:
    return node_cycles(sigma)[1]


@dataclass(frozen=True)
class EdgeOrbit:
    """One cycle of the induced edge permutation.

    ``edges`` lists the orbit in traversal order starting from the
    lexicographically smallest pair; the edge permutation maps each listed
    edge to the next, cyclically.
    """

    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def representative(self) -> tuple[int, int]:
        return self.edges[0]

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)


@dataclass(frozen=True)
class EdgeOrbitCensus:
    """Counts of edge orbits by length: ``by_length[k]`` is the number of k-edge orbits."""

    n: int
    by_length: dict[int, int] = field(default_factory=dict)

    def count(self, k: int) -> int:
        return self.by_length.get(k, 0)

    def total_weight(self) -> int:
        """Sum of k * N_k; always equals C(n, 2)."""
        return sum(k * c for k, c in self.by_length.items())


def _zip_walk(p: tuple[int, ...], r: tuple[int, ...], b: int):
    """Pairs (p_t, r_(b+t)) in sigma order, indices cyclic, for lcm(|p|, |r|) steps.

    The split walk (r is p and 2b = |p|) stops after |p|/2 pairs, where it closes.
    """
    l, m = len(p), len(r)
    lcm = math.lcm(l, m)
    return zip(p[: l // 2] if r is p and 2 * b == l else p * (lcm // l), (r[b:] + r[:b]) * (lcm // m))


def _walk_orbits(cycles: list[tuple[int, ...]], k: float) -> list[EdgeOrbit]:
    """Edge orbits of length <= k that join the node cycles ``cycles``, sorted by representative pair.

    Each orbit is one :func:`_zip_walk` from its least pair, which holds p_0:
    P at offset d walks (P, P, d), or (P, P, l - d) if p_(l-d) < p_d; a later R
    at residue b < gcd(l, m) walks (P, R, b'), r_b' least over b' = b mod gcd.
    In-cycle orbits are no longer than their cycle: only cross walks test k.
    """
    walks = []
    for a, p in enumerate(cycles):
        l = len(p)
        walks += [_zip_walk(p, p, d if 2 * d == l or p[d] < p[l - d] else l - d) for d in range(1, l // 2 + 1)]
        for r in cycles[a + 1 :]:
            m, g = len(r), math.gcd(l, len(r))
            if l // g * m <= k:
                walks += [_zip_walk(p, r, min(range(b, m, g), key=r.__getitem__)) for b in range(g)]
    orbits = [EdgeOrbit(tuple([(u, v) if u < v else (v, u) for u, v in walk])) for walk in walks]
    orbits.sort(key=lambda o: o.edges[0])
    return orbits


def edge_orbits(sigma: Permutation) -> tuple[list[EdgeOrbit], EdgeOrbitCensus]:
    """All edge orbits of sigma, sorted by representative pair, plus the census."""
    orbits = _walk_orbits(_cached_lookup(sigma)[0], math.inf)
    return orbits, EdgeOrbitCensus(sigma.n, dict(Counter(len(o) for o in orbits)))


def census_predict_small(ct: CycleType) -> tuple[int, int]:
    """Predicted counts (N_1, N_2) of 1- and 2-edge orbits from the cycle type.

    N_1 = C(n_1, 2) + n_2 and N_2 = 2 C(n_2, 2) + n_1 n_2 + n_4.
    """
    n1, n2, n4 = ct.count(1), ct.count(2), ct.count(4)
    return (math.comb(n1, 2) + n2, 2 * math.comb(n2, 2) + n1 * n2 + n4)


def census_from_cycle_type(ct: CycleType) -> dict[int, int]:
    """Full edge-orbit census {k: N_k} determined by the node cycle type.

    A single m-orbit contributes floor((m-1)/2) orbits of length m plus, for
    even m, one orbit of length m/2.  A pair of orbits with lengths l <= m
    contributes gcd(l, m) orbits of length lcm(l, m).
    """
    lengths = [m for m in range(1, len(ct.counts) + 1) if ct.count(m) > 0]
    census: dict[int, int] = {}

    def add(k: int, c: int):
        if c:
            census[k] = census.get(k, 0) + c

    for m in lengths:
        nm = ct.count(m)
        add(m, nm * ((m - 1) // 2))
        if m % 2 == 0:
            add(m // 2, nm)
        add(m, math.comb(nm, 2) * m)
    for i, l in enumerate(lengths):
        for m in lengths[i + 1 :]:
            add(math.lcm(l, m), ct.count(l) * ct.count(m) * math.gcd(l, m))
    return census


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClass:
    """Structural class of an edge orbit.

    kind 'M': perfect matching between two distinct node orbits of equal
    length m.  kind 'B': bridge between node orbits of lengths ell < m; the
    orbit graph is gcd(ell, m) disjoint copies of a complete bipartite graph
    and has lcm(ell, m) edges.  kind 'C': within one node orbit, offset not
    equal to m/2; a disjoint union of cycles with m edges in total.  kind
    'S': the antipodal pairing within one even node orbit; a perfect matching
    with m/2 edges.
    """

    kind: str
    m: int
    ell: int | None = None

    @property
    def orbit_length(self) -> int:
        if self.kind == "M" or self.kind == "C":
            return self.m
        if self.kind == "B":
            return math.lcm(self.ell, self.m)
        if self.kind == "S":
            return self.m // 2
        raise ValueError(f"unknown kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "B":
            return f"B_{{{self.m},{self.ell}}}"
        return f"{self.kind}_{self.m}"


@functools.lru_cache(maxsize=1)
def _cached_lookup(sigma: Permutation):
    """Node cycles of sigma and the map from each node to its cycle, kept for the last sigma (read-only)."""
    orbits, _ = node_cycles(sigma)
    return orbits, {v: orb for orb in orbits for v in orb}


def _oriented(a: tuple[int, ...], b: tuple[int, ...]):
    """Two node-orbit traversals ordered shorter first, ties by smaller minimum."""
    return (a, b) if (len(a), a[0]) <= (len(b), b[0]) else (b, a)


def _type_and_label(of_node, pair: tuple[int, int]) -> tuple[OrbitClass, int | None]:
    """Class and label of the edge orbit through ``pair``, read off the node cycles.

    An orbit between node cycles P and R holds the edges (p_(a+t), r_(b+t))
    for (p_a, r_b) = ``pair``, so every R-index paired with p_0 is congruent
    to b - a modulo gcd(|P|, |R|); that residue is the M or B label.
    """
    i, j = pair
    oi, oj = of_node[i], of_node[j]
    if oi is oj:
        m = len(oi)
        d = (oi.index(j) - oi.index(i)) % m
        if m % 2 == 0 and d == m // 2:
            return OrbitClass("S", m), None
        return OrbitClass("C", m), min(d, m - d)
    pp, rr = _oriented(oi, oj)
    p, r = (i, j) if pp is oi else (j, i)
    l, m = len(pp), len(rr)
    cls = OrbitClass("M", m) if l == m else OrbitClass("B", m, l)
    return cls, 1 + (rr.index(r) - pp.index(p)) % math.gcd(l, m)


def _class_and_label(sigma: Permutation, orbit: EdgeOrbit) -> tuple[OrbitClass, int | None]:
    """Class and label of ``orbit``; raises unless it is an edge orbit of sigma."""
    of_node = _cached_lookup(sigma)[1]
    i, j = orbit.representative
    cls, label = _type_and_label(of_node, (i, j))
    if cls.orbit_length != len(orbit):
        raise ValueError(
            f"edge set of size {len(orbit)} is not an orbit of the given permutation"
        )
    if orbit_from_backbone_edge(of_node[i], of_node[j], cls.kind, label) != orbit.edge_set():
        raise ValueError("edge set is not an orbit of the given permutation")
    return cls, label


def classify_orbit(sigma: Permutation, orbit: EdgeOrbit) -> OrbitClass:
    """Classify an edge orbit of sigma as M, B, C, or S."""
    return _class_and_label(sigma, orbit)[0]


def orbit_label(sigma: Permutation, orbit: EdgeOrbit) -> int | None:
    """Canonical integer label of an edge orbit within its class.

    The canonical traversal of each node orbit starts at its minimal element.
    For a C orbit on traversal (v_0, ..., v_{m-1}) the label is the offset
    min(d, m - d) in [floor((m-1)/2)].  For an M orbit between traversals P
    (smaller minimum) and R, the label is 1 + the R-index paired with p_0.
    For a B orbit between the shorter traversal P and longer R the label is
    1 + (min R-index paired with p_0 mod gcd).  Splits carry no label.
    """
    return _class_and_label(sigma, orbit)[1]


def orbits_up_to(sigma: Permutation, k: int) -> list[EdgeOrbit]:
    """Edge orbits of length <= k whose endpoint node orbits have length <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _walk_orbits([c for c in _cached_lookup(sigma)[0] if len(c) <= k], k)


def complete_orbits(
    sigma: Permutation, a: BinaryGraph, b_pi: BinaryGraph, k: int
) -> tuple[list[EdgeOrbit], BinaryGraph]:
    """Short orbits fully contained in the intersection graph, and their union.

    ``b_pi`` must already be relabeled by the same latent permutation used to
    align the planted pair.  Returns the list of complete orbits and the
    orbit graph they span.
    """
    inter = intersect(a, b_pi)
    complete = [
        o for o in orbits_up_to(sigma, k) if o.edge_set() <= inter.edges
    ]
    union = frozenset().union(*(o.edge_set() for o in complete)) if complete else frozenset()
    return complete, BinaryGraph(a.n, union)


# -- backbone graphs -----------------------------------------------------------


@dataclass(frozen=True)
class GiantNode:
    """A node orbit in a backbone graph.

    ``gid = (length, index)`` identifies the node; ``split`` marks the
    presence of the antipodal split orbit; ``members`` holds the concrete
    node-orbit traversal when the backbone came from an actual permutation.
    """

    gid: tuple[int, int]
    split: bool = False
    members: tuple[int, ...] | None = None

    @property
    def length(self) -> int:
        return self.gid[0]


@dataclass(frozen=True)
class GiantEdge:
    """A labeled giant edge: kind 'M', 'B', or 'C' (self-loop, u == v)."""

    kind: str
    u: tuple[int, int]
    v: tuple[int, int]
    label: int

    def endpoints_key(self):
        return tuple(sorted((self.u, self.v)))


@dataclass(frozen=True)
class BackboneGraph:
    """Labeled multigraph summary of an orbit graph.

    One giant node per node orbit of length <= k (isolated giant nodes are
    kept), one giant edge per matching/bridge/cycle orbit, and a split flag
    per antipodal-split orbit.  ``roots`` is optional per-component rooting
    metadata used by the generation algorithms; it is ignored by equality.
    """

    nodes: tuple[GiantNode, ...]
    edges: tuple[GiantEdge, ...]
    roots: tuple[tuple[int, int], ...] = ()

    def node_by_gid(self, gid) -> GiantNode:
        for nd in self.nodes:
            if nd.gid == gid:
                return nd
        raise KeyError(gid)

    def split_gids(self) -> set:
        return {nd.gid for nd in self.nodes if nd.split}

    def level_edges(self, m: int) -> list[GiantEdge]:
        """M edges and C self-loops among the level-m giant nodes."""
        return [
            e
            for e in self.edges
            if e.kind in ("M", "C") and e.u[0] == m and e.v[0] == m
        ]

    def bridges_from(self, m: int) -> list[GiantEdge]:
        """B edges whose longer side is level m (oriented longer -> shorter)."""
        return [e for e in self.edges if e.kind == "B" and max(e.u[0], e.v[0]) == m]

    def canonical_key(self):
        """Hashable form ignoring roots and member sets; used for stream containment."""
        nodes = tuple(sorted((nd.gid, nd.split) for nd in self.nodes))
        edges = tuple(sorted((e.kind, e.endpoints_key(), e.label) for e in self.edges))
        return (nodes, edges)


def backbone(sigma: Permutation, h: BinaryGraph, k: int) -> BackboneGraph:
    """Backbone graph of an orbit graph ``h`` assembled from orbits of length <= k.

    Raises if ``h`` is not a union of complete edge orbits drawn from the
    short-orbit set.
    """
    node_orbits, of_node = _cached_lookup(sigma)
    short = [orb for orb in node_orbits if len(orb) <= k]
    gid_of_orbit = {}
    by_level: dict[int, list] = {}
    for orb in short:
        by_level.setdefault(len(orb), []).append(orb)
    for m, orbs in by_level.items():
        orbs.sort(key=lambda o: o[0])
        for idx, orb in enumerate(orbs):
            gid_of_orbit[orb] = (m, idx)

    remaining = set(h.edges)
    splits = set()
    giant_edges = []
    while remaining:
        i, j = pair = min(remaining)
        oi, oj = of_node[i], of_node[j]
        cls, label = _type_and_label(of_node, pair)
        cyc = orbit_from_backbone_edge(oi, oj, cls.kind, label)
        if not cyc <= remaining:
            raise ValueError("graph is not a union of complete edge orbits")
        remaining -= cyc
        if max(len(oi), len(oj), len(cyc)) > k:
            raise ValueError("graph contains an orbit outside the length-k window")
        if cls.kind == "S":
            splits.add(gid_of_orbit[oi])
        elif cls.kind == "C":
            gid = gid_of_orbit[oi]
            giant_edges.append(GiantEdge("C", gid, gid, label))
        else:
            u, v = sorted((gid_of_orbit[oi], gid_of_orbit[oj]))
            giant_edges.append(GiantEdge(cls.kind, u, v, label))

    nodes = tuple(
        GiantNode(gid_of_orbit[orb], gid_of_orbit[orb] in splits, orb)
        for orb in sorted(short, key=lambda o: (len(o), o[0]))
    )
    return BackboneGraph(nodes, tuple(sorted(giant_edges, key=lambda e: (e.endpoints_key(), e.kind, e.label))))


def orbit_from_backbone_edge(
    members_u: tuple[int, ...], members_v: tuple[int, ...] | None, kind: str, label: int | None
) -> frozenset:
    """Concrete edge set of a single labeled orbit given node-orbit traversals."""
    if kind == "S":
        walk = _zip_walk(members_u, members_u, len(members_u) // 2)
    elif kind == "C":
        walk = _zip_walk(members_u, members_u, label)
    else:  # matching or bridge between two distinct orbits; orient shorter/min first
        walk = _zip_walk(*_oriented(members_u, members_v), label - 1)
    return frozenset((u, v) if u < v else (v, u) for u, v in walk)


def reconstruct_orbit_graph(sigma: Permutation, gamma: BackboneGraph) -> BinaryGraph:
    """Inverse of :func:`backbone`: rebuild the orbit graph from its backbone."""
    edges = set()
    for nd in gamma.nodes:
        if nd.split:
            edges |= orbit_from_backbone_edge(nd.members, None, "S", None)
    for e in gamma.edges:
        mu = gamma.node_by_gid(e.u).members
        mv = gamma.node_by_gid(e.v).members if e.v != e.u else None
        edges |= orbit_from_backbone_edge(mu, mv, e.kind, e.label)
    return BinaryGraph(sigma.n, frozenset(edges))


# -- components and the pseudoforest predicate ---------------------------------


def components(n: int, edges) -> list[tuple[tuple[int, ...], int]]:
    """Components of a multigraph on [n] as (sorted vertices, edge count) pairs.

    Self-loops and parallel edges count as edges, so a component's excess
    (edges minus vertices) is -1 for a tree and 0 for a unicyclic component.
    A merge points the larger root at the smaller, so every root is its
    component's least vertex and components come ordered by it.
    """
    parent = list(range(n))
    count = [0] * n

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru > rv:
            ru, rv = rv, ru
        if ru != rv:
            parent[rv] = ru
            count[ru] += count[rv]
        count[ru] += 1
    groups: dict[int, list[int]] = {}
    for v in range(n):
        parent[v] = parent[parent[v]]  # parent[v] <= v, so its root is already known
        groups.setdefault(parent[v], []).append(v)
    return [(tuple(vs), count[r]) for r, vs in groups.items()]


def connected_components(g: BinaryGraph) -> list[tuple[frozenset, int]]:
    """Components over non-isolated vertices as (vertex set, edge count) pairs."""
    return [(frozenset(vs), e) for vs, e in components(g.n, g.edges) if e]


def is_pseudoforest(g: BinaryGraph) -> bool:
    """True when every connected component has at most one cycle (excess <= 0)."""
    return all(e <= len(v) for v, e in connected_components(g))
