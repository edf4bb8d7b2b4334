"""Graph and permutation value types.

A binary graph stores its edge set as one sorted, distinct, read-only int64
array of pair indices (``index``, ranked as in :func:`pair_index`); ``edges``
is a frozen set of canonical vertex pairs derived from it on first use.  A
graph built from indices that are valid by construction keeps one deferred
source, the raw indices or a draw of them whose size is already known, and
sorts it only when ``index`` is first read.  The draw runs then, once, under
a module-level lock: the ER samplers hand over the second graph's last
edge-set draw uncalled, with its count, and :func:`relabel` and the planted
sampler run the relabel inside the draw.
Weighted graphs are read-only symmetric numpy arrays.  Permutations are
tuples with a read-only int64 array view.  All values are immutable after
construction and safe to share across threads.

Vertices are 0-based internally; the text file formats are 1-based.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ExactLimitError

__all__ = [
    "Permutation",
    "BinaryGraph",
    "WeightedGraph",
    "strict_index",
    "check_vertex_count",
    "canonical_pair",
    "pair_index",
    "pairs_from_indices",
    "map_pair_indices",
    "symmetric_from_flat",
    "permutation_table",
    "edge_code_maps",
    "code_edge_counts",
    "relabel",
    "intersect",
    "read_binary_graph",
    "write_binary_graph",
    "read_weighted_graph",
    "write_weighted_graph",
    "read_permutation",
    "write_permutation",
]


def canonical_pair(i: int, j: int) -> tuple[int, int]:
    """Return the unordered pair ``{i, j}`` as ``(min, max)``."""
    return (i, j) if i < j else (j, i)


def pair_index(i: int, j: int, n: int) -> int:
    """Dense linear index of the pair ``i < j`` in ``[0, C(n,2))``.

    Pairs are ranked lexicographically: (0,1), (0,2), ..., (n-2,n-1).
    """
    if i > j:
        i, j = j, i
    if not (0 <= i < j < n):
        raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pairs_from_indices(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized inverse of :func:`pair_index` for arrays of linear indices."""
    idx = np.asarray(idx, dtype=np.int64)
    m = n * (n - 1) // 2
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ValueError("pair index out of range")
    t = m - idx
    u = np.ceil((1 + np.sqrt(1 + 8 * t.astype(np.float64))) / 2).astype(np.int64)
    # settle float rounding at triangular-number boundaries
    u -= (u - 1) * (u - 2) // 2 >= t
    u += u * (u - 1) // 2 < t
    i = n - u
    j = idx - (m - u * (u - 1) // 2) + i + 1
    return i, j


@dataclass(frozen=True)
class Permutation:
    """A bijection on ``{0, ..., n-1}`` in one-line notation.

    ``mapping[i]`` is the image of node ``i``; ``array`` is the same map as a
    read-only int64 array.  The composition convention is
    ``(pi o tau)(i) = pi(tau(i))``.
    """

    mapping: tuple[int, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.mapping)
        # an integer dtype rules out 0.5, '1' and None rather than truncate or parse them
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError("mapping entries must be integers")
        # numpy reads (True, 0) as ints; an array's dtype already says whether it holds bools
        if not isinstance(self.mapping, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in self.mapping):
            raise ValueError("mapping entries must be integers")
        arr = arr.astype(np.int64)
        if not np.array_equal(np.sort(arr), np.arange(len(arr))):
            raise ValueError("mapping is not a bijection on {0,...,n-1}")
        arr.flags.writeable = False
        object.__setattr__(self, "mapping", tuple(arr.tolist()))
        object.__setattr__(self, "array", arr)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __len__(self) -> int:
        return len(self.mapping)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Permutation":
        """Build a permutation from disjoint cycles of 0-based nodes.

        A node outside [0, n), a node repeated within or across cycles, and a
        bool or non-integer node raise a ``ValueError`` that names the node.
        """
        m = list(range(n))
        seen = set()
        for cyc in cycles:
            nodes = []
            for v in cyc:
                try:
                    v = strict_index(v)
                except TypeError:
                    raise ValueError(f"cycle node {v!r} is not an integer") from None
                if not 0 <= v < n:
                    raise ValueError(f"cycle node {v} lies outside [0, {n})")
                if v in seen:
                    raise ValueError(f"cycle node {v} appears more than once")
                seen.add(v)
                nodes.append(v)
            for a, b in zip(nodes, nodes[1:] + nodes[:1]):
                m[a] = b
        return Permutation(tuple(m))

    def invert(self) -> "Permutation":
        return Permutation(np.argsort(self.array))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return ``self o other``, i.e. ``i -> self(other(i))``."""
        if self.n != other.n:
            raise ValueError("size mismatch in composition")
        return Permutation(self.array[other.array])

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(v + 1 for v in self.mapping)


# -- the lexicographic order of S_n that every exact routine follows --

@functools.lru_cache(maxsize=None)
def permutation_table(n: int) -> np.ndarray:
    """All permutations of [n] in lexicographic order as a cached, read-only (n!, n) int8 array.  Supports n <= 10."""
    if n > 10:
        raise ExactLimitError(f"the table of S_n supports n <= 10, got n={n}")
    arr = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8,
        count=math.factorial(n) * n,
    ).reshape(math.factorial(n), n)
    arr.flags.writeable = False
    return arr


def edge_code_maps(n: int) -> np.ndarray:
    """(n!, 2^m) array: row t maps each edge code c to its image under permutation_table(n)[t].

    Bit e of an edge code marks the pair (i, j) with linear index e; with pi that
    permutation, bit e of the image is bit ``pair_index(pi(i), pi(j))`` of c.  Supports n <= 4.
    """
    if n > 4:
        raise ExactLimitError(f"exact enumeration over graph pairs supports n <= 4, got n={n}")
    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)
    pair_of = np.zeros(n * n, dtype=np.intp)
    pair_of[iu * n + ju] = pair_of[ju * n + iu] = np.arange(m)
    perms = permutation_table(n).astype(np.intp)
    src = pair_of[perms[:, iu] * n + perms[:, ju]]
    codes = np.arange(1 << m, dtype=np.int64)
    bits = (codes[None, None, :] >> src[:, :, None]) & 1
    return (bits << np.arange(m, dtype=np.int64)[None, :, None]).sum(axis=1)


def code_edge_counts(m: int) -> np.ndarray:
    """Number of edges (set bits) of every edge code in [0, 2^m), as int64."""
    return np.array([bin(c).count("1") for c in range(1 << m)], dtype=np.int64)


def _pair_indices(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`pair_index` of each pair ``lo[t] <= hi[t]``; rejects self-loops and vertices outside [n]."""
    if (lo == hi).any():
        raise ValueError("self-loops are not allowed")
    outside = (lo < 0) | (hi >= n)
    if outside.any():
        t = outside.argmax()
        raise ValueError(f"edge ({lo[t]},{hi[t]}) out of range for n={n}")
    return lo * (2 * n - lo - 1) // 2 + (hi - lo - 1)


def map_pair_indices(idx: np.ndarray, n: int, node_map: np.ndarray) -> np.ndarray:
    """Pair indices of ``{node_map[i], node_map[j]}`` for the pairs ``{i, j}`` indexed by ``idx``, in order."""
    i, j = pairs_from_indices(idx, n)
    u, v = node_map[i], node_map[j]
    return _pair_indices(n, np.minimum(u, v), np.maximum(u, v))


def symmetric_from_flat(n: int, flat: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) float64 matrix, zero diagonal, with ``flat`` above the diagonal in pair-index order."""
    w = np.zeros((n, n))
    w[~np.tri(n, dtype=bool)] = flat  # a boolean mask fills in row-major order, which is pair-index order
    return w + w.T


def strict_index(v) -> int:
    """``operator.index(v)``, with a bool refused too: 0.5, '1' and True raise ``TypeError``, not truncated or parsed."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is a bool, not an integer")
    return operator.index(v)


def check_vertex_count(n) -> int:
    """``n`` as an int; a bool or anything but an integer is refused with a ``ValueError`` that names ``n``."""
    try:
        return strict_index(n)
    except TypeError:
        raise ValueError(f"the number of vertices n must be an integer, got {n!r}") from None


# held by the first read of a deferred graph's index, so its draw runs once
_FIRST_READ = threading.Lock()


class BinaryGraph:
    """A simple undirected graph on ``n`` labeled vertices, no self-loops.

    ``BinaryGraph(n, pairs)`` takes vertex pairs in either orientation;
    :meth:`from_indices` takes pair indices.  Both validate their input.
    :meth:`from_trusted_indices` takes pair indices that are valid by
    construction, or a draw of them with its count, checks nothing, and
    draws and sorts them on first read of ``index``.
    """

    __slots__ = ("n", "_raw", "_count", "_index", "_edges")

    def __init__(self, n: int, edges=frozenset()):
        n = check_vertex_count(n)
        try:
            canon = frozenset(canonical_pair(strict_index(i), strict_index(j)) for i, j in edges)
        except TypeError:
            raise ValueError("edges must be pairs of integer vertices") from None
        ij = np.array(list(canon)).reshape(-1, 2)  # object dtype if a vertex overflows int64
        self._init(n, _pair_indices(n, ij[:, 0], ij[:, 1]), canon)

    @classmethod
    def from_indices(cls, n: int, idx) -> "BinaryGraph":
        """The graph whose edges have the distinct pair indices ``idx``, given in any order."""
        g = cls.__new__(cls)
        g._init(check_vertex_count(n), idx, None)
        return g

    @classmethod
    def from_trusted_indices(cls, n: int, idx, count: int | None = None) -> "BinaryGraph":
        """The graph whose edges have the pair indices ``idx``; nothing is checked.

        The caller guarantees what :meth:`from_indices` would check: ``n`` is
        an int >= 0 and ``idx`` is a one-dimensional int64 array of distinct
        pair indices in [0, C(n,2)) in any order, not written to later.
        ``idx`` may instead be a draw: a function of no arguments that returns
        such an array, with ``count`` its length; a relabel runs inside it.
        ``edge_count`` reads ``count``, or ``len(idx)``.  The draw and the
        sort run when ``index`` is first read, once, under a module-level
        lock, so a graph read only for its edge count never pays for them.
        The draw must not read any graph's ``index``.
        """
        g = cls.__new__(cls)
        g._store(n, idx, len(idx) if count is None else count, None, None)
        return g

    def _init(self, n: int, idx, edges: frozenset | None) -> None:
        if n < 0:
            raise ValueError(f"the number of vertices must be >= 0, got {n}")
        idx = np.asarray(idx)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError("pair indices must be a one-dimensional integer array")
        idx = np.sort(idx.astype(np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= n * (n - 1) // 2):
            raise ValueError(f"pair index out of range for n={n}")
        if (idx[1:] == idx[:-1]).any():
            raise ValueError("duplicate pair index")
        idx.flags.writeable = False
        self._store(n, None, len(idx), idx, edges)

    def _store(self, n: int, raw, count: int, index: np.ndarray | None, edges) -> None:
        for name, value in zip(self.__slots__, (n, raw, count, index, edges)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryGraph is immutable")

    def __reduce__(self):
        return BinaryGraph.from_indices, (self.n, self.index)

    @property
    def index(self) -> np.ndarray:
        """The sorted, distinct pair indices of the edges, a read-only int64 array."""
        idx = self._index
        if idx is None:
            with _FIRST_READ:
                idx = self._index
                if idx is None:  # no other thread built it while this one waited
                    idx = np.sort(self._raw() if callable(self._raw) else self._raw)
                    idx.flags.writeable = False
                    object.__setattr__(self, "_index", idx)
                    # release the draw and its generator; edge_count reads _count
                    object.__setattr__(self, "_raw", None)
        return idx

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.index, other.index)

    def __hash__(self) -> int:
        return hash((self.n, self.index.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryGraph({self.n}, {sorted(self.edges)})"

    @property
    def edges(self) -> frozenset:
        """The edges as canonical ``(i, j)`` pairs of Python ints, ``i < j``; built on first use."""
        if self._edges is None:
            i, j = pairs_from_indices(self.index, self.n)
            object.__setattr__(self, "_edges", frozenset(zip(i.tolist(), j.tolist())))
        return self._edges

    @property
    def edge_count(self) -> int:
        return self._count

    def has_edge(self, i: int, j: int) -> bool:
        i, j = canonical_pair(i, j)
        k = pair_index(i, j, self.n) if 0 <= i < j < self.n else -1
        t = np.searchsorted(self.index, k)
        return bool(t < len(self.index) and self.index[t] == k)

    @staticmethod
    def empty(n: int) -> "BinaryGraph":
        return BinaryGraph.from_indices(n, ())

    @staticmethod
    def complete(n: int) -> "BinaryGraph":
        return BinaryGraph.from_indices(n, np.arange(n * (n - 1) // 2))

    def to_dense(self) -> np.ndarray:
        flat = np.zeros(self.n * (self.n - 1) // 2)
        flat[self.index] = 1
        return symmetric_from_flat(self.n, flat)


@dataclass(frozen=True)
class WeightedGraph:
    """A weighted undirected graph: symmetric finite real matrix, zero diagonal.

    A dtype other than integer or float is refused before conversion, then
    a NaN or infinite entry before any other check.  A matrix
    that is symmetric with zero diagonal up to ``np.allclose`` is accepted
    and stored as its strict upper triangle mirrored, so every routine reads
    the same weight for a pair, whichever triangle it indexes.
    """

    weight: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weight)
        if w.dtype.kind not in "iuf":
            raise ValueError(f"weight matrix must hold real numbers, got dtype {w.dtype}")
        w = w.astype(np.float64, copy=False)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight must be a square matrix")
        if not np.isfinite(w).all():
            raise ValueError("weight matrix must be finite")
        # the exact tests settle the common case; np.allclose decides only what they reject
        if not (np.array_equal(w, w.T) or np.allclose(w, w.T)):
            raise ValueError("weight matrix must be symmetric")
        if np.diag(w).any() and not np.allclose(np.diag(w), 0.0):
            raise ValueError("weight matrix must have zero diagonal")
        w = np.triu(w, 1)
        w = w + w.T
        w.flags.writeable = False
        object.__setattr__(self, "weight", w)

    @property
    def n(self) -> int:
        return self.weight.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.weight


Graph = BinaryGraph | WeightedGraph


def relabel(g: Graph, pi: Permutation) -> Graph:
    """Return the relabeled graph with entries ``result[i][j] = g[pi(i)][pi(j)]``."""
    if pi.n != g.n:
        raise ValueError(f"permutation size {pi.n} != graph size {g.n}")
    if isinstance(g, BinaryGraph):  # g.index is read now: the draw runs under the first-read lock, not reentrant
        idx, n, inv = g.index, g.n, pi.invert().array
        return BinaryGraph.from_trusted_indices(n, lambda: map_pair_indices(idx, n, inv), count=len(idx))
    return WeightedGraph(g.weight[np.ix_(pi.array, pi.array)])


def intersect(a: Graph, b: Graph) -> Graph:
    """Entrywise product of two graphs; edge-set intersection for binary ones."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} != {b.n}")
    if isinstance(a, BinaryGraph) and isinstance(b, BinaryGraph):
        return BinaryGraph.from_indices(a.n, np.intersect1d(a.index, b.index, assume_unique=True))
    return WeightedGraph(a.to_dense() * b.to_dense())


# -- text file formats (1-based on disk) --------------------------------------


def write_binary_graph(g: BinaryGraph, path) -> None:
    i, j = pairs_from_indices(g.index, g.n)
    with open(path, "w") as f:
        f.write(f"{g.n}\n")
        np.savetxt(f, np.column_stack([i + 1, j + 1]), fmt="%d")


def _read_graph_lines(path) -> tuple[int, list[tuple[int, str]]]:
    """Vertex count and (line number, text) of the non-blank lines of a graph file, header first.

    An empty file, a count that is not an integer and a negative count are
    rejected with ``path:line``.
    """
    with open(path) as f:
        lines = [(no, ln.strip()) for no, ln in enumerate(f, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected the number of vertices")
    no, text = lines[0]
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"{path}:{no}: expected the number of vertices, got {text!r}") from None
    if n < 0:
        raise ValueError(f"{path}:{no}: the number of vertices must be >= 0, got {n}")
    return n, lines


def read_binary_graph(path) -> BinaryGraph:
    n, lines = _read_graph_lines(path)
    pairs = []
    for no, ln in lines[1:]:
        try:
            u, v = (int(t) - 1 for t in ln.split())
        except ValueError:
            raise ValueError(f"{path}:{no}: expected two vertex numbers, got {ln!r}") from None
        pairs.append((u, v))
    ij = np.sort(np.array(pairs).reshape(-1, 2), axis=1)
    order = np.lexsort((ij[:, 1], ij[:, 0]))  # stable: equal pairs keep their line order
    repeats = order[1:][np.all(ij[order[1:]] == ij[order[:-1]], axis=1)]
    if repeats.size:
        no, ln = lines[1 + repeats.min()]
        raise ValueError(f"{path}:{no}: duplicate edge {ln!r}")
    bad = np.flatnonzero((ij[:, 0] < 0) | (ij[:, 1] >= n) | (ij[:, 0] == ij[:, 1]))
    if bad.size:
        (u, v), (no, ln) = ij[bad[0]], lines[1 + bad[0]]
        fault = f"vertex outside 1..{n}" if u < 0 or v >= n else "self-loop"
        raise ValueError(f"{path}:{no}: {fault} in edge {ln!r}")
    return BinaryGraph.from_indices(n, _pair_indices(n, ij[:, 0], ij[:, 1]))


def write_weighted_graph(g: WeightedGraph, path) -> None:
    with open(path, "w") as f:
        f.write(f"{g.n}\n")
        for row in g.weight:
            f.write(",".join(repr(float(x)) for x in row) + "\n")


def read_weighted_graph(path) -> WeightedGraph:
    n, lines = _read_graph_lines(path)
    if len(lines) != n + 1:
        no = lines[min(n + 1, len(lines) - 1)][0]
        raise ValueError(f"{path}:{no}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for no, ln in lines[1:]:
        try:
            row = [float(t) for t in ln.split(",")]
        except ValueError:
            raise ValueError(f"{path}:{no}: expected {n} comma-separated weights, got {ln!r}") from None
        if len(row) != n:
            raise ValueError(f"{path}:{no}: expected {n} entries, found {len(row)}")
        rows.append(row)
    try:
        return WeightedGraph(np.asarray(rows, dtype=np.float64).reshape(n, n))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def write_permutation(pi: Permutation, path) -> None:
    with open(path, "w") as f:
        f.write(" ".join(str(v) for v in pi.to_one_based()) + "\n")


def read_permutation(path) -> Permutation:
    """Read a 1-based one-line permutation; a non-integer token or a non-bijection names the file."""
    images = []
    with open(path) as f:
        for no, line in enumerate(f, 1):
            for token in line.split():
                try:
                    images.append(int(token) - 1)
                except ValueError:
                    raise ValueError(f"{path}:{no}: expected a vertex number, got {token!r}") from None
    if not images:
        raise ValueError(f"{path}:1: empty file, expected a permutation")
    try:
        return Permutation(tuple(images))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
