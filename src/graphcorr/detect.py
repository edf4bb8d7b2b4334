"""Detection statistics and thresholds.

The core statistic is the maximum edge correlation over node correspondences
(a quadratic assignment problem), computed exactly by enumeration at small n
and by seeded 2-swap hill climbing otherwise.  The exact likelihood ratio at
small n and the linear-time edge-count comparison are also provided, together
with the analytic thresholds for each model; ``TESTS`` pairs each statistic
with its threshold, and every detection decision reads it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ExactLimitError
from .graphs import BinaryGraph, Permutation, map_pair_indices, permutation_table, strict_index
from .sampling import ErParams, GaussianParams, rng_from_seed

__all__ = [
    "kernel_gaussian",
    "kernel_er",
    "statistic_given_pi",
    "qap_exact",
    "qap_local_search",
    "log_likelihood_ratio_exact",
    "threshold_gaussian",
    "threshold_er",
    "edge_count_threshold",
    "all_statistic_values",
    "shared_table",
    "DetectionTest",
    "TESTS",
]

QAP_EXACT_DEFAULT_LIMIT = 10  # largest n whose n! table the exact statistics build
LOCAL_SEARCH_KICK = 3  # random transpositions per perturbation between climbs
CLIMB_TOL = 1e-12  # smallest 2-swap gain _climb takes, relative to 4n·max|A|·max|B| where that exceeds 1
CLIMB_BLOCK = 1 << 18  # entries per (rows, n, n) array of one batched climb; more starts climb in turn
PROFILE_DEPTH = 3  # neighborhood-profile iterations of the rank-matching start
SUFFIX = 5  # trailing positions whose orders all_statistic_values covers with one matmul per prefix


def kernel_gaussian(a: float, b: float, rho: float) -> float:
    """Likelihood ratio of a correlated Gaussian pair against independence."""
    if not 0 <= rho < 1:
        raise ValueError("rho must lie in [0, 1)")
    d = 1 - rho * rho
    return math.exp((-rho * rho * (a * a + b * b) + 2 * rho * a * b) / (2 * d)) / math.sqrt(d)


def kernel_er(a: int, b: int, p: float, s: float) -> float:
    """Likelihood ratio of an aligned Bernoulli edge pair against independence."""
    if not 0 < p < 1 or not 0 < s <= 1:
        raise ValueError("need p in (0,1) and s in (0,1]")
    if a and b:
        return 1 / p
    if a or b:
        return (1 - s) / (1 - p * s)
    return (1 - 2 * p * s + p * s * s) / (1 - p * s) ** 2


def statistic_given_pi(a, b, pi: Permutation) -> float:
    """Edge correlation at a fixed correspondence: sum over i<j of A_ij B_{pi(i)pi(j)}."""
    if a.n != b.n or pi.n != a.n:
        raise ValueError("size mismatch")
    if isinstance(a, BinaryGraph) and isinstance(b, BinaryGraph):
        images = map_pair_indices(a.index, a.n, pi.array)
        return float(len(np.intersect1d(images, b.index, assume_unique=True)))
    am, bm = a.to_dense(), b.to_dense()
    return float(np.triu(am * bm[np.ix_(pi.array, pi.array)], 1).sum())


@functools.lru_cache(maxsize=QAP_EXACT_DEFAULT_LIMIT + 1)  # all_statistic_values refuses larger sizes
def _plan(n: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays of all_statistic_values at size n: (pre, rest, pos, pp, ap, feat, weight).

    pos[s, c] is the position order s gives rest[:, c].  The other four are
    flat indices into the raveled (n, n) matrices: pp and feat into B, ap and
    weight into A.
    """
    r = min(SUFFIX, n)
    q = n - r
    count = math.perm(n, q)
    pre = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n), q)), dtype=np.intp, count=count * q
    ).reshape(count, q)
    free = np.ones((count, n), dtype=bool)
    np.put_along_axis(free, pre, False, axis=1)
    rest = np.nonzero(free)[1].reshape(count, r)
    (ip, jp), (ir, jr) = np.triu_indices(q, 1), np.triu_indices(r, 1)
    pos = np.argsort(permutation_table(r), axis=1)
    to_rest = (pre[:, :, None] * n + rest[:, None, :]).reshape(count, q * r)
    feat = np.concatenate([to_rest, rest[:, ir] * n + rest[:, jr]], axis=1)
    to_suffix = (np.arange(q)[:, None, None] * n + q + pos.T).reshape(q * r, len(pos))
    weight = np.concatenate([to_suffix, ((q + pos[:, ir]) * n + q + pos[:, jr]).T])
    # pp is column-major, so its matvec sums in the order of the broadcast gather the tests keep as an oracle
    plan = pre, rest, pos, np.asfortranarray(pre[:, ip] * n + pre[:, jp]), ip * n + jp, feat, weight
    for arr in plan:
        arr.flags.writeable = False
    return plan


def all_statistic_values(a, b) -> np.ndarray:
    """T_pi for every permutation, in lexicographic order of pi.

    Splits pi into a prefix of q = n − r positions and a suffix of the last
    r = min(SUFFIX, n).  For each prefix, in lexicographic order, the pairs
    inside it are one gather of B weighted by A.  Every pair that touches the
    suffix is linear in one row of B entries: B[pi(i), R_c] for the prefix
    positions i and the prefix's sorted remaining values R, then B[R_c, R_d]
    for c < d.  One constant weight matrix, built from A and
    ``permutation_table(r)``, maps that row to the values of all r! suffix
    orders, which follow the prefix in lexicographic order.  Every gather
    reads one flat index of :func:`_plan`.  Refuses n above
    ``QAP_EXACT_DEFAULT_LIMIT`` before it builds a plan or an output.
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    if a.n > QAP_EXACT_DEFAULT_LIMIT:
        raise ExactLimitError(
            f"all_statistic_values lists all {a.n}! permutations; n={a.n} exceeds limit {QAP_EXACT_DEFAULT_LIMIT}"
        )
    *_, pp, ap, feat, weight = _plan(a.n)
    af, bf = a.to_dense().ravel(), b.to_dense().ravel()
    out = bf[feat] @ af[weight]
    out += (bf[pp] @ af[ap])[:, None]
    return out.ravel()


_SHARED: ContextVar[list | None] = ContextVar("_SHARED", default=None)  # [a, b, table] of the last pair


@contextlib.contextmanager
def shared_table():
    """Exact statistics of a pair inside the block share one all_statistic_values table, dropped on exit."""
    token = _SHARED.set([])
    try:
        yield
    finally:
        _SHARED.reset(token)


def _pair_values(a, b) -> np.ndarray:
    slot = _SHARED.get()
    if slot is None:
        return all_statistic_values(a, b)
    if not slot or slot[0] is not a or slot[1] is not b:
        slot[:] = a, b, all_statistic_values(a, b)
    return slot[2]


def qap_exact(a, b) -> tuple[float, Permutation]:
    """Exact maximum of T_pi over all permutations with one maximizer.

    Enumerates in lexicographic order; ties return the lexicographically
    smallest maximizer.  Refuses instances above ``QAP_EXACT_DEFAULT_LIMIT``
    (use :func:`qap_local_search` there).
    """
    n = a.n
    if a.n != b.n:
        raise ValueError("size mismatch")
    if n > QAP_EXACT_DEFAULT_LIMIT:
        raise ExactLimitError(
            f"qap_exact enumerates all {n}! permutations; n={n} exceeds limit {QAP_EXACT_DEFAULT_LIMIT}. "
            "Use qap_local_search for larger instances."
        )
    vals = _pair_values(a, b)
    idx = int(np.argmax(vals))
    pre, rest, pos, *_ = _plan(n)
    k, s = divmod(idx, len(pos))
    return float(vals[idx]), Permutation(np.concatenate([pre[k], rest[k][permutation_table(rest.shape[1])[s]]]))


def _climb_state(am: np.ndarray, bm: np.ndarray, dtype) -> tuple[np.ndarray, ...]:
    """What every :func:`_climb` of one search reads: (triu(A, 1), A, A for the matmul, raveled B, thr).

    A, B and ``thr`` are in the climb ``dtype``; the start's matmul runs in float32 on integer
    climbs, exact as A @ bp holds integers at most n < 2^24.  ``thr`` is the least gain a step
    takes above the diagonal and the dtype's largest value (inf) on and below it.
    """
    n, integer = am.shape[0], np.issubdtype(dtype, np.integer)
    # rounding noise on large weights is no gain; 0 in an integer dtype, where a gain is at least 1
    scale = 4 * n * float(np.abs(am).max(initial=0) * np.abs(bm).max(initial=0))
    tol = np.dtype(dtype).type(CLIMB_TOL * max(1.0, scale))
    thr = np.where(np.tri(n, dtype=bool), np.iinfo(dtype).max if integer else np.inf, tol).astype(dtype)
    aw = am.astype(dtype)
    return np.triu(am, 1), aw, am.astype(np.float32) if integer else aw, bm.astype(dtype).ravel(), thr


def _climb(state: tuple[np.ndarray, ...], p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-improvement 2-swap hill climbing from every row of the (k, n) starts ``p`` at once.

    Each row climbs as it would alone: a step swaps the row's first pair i < j, in row-major
    order, whose gain exceeds ``CLIMB_TOL`` times 4n·max|A|·max|B| (at least 1).  With
    bp = B[p][:, p] and g = A @ bp, the gains of the (rows, n, n) block are t + tᵀ for
    t = A∘bp + g − diag(g) along rows.  A swap changes g by the rank-one term (A[:, i] − A[:, j])
    (bp[j] − bp[i])ᵀ followed by swapping columns i and j, so neither the gather nor the matmul
    is redone.  A row with no improving pair leaves the batch, its value read off its bp.  The
    climb runs in the dtype of ``state`` (:func:`_climb_state`): float64, or on 0/1 matrices an
    integer type that holds ±(2n + 2), where every gain is exact.  Returns the (k,) values T_p
    and the (k, n) climbed permutations.
    """
    k, n = p.shape
    block = max(1, CLIMB_BLOCK // max(1, n * n))
    if k > block:
        parts = [_climb(state, p[lo : lo + block]) for lo in range(0, k, block)]
        return np.concatenate([v for v, _ in parts]), np.concatenate([q for _, q in parts])
    au, aw, amm, bflat, thr = state
    vals, out, p = np.zeros(k), p.copy(), p.copy()
    live = np.arange(k if n > 1 else 0)  # below two vertices there is no pair to swap
    bp = bflat[(p * n)[:, :, None] + p[:, None, :]]
    g = (amm @ bp.astype(amm.dtype, copy=False)).astype(aw.dtype, copy=False)
    rows, split = np.arange(len(live)), np.array([n, 1])
    while live.size:
        t = aw * bp
        t += g
        t -= g.diagonal(axis1=1, axis2=2)[:, None, :]
        flat = (t + t.transpose(0, 2, 1) > thr).reshape(len(live), n * n)
        first = flat.argmax(axis=1)
        moving = flat[rows, first]
        if not moving.all():
            out[live[~moving]] = p[~moving]
            vals[live[~moving]] = (au * bp[~moving]).sum(axis=(1, 2))
            live, p, first, rows = live[moving], p[moving], first[moving], rows[: moving.sum()]
            g, bp = g[moving], bp[moving]
        r, ij = rows[:, None], first[:, None] // split % n  # row r swaps columns (i, j), i < j
        ji, ai, bi = ij[:, ::-1], aw[ij], bp[r, ij]
        # A is symmetric, so its rows i and j are the columns A[:, i] and A[:, j]
        g += (ai[:, 0] - ai[:, 1])[:, :, None] * (bi[:, 1] - bi[:, 0])[:, None, :]
        g[r, :, ij] = g[r, :, ji]
        bp[r, ij] = bi[:, ::-1]
        bp[r, :, ij] = bp[r, :, ji]
        p[r, ij] = p[r, ji]
    return vals, out


def _profile_start(am: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """Rank-match vertices of the two graphs by iterated neighborhood profiles."""
    fa, fb = am.sum(axis=1), bm.sum(axis=1)
    for _ in range(PROFILE_DEPTH):
        fa = am @ fa + 0.31 * fa
        fb = bm @ fb + 0.31 * fb
    ranks_a = np.argsort(np.argsort(-fa, kind="stable"), kind="stable")
    return np.argsort(-fb, kind="stable")[ranks_a]


def qap_local_search(a, b, restarts: int = 20, seed=0, rounds: int = 30) -> tuple[float, Permutation]:
    """Best value of T_pi found by iterated 2-swap local search.

    Takes ``restarts`` starts: the identity, a neighborhood-profile rank
    matching, then seeded random permutations.  Each start is refined by a
    first-improvement 2-swap climb, then ``rounds`` times by a kick of
    ``LOCAL_SEARCH_KICK`` random transpositions and a climb, kept when no
    worse.  No kick depends on a climb, so all kicks are drawn in one call and
    all starts climb as one batch per round; under a seed the result equals
    that of searching the starts one after another, the first best start
    winning.  The result is at least the identity statistic and never
    exceeds the exact maximum.  Raises TypeError for a bool or non-integer
    ``restarts`` or ``rounds``, ValueError for ``restarts < 1`` or ``rounds < 0``.
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    for name, v in (("restarts", restarts), ("rounds", rounds)):
        try:
            strict_index(v)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {v!r}") from None
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    n = a.n
    if n < 2:
        rounds = 0  # no pair to swap, so no kick
    am, bm = a.to_dense(), b.to_dense()
    binary = isinstance(a, BinaryGraph) and isinstance(b, BinaryGraph)  # a gain and its partial sums are integers in ±2n
    state = _climb_state(am, bm, np.min_scalar_type(-(2 * n + 2)) if binary else np.float64)
    rng = rng_from_seed(seed)
    starts = [np.arange(n), _profile_start(am, bm)][:restarts]
    starts += [rng.permutation(n) for _ in range(restarts - len(starts))]
    kicks = rng.integers(0, n, (restarts, rounds, LOCAL_SEARCH_KICK, 2))
    cur_val, cur_p = _climb(state, np.array(starts, dtype=np.intp))
    r = np.arange(restarts)
    for t in range(rounds):
        p = cur_p.copy()
        for i, j in kicks[:, t].transpose(1, 2, 0):
            p[r, i], p[r, j] = p[r, j], p[r, i]
        val, p = _climb(state, p)
        keep = val >= cur_val
        cur_val[keep], cur_p[keep] = val[keep], p[keep]
    best = int(np.argmax(cur_val))
    return float(cur_val[best]), Permutation(cur_p[best])


def _log_kernel_er(p: float, s: float) -> tuple[float, float, float]:
    """Affine decomposition of the per-pair log kernel over (a, b, ab).

    Returns (l00, l10 - l00, l11 - 2*l10 + l00) so that
    log L(a,b) = l00 + (a + b)(l10 - l00) + ab * (l11 - 2 l10 + l00).
    """
    l11 = math.log(kernel_er(1, 1, p, s))
    l10 = math.log(kernel_er(1, 0, p, s))
    l00 = math.log(kernel_er(0, 0, p, s))
    return l00, l10 - l00, l11 - 2 * l10 + l00


def log_likelihood_ratio_exact(a, b, params) -> float:
    """Log of the exact likelihood ratio (1/n!) sum over pi of prod L."""
    n = a.n
    if a.n != b.n:
        raise ValueError("size mismatch")
    if n > QAP_EXACT_DEFAULT_LIMIT:
        raise ExactLimitError(
            f"exact likelihood ratio averages over {n}! permutations; limit is {QAP_EXACT_DEFAULT_LIMIT}"
        )
    m = n * (n - 1) // 2
    if isinstance(params, GaussianParams):
        rho = params.rho
        if rho == 0:
            return 0.0
        sa = float(np.triu(a.to_dense() ** 2, 1).sum())
        sb = float(np.triu(b.to_dense() ** 2, 1).sum())
        c = -m * 0.5 * math.log(1 - rho * rho) - rho * rho * (sa + sb) / (2 * (1 - rho * rho))
        beta = rho / (1 - rho * rho)
    elif isinstance(params, ErParams):
        p, s = params.p, params.s
        ea, eb = a.edge_count, b.edge_count
        if s == 1:
            # kernel vanishes on mismatched pairs: only exact matches contribute
            t = _pair_values(a, b)
            hits = int(np.count_nonzero((t == ea) & (ea == eb)))
            if hits == 0:
                return -math.inf
            return math.log(hits) - math.lgamma(n + 1) + ea * math.log(1 / p) + (m - ea) * math.log(1 / (1 - p))
        l00, la, lab = _log_kernel_er(p, s)
        c = m * l00 + (ea + eb) * la
        beta = lab
    else:
        raise TypeError(f"unsupported params type {type(params)!r}")
    logs = _pair_values(a, b) * beta  # the one n!-sized temporary; the shared table is read-only
    logs += c
    peak = float(np.max(logs))
    logs -= peak
    return peak + math.log(float(np.exp(logs, out=logs).sum())) - math.lgamma(n + 1)


def threshold_gaussian(n: int, rho: float, a_n: float | None = None) -> float:
    """Test threshold rho * C(n,2) - a_n; the default slack is a_n = n^1.1."""
    if a_n is None:
        a_n = n ** 1.1
    return rho * (n * (n - 1) // 2) - a_n


def threshold_er(n: int, p: float, s: float) -> float:
    """Test threshold m ps^2 (1 - delta) with delta = (m ps^2)^(-0.4).

    Requires the mean intersection size m ps^2 to exceed 1.
    """
    mu = (n * (n - 1) // 2) * p * s * s
    if mu <= 1:
        raise ValueError(f"threshold requires m*p*s^2 > 1, got {mu:.4g}")
    return mu * (1 - mu ** (-0.4))


def edge_count_threshold(n: int, p: float, s: float) -> float:
    """Crossing point of the null/planted Gaussian approximations of |e(A)-e(B)|.

    The edge-count difference is approximately centered normal with variance
    2 m ps(1-ps) under the null and 2 m ps(1-s) under the planted model; the
    threshold is where the two densities cross.  When the variances
    (near-)coincide the test is powerless and the null median is returned.
    """
    m = n * (n - 1) // 2
    v0 = 2 * m * p * s * (1 - p * s)
    v1 = 2 * m * p * s * (1 - s)
    if abs(v0 - v1) < 1e-12 or v1 <= 1e-12:
        return 0.6744897501960817 * math.sqrt(v0)
    return math.sqrt(math.log(v0 / v1) * v0 * v1 / (v0 - v1))


@dataclass(frozen=True)
class DetectionTest:
    """One detection statistic with its auto threshold, models and size limit.

    ``statistic(a, b, params, **search)`` returns (value, argmax or None), larger
    values pointing to the planted model; the search keywords (``restarts``,
    ``seed``, ``rounds``) reach only the local search.  ``threshold(params)`` is
    the analytic threshold and raises ValueError where it is undefined.  Run
    inside :func:`shared_table`, the tests of one pair build one exact table.
    """

    name: str
    statistic: Callable
    threshold: Callable
    models: tuple[str, ...] = ("gaussian", "er")
    limit: int | None = None

    def check(self, model: str, n: int) -> None:
        """Raise ValueError unless the test applies to ``model`` at size ``n``."""
        if model not in self.models:
            raise ValueError(f"the {self.name} test does not apply to the {model} model")
        if self.limit is not None and n > self.limit:
            raise ValueError(f"the {self.name} test is limited to n <= {self.limit}, got n={n}")


def _qap_threshold(params) -> float:
    if isinstance(params, GaussianParams):
        return threshold_gaussian(params.n, params.rho)
    return threshold_er(params.n, params.p, params.s)


# The lambdas resolve the module-level functions at call time, so a wrapper
# installed on ``graphcorr.detect`` (a tracer, a mock) sees every call.
TESTS = {
    t.name: t
    for t in (
        DetectionTest(
            "qap-exact",
            lambda a, b, params, **search: qap_exact(a, b),
            _qap_threshold,
            limit=QAP_EXACT_DEFAULT_LIMIT,
        ),
        DetectionTest(
            "qap-ls",
            lambda a, b, params, **search: qap_local_search(a, b, **search),
            _qap_threshold,
        ),
        DetectionTest(
            "lr",
            lambda a, b, params, **search: (log_likelihood_ratio_exact(a, b, params), None),
            lambda params: 0.0,
            limit=QAP_EXACT_DEFAULT_LIMIT,
        ),
        # linear-time weak detection: edge counts far apart point to the null
        DetectionTest(
            "edges",
            lambda a, b, params, **search: (-float(abs(a.edge_count - b.edge_count)), None),
            lambda params: -edge_count_threshold(params.n, params.p, params.s),
            models=("er",),
        ),
    )
}
