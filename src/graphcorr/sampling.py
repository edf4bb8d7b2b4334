"""Samplers for the null and planted models, Gaussian and Erdos-Renyi.

Under the null model the two observations are independent with matched
marginals; under the planted model a uniform latent permutation pi aligns
them so that the pairs (A_ij, B_{pi(i)pi(j)}) are i.i.d. and correlated.

All samplers are pure functions of (params, seed).  Streams are produced by
a counter-based Philox generator keyed by (master_seed, stream_id), so the
same seed reproduces bit-identical samples and distinct stream ids give
independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import BinaryGraph, Permutation, WeightedGraph, check_vertex_count, strict_index, symmetric_from_flat

__all__ = [
    "GaussianParams",
    "ErParams",
    "SeedSpec",
    "rng_from_seed",
    "rho_er",
    "sample_null_gaussian",
    "sample_planted_gaussian",
    "sample_null_er",
    "sample_planted_er",
    "random_permutation",
]


def _check_params(params, *reals) -> None:
    """Refuse a bool among ``reals``, and a bool, non-integer or value below 1 as ``params.n``; store ``n`` as a plain int."""
    if any(isinstance(x, (bool, np.bool_)) for x in reals):
        raise ValueError(f"model parameters must be real numbers, not bools, got {params!r}")
    n = check_vertex_count(params.n)
    if n < 1:
        raise ValueError("n must be positive")
    object.__setattr__(params, "n", n)


@dataclass(frozen=True)
class GaussianParams:
    """Correlated Gaussian weight model: n nodes, correlation rho in [0, 1)."""

    n: int
    rho: float

    def __post_init__(self):
        if not 0 <= self.rho < 1:
            raise ValueError("rho must lie in [0, 1)")
        _check_params(self, self.rho)


@dataclass(frozen=True)
class ErParams:
    """Subsampled Erdos-Renyi model: parent density p, subsampling probability s.

    Both observed graphs are marginally G(n, p*s).
    """

    n: int
    p: float
    s: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")
        if not 0 < self.s <= 1:
            raise ValueError("s must lie in (0, 1]")
        _check_params(self, self.p, self.s)


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic stream address: a master seed plus a trial index.

    ``stream_id`` may be an int or a tuple of ints (nested substreams).
    """

    master_seed: int
    stream_id: int | tuple = 0


def rng_from_seed(seed: SeedSpec | int, *extra: int) -> np.random.Generator:
    """Philox generator for a seed spec; ``extra`` indices address substreams.

    A bool, float or string in the address raises a ``TypeError`` naming the seed.
    """
    if isinstance(seed, SeedSpec):
        sid = seed.stream_id if isinstance(seed.stream_id, tuple) else (seed.stream_id,)
        entropy, key = seed.master_seed, sid + extra
    else:
        entropy, key = seed, extra
    try:
        entropy = strict_index(entropy)
        for v in key:
            strict_index(v)
    except TypeError:
        raise TypeError(f"a seed must be built of integers, got {seed!r}") from None
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def rho_er(p: float, s: float) -> float:
    """Edge-weight correlation of the planted Erdos-Renyi model: s(1-p)/(1-ps)."""
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    if not 0 <= p < 1 or p * s >= 1:
        raise ValueError("need p in [0, 1) and ps < 1")
    return s * (1 - p) / (1 - p * s)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation(rng.permutation(n))


def sample_null_gaussian(params: GaussianParams, seed: SeedSpec | int):
    """Independent standard Gaussian weight matrices (A, B)."""
    rng = rng_from_seed(seed)
    n, m = params.n, params.n * (params.n - 1) // 2
    a = rng.standard_normal(m)
    b = rng.standard_normal(m)
    return WeightedGraph(symmetric_from_flat(n, a)), WeightedGraph(symmetric_from_flat(n, b))


def sample_planted_gaussian(params: GaussianParams, seed: SeedSpec | int):
    """Correlated pair (A, B) with latent alignment pi.

    Conditional on pi, the pairs (A_ij, B_{pi(i)pi(j)}) are bivariate normal
    with unit variances and correlation rho; B is built as
    rho * A + sqrt(1 - rho^2) * Z placed at the relabeled positions.
    """
    rng = rng_from_seed(seed)
    n, m, rho = params.n, params.n * (params.n - 1) // 2, params.rho
    pi = random_permutation(n, rng)
    a_flat = rng.standard_normal(m)
    z = rng.standard_normal(m)
    matched = rho * a_flat + math.sqrt(1 - rho * rho) * z
    # B_{pi(i)pi(j)} = matched(i, j), i.e. B = M[inv][:, inv] with inv = pi^-1
    inv = pi.invert().array
    b = symmetric_from_flat(n, matched)[np.ix_(inv, inv)]
    return WeightedGraph(symmetric_from_flat(n, a_flat)), WeightedGraph(b), pi


def _gnp_indices(m: int, q: float, rng: np.random.Generator, forbidden=None) -> np.ndarray:
    """Linear pair indices of a G(m, q) draw over [0, m) minus ``forbidden``."""
    return _gnp_deferred(m, q, rng, forbidden)[1]()


def _gnp_deferred(m: int, q: float, rng: np.random.Generator, forbidden=None):
    """A G(m, q) draw over [0, m) minus ``forbidden``, split into ``(count, draw)``.

    Each admissible index is kept independently with probability q: the
    Binomial count is drawn from ``rng`` now, and ``draw()`` draws a uniform
    subset of that size from ``Generator.choice`` when called, once.  Calling
    it right away gives the eager draw; a caller that defers it must draw
    nothing else from ``rng``.  Rank r among the admissible indices maps to
    r + #{forbidden f: f - (number of forbidden below f) <= r}.  The ranks are
    sorted after the draw, which moves no draw, so each lookup of
    ``searchsorted`` starts where the last one ended.
    """
    admissible = m if forbidden is None else m - len(forbidden)
    count = int(rng.binomial(admissible, q))

    def draw() -> np.ndarray:
        r = rng.choice(admissible, count, replace=False)
        if forbidden is None:
            return r
        f = np.sort(np.asarray(forbidden, dtype=np.int64))
        r.sort()
        return r + np.searchsorted(f - np.arange(len(f)), r, side="right")

    return count, draw


def sample_null_er(params: ErParams, seed: SeedSpec | int):
    """Two independent G(n, ps) graphs.

    B's edge set is drawn, from the end of the same stream, on the first
    read of ``B.index``, once; its Binomial count is drawn here, so
    ``B.edge_count`` reads no edge.
    """
    rng = rng_from_seed(seed)
    n, m, q = params.n, params.n * (params.n - 1) // 2, params.p * params.s
    a = BinaryGraph.from_trusted_indices(n, _gnp_indices(m, q, rng))
    count, draw = _gnp_deferred(m, q, rng)
    return a, BinaryGraph.from_trusted_indices(n, draw, count=count)


def sample_planted_er(params: ErParams, seed: SeedSpec | int):
    """Correlated pair (A, B) with latent alignment pi, conditional form.

    A is G(n, ps); aligned with A, the second graph keeps an A-edge with
    probability s and creates a non-A edge with probability ps(1-s)/(1-ps),
    realizing the planted joint law in a single pass.  The fresh edges'
    Binomial count is drawn here; their set, its decode against A and the
    join with the kept A-edges run on the first read of ``B.index``, once,
    so ``B.edge_count`` reads no edge.
    """
    rng = rng_from_seed(seed)
    n, p, s = params.n, params.p, params.s
    m = n * (n - 1) // 2
    pi = random_permutation(n, rng)
    a_idx = _gnp_indices(m, p * s, rng)
    kept = rng.random(len(a_idx)) < s
    fresh_count, fresh = _gnp_deferred(m, p * s * (1 - s) / (1 - p * s), rng, forbidden=a_idx)
    # choice(replace=False) draws distinct indices, fresh avoids a_idx and pi is a bijection
    b = BinaryGraph.from_trusted_indices(
        n, lambda: np.concatenate([a_idx[kept], fresh()]), pi.array, count=int(np.count_nonzero(kept)) + fresh_count
    )
    return BinaryGraph.from_trusted_indices(n, a_idx), b, pi
