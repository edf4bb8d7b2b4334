"""Second-moment calculus over edge orbits.

The squared likelihood ratio factorizes over the edge orbits of the relative
permutation between two latent alignments; each orbit of length k
contributes 1/(1 - rho^(2k)) in the Gaussian model and 1 + rho^(2k) in the
Erdos-Renyi model.  This module computes those factors with independent
oracles, exact second moments at small n, brute-force and closed-form bounds
for the generating function of orbit pseudoforests, and the Lambert-W /
Poisson utilities used by the conditional arguments.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import ExactLimitError
from .graphs import Permutation, code_edge_counts, edge_code_maps
from .orbits import (
    CycleType,
    EdgeOrbit,
    census_from_cycle_type,
    components,
    cycle_type,
    orbits_up_to,
)
from .sampling import ErParams, GaussianParams, random_permutation, rho_er, rng_from_seed
from .detect import kernel_er

__all__ = [
    "orbit_moment_gaussian",
    "orbit_moment_er",
    "orbit_moment_er_oracle",
    "orbit_moment_gaussian_mc",
    "incomplete_orbit_moment_er",
    "SecondMomentReport",
    "second_moment_exact",
    "second_moment_mc",
    "second_moment_bruteforce_er",
    "partitions_as_cycle_types",
    "gf_orbit_pseudoforests_bruteforce",
    "gf_orbit_forests_bruteforce",
    "enumerate_orbit_pseudoforests",
    "gf_bound_pseudoforest",
    "gf_bound_forest",
    "lambert_w",
    "planted_intersection_edge_bound",
    "poisson_cycle_moment",
    "cycle_count_product_average",
    "poisson_truncation_bound",
    "TvCheckResult",
    "cycle_type_tv_check",
]

GF_ORBIT_LIMIT = 24  # most short orbits enumerate_orbit_pseudoforests lists by default
GF_VERTEX_LIMIT = 12  # most short node cycles the GF counts take: 0.25 s for the identity on 12 nodes
GF_WORK_LIMIT = 2e10  # work units the GF counts may spend: at most 0.05 ns each measured on a 2-core Xeon
SECOND_MOMENT_EXACT_LIMIT = 8  # largest n whose cycle types second_moment_exact enumerates
TV_CUTOFF = 30  # per-coordinate count beyond which cycle_type_tv_check folds Poisson mass
TV_BOX_LIMIT = 10**6  # keys of the (TV_CUTOFF+1)^k box that cycle_type_tv_check may visit


# -- per-orbit second-moment factors -------------------------------------------


def orbit_moment_gaussian(k: int, rho: float) -> float:
    """Expected orbit factor 1 / (1 - rho^(2k)) for a k-edge orbit."""
    if not 0 <= rho < 1:
        raise ValueError("rho must lie in [0, 1)")
    if k < 1:
        raise ValueError("orbit length must be >= 1")
    return 1.0 / (1.0 - rho ** (2 * k))


def orbit_moment_er(k: int, p: float, s: float) -> float:
    """Expected orbit factor 1 + rho^(2k) with rho = s(1-p)/(1-ps)."""
    if k < 1:
        raise ValueError("orbit length must be >= 1")
    return 1.0 + rho_er(p, s) ** (2 * k)


def orbit_moment_er_oracle(k: int, p: float, s: float) -> float:
    """Exhaustive-sum oracle for the Erdos-Renyi orbit factor.

    Sums the orbit product over all 2^(2k) binary assignments on the orbit;
    must equal 1 + rho^(2k).
    """
    if k > 6:
        raise ExactLimitError(f"oracle enumerates 4^k configurations; k={k} > 6")
    q = p * s
    total = 0.0
    for a in product((0, 1), repeat=k):
        pa = math.prod(q if x else 1 - q for x in a)
        for b in product((0, 1), repeat=k):
            pb = math.prod(q if x else 1 - q for x in b)
            x = math.prod(
                kernel_er(a[l], b[l], p, s) * kernel_er(a[l], b[(l + 1) % k], p, s)
                for l in range(k)
            )
            total += pa * pb * x
    return total


def orbit_moment_gaussian_mc(
    k: int, rho: float, samples: int = 10**6, seed=0
) -> tuple[float, float]:
    """Monte-Carlo oracle for the Gaussian orbit factor: (estimate, std error)."""
    rng = rng_from_seed(seed)
    a = rng.standard_normal((samples, k))
    b = rng.standard_normal((samples, k))
    d = 1 - rho * rho
    logx = np.zeros(samples)
    for l in range(k):
        for bb in (b[:, l], b[:, (l + 1) % k]):
            logx += (-rho * rho * (a[:, l] ** 2 + bb**2) + 2 * rho * a[:, l] * bb) / (2 * d)
    x = np.exp(logx) / d**k
    est = float(x.mean())
    return est, float(x.std(ddof=1) / math.sqrt(samples))


def incomplete_orbit_moment_er(k: int, p: float, s: float) -> float:
    """Orbit factor conditioned on the orbit not sitting inside the intersection.

    Equals (1 + rho^(2k) - s^(2k)) / (1 - (ps)^(2k)) and stays below 1 for
    p, s <= 1/2.
    """
    if k < 1:
        raise ValueError("orbit length must be >= 1")
    if p * s >= 1:
        raise ValueError("need ps < 1")
    rho = rho_er(p, s)
    return (1 + rho ** (2 * k) - s ** (2 * k)) / (1 - (p * s) ** (2 * k))


# -- exact second moments --------------------------------------------------------


def partitions_as_cycle_types(n: int):
    """Yield (CycleType, weight) over all cycle types of S_n.

    The weight is the exact fraction of permutations with that type,
    1 / prod(l^(n_l) n_l!).
    """
    counts = [0] * n  # counts[m-1]: m-cycles placed so far, parts placed largest first

    def walk(remaining: int, max_part: int, weight: Fraction):
        if remaining == 0:
            yield CycleType(tuple(counts)), weight
            return
        for m in range(min(remaining, max_part), 0, -1):
            counts[m - 1] += 1  # one more m-cycle divides the weight by m * (its new count)
            yield from walk(remaining - m, m, weight / (m * counts[m - 1]))
            counts[m - 1] -= 1

    yield from walk(n, n, Fraction(1))


@dataclass(frozen=True)
class SecondMomentReport:
    """Second moment of the likelihood ratio under the null.

    ``value`` is exact when computed by cycle-type enumeration; Monte-Carlo
    reports carry a half-width instead.  ``contributions`` maps each cycle
    type to (probability weight, orbit-product factor).
    """

    model: str
    n: int
    value: float
    contributions: tuple = ()
    mc_halfwidth: float | None = None

    @property
    def is_exact(self) -> bool:
        return self.mc_halfwidth is None


def _orbit_factor_log(params, census_items) -> float:
    if isinstance(params, GaussianParams):
        f = lambda k: orbit_moment_gaussian(k, params.rho)
    elif isinstance(params, ErParams):
        f = lambda k: orbit_moment_er(k, params.p, params.s)
    else:
        raise TypeError(f"unsupported params type {type(params)!r}")
    return sum(nk * math.log(f(k)) for k, nk in census_items)


def _orbit_factor(params, census_items) -> float:
    """exp of :func:`_orbit_factor_log`, or inf where that passes the float range."""
    try:
        return math.exp(_orbit_factor_log(params, census_items))
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=SECOND_MOMENT_EXACT_LIMIT)
def _cycle_type_table(n: int) -> tuple:
    """Read-only (cycle type, weight, census) rows of S_n, for :func:`second_moment_exact`."""
    return tuple((ct, w, tuple(census_from_cycle_type(ct).items())) for ct, w in partitions_as_cycle_types(n))


def second_moment_exact(params) -> SecondMomentReport:
    """Exact null second moment of the likelihood ratio.

    Averages the orbit-factor product over the uniform relative permutation,
    grouped by cycle type.  Refuses n above ``SECOND_MOMENT_EXACT_LIMIT``.
    """
    n = params.n
    if n > SECOND_MOMENT_EXACT_LIMIT:
        raise ExactLimitError(
            f"exact second moment enumerates cycle types of S_n up to n={SECOND_MOMENT_EXACT_LIMIT}; "
            "use second_moment_mc for larger n"
        )
    model = "gaussian" if isinstance(params, GaussianParams) else "er"
    total = Fraction(0)  # exact accumulation; the rho = 0 value is exactly 1
    contribs = []
    for ct, weight, census in _cycle_type_table(n):
        factor = _orbit_factor(params, census)
        total += weight * Fraction(factor) if factor < math.inf else math.inf
        contribs.append((ct.counts, float(weight), factor))
    return SecondMomentReport(model, n, float(total), tuple(contribs))


def second_moment_mc(params, trials: int = 2000, seed=0) -> SecondMomentReport:
    """Monte-Carlo estimate of the null second moment over random permutations."""
    if trials < 2:
        raise ValueError("trials must be >= 2 for a confidence half-width")
    rng = rng_from_seed(seed)
    model = "gaussian" if isinstance(params, GaussianParams) else "er"
    vals = np.empty(trials)
    for t in range(trials):
        census = census_from_cycle_type(cycle_type(random_permutation(params.n, rng))).items()
        vals[t] = _orbit_factor(params, census)
    mean = float(vals.mean())
    hw = 1.96 * float(vals.std(ddof=1)) / math.sqrt(trials) if mean < math.inf else math.inf
    return SecondMomentReport(model, params.n, mean, (), hw)


def _er_kernel_code_matrix(m: int, p: float, s: float) -> np.ndarray:
    """K[cA, cB] = product over edges of L(bit(cA,e), bit(cB,e)) for 2^m codes."""
    base = np.array(
        [
            [kernel_er(0, 0, p, s), kernel_er(0, 1, p, s)],
            [kernel_er(1, 0, p, s), kernel_er(1, 1, p, s)],
        ]
    )
    k = np.ones((1, 1))
    for _ in range(m):
        k = np.kron(base, k)
    return k


def _code_weights(m: int, q: float) -> np.ndarray:
    pop = code_edge_counts(m)
    return q**pop * (1 - q) ** (m - pop)


@functools.lru_cache(maxsize=1)
def exact_er_lr_table(params: ErParams) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood-ratio and null-probability tables over all graph-pair codes.

    Returns read-only (lr, q) where lr[cA, cB] is the exact likelihood ratio
    and q[c] the null probability of the graph with edge code c.  Feasible for
    n <= 4.  The tables of the last ``params`` are cached, because the exact
    error calculus asks for them several times in a row.
    """
    gcodes = edge_code_maps(params.n)  # refuses n > 4 before anything is allocated
    m = params.n * (params.n - 1) // 2
    kmat = _er_kernel_code_matrix(m, params.p, params.s)
    lr = np.zeros_like(kmat)
    for row in gcodes:
        lr += kmat[:, row]
    lr /= len(gcodes)
    q = _code_weights(m, params.p * params.s)
    lr.flags.writeable = q.flags.writeable = False
    return lr, q


def second_moment_bruteforce_er(params: ErParams) -> float:
    """Null second moment by direct summation over all graph pairs.

    Cross-checks :func:`second_moment_exact`; the likelihood ratio comes from
    the exact permutation average, independently of the orbit calculus.
    Feasible for n <= 4, like :func:`exact_er_lr_table`.
    """
    lr, q = exact_er_lr_table(params)
    return float(q @ (lr**2) @ q)


# -- generating functions of orbit (pseudo)forests -------------------------------


def _short_orbits_checked(sigma: Permutation, k: int, limit: int) -> list[EdgeOrbit]:
    """orbits_up_to(sigma, k), refused before any orbit is built when the census counts more than ``limit``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    census = census_from_cycle_type(CycleType(cycle_type(sigma).counts[:k]))
    count = sum(c for length, c in census.items() if length <= k)
    if count > limit:
        raise ExactLimitError(f"{count} short orbits exceed the brute-force limit {limit}")
    return orbits_up_to(sigma, k)


def _contracted(short: tuple[int, ...], k: int) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """Cycle lengths (ascending) and (u, v, orbit length, count) edge groups of the node-cycle multigraph of a short type.

    An l-cycle carries (l-1)//2 loops of length l, and one of length l/2 for
    even l; an l- and an m-cycle share gcd(l, m) edges of length lcm(l, m) <= k.
    """
    weights = [l for l, c in enumerate(short, 1) for _ in range(c)]
    groups = [(u, u, length, c) for u, l in enumerate(weights) for length, c in ((l, (l - 1) // 2), (l // 2, 1 - l % 2))]
    groups += [(u, v, math.lcm(l, m), math.gcd(l, m)) for (u, l), (v, m) in combinations(enumerate(weights), 2)]
    return weights, [group for group in groups if group[2] <= k and group[3]]


@functools.lru_cache(maxsize=1)
def _orbit_forest_counts(short: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(pseudoforest, forest) orbit unions of a short cycle type as (edge count, number) pairs, edge count ascending.

    Subset DP over vertex sets S of :func:`_contracted` (Bjorklund, Husfeldt,
    Kaski and Koivisto, FOCS 2008), each polynomial in x (x^j: j*g edges, g the
    gcd of the orbit lengths) one int.  all(S) (``every``) = prod (1 + x^L)
    over orbits in S; conn(S) = all(S) - sum conn(T) all(S - T) over min S in
    T < S; F(S) = sum trunc(conn(T)) F(S - T) over min S in T, with trunc
    keeping w(T) edges (``pcut``, pseudoforests) or w(T) - 1 (``fcut``,
    forests), w the summed cycle length: the union's components inside a
    connected T are images of each other under sigma, so they share T's excess sign.
    Refuses past ``GF_WORK_LIMIT`` units of estimated work, before the subset DP.
    """
    weights, groups = _contracted(short, k)
    g = math.gcd(*(length for _, _, length, _ in groups)) or 1
    top, edges, full = sum(weights) // g, sum(c for *_, c in groups), 1 << (V := len(weights))
    def budgeted(bits: int) -> None:  # the fits sums, then 3^V products and 2^V * edges shift-adds of bits-bit ints
        if (work := fill + 3**V * bits**1.5 + 4 * full * edges * bits) > GF_WORK_LIMIT:
            raise ExactLimitError(f"{edges} short orbits on {V} node cycles need {work:.1e} work units, over {GF_WORK_LIMIT:.0e}")
    fill = 20000 * (top + 1) * sum(min(c, top * g // length) for *_, length, c in groups)  # 20000 units a step
    budgeted(top + 1)  # a lower bound, at one bit per coefficient
    fits = [1] + [0] * top  # orbit sets by degree: no coefficient below exceeds one of these
    for _, _, length, count in groups:  # fits *= (1 + x^step)^count
        step, old = length // g, fits[:]
        for j in range(1, min(count, top // step) + 1):
            c = math.comb(count, j)
            for d in range(j * step, top + 1):
                fits[d] += c * old[d - j * step]
    budgeted(bits := (width := max(fits).bit_length()) * (top + 1))
    mask, at_low = (1 << bits) - 1, [[] for _ in weights]
    for u, v, length, count in groups:  # u <= v: the orbit joins S at its least vertex u
        at_low[u].append((1 << v, length // g * width, count))
    w, conn, pcut, fcut = [0] * full, [0] * full, [0] * full, [0] * full
    every, pseudo, forest = [1] * full, [1] * full, [1] * full
    for S in range(1, full):  # T < S holds min S: conn(T), the cuts and F(S - T) are ready
        low = S & -S
        rest = t = S ^ low
        e = every[rest]
        for bit, shift, count in at_low[low.bit_length() - 1]:
            if S & bit:
                for _ in range(count):
                    e += e << shift & mask
        every[S], w[S] = e, w[rest] + weights[low.bit_length() - 1]
        acc = p = f = 0
        while t:
            t = (t - 1) & rest
            if conn[low | t]:
                acc += conn[low | t] * every[rest ^ t]
                p += pcut[low | t] * pseudo[rest ^ t]
                f += fcut[low | t] * forest[rest ^ t]
        conn[S] = c = e - (acc & mask)  # products pass degree top, but no coefficient below it overflows
        pcut[S], fcut[S] = c & (1 << width * (w[S] // g + 1)) - 1, c & (1 << width * ((w[S] - 1) // g + 1)) - 1
        pseudo[S], forest[S] = p + pcut[S], f + fcut[S]
    one = (1 << width) - 1
    return tuple(tuple((j * g, c) for j in range(top + 1) if (c := u >> j * width & one)) for u in (pseudo[-1], forest[-1]))


def _gf_sums(sigma: Permutation, k: int, s: float) -> tuple[float, float]:
    """(pseudoforest, forest) generating functions of sigma at k, summed from the counts of its short cycle type."""
    if k < 1:
        raise ValueError("k must be >= 1")
    short = cycle_type(sigma).counts[:k]
    if sum(short) > GF_VERTEX_LIMIT:
        raise ExactLimitError(f"{sum(short)} short node cycles exceed the counting limit {GF_VERTEX_LIMIT}")
    return tuple(math.fsum(c * s ** (2 * e) for e, c in counts) for counts in _orbit_forest_counts(short, k))


def gf_orbit_pseudoforests_bruteforce(sigma: Permutation, k: int, s: float) -> float:
    """Generating function sum of s^(2 e(H)) over orbit pseudoforests H.

    Sums exact counts of the orbit unions by edge count, made once per short
    cycle type and k; refuses over ``GF_VERTEX_LIMIT`` short node cycles first.
    """
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    return _gf_sums(sigma, k, s)[0]


def gf_orbit_forests_bruteforce(sigma: Permutation, k: int, s: float) -> float:
    """Forest-restricted variant of the orbit generating function, read off the same counts."""
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    return _gf_sums(sigma, k, s)[1]


def enumerate_orbit_pseudoforests(sigma: Permutation, k: int, limit: int = GF_ORBIT_LIMIT):
    """Yield every orbit pseudoforest (as a list of orbits) assembled from short orbits.

    Subsets come lazily, depth first in orbit order, each before its
    extensions; the empty union is not yielded.  A union with a component of
    more edges than vertices is dropped with every extension of its subset.
    """
    orbits = _short_orbits_checked(sigma, k, limit)

    def extend(start: int, chosen: tuple[EdgeOrbit, ...], union: tuple[tuple[int, int], ...]):
        for j in range(start, len(orbits)):
            edges = union + orbits[j].edges
            if all(e <= len(vs) for vs, e in components(sigma.n, edges)):
                yield list(subset := chosen + (orbits[j],))
                yield from extend(j + 1, subset, edges)

    yield from extend(0, (), ())


def gf_bound_pseudoforest(ct: CycleType, k: int, s: float) -> float:
    """Closed-form upper bound on the orbit-pseudoforest generating function.

    prod over m <= k of
    (1 + s^m n_m [m even] + 2 s^(2m) sum_{l<=m} l n_l + s^(4m) m n_{2m} [2m<=k])^(n_m).
    """
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    log_total = 0.0
    for m in ct.levels(k):
        nm = ct.count(m)
        base = 1.0 + 2 * s ** (2 * m) * sum(l * ct.count(l) for l in range(1, m + 1))
        if m % 2 == 0:
            base += s**m * nm
        if 2 * m <= k:
            base += s ** (4 * m) * m * ct.count(2 * m)
        log_total += nm * math.log(base)
    return math.exp(log_total)


def gf_bound_forest(ct: CycleType, k: int, s: float) -> float:
    """Closed-form upper bound on the orbit-forest generating function.

    prod over m <= k of (1 + s^m [m even] + s^(2m) sum_{l<=m} l n_l)^(n_m).
    """
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    log_total = 0.0
    for m in ct.levels(k):
        nm = ct.count(m)
        base = 1.0 + s ** (2 * m) * sum(l * ct.count(l) for l in range(1, m + 1))
        if m % 2 == 0:
            base += s**m
        log_total += nm * math.log(base)
    return math.exp(log_total)


# -- Lambert W and the intersection-density ceiling ------------------------------


_BRANCH_POINT = -math.exp(-1)
LAMBERT_W_TOL = 1e-13  # relative Halley step size at which lambert_w stops
LAMBERT_W_MAX_ITER = 80


def lambert_w(x: float) -> float:
    """Principal branch of the Lambert W function on [-1/e, inf).

    Solves w * exp(w) = x by Halley iteration from a series or asymptotic
    initial guess.
    """
    if x < _BRANCH_POINT - 1e-12:
        raise ValueError(f"lambert_w is defined for x >= -1/e, got {x}")
    if x <= _BRANCH_POINT:
        return -1.0
    if x == 0:
        return 0.0
    if x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
    elif x > -0.25:
        # series around 0
        w = x * (1 - x + 1.5 * x * x)
    else:
        # series around the branch point
        pz = math.sqrt(2 * (math.e * x + 1))
        w = -1 + pz - pz * pz / 3 + 11 * pz**3 / 72
    for _ in range(LAMBERT_W_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if w != -1:
            denom = ew * (w + 1) - (w + 2) * f / (2 * w + 2)
        else:
            denom = ew * (w + 1)
        step = f / denom
        w -= step
        if abs(step) <= LAMBERT_W_TOL * (1 + abs(w)):
            break
    return w


def planted_intersection_edge_bound(k: int, n: int, p: float, s: float) -> float:
    """High-probability ceiling on intersection edges within any k-node subset.

    Inverts the multiplicative Chernoff bound for Binom(C(k,2), ps^2) at the
    union-bound tail level via the Lambert W function.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    mu = math.comb(k, 2) * p * s * s
    arg = 2 * math.log(2 * math.e * n / k) / (math.e * (k - 1) * p * s * s) - 1 / math.e
    return mu * math.exp(1 + lambert_w(arg))


# -- Poisson facts about random cycle counts --------------------------------------


def poisson_cycle_moment(a) -> float:
    """Expected product of binomials of cycle counts: 1 / prod(l^(a_l) a_l!).

    ``a[l-1]`` prescribes the falling order of the count of l-cycles; the
    identity is exact whenever sum(l * a_l) <= n.
    """
    denom = 1
    for l, al in enumerate(a, start=1):
        if al < 0:
            raise ValueError("orders must be nonnegative")
        denom *= l**al * math.factorial(al)
    return 1.0 / denom


def cycle_count_product_average(n: int, a) -> Fraction:
    """Exact S_n average of prod(C(n_l, a_l)) by cycle-type enumeration."""
    total = Fraction(0)
    for ct, weight in partitions_as_cycle_types(n):
        prodval = 1
        for l, al in enumerate(a, start=1):
            prodval *= math.comb(ct.count(l), al)
            if prodval == 0:
                break
        total += weight * prodval
    return total


def poisson_truncation_bound(x: float) -> float:
    """Decay bound F(x) for the TV distance between cycle counts and Poissons."""
    m = math.ceil(x)
    return (
        math.sqrt(2 * math.pi * m) * 2 ** (m - 1) / math.factorial(m - 1)
        + 1 / math.factorial(m)
        + 3 * (x / math.e) ** (-x)
    )


@dataclass(frozen=True)
class TvCheckResult:
    tv_estimate: float
    poisson_bound: float
    trials: int


def cycle_type_tv_check(n: int, k: int, trials: int, seed=0) -> TvCheckResult:
    """Empirical TV distance between sampled (n_1..n_k) and independent Poissons.

    The product-Poisson reference has means 1/l; mass beyond ``TV_CUTOFF`` per
    coordinate is folded into the estimate.  The asymptotic decay bound
    F(n/k) is reported for context.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if (TV_CUTOFF + 1) ** k > TV_BOX_LIMIT:
        raise ExactLimitError(
            f"TV check visits (cutoff+1)^k = {(TV_CUTOFF + 1) ** k} keys; limit is {TV_BOX_LIMIT}"
        )
    rng = rng_from_seed(seed)
    counts = Counter()
    block = max(1, (1 << 16) // n)  # permutations stacked at once: bounds memory at 2^16 entries an array
    for lo in range(0, trials, block):
        perms = np.array([rng.permutation(n) for _ in range(min(block, trials - lo))])
        power, cvec = perms, []
        for l in range(1, k + 1):
            # sigma^l fixes the points on the d-cycles for each d | l: drop the d < l ones, counted already
            fixed = (power == np.arange(n)).sum(axis=1)
            cvec.append((fixed - sum(d * cvec[d - 1] for d in range(1, l) if l % d == 0)) // l)
            power = np.take_along_axis(perms, power, axis=1)
        counts.update(zip(*(c.tolist() for c in cvec)))
    lams = [1.0 / l for l in range(1, k + 1)]
    pmf_1d = [np.array([math.exp(-lam) * lam**z / math.factorial(z) for z in range(TV_CUTOFF + 1)]) for lam in lams]
    tv = 0.0
    pmf_mass = 0.0
    emp_seen = 0
    for key in product(range(TV_CUTOFF + 1), repeat=k):
        pmf = math.prod(pmf_1d[l][key[l]] for l in range(k))
        seen = counts.get(key, 0)
        tv += abs(seen / trials - pmf)
        pmf_mass += pmf
        emp_seen += seen
    # fold in any mass outside the box
    tv += (1 - pmf_mass) + (trials - emp_seen) / trials
    return TvCheckResult(0.5 * tv, poisson_truncation_bound(n / k), trials)
