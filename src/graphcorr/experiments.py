"""Monte-Carlo detection sweeps, exact small-n error calculus, and curves.

Sweeps estimate type-I/type-II error rates of the detection tests over a
parameter grid with fully deterministic seeding: the substream of every
trial is addressed by (master seed, cell index, trial index), so identical
configurations reproduce byte-identical CSV output, serial or parallel.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .detect import LOCAL_SEARCH_RESTARTS, TESTS, shared_table
from .errors import FieldError
from .graphs import code_edge_counts, edge_code_maps, strict_index
from .moments import exact_er_lr_table
from .sampling import (
    ErParams,
    GaussianParams,
    SeedSpec,
    sample_null_er,
    sample_null_gaussian,
    sample_planted_er,
    sample_planted_gaussian,
)

__all__ = [
    "SweepConfig",
    "ErrorEstimate",
    "CSV_HEADER",
    "run_sweep",
    "sweep_rows",
    "sweep_workers",
    "exact_tv_er",
    "exact_min_error_er",
    "threshold_curves",
    "find_p_star",
    "min_error_sum",
    "binomial_halfwidth",
]

CSV_HEADER = "model,n,rho,p,s,test,trials,type1,type2,err_sum,ci,seed"
P_STAR_TOL = 1e-10  # bracket width at which find_p_star stops bisecting


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for a detection-error sweep; each field is named as its config key."""

    model: str
    n: tuple[int, ...]
    tests: tuple[str, ...]
    trials: int
    seed: int = 0
    rho: tuple[float, ...] = ()
    p: tuple[float, ...] = ()
    s: tuple[float, ...] = ()
    threshold: str = "auto"
    restarts: int = LOCAL_SEARCH_RESTARTS
    ls_rounds: int = 10

    def __post_init__(self):
        if self.model not in ("gaussian", "er"):
            raise FieldError("model", "model must be 'gaussian' or 'er'")
        for name in ("trials", "seed", "restarts", "ls_rounds"):
            try:
                strict_index(getattr(self, name))
            except TypeError:
                raise FieldError(name, f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.trials < 1:
            raise FieldError("trials", "trials must be >= 1")
        bad = [t for t in self.tests if t not in TESTS]
        if bad:
            raise FieldError("tests", f"unknown tests: {bad}")
        if len(set(self.tests)) < len(self.tests):
            raise FieldError("tests", f"repeated tests: {sorted({t for t in self.tests if self.tests.count(t) > 1})}")
        for t in self.tests:
            try:
                TESTS[t].check(self.model, max(self.n, default=0))
            except ValueError as err:
                raise FieldError("tests", str(err)) from None
        if self.seed < 0:
            raise FieldError("seed", f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise FieldError("restarts", "restarts must be >= 1")
        if self.ls_rounds < 0:
            raise FieldError("ls_rounds", "ls_rounds must be >= 0")
        if self.threshold not in ("auto", "oracle"):
            raise FieldError("threshold", "threshold must be 'auto' or 'oracle'")
        for name in ("rho", "p", "s"):
            if getattr(self, name) and (name == "rho") != (self.model == "gaussian"):
                raise FieldError(name, f"{name} does not apply to model {self.model!r}")
        cells = self.cells()  # a grid value the model refuses raises under its own key
        if not cells:
            raise FieldError(None, "empty parameter grid")
        if self.threshold == "auto":
            for params in cells:
                for t in self.tests:
                    try:
                        TESTS[t].threshold(params)
                    except ValueError as err:
                        raise FieldError("tests", f"no auto threshold for {t} at {params}: {err}") from None

    def cells(self) -> list:
        if self.model == "gaussian":
            return [GaussianParams(n, r) for n, r in product(self.n, self.rho)]
        return [
            ErParams(n, p, s)
            for n, p, s in product(self.n, self.p, self.s)
        ]


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical error rates with binomial 95% half-widths."""

    type1: float
    type2: float
    ci1: float
    ci2: float
    trials: int

    @property
    def err_sum(self) -> float:
        return self.type1 + self.type2

    @property
    def ci(self) -> float:
        return math.hypot(self.ci1, self.ci2)


def binomial_halfwidth(rate: float, trials: int) -> float:
    return 1.96 * math.sqrt(max(rate * (1 - rate), 0.0) / trials)


def min_error_sum(null_stats, planted_stats) -> tuple[float, float]:
    """Minimal empirical type-I + type-II over thresholds of a 'large = planted' statistic.

    Returns (error sum, threshold attaining it): the smallest threshold
    among the minimizers, or (1.0, inf), "decide null always", when no
    threshold does better.  A NaN statistic raises ``ValueError``.  One
    sorted pass: at each distinct value tau, ``searchsorted`` counts the null
    statistics >= tau and the planted ones < tau.
    """
    ns = np.sort(np.asarray(null_stats, dtype=float))
    ps = np.sort(np.asarray(planted_stats, dtype=float))
    if np.isnan(ns).any() or np.isnan(ps).any():
        raise ValueError("a statistic is NaN")
    if not (ns.size and ps.size):
        return 1.0, math.inf
    taus = np.unique(np.concatenate([ns, ps]))
    errors = (ns.size - np.searchsorted(ns, taus)) / ns.size + np.searchsorted(ps, taus) / ps.size
    k = int(np.argmin(errors))  # the first minimum, as a scan that keeps only strict improvements
    if errors[k] < 1.0:
        return float(errors[k]), float(taus[k])
    return 1.0, math.inf


def _run_cell(args) -> list[tuple[str, ErrorEstimate]]:
    config, cell_index = args
    params = config.cells()[cell_index]
    gaussian = isinstance(params, GaussianParams)
    stats: dict[str, tuple[list, list]] = {t: ([], []) for t in config.tests}
    samplers = (sample_null_gaussian, sample_planted_gaussian) if gaussian else (sample_null_er, sample_planted_er)
    for trial in range(config.trials):
        seed = SeedSpec(config.seed, (cell_index, trial, 2))
        search = dict(restarts=config.restarts, seed=seed, rounds=config.ls_rounds)
        for side, sample in enumerate(samplers):  # the null pair, then the planted one
            a, b = sample(params, SeedSpec(config.seed, (cell_index, trial, side)))[:2]
            with shared_table():  # this pair's tests build one exact table, dropped with the pair
                for test in config.tests:
                    stats[test][side].append(TESTS[test].statistic(a, b, params, **search)[0])
    out = []
    for test in config.tests:
        null_stats, planted_stats = stats[test]
        if config.threshold == "oracle":
            _, tau = min_error_sum(null_stats, planted_stats)
        else:
            tau = TESTS[test].threshold(params)
        t1 = float(np.mean(np.asarray(null_stats) >= tau))
        t2 = float(np.mean(np.asarray(planted_stats) < tau))
        halfwidths = binomial_halfwidth(t1, config.trials), binomial_halfwidth(t2, config.trials)
        out.append((test, ErrorEstimate(t1, t2, *halfwidths, config.trials)))
    return out


def _format_cell_rows(config, cell_index, results) -> list[str]:
    params = config.cells()[cell_index]
    if isinstance(params, GaussianParams):
        rho, p, s = f"{params.rho:.6g}", "", ""
    else:
        rho, p, s = "", f"{params.p:.6g}", f"{params.s:.6g}"
    return [
        f"{config.model},{params.n},{rho},{p},{s},{test},{est.trials},"
        f"{est.type1:.6f},{est.type2:.6f},{est.err_sum:.6f},{est.ci:.6f},{config.seed}"
        for test, est in results
    ]


def sweep_workers(config: SweepConfig) -> int:
    """Worker processes of the sweep: ``GRAPHCORR_WORKERS`` (default 1), at most one per cell."""
    raw = os.environ.get("GRAPHCORR_WORKERS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"GRAPHCORR_WORKERS must be an integer >= 1, got {raw!r}")
    return min(int(raw), len(config.cells()))  # a pool starts all its workers up front, used or not


def sweep_rows(config: SweepConfig) -> list[str]:
    """All CSV rows (header excluded) of the sweep, in grid order."""
    cells = list(range(len(config.cells())))
    workers = sweep_workers(config)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, [(config, c) for c in cells]))
    else:
        results = [_run_cell((config, c)) for c in cells]
    return [row for c in cells for row in _format_cell_rows(config, c, results[c])]


def run_sweep(config: SweepConfig) -> str:
    """Run the sweep and return its CSV text."""
    return "\n".join([CSV_HEADER] + sweep_rows(config)) + "\n"


# -- exact small-n error calculus -------------------------------------------------


def exact_tv_er(params: ErParams) -> float:
    """Exact total variation between the planted and null laws of (A, B).

    Full enumeration over all graph pairs; feasible for n <= 4.
    """
    lr, q = exact_er_lr_table(params)
    qq = q[:, None] * q[None, :]
    return 0.5 * float(np.abs(qq * lr - qq).sum())


@functools.lru_cache(maxsize=1)
def _qap_stat_table(n: int) -> np.ndarray:
    """Max over pi of the edge count of cA & pi(cB) per code pair (read-only; depends on n only)."""
    m = n * (n - 1) // 2
    codes = np.arange(1 << m, dtype=np.int64)
    joint = codes[None, :, None] & edge_code_maps(n)[:, None, :]
    table = code_edge_counts(m)[joint].max(axis=0).astype(float)
    table.flags.writeable = False
    return table


def exact_min_error_er(params: ErParams, statistic: str) -> float:
    """Minimal type-I + type-II error of a threshold test, by full enumeration.

    ``statistic`` is one of 'lr', 'qap', 'edges'.  The minimum runs over all
    thresholds of the statistic, with larger values deciding planted.
    """
    if statistic not in ("lr", "qap", "edges"):
        raise ValueError(statistic)
    lr, q = exact_er_lr_table(params)
    qq = q[:, None] * q[None, :]
    pp = qq * lr
    if statistic == "lr":
        stat = lr
    elif statistic == "qap":
        stat = _qap_stat_table(params.n)
    else:
        pop = code_edge_counts(params.n * (params.n - 1) // 2)
        stat = -np.abs(pop[:, None] - pop[None, :]).astype(float)
    flat = np.stack([stat.ravel(), pp.ravel(), qq.ravel()])
    order = np.argsort(-flat[0], kind="stable")
    svals, pvals, qvals = flat[:, order]
    gain = np.cumsum(pvals - qvals)
    # thresholds sit at group boundaries of equal statistic values
    boundary = np.nonzero(np.diff(svals) != 0)[0]
    candidates = np.concatenate([gain[boundary], gain[-1:]])
    return float(1.0 - max(0.0, candidates.max()))


def find_p_star() -> float:
    """Density maximizing p(log(1/p) - 1 + p): the root of log(1/p) = 2(1-p)."""
    f = lambda p: math.log(1 / p) - 2 * (1 - p)
    lo, hi = 0.05, 0.5
    while hi - lo > P_STAR_TOL:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def threshold_curves(model: str, n_min: int, n_max: int, p: float | None = None) -> list[str]:
    """CSV rows of the asymptotic detectability boundaries for plotting.

    Gaussian rows carry the strong-detection and impossibility boundaries for
    rho^2 (and take no p); Erdos-Renyi rows for a fixed p the boundaries for
    s^2 plus the sparse-regime cap min(1/(np), 0.01).  Needs 2 <= n_min <= n_max.
    """
    if n_min < 2:
        raise ValueError(f"curves need n_min >= 2, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"curves need n_max >= n_min, got {n_max} < {n_min}")
    rows = []
    if model == "gaussian":
        if p is not None:
            raise ValueError("p does not apply to model 'gaussian'")
        rows.append("model,n,rho2_upper,rho2_lower")
        for n in range(n_min, n_max + 1):
            rows.append(
                f"gaussian,{n},{4 * math.log(n) / (n - 1):.10g},{4 * math.log(n) / n:.10g}"
            )
        return rows
    if model == "er":
        if p is None or not 0 < p < 1:
            raise ValueError("er curves need a density p in (0,1)")
        rows.append("model,n,p,s2_upper,s2_lower_dense,s2_lower_sparse")
        denom = p * (math.log(1 / p) - 1 + p)
        for n in range(n_min, n_max + 1):
            up = 2 * math.log(n) / ((n - 1) * denom)
            lo = 2 * math.log(n) / (n * denom)
            sparse = min(1 / (n * p), 0.01)
            rows.append(f"er,{n},{p:.6g},{up:.10g},{lo:.10g},{sparse:.10g}")
        return rows
    raise ValueError("model must be 'gaussian' or 'er'")
