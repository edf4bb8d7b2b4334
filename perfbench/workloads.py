"""The benchmark's four workloads and the output checks behind each.

Sweeps go through ``graphcorr.cli.main(["sweep", ...])`` with the package
samplers, because those samplers are under test.  The sweep-ls quality pass,
the sweep-exact oracle pass and the theory mix draw their inputs with the
benchmark's own numpy code, so a change to the package sampler streams
moves neither their inputs nor their quality figures.

Every workload is deterministic given the workload seed.  A round is a fixed
mix of operations; ``plan`` prepares its inputs (untimed), ``run`` does the
work (timed) and ``check`` verifies the outputs against oracles (untimed).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from graphcorr import cli, detect, enumeration, experiments, moments, orbits
from graphcorr.graphs import BinaryGraph, Permutation, WeightedGraph
from graphcorr.orbits import CycleType
from graphcorr.sampling import ErParams, GaussianParams, SeedSpec, sample_null_er, sample_planted_er

TOL = 1e-9


class Checks:
    """Tally of output checks: attempted, failed and the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= TOL * max(1.0, abs(x), abs(y))


# -- benchmark-owned inputs and oracles ---------------------------------------------


def own_cycles(p) -> list[list[int]]:
    """Cycles of the permutation ``i -> p[i]``."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc, v = [], start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = p[v]
        out.append(cyc)
    return out


def own_cycle_type(p, keep_up_to: int | None = None) -> CycleType:
    counts = [0] * len(p)
    for cyc in own_cycles(p):
        if keep_up_to is None or len(cyc) <= keep_up_to:
            counts[len(cyc) - 1] += 1
    return CycleType(tuple(counts))


def own_short_orbits(p, k: int) -> list[list[tuple[int, int]]]:
    """Edge orbits of length <= k whose endpoints lie on node cycles of length <= k."""
    cyc_len = [0] * len(p)
    for cyc in own_cycles(p):
        for v in cyc:
            cyc_len[v] = len(cyc)
    seen: set = set()
    out = []
    for pair in itertools.combinations(range(len(p)), 2):
        if pair in seen:
            continue
        orb, (u, v) = [pair], pair
        while True:
            u, v = sorted((p[u], p[v]))
            if (u, v) == pair:
                break
            orb.append((u, v))
        seen.update(orb)
        if len(orb) <= k and cyc_len[pair[0]] <= k and cyc_len[pair[1]] <= k:
            out.append(orb)
    return out


def own_pseudoforest(orbs, n: int, rng, cap: int) -> list:
    """Greedy random union of at most ``cap`` orbits keeping edges <= vertices per component."""
    chosen: list = []
    for idx in rng.permutation(len(orbs)):
        edges = [e for o in chosen for e in o] + list(orbs[idx])
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        ecount, vcount = [0] * n, [0] * n
        for v in range(n):
            vcount[find(v)] += 1
        for u, _ in edges:
            ecount[find(u)] += 1
        if all(ecount[r] <= vcount[r] for r in range(n)):
            chosen.append(orbs[idx])
            if len(chosen) == cap:
                break
    return chosen


def own_value(am: np.ndarray, bm: np.ndarray, q) -> float:
    """sum over i<j of A_ij B_{q(i) q(j)} from dense matrices."""
    q = np.asarray(q)
    return float(np.triu(am * bm[np.ix_(q, q)], 1).sum())


def own_planted_er(rng, n: int, p: float, s: float):
    """Planted ER pair by the parent-graph construction, with its latent alignment."""
    iu, ju = np.triu_indices(n, 1)
    parent = rng.random(len(iu)) < p
    in_a = parent & (rng.random(len(iu)) < s)
    in_b = parent & (rng.random(len(iu)) < s)
    pi = rng.permutation(n)
    bu, bv = pi[iu[in_b]], pi[ju[in_b]]
    a = BinaryGraph(n, frozenset(zip(iu[in_a].tolist(), ju[in_a].tolist())))
    b = BinaryGraph(n, frozenset(zip(np.minimum(bu, bv).tolist(), np.maximum(bu, bv).tolist())))
    return a, b, Permutation(tuple(pi.tolist()))


def own_planted_gaussian(rng, n: int, rho: float):
    iu, ju = np.triu_indices(n, 1)
    x = rng.standard_normal(len(iu))
    z = rng.standard_normal(len(iu))
    pi = rng.permutation(n)
    am, bm = np.zeros((n, n)), np.zeros((n, n))
    am[iu, ju] = x
    bm[pi[iu], pi[ju]] = rho * x + math.sqrt(1 - rho * rho) * z
    return WeightedGraph(am + am.T), WeightedGraph(bm + bm.T), Permutation(tuple(pi.tolist()))


def own_log_lr(a, b, params) -> float:
    """log of (1/n!) sum over all permutations of the product of per-pair kernels."""
    n = a.n
    am, bm = a.to_dense(), b.to_dense()
    iu, ju = np.triu_indices(n, 1)
    perms = np.array(list(itertools.permutations(range(n))))
    a_flat, b_perm = am[iu, ju], bm[perms[:, iu], perms[:, ju]]
    if isinstance(params, ErParams):
        logk = np.log([[detect.kernel_er(x, y, params.p, params.s) for y in (0, 1)] for x in (0, 1)])
        logs = logk[a_flat.astype(int)[None, :], b_perm.astype(int)].sum(axis=1)
    else:
        logs = np.array(
            [sum(math.log(detect.kernel_gaussian(x, y, params.rho)) for x, y in zip(a_flat, row)) for row in b_perm]
        )
    peak = logs.max()
    return float(peak + math.log(np.exp(logs - peak).sum()) - math.lgamma(n + 1))


# -- sweeps through the command line ------------------------------------------------


@dataclass
class Round:
    ops: int
    inputs: list


class SweepWorkload:
    """Rounds of ``graphcorr sweep`` invocations, one per config template."""

    post_is_work = False  # whether the extra pass of ``post`` is measured work or only checks

    def __init__(self, name: str, configs: list[dict], workdir: str):
        self.name = name
        self.configs = configs
        self.workdir = workdir

    def _write(self, tag: str, cfg: dict, seed: int) -> str:
        path = os.path.join(self.workdir, f"{self.name}-{tag}.cfg")
        with open(path, "w") as f:
            f.writelines(f"{k}={v}\n" for k, v in cfg.items())
            f.write(f"seed={seed}\n")
        return path

    @staticmethod
    def _cells(cfg: dict) -> list[tuple]:
        ns = [int(x) for x in str(cfg["n"]).split(",")]
        if cfg["model"] == "gaussian":
            return [(n, float(r), None, None) for n, r in product(ns, str(cfg["rho"]).split(","))]
        ps, ss = str(cfg["p"]).split(","), str(cfg["s"]).split(",")
        return [(n, None, float(p), float(s)) for n, p, s in product(ns, ps, ss)]

    def warmup(self) -> None:
        """Config parsing plus one single-cell, single-trial sweep per config."""
        for i, cfg in enumerate(self.configs):
            small = dict(cfg, trials=1)
            for key in ("n", "rho", "p", "s"):
                if key in small:
                    small[key] = str(small[key]).split(",")[0]
            self._sweep(self._write(f"warmup{i}", small, 0))

    def plan(self, seed: int, index: int) -> Round:
        master = seed * 100_000 + index
        inputs = [(self._write(f"c{i}-{master}", cfg, master), cfg, master) for i, cfg in enumerate(self.configs)]
        return Round(sum(len(self._cells(cfg)) * int(cfg["trials"]) for cfg in self.configs), inputs)

    @staticmethod
    def _sweep(path: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["sweep", "--config", path])
        return code, buf.getvalue()

    def run(self, rnd: Round) -> list[tuple[int, str]]:
        return [self._sweep(path) for path, _, _ in rnd.inputs]

    def check(self, rnd: Round, output, checks: Checks) -> None:
        for (code, text), (_, cfg, master) in zip(output, rnd.inputs):
            check_csv(self.name, code, text, cfg, master, checks)

    def post(self, seed: int, checks: Checks):
        """Prepare the workload's extra pass (untimed) and return it as a callable, or None."""
        return None


def check_csv(name: str, code: int, text: str, cfg: dict, master: int, checks: Checks) -> None:
    """Header, one row per cell x test in grid order, rates in [0,1], err_sum = type1 + type2."""
    lines = text.split("\n")
    tests = cfg["tests"].split(",")
    expected = [(cell, t) for cell in SweepWorkload._cells(cfg) for t in tests]
    rows = lines[1:-1]
    checks.expect(
        code == 0 and lines[0] == experiments.CSV_HEADER and lines[-1] == "" and len(rows) == len(expected),
        f"{name}: sweep exit {code}, header or row count wrong ({len(rows)} rows, {len(expected)} expected)",
    )
    for row, ((n, rho, p, s), test) in zip(rows, expected):
        f = row.split(",")
        try:
            t1, t2, err, ci = (float(x) for x in f[7:11])
            params_ok = all(
                (want is None and got == "") or (want is not None and got != "" and _close(float(got), want))
                for got, want in zip(f[2:5], (rho, p, s))
            )
            ok = (
                len(f) == 12
                and f[0] == cfg["model"]
                and int(f[1]) == n
                and params_ok
                and f[5] == test
                and int(f[6]) == int(cfg["trials"])
                and int(f[11]) == master
                and 0 <= t1 <= 1
                and 0 <= t2 <= 1
                and abs(err - (t1 + t2)) <= 2e-6
                and ci >= 0
            )
        except (ValueError, IndexError):
            ok = False
        checks.expect(ok, f"{name}: bad CSV row {row!r}")


class SweepExact(SweepWorkload):
    """Criterion 10 at reduced trials plus exact ER cells with the likelihood ratio."""

    def __init__(self, workdir):
        super().__init__(
            "sweep-exact",
            [
                dict(model="gaussian", n=9, rho="0.3,0.9", tests="qap-exact", threshold="oracle", trials=1),
                dict(model="er", n=7, p=0.3, s="0.6,0.9", tests="lr,qap-exact", trials=5),
            ],
            workdir,
        )

    def post(self, seed, checks):
        rng = _rng(seed, 1)
        draws = [
            (own_planted_gaussian(rng, 9, 0.9), GaussianParams(9, 0.9), False),
            (own_planted_gaussian(rng, 6, 0.5), GaussianParams(6, 0.5), True),
            (own_planted_er(rng, 7, 0.3, 0.6), ErParams(7, 0.3, 0.6), True),
            (own_planted_er(rng, 7, 0.3, 0.9), ErParams(7, 0.3, 0.9), True),
        ]

        def run():
            for (a, b, pi), params, with_lr in draws:
                am, bm = a.to_dense(), b.to_dense()
                value, argmax = detect.qap_exact(a, b)
                checks.expect(_close(own_value(am, bm, argmax.mapping), value), "qap_exact: argmax does not reproduce value")
                checks.expect(value >= own_value(am, bm, pi.mapping) - TOL, "qap_exact: below the planted alignment")
                if with_lr:
                    got = detect.log_likelihood_ratio_exact(a, b, params)
                    checks.expect(_close(got, own_log_lr(a, b, params)), f"log_likelihood_ratio_exact mismatch at {params}")

        return run


class SweepLs(SweepWorkload):
    """2-swap local search sweeps, followed by a quality pass on own planted draws."""

    QUALITY_DRAWS = 2  # per (n, s) cell
    post_is_work = True

    def __init__(self, workdir):
        super().__init__(
            "sweep-ls",
            [dict(model="er", n="30,50", p=0.3, s="0.6,0.9", tests="qap-ls,edges", restarts=20, ls_rounds=10, trials=1)],
            workdir,
        )
        self.quality: list[tuple[int, float, bool]] = []  # (n, found / planted, reached)

    def post(self, seed, checks):
        rng = _rng(seed, 2)
        draws = [
            (own_planted_er(rng, n, 0.3, s), int(rng.integers(2**31)))
            for n, s in product((30, 50), (0.6, 0.9))
            for _ in range(self.QUALITY_DRAWS)
        ]
        self.quality = []

        def run():
            for (a, b, pi), ls_seed in draws:
                am, bm = a.to_dense(), b.to_dense()
                value, perm = detect.qap_local_search(a, b, restarts=20, seed=ls_seed, rounds=10)
                planted = detect.statistic_given_pi(a, b, pi)
                checks.expect(_close(own_value(am, bm, perm.mapping), value), "qap_local_search: value not reproduced")
                checks.expect(value >= own_value(am, bm, range(a.n)) - TOL, "qap_local_search: below identity")
                checks.expect(_close(planted, own_value(am, bm, pi.mapping)), "statistic_given_pi mismatch")
                self.quality.append((a.n, value / planted, value >= planted))

        return run


class SweepSparse(SweepWorkload):
    """Criterion 09 at reduced trials: sampling and graph construction at n=2000."""

    def __init__(self, workdir):
        super().__init__("sweep-sparse", [dict(model="er", n=2000, p=0.01, s=0.8, tests="edges", trials=10)], workdir)

    def post(self, seed, checks):
        params = ErParams(2000, 0.01, 0.8)

        def run():
            for t in range(2):
                a0, b0 = sample_null_er(params, SeedSpec(seed, (t, 0)))
                a1, b1, pi = sample_planted_er(params, SeedSpec(seed, (t, 1)))
                for g in (a0, b0, a1, b1):
                    checks.expect(
                        g.n == 2000 and all(0 <= i < j < 2000 for i, j in g.edges), "sampler: edge out of range"
                    )
                checks.expect(sorted(pi.mapping) == list(range(2000)), "sampler: alignment is not a bijection")

        return run


# -- the theory mix -----------------------------------------------------------------


class Theory:
    """Orbit census, GF brute force against bounds, exact moments and enumeration streams.

    One op is one theory item.  A round holds a fixed number of items of each kind.
    """

    name = "theory"
    post_is_work = False
    MIX = {"census": 1, "gf": 10, "moment": 6, "minerr": 1, "stream": 12}

    def warmup(self) -> None:
        rnd = Round(0, [self._item(kind, _rng(0, i)) for i, kind in enumerate(self.MIX)])
        self.run(rnd)

    def plan(self, seed: int, index: int) -> Round:
        rng = _rng(seed, 3, index)
        items = [self._item(kind, rng) for kind, count in self.MIX.items() for _ in range(count)]
        return Round(len(items), items)

    @staticmethod
    def _perm(rng, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(rng.permutation(int(rng.integers(lo, hi + 1))).tolist())

    def _item(self, kind: str, rng):
        if kind == "census":
            return kind, self._perm(rng, 50, 200)
        if kind == "gf":
            k, s = int(rng.integers(3, 6)), float(rng.choice([0.05, 0.1, 0.3]))
            while True:  # enough short orbits to make the search nontrivial, few enough to stay fast
                p = self._perm(rng, 6, 12)
                if 6 <= len(own_short_orbits(p, k)) <= 16:
                    return kind, (p, k, s, own_cycle_type(p))
        if kind == "moment":
            n = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                return kind, GaussianParams(n, float(rng.uniform(0.0, 0.9)))
            return kind, ErParams(n, float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.1, 0.9)))
        if kind == "minerr":
            return kind, ErParams(4, float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.2, 0.8)))
        if kind == "stream":
            k = 4
            while True:  # stream length explodes with many short node cycles: keep at most 3
                p = self._perm(rng, 4, 8)
                if sum(1 for c in own_cycles(p) if len(c) <= k) > 3:
                    continue
                chosen = own_pseudoforest(own_short_orbits(p, k), len(p), rng, cap=4)
                if chosen:
                    return kind, (p, k, chosen, own_cycle_type(p, keep_up_to=k))
        raise ValueError(kind)

    def run(self, rnd: Round) -> list:
        out = []
        for kind, arg in rnd.inputs:
            if kind == "census":
                out.append(orbits.edge_orbits(Permutation(arg))[1])
            elif kind == "gf":
                p, k, s, ct = arg
                sigma = Permutation(p)
                out.append(
                    (
                        moments.gf_orbit_pseudoforests_bruteforce(sigma, k, s),
                        moments.gf_orbit_forests_bruteforce(sigma, k, s),
                        moments.gf_bound_pseudoforest(ct, k, s),
                        moments.gf_bound_forest(ct, k, s),
                    )
                )
            elif kind == "moment":
                out.append(moments.second_moment_exact(arg).value)
            elif kind == "minerr":
                out.append([experiments.exact_min_error_er(arg, st) for st in ("lr", "qap", "edges")])
            else:
                p, k, chosen, short_ct = arg
                h = BinaryGraph(len(p), frozenset(e for o in chosen for e in o))
                gamma = orbits.backbone(Permutation(p), h, k)
                params = enumeration.params_from_backbone(gamma, k)
                items = list(enumeration.algorithm2_pseudoforests(short_ct, k, params))
                out.append((gamma, items))
        return out

    def check(self, rnd: Round, output, checks: Checks) -> None:
        for (kind, arg), res in zip(rnd.inputs, output):
            if kind == "census":
                want = orbits.census_from_cycle_type(own_cycle_type(arg))
                checks.expect(dict(res.by_length) == want, f"census mismatch for n={len(arg)}")
            elif kind == "gf":
                gfp, gff, bp, bf = res
                checks.expect(gfp <= bp + 1e-12 and gff <= bf + 1e-12, f"GF exceeds its bound: {arg}")
                checks.expect(gff <= gfp + 1e-12, f"forest GF exceeds pseudoforest GF: {arg}")
            elif kind == "moment":
                if isinstance(arg, ErParams) and arg.n <= 3:
                    checks.expect(_close(res, moments.second_moment_bruteforce_er(arg)), f"second moment mismatch: {arg}")
                else:  # E[L^2] >= (E L)^2 = 1
                    checks.expect(res >= 1 - TOL, f"second moment below 1: {arg}")
            elif kind == "minerr":
                lr, qap, edges = res
                checks.expect(
                    0 <= lr <= 1 and lr <= qap + 1e-12 and lr <= edges + 1e-12, f"LR not minimal: {arg}"
                )
            else:
                gamma, items = res
                keys = {it.backbone.canonical_key() for it in items}
                checks.expect(gamma.canonical_key() in keys, f"backbone missing from stream: {arg[0]}")

    def post(self, seed, checks):
        return None


def make_workloads(workdir: str) -> dict:
    return {
        w.name: w
        for w in (SweepExact(workdir), SweepLs(workdir), SweepSparse(workdir), Theory())
    }
