"""Acceptance suite: one callable per criterion, plus the `verify` runner.

Each criterion function returns a :class:`CriterionResult` carrying the
pass/fail verdict and the measured quantities; `verify` prints one line per
criterion and reports overall success.  All randomized checks are seeded and
reproduce the same numbers on every run.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .detect import TESTS, qap_exact
from .enumeration import (
    algorithm2_pseudoforests,
    count_rooted_forests,
    enumerate_rooted_forests,
    enumerate_rooted_pseudoforests,
    params_from_backbone,
    pseudoforest_count_bound,
    validate_pseudoforest,
)
from .errors import ExactLimitError
from .experiments import SweepConfig, binomial_halfwidth, min_error_sum, exact_min_error_er, exact_tv_er, find_p_star, run_sweep
from .graphs import BinaryGraph, Permutation, permutation_table
from .moments import (
    cycle_count_product_average,
    cycle_type_tv_check,
    enumerate_orbit_pseudoforests,
    gf_bound_forest,
    gf_bound_pseudoforest,
    gf_orbit_forests_bruteforce,
    gf_orbit_pseudoforests_bruteforce,
    lambert_w,
    orbit_moment_er,
    orbit_moment_er_oracle,
    orbit_moment_gaussian,
    orbit_moment_gaussian_mc,
    planted_intersection_edge_bound,
    poisson_cycle_moment,
    second_moment_bruteforce_er,
    second_moment_exact,
)
from .orbits import (
    backbone,
    census_from_cycle_type,
    census_predict_small,
    classify_orbit,
    cycle_type,
    edge_orbits,
    is_pseudoforest,
    orbits_up_to,
)
from .sampling import (
    ErParams,
    GaussianParams,
    SeedSpec,
    random_permutation,
    rng_from_seed,
    sample_null_er,
    sample_null_gaussian,
    sample_planted_er,
    sample_planted_gaussian,
)

__all__ = ["CriterionResult", "CRITERIA", "matching_criteria", "run_criterion", "verify"]

DEFAULT_SEED = 20240917


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: str
    seconds: float = 0.0


# -- 1 ----------------------------------------------------------------------------


def criterion_orbit_census(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Exhaustive census identities on S_2 .. S_7."""
    checked = 0
    for n in range(2, 8):
        m = n * (n - 1) // 2
        for row in permutation_table(n).tolist():
            sigma = Permutation(tuple(row))
            _, census = edge_orbits(sigma)
            if census.total_weight() != m:
                return False, f"weight identity fails at n={n}, sigma={sigma.mapping}"
            ct = cycle_type(sigma)
            n1, n2 = census_predict_small(ct)
            if (census.count(1), census.count(2)) != (n1, n2):
                return False, f"small-census prediction fails at sigma={sigma.mapping}"
            if census_from_cycle_type(ct) != dict(census.by_length):
                return False, f"full census prediction fails at sigma={sigma.mapping}"
            checked += 1
    return True, f"{checked} permutations checked exhaustively (n=2..7)"


# -- 2 ----------------------------------------------------------------------------


def criterion_orbit_table(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Exact orbit decomposition of the standard worked permutation."""
    sigma = Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5, 6, 7)])
    orbits, census = edge_orbits(sigma)
    tally: dict[tuple[str, int], int] = {}
    for o in orbits:
        cls = classify_orbit(sigma, o)
        tally[(str(cls), len(o))] = tally.get((str(cls), len(o)), 0) + 1
    expected = {
        ("S_2", 1): 2,
        ("M_2", 2): 2,
        ("B_{4,2}", 4): 4,
        ("C_4", 4): 1,
        ("S_4", 2): 1,
    }
    ok = tally == expected and dict(census.by_length) == {1: 2, 2: 3, 4: 5}
    return ok, f"decomposition {sorted(tally.items())}, census {dict(sorted(census.by_length.items()))}"


# -- 3 ----------------------------------------------------------------------------


def criterion_orbit_moments(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Per-orbit factors versus exhaustive and Monte-Carlo oracles."""
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    worst = 0.0
    for k in (1, 2, 3):
        for p in grid:
            for s in grid:
                gap = abs(orbit_moment_er(k, p, s) - orbit_moment_er_oracle(k, p, s))
                worst = max(worst, gap)
    if worst > 1e-12:
        return False, f"ER orbit moment deviates from oracle by {worst:.2e}"
    lines = []
    ok = True
    for k in (1, 2):
        for rho in (0.2, 0.4):
            est, se = orbit_moment_gaussian_mc(k, rho, samples=10**6, seed=SeedSpec(seed, (3, k)))
            truth = orbit_moment_gaussian(k, rho)
            z = abs(est - truth) / se
            ok = ok and z <= 3.0
            lines.append(f"k={k},rho={rho}: z={z:.2f}")
    return ok, f"ER max gap {worst:.1e}; Gaussian MC {'; '.join(lines)}"


# -- 4 ----------------------------------------------------------------------------


def criterion_second_moment(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Cycle-type second moment equals graph-pair brute force; unit value at rho=0."""
    worst = 0.0
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    for n in (2, 3):
        for p in grid:
            for s in grid:
                params = ErParams(n, p, s)
                gap = abs(second_moment_exact(params).value - second_moment_bruteforce_er(params))
                worst = max(worst, gap)
    null_gauss = second_moment_exact(GaussianParams(5, 0.0)).value
    tiny = ErParams(3, 0.3, 1e-7)
    near_one = max(
        abs(second_moment_exact(tiny).value - 1), abs(second_moment_bruteforce_er(tiny) - 1)
    )
    ok = worst <= 1e-9 and null_gauss == 1.0 and near_one <= 1e-9
    return ok, f"max |exact-brute| = {worst:.2e}; rho=0 exact = {null_gauss}; s->0 gap {near_one:.1e}"


# -- 5 ----------------------------------------------------------------------------


def criterion_gf_bounds(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Generating-function bounds dominate brute force; margins over cells with a short orbit (elsewhere GF = 1)."""
    rng = rng_from_seed(SeedSpec(seed, 5))
    checked = skipped = cells = tight = 0
    worst_margin = math.inf
    while checked < 200:
        n = int(rng.integers(4, 11))
        sigma = random_permutation(n, rng)
        ct = cycle_type(sigma)
        try:
            for k in (2, 3, 4, 5):
                short = bool(orbits_up_to(sigma, k))
                for s in (0.05, 0.1, 0.3):
                    gf = gf_orbit_pseudoforests_bruteforce(sigma, k, s)
                    bound = gf_bound_pseudoforest(ct, k, s)
                    if gf > bound + 1e-12:
                        return False, f"pseudoforest bound violated: sigma={sigma.mapping}, k={k}, s={s}"
                    gff = gf_orbit_forests_bruteforce(sigma, k, s)
                    fbound = gf_bound_forest(ct, k, s)
                    if gff > fbound + 1e-12:
                        return False, f"forest bound violated: sigma={sigma.mapping}, k={k}, s={s}"
                    if gff > gf + 1e-12:
                        return False, "forest GF exceeds pseudoforest GF"
                    if short:
                        margin = min(bound - gf, fbound - gff)
                        cells, tight, worst_margin = cells + 1, tight + (margin <= 1e-12), min(worst_margin, margin)
        except ExactLimitError:
            skipped += 1
            continue
        checked += 1
    margins = f"min margin {worst_margin:.2e} over {cells} cells with a short orbit, {tight} within 1e-12 of a bound"
    return True, f"{checked} permutations x 12 (k,s) cells, zero violations ({margins}; {skipped} skipped)"


# -- 6 ----------------------------------------------------------------------------


def criterion_enumeration(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Counting formulas against brute force; algorithm-2 completeness."""
    for n in range(1, 8):
        for a in range(0, n):
            brute = sum(1 for _ in enumerate_rooted_forests(n, a))
            if brute != count_rooted_forests(n, a):
                return False, f"rooted-forest count fails at n={n}, a={a}"
    for n in range(1, 6):
        for a in range(0, 6):
            brute = sum(1 for _ in enumerate_rooted_pseudoforests(n, a))
            if brute > pseudoforest_count_bound(n, a):
                return False, f"pseudoforest bound fails at n={n}, a={a}"
    rng = rng_from_seed(SeedSpec(seed, 6))
    k = 4
    contained = 0
    permutations_used = 0
    while permutations_used < 20:
        n = int(rng.integers(4, 9))
        sigma = random_permutation(n, rng)
        try:
            pseudoforests = list(enumerate_orbit_pseudoforests(sigma, k, limit=14))
        except ExactLimitError:
            continue
        permutations_used += 1
        ct_full = cycle_type(sigma)
        ct = type(ct_full)(tuple(ct_full.counts[m - 1] if m <= k else 0 for m in range(1, n + 1)))
        stream_cache: dict = {}
        for orbit_list in pseudoforests:
            union = frozenset().union(*(o.edge_set() for o in orbit_list))
            h = BinaryGraph(n, union)
            if not is_pseudoforest(h):
                return False, "brute-force union is not a pseudoforest"
            gamma = backbone(sigma, h, k)
            ok, viol = validate_pseudoforest(gamma)
            if not ok:
                return False, f"validator rejects a true orbit pseudoforest: {viol}"
            params = params_from_backbone(gamma, k)
            key = (
                tuple(sorted(params.a.items())),
                tuple(sorted(params.b.items())),
                tuple(sorted(params.c.items())),
                tuple(sorted(params.d.items())),
            )
            if key not in stream_cache:
                stream_cache[key] = {
                    item.backbone.canonical_key()
                    for item in algorithm2_pseudoforests(ct, k, params)
                }
            if gamma.canonical_key() not in stream_cache[key]:
                return False, f"orbit pseudoforest missing from stream: sigma={sigma.mapping}"
            contained += 1
    return True, f"counts match; {contained} orbit pseudoforests over {permutations_used} permutations all found in streams"


# -- 7 ----------------------------------------------------------------------------


def criterion_poisson_cycles(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Falling-moment identity exactly; empirical TV to the Poisson limit."""

    def order_vectors(n):
        # all (a_1..a_n) with sum l*a_l <= n
        def rec(l, budget):
            if l > n:
                yield ()
                return
            for al in range(budget // l + 1):
                for rest in rec(l + 1, budget - l * al):
                    yield (al,) + rest

        yield from rec(1, n)

    for n in range(1, 9):
        for a in order_vectors(n):
            got = cycle_count_product_average(n, a)
            want = Fraction(1)
            for l, al in enumerate(a, start=1):
                want /= Fraction(l) ** al * math.factorial(al)
            if got != want:
                return False, f"moment identity fails at n={n}, orders={a}"
            if abs(poisson_cycle_moment(a) - float(want)) > 1e-15:
                return False, f"closed form disagrees at n={n}, orders={a}"
    res = cycle_type_tv_check(50, 2, trials=10**5, seed=SeedSpec(seed, 7))
    ok = res.tv_estimate <= 0.02
    return ok, f"exact moments ok (n<=8); empirical TV at n=50 is {res.tv_estimate:.4f} (bound context {res.poisson_bound:.1e})"


# -- 8 ----------------------------------------------------------------------------


def criterion_lr_optimality(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """The exact likelihood-ratio test attains 1 - TV and dominates the others."""
    worst_eq = 0.0
    for n in (3, 4):
        for p in (0.2, 0.35, 0.5):
            for s in (0.3, 0.5, 0.7):
                params = ErParams(n, p, s)
                lr_err = exact_min_error_er(params, "lr")
                tv = exact_tv_er(params)
                worst_eq = max(worst_eq, abs(lr_err - (1 - tv)))
                if lr_err > exact_min_error_er(params, "qap") + 1e-12:
                    return False, f"LR beaten by QAP at n={n}, p={p}, s={s}"
                if lr_err > exact_min_error_er(params, "edges") + 1e-12:
                    return False, f"LR beaten by edge count at n={n}, p={p}, s={s}"
    ok = worst_eq <= 1e-9
    return ok, f"max |LR error - (1 - TV)| = {worst_eq:.2e} over 18 grid points"


# -- 9 ----------------------------------------------------------------------------


def criterion_edge_count_weak_detection(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """The linear-time edge-count test beats random guessing at n=2000."""
    params = ErParams(2000, 0.01, 0.8)
    trials = 2000
    test = TESTS["edges"]
    tau = test.threshold(params)
    t1 = t2 = 0
    for t in range(trials):
        a0, b0 = sample_null_er(params, SeedSpec(seed, (9, t, 0)))
        if test.statistic(a0, b0, params)[0] >= tau:
            t1 += 1
        a1, b1, _ = sample_planted_er(params, SeedSpec(seed, (9, t, 1)))
        if test.statistic(a1, b1, params)[0] < tau:
            t2 += 1
    r1, r2 = t1 / trials, t2 / trials
    margin = 1.96 * math.hypot(
        math.sqrt(r1 * (1 - r1) / trials), math.sqrt(r2 * (1 - r2) / trials)
    )
    err = r1 + r2
    ok = err + margin <= 0.90
    return ok, f"error sum {err:.4f} + CI {margin:.4f} (type1 {r1:.3f}, type2 {r2:.3f})"


# -- 10 ---------------------------------------------------------------------------


def criterion_detection_monotonicity(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Higher correlation separates better for the exact QAP statistic at n=9.

    Error sums use the per-cell empirically optimal threshold; the analytic
    threshold is asymptotic and degenerates at this size.
    """
    n, trials = 9, 100
    null_stats = []
    for t in range(trials):
        a, b = sample_null_gaussian(GaussianParams(n, 0.3), SeedSpec(seed, (10, t, 0)))
        null_stats.append(qap_exact(a, b)[0])
    results = {}
    for rho in (0.3, 0.9):
        planted = []
        for t in range(trials):
            a, b, _ = sample_planted_gaussian(
                GaussianParams(n, rho), SeedSpec(seed, (10, t, 1, int(rho * 10)))
            )
            planted.append(qap_exact(a, b)[0])
        err, tau = min_error_sum(null_stats, planted)
        t1 = float(np.mean(np.asarray(null_stats) >= tau))
        t2 = float(np.mean(np.asarray(planted) < tau))
        ci = math.hypot(binomial_halfwidth(t1, trials), binomial_halfwidth(t2, trials))
        results[rho] = (err, ci)
    gap = results[0.3][0] - results[0.9][0]
    need = 2 * math.hypot(results[0.3][1], results[0.9][1])
    ok = gap > need
    return ok, (
        f"err(rho=0.3)={results[0.3][0]:.3f}, err(rho=0.9)={results[0.9][0]:.3f}, "
        f"gap {gap:.3f} > 2*CI {need:.3f}: {ok}"
    )


# -- 11 ---------------------------------------------------------------------------


def criterion_numerics(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Lambert-W round trips, density-ceiling consistency, and the p* root."""
    grid = np.concatenate(
        [
            np.logspace(-9, 3, 40),
            -np.logspace(-9, math.log10(1 / math.e) - 1e-9, 20),
            [0.0, -1 / math.e, math.e, 1.0],
        ]
    )
    worst = 0.0
    for x in grid:
        w = lambert_w(float(x))
        worst = max(worst, abs(w * math.exp(w) - float(x)))
    if worst > 1e-12:
        return False, f"lambert_w round-trip error {worst:.2e}"
    # ceiling round trip: the exponent argument must solve w e^w = arg
    k, n, p, s = 40, 200, 0.3, 0.5
    arg = 2 * math.log(2 * math.e * n / k) / (math.e * (k - 1) * p * s * s) - 1 / math.e
    w = lambert_w(arg)
    zeta = planted_intersection_edge_bound(k, n, p, s)
    mean = math.comb(k, 2) * p * s * s
    round_trip = abs(w * math.exp(w) - arg)
    consistent = abs(zeta - mean * math.exp(1 + w))
    ratio = planted_intersection_edge_bound(10**4, 10**4, 0.5, 1.0) / (
        math.comb(10**4, 2) * 0.5
    )
    p_star = find_p_star()
    root_gap = abs(math.log(1 / p_star) - 2 * (1 - p_star))
    ok = (
        round_trip <= 1e-10
        and consistent <= 1e-9
        and 1.0 <= ratio <= 1.1
        and root_gap <= 1e-6
        and abs(p_star - 0.203) < 5e-4
    )
    return ok, (
        f"W round-trip {worst:.1e}; ceiling consistency {consistent:.1e}; "
        f"small-deviation ratio {ratio:.4f}; p*={p_star:.6f}"
    )


# -- 12 ---------------------------------------------------------------------------


def criterion_determinism(seed=DEFAULT_SEED) -> tuple[bool, str]:
    """Byte-identical seeded outputs, serial and parallel."""
    import os

    cfg = SweepConfig(
        model="er",
        n=(10, 14),
        tests=("qap-ls", "edges"),
        trials=8,
        seed=seed,
        p=(0.3,),
        s=(0.6, 0.9),
    )
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    prev = os.environ.get("GRAPHCORR_WORKERS")
    os.environ["GRAPHCORR_WORKERS"] = "2"
    try:
        parallel = run_sweep(cfg)
    finally:
        if prev is None:
            del os.environ["GRAPHCORR_WORKERS"]
        else:
            os.environ["GRAPHCORR_WORKERS"] = prev
    sweeps_ok = first == second == parallel
    mc1 = cycle_type_tv_check(30, 2, trials=2000, seed=SeedSpec(seed, 12)).tv_estimate
    mc2 = cycle_type_tv_check(30, 2, trials=2000, seed=SeedSpec(seed, 12)).tv_estimate
    g1 = sample_planted_er(ErParams(100, 0.2, 0.7), SeedSpec(seed, 121))
    g2 = sample_planted_er(ErParams(100, 0.2, 0.7), SeedSpec(seed, 121))
    samples_ok = g1 == g2
    ok = sweeps_ok and mc1 == mc2 and samples_ok
    return ok, f"sweep serial==serial==parallel: {sweeps_ok}; MC repeat equal: {mc1 == mc2}; samples equal: {samples_ok}"


CRITERIA = (
    ("01-orbit-census", criterion_orbit_census),
    ("02-orbit-table", criterion_orbit_table),
    ("03-orbit-moments", criterion_orbit_moments),
    ("04-second-moment", criterion_second_moment),
    ("05-gf-bounds", criterion_gf_bounds),
    ("06-enumeration", criterion_enumeration),
    ("07-poisson-cycles", criterion_poisson_cycles),
    ("08-lr-optimality", criterion_lr_optimality),
    ("09-edge-count-weak-detection", criterion_edge_count_weak_detection),
    ("10-detection-monotonicity", criterion_detection_monotonicity),
    ("11-numerics", criterion_numerics),
    ("12-determinism", criterion_determinism),
)


def run_criterion(name: str, seed: int = DEFAULT_SEED) -> CriterionResult:
    for cname, fn in CRITERIA:
        if cname == name:
            start = time.time()
            passed, measured = fn(seed=seed)
            return CriterionResult(cname, bool(passed), measured, time.time() - start)  # numpy bool_ is not JSON
    raise KeyError(f"unknown criterion {name!r}; known: {[c for c, _ in CRITERIA]}")


def matching_criteria(suite: str | None = None) -> list[str]:
    """Names of the criteria that contain ``suite``, all of them without it; a filter that matches none raises ``ValueError``."""
    names = [name for name, _ in CRITERIA if not suite or suite in name]
    if not names:
        raise ValueError(f"--suite {suite!r} matches no criterion; known: {', '.join(name for name, _ in CRITERIA)}")
    return names


def verify(suite: str | None = None, seed: int = DEFAULT_SEED, as_json: bool = False) -> bool:
    """Run the acceptance criteria (optionally filtered by substring).

    Prints one PASS/FAIL line per criterion with the measured values, or with
    ``as_json`` one JSON object with the fields of its ``CriterionResult``,
    and returns overall success.  A filter that matches no criterion is
    refused before any runs.
    """
    all_ok = True
    for name in matching_criteria(suite):
        res = run_criterion(name, seed=seed)
        status = "PASS" if res.passed else "FAIL"
        print(json.dumps(asdict(res)) if as_json else f"[{status}] {res.name} ({res.seconds:.1f}s): {res.measured}")
        all_ok = all_ok and res.passed
    return all_ok
