"""Command-line interface.

Subcommands: generate, orbit, test, gf, moments, enumerate, sweep, tv,
curves, verify.  File formats are the 1-based text formats of the graphs
module.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import acceptance, experiments
from .detect import LOCAL_SEARCH_RESTARTS, TESTS
from .enumeration import (
    ConstructionParams,
    algorithm1_forests,
    algorithm2_pseudoforests,
    stream_bound_forest,
    stream_bound_pseudoforest,
)
from .errors import ExactLimitError, FieldError
from .graphs import (
    read_binary_graph,
    read_permutation,
    read_weighted_graph,
    write_binary_graph,
    write_permutation,
    write_weighted_graph,
)
from .moments import (
    gf_bound_forest,
    gf_bound_pseudoforest,
    gf_orbit_forests_bruteforce,
    gf_orbit_pseudoforests_bruteforce,
    second_moment_exact,
    second_moment_mc,
)
from .orbits import (
    CycleType,
    backbone,
    classify_orbit,
    cycle_type,
    edge_orbits,
    orbit_label,
    orbits_up_to,
)
from .sampling import (
    ErParams,
    GaussianParams,
    SeedSpec,
    sample_null_er,
    sample_null_gaussian,
    sample_planted_er,
    sample_planted_gaussian,
)


@contextlib.contextmanager
def _one_line_errors():
    """Turn a ValueError raised on the user's input, or an OSError on a file it names, into a one-line exit."""
    try:
        yield
    except ValueError as err:
        raise SystemExit(str(err)) from None
    except OSError as err:
        raise SystemExit(f"{err.filename}: {err.strerror}" if err.filename else str(err)) from None


def _seed_type(flag: str):
    """argparse type of a seed flag: an integer >= 0, else a one-line exit that names the flag."""
    return lambda text: int(text) if text.isdecimal() else sys.exit(f"{flag} must be an integer >= 0, got {text!r}")


def _model_params(args) -> GaussianParams | ErParams:
    with _one_line_errors():
        for key in ("p", "s") if args.model == "gaussian" else ("rho",):
            if getattr(args, key) is not None:
                raise SystemExit(f"--{key} does not apply to model {args.model!r}")
        if args.model == "gaussian":
            if args.rho is None:
                raise SystemExit("--rho is required for the gaussian model")
            return GaussianParams(args.n, args.rho)
        if args.p is None or args.s is None:
            raise SystemExit("--p and --s are required for the er model")
        return ErParams(args.n, args.p, args.s)


def _add_model_args(parser) -> None:
    parser.add_argument("--model", choices=("gaussian", "er"), required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--rho", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--s", type=float)


def _cmd_generate(args) -> int:
    params = _model_params(args)
    seed = SeedSpec(args.seed, args.stream)
    gaussian = args.model == "gaussian"
    writer = write_weighted_graph if gaussian else write_binary_graph
    if args.hypothesis == "null":
        a, b = (sample_null_gaussian if gaussian else sample_null_er)(params, seed)
        pi = None
    else:
        a, b, pi = (sample_planted_gaussian if gaussian else sample_planted_er)(params, seed)
    with _one_line_errors():
        os.makedirs(args.out, exist_ok=True)
        writer(a, os.path.join(args.out, "a.txt"))
        writer(b, os.path.join(args.out, "b.txt"))
        if pi is not None:
            write_permutation(pi, os.path.join(args.out, "pi.txt"))
    print(f"wrote {args.hypothesis} {args.model} pair (n={args.n}) to {args.out}")
    return 0


def _cmd_orbit(args) -> int:
    with _one_line_errors():
        sigma = read_permutation(args.sigma)
        orbits, census = edge_orbits(sigma)
        if args.k is not None:
            orbits = orbits_up_to(sigma, args.k)
    ct = cycle_type(sigma)
    rows = []
    for o in orbits:
        cls = classify_orbit(sigma, o)
        rows.append((cls.kind, str(cls), len(o), orbit_label(sigma, o), o.edges))
    rows.sort(key=lambda r: ("MBCS".index(r[0]), r[1], r[3] or 0))
    print(f"{'type':10s} {'length':>6s} {'label':>5s}  orbit")
    for kind, name, length, label, edges in rows:
        shown = ",".join(f"{i + 1}{j + 1}" if sigma.n < 10 else f"({i + 1},{j + 1})" for i, j in edges)
        print(f"{name:10s} {length:6d} {str(label or '-'):>5s}  ({shown})")
    dump = {
        "n": sigma.n,
        "cycle_type": {m + 1: c for m, c in enumerate(ct.counts) if c},
        "census": dict(sorted(census.by_length.items())),
        "orbit_count": len(rows),
    }
    print(json.dumps(dump))
    if args.backbone:
        with _one_line_errors():
            h = read_binary_graph(args.backbone)
            gamma = backbone(sigma, h, args.k if args.k is not None else sigma.n)
        print("backbone nodes:")
        for nd in gamma.nodes:
            flag = " split" if nd.split else ""
            print(f"  {nd.gid}: length {nd.length}{flag} members {tuple(v + 1 for v in nd.members)}")
        print("backbone edges:")
        for e in gamma.edges:
            print(f"  {e.kind} {e.u} -- {e.v} label {e.label}")
    return 0


def _cmd_test(args) -> int:
    params = _model_params(args)
    test = TESTS[args.stat]
    reader = read_weighted_graph if args.model == "gaussian" else read_binary_graph
    with _one_line_errors():
        test.check(args.model, args.n)
        tau = None if args.threshold == "auto" else float(args.threshold)
        if tau is not None and not math.isfinite(tau):
            raise ValueError(f"--threshold must be 'auto' or a finite number, got {args.threshold!r}")
        a, b = reader(args.a), reader(args.b)
    if a.n != args.n or b.n != args.n:
        raise SystemExit(
            f"--n {args.n} does not match the graph files: {args.a} has n={a.n}, {args.b} has n={b.n}"
        )
    with _one_line_errors():
        stat, argmax = test.statistic(a, b, params, restarts=args.restarts, seed=args.seed)
        tau = test.threshold(params) if tau is None else tau
    decision = "planted" if stat >= tau else "null"
    print(f"statistic {stat:.6g} threshold {tau:.6g} decision {decision}")
    if argmax is not None:
        print("argmax " + " ".join(str(v) for v in argmax.to_one_based()))
    return 0


def _cmd_gf(args) -> int:
    with _one_line_errors():
        sigma = read_permutation(args.sigma)
        ct = cycle_type(sigma)
        if args.forest:
            brute = gf_orbit_forests_bruteforce(sigma, args.k, args.s)
            bound = gf_bound_forest(ct, args.k, args.s)
        else:
            brute = gf_orbit_pseudoforests_bruteforce(sigma, args.k, args.s)
            bound = gf_bound_pseudoforest(ct, args.k, args.s)
    kind = "forest" if args.forest else "pseudoforest"
    print(f"{kind} generating function: brute {brute:.12g}  bound {bound:.12g}  margin {bound - brute:.6g}")
    return 0 if brute <= bound + 1e-12 else 1


def _cmd_moments(args) -> int:
    params = _model_params(args)
    try:
        report = second_moment_exact(params)
    except ExactLimitError:
        with _one_line_errors():
            report = second_moment_mc(params, trials=args.trials, seed=args.seed)
    print("model,n,value,exact,halfwidth")
    hw = "" if report.mc_halfwidth is None else f"{report.mc_halfwidth:.6g}"
    print(f"{report.model},{report.n},{report.value:.12g},{report.is_exact},{hw}")
    if report.contributions and args.table:
        print("cycle_type,weight,factor")
        for counts, weight, factor in report.contributions:
            name = " ".join(f"{m + 1}^{c}" for m, c in enumerate(counts) if c)
            print(f"{name},{weight:.10g},{factor:.10g}")
    return 0


def _parse_counts(flag: str, text: str) -> dict[int, int]:
    """Parse ``length:count,...``; a rejection names the flag and the bad item."""
    out: dict[int, int] = {}
    for item in text.split(",") if text else ():
        parts = item.split(":")
        if len(parts) != 2 or not all(part.strip().isdecimal() for part in parts):
            raise ValueError(f"{flag}: expected length:count of nonnegative integers, got {item!r}")
        length, count = map(int, parts)
        if length in out:
            raise ValueError(f"{flag}: length {length} is given twice")
        out[length] = count
    return out


def _cmd_enumerate(args) -> int:
    with _one_line_errors():
        if args.k < 1:
            raise ValueError("k must be >= 1")
        counts = _parse_counts("--cycle-type", args.cycle_type)
        ct = CycleType.from_counts(sum(m * c for m, c in counts.items()), counts)
        params = ConstructionParams(*(_parse_counts(f"--{x}", getattr(args, x)) for x in "abcd"))
    if args.forest:
        stream = algorithm1_forests(ct, args.k, params)
        bound = stream_bound_forest(ct, args.k, params)
    else:
        stream = algorithm2_pseudoforests(ct, args.k, params)
        bound = stream_bound_pseudoforest(ct, args.k, params)
    total = valid = 0
    violation_tally: dict[str, int] = {}
    for item in stream:
        total += 1
        valid += item.valid
        for v in item.violations:
            violation_tally[v] = violation_tally.get(v, 0) + 1
    print(f"stream length {total} (bound {bound}), valid {valid}")
    if args.validate and violation_tally:
        for v, c in sorted(violation_tally.items()):
            print(f"  {v}: {c}")
    return 0 if total <= bound else 1


def _tuple_of(kind):
    return lambda text: tuple(kind(x.strip()) for x in text.split(","))


# config key -> parser; each key is a SweepConfig field, and a key left out keeps the field's default
_CONFIG_KEYS = {
    "model": str,
    "n": _tuple_of(int),
    "tests": _tuple_of(str),
    "trials": int,
    "seed": int,
    "rho": _tuple_of(float),
    "p": _tuple_of(float),
    "s": _tuple_of(float),
    "threshold": str,
    "restarts": int,
    "ls_rounds": int,
}
_REQUIRED_CONFIG_KEYS = [f.name for f in dataclasses.fields(experiments.SweepConfig) if f.default is dataclasses.MISSING]


def _read_config(path) -> experiments.SweepConfig:
    """Parse a flat ``key=value`` sweep config; ``#`` starts a comment.

    A rejection names ``path:line`` of the offending key, or the last line.
    """
    fields, seen, no = {}, {}, 0
    with open(path) as f:
        for no, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{no}: expected key=value, got {line!r}")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{no}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{no}: duplicate key {key!r}, first set on line {seen[key]}")
            seen[key] = no
            try:
                fields[key] = _CONFIG_KEYS[key](val)
            except ValueError as err:
                raise ValueError(f"{path}:{no}: bad value for {key!r}: {err}") from None
    missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in seen]
    if missing:
        raise ValueError(f"{path}:{no}: missing required keys {', '.join(missing)}")
    try:
        return experiments.SweepConfig(**fields)
    except FieldError as err:
        raise ValueError(f"{path}:{seen.get(err.field, no)}: {err}") from None


def _cmd_sweep(args) -> int:
    with _one_line_errors():
        config = _read_config(args.config)
        experiments.sweep_workers(config)
        if args.out is not None and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ValueError(f"--out {args.out}: not a file in an existing directory")
    text = experiments.run_sweep(config)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with _one_line_errors(), open(args.out, "w", newline="\n") as f:
            f.write(text)
        print(f"wrote {args.out}")
    return 0


def _cmd_tv(args) -> int:
    with _one_line_errors():
        tv = experiments.exact_tv_er(ErParams(args.n, args.p, args.s))
    print(f"exact TV {tv:.12g}; minimal error sum {1 - tv:.12g}")
    return 0


def _cmd_curves(args) -> int:
    with _one_line_errors():
        rows = experiments.threshold_curves(args.model, args.n_min, args.n_max, p=args.p)
    for row in rows:
        print(row)
    return 0


def _cmd_verify(args) -> int:
    with _one_line_errors():  # only the filter: a ValueError inside a criterion is a bug and keeps its traceback
        acceptance.matching_criteria(args.suite)
    ok = acceptance.verify(suite=args.suite, seed=args.seed, as_json=args.json)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="graphcorr",
        description="Correlation testing for unlabeled random graph pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a graph pair to files")
    _add_model_args(g)
    g.add_argument("--hypothesis", choices=("null", "planted"), required=True)
    g.add_argument("--seed", type=_seed_type("--seed"), default=0)
    g.add_argument("--stream", type=_seed_type("--stream"), default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    o = sub.add_parser("orbit", help="edge-orbit census of a permutation")
    o.add_argument("--sigma", required=True)
    o.add_argument("--k", type=int)
    o.add_argument("--backbone", help="orbit-graph file to summarize")
    o.set_defaults(func=_cmd_orbit)

    t = sub.add_parser("test", help="run a detection test on a graph pair")
    t.add_argument("--stat", choices=tuple(TESTS), required=True)
    t.add_argument("--a", required=True)
    t.add_argument("--b", required=True)
    _add_model_args(t)
    t.add_argument("--threshold", default="auto")
    t.add_argument("--restarts", type=int, default=LOCAL_SEARCH_RESTARTS)
    t.add_argument("--seed", type=_seed_type("--seed"), default=0)
    t.set_defaults(func=_cmd_test)

    f = sub.add_parser("gf", help="orbit generating function: brute force vs bound")
    f.add_argument("--sigma", required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--s", type=float, required=True)
    f.add_argument("--forest", action="store_true")
    f.set_defaults(func=_cmd_gf)

    m = sub.add_parser("moments", help="second moment of the likelihood ratio")
    _add_model_args(m)
    m.add_argument("--trials", type=int, default=2000)
    m.add_argument("--seed", type=_seed_type("--seed"), default=0)
    m.add_argument("--table", action="store_true")
    m.set_defaults(func=_cmd_moments)

    e = sub.add_parser("enumerate", help="backbone generation stream summary")
    e.add_argument("--cycle-type", required=True, help="length:count pairs, e.g. 2:2,4:1")
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--a", default="", help="matchings per length, e.g. 2:1")
    e.add_argument("--b", default="", help="splits per length")
    e.add_argument("--c", default="", help="forward bridges per length")
    e.add_argument("--d", default="", help="backward bridges per length")
    e.add_argument("--forest", action="store_true")
    e.add_argument("--validate", action="store_true")
    e.set_defaults(func=_cmd_enumerate)

    s = sub.add_parser("sweep", help="detection-error sweep from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep)

    v = sub.add_parser("tv", help="exact total variation at small n (er)")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--p", type=float, required=True)
    v.add_argument("--s", type=float, required=True)
    v.set_defaults(func=_cmd_tv)

    c = sub.add_parser("curves", help="asymptotic threshold boundary curves")
    c.add_argument("--model", choices=("gaussian", "er"), required=True)
    c.add_argument("--n-min", type=int, required=True)
    c.add_argument("--n-max", type=int, required=True)
    c.add_argument("--p", type=float)
    c.set_defaults(func=_cmd_curves)

    w = sub.add_parser("verify", help="run the acceptance suite")
    w.add_argument("--suite", help="substring filter on criterion names")
    w.add_argument("--seed", type=_seed_type("--seed"), default=acceptance.DEFAULT_SEED)
    w.add_argument("--json", action="store_true", help="one JSON object per criterion")
    w.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
