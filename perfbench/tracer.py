"""Span tracing of graphcorr's public functions, installed from outside the package.

The tracer replaces each traced function by a timing wrapper in every
graphcorr module that holds a reference to it, so calls are caught where
the name is looked up (``experiments.qap_exact`` as well as
``detect.qap_exact``).  Spans live in memory; per-function calls, self time
and mean time are computed when the run ends.  A traced name that no longer
exists is reported as missing rather than failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (module, attribute path) of every traced function.  Methods use a dotted path.
TARGETS = (
    ("cli", "main"),
    ("experiments", "run_sweep"),
    ("experiments", "min_error_sum"),
    ("experiments", "exact_min_error_er"),
    ("detect", "qap_exact"),
    ("detect", "all_statistic_values"),
    ("detect", "log_likelihood_ratio_exact"),
    ("detect", "qap_local_search"),
    ("detect", "statistic_given_pi"),
    ("sampling", "sample_null_er"),
    ("sampling", "sample_planted_er"),
    ("sampling", "sample_null_gaussian"),
    ("sampling", "sample_planted_gaussian"),
    ("graphs", "BinaryGraph.to_dense"),
    ("orbits", "edge_orbits"),
    ("orbits", "backbone"),
    ("moments", "gf_orbit_pseudoforests_bruteforce"),
    ("moments", "gf_orbit_forests_bruteforce"),
    ("moments", "second_moment_exact"),
    ("enumeration", "algorithm2_pseudoforests"),
)

NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)

# Samplers whose returned edges are counted: work measured where the work happens.
EDGE_SAMPLERS = ("sampling.sample_null_er", "sampling.sample_planted_er")


def _size_of(args) -> int | None:
    """The instance size ``n`` of the first argument that carries one."""
    for a in args:
        n = getattr(a, "n", None)
        if isinstance(n, int):
            return n
    return None


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "n", "resume")

    def __init__(self, name, parent, t0, n, resume):
        self.name, self.parent, self.t0, self.t1, self.n, self.resume = name, parent, t0, t0, n, resume

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans with parent ids and per-name work counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("graphcorr.")]
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            try:
                owner = importlib.import_module(f"graphcorr.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            if outer:  # a method: patch it on its class
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording -------------------------------------------------------------

    def _open(self, name, n, resume) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, 0.0, n, resume)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, _size_of(args), False)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "detect.all_statistic_values":
                tracer._count(name + ".perms", len(result))
            elif name in EDGE_SAMPLERS:
                tracer._count("sampling.edges", result[0].edge_count + result[1].edge_count)
            if inspect.isgenerator(result):
                return tracer._resumes(name, result, span.n)
            return result

        traced.__wrapped__ = fn
        return traced

    def _resumes(self, name, gen, n):
        """Re-yield a generator, recording each resume as a span of ``name``."""
        while True:
            span = self._open(name, n, True)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(span)
            self._count(name + ".items", 1)
            self._count(name + ".valid", int(getattr(item, "valid", 0)))
            yield item

    # -- summaries -------------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def _self_times(self) -> list[float]:
        """Self time of each span: its duration minus that of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def top_level_time(self, start: int, end: int) -> float:
        """Time covered by spans of ``spans[start:end]`` that have no traced parent."""
        return sum(s.duration for s in self.spans[start:end] if s.parent < start)

    def inclusive_time(self, prefix: str, start: int, end: int) -> float:
        """Time inside spans whose name starts with ``prefix`` and whose parent does not."""
        spans = self.spans
        return sum(
            s.duration
            for s in spans[start:end]
            if s.name.startswith(prefix) and (s.parent < start or not spans[s.parent].name.startswith(prefix))
        )

    def per_name(self) -> dict[str, dict]:
        """calls, self_s, inclusive seconds and per-size inclusive times for each name."""
        out: dict[str, dict] = {}
        own = self._self_times()
        for s, self_s in zip(self.spans, own):
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "by_n": {}})
            row["self_s"] += self_s
            row["incl_s"] += s.duration
            if not s.resume:
                row["calls"] += 1
            bucket = row["by_n"].setdefault(s.n, [0, 0.0])
            bucket[0] += 0 if s.resume else 1
            bucket[1] += s.duration
        return out
