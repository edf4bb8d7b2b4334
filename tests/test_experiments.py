import math
import os
import re

import numpy as np
import pytest

from graphcorr import detect, experiments, moments
from graphcorr.experiments import (
    CSV_HEADER,
    ErrorEstimate,
    SweepConfig,
    exact_min_error_er,
    exact_tv_er,
    find_p_star,
    min_error_sum,
    run_sweep,
    sweep_rows,
    threshold_curves,
)
from graphcorr.detect import QAP_EXACT_DEFAULT_LIMIT
from graphcorr.errors import ExactLimitError, FieldError
from graphcorr.moments import exact_er_lr_table
from graphcorr.sampling import ErParams


class TestSweep:
    def small_config(self, **kw):
        base = dict(
            model="er",
            n_values=(10,),
            tests=("qap-ls", "edges"),
            trials=8,
            master_seed=7,
            p_values=(0.3,),
            s_values=(0.7,),
        )
        base.update(kw)
        return SweepConfig(**base)

    def test_deterministic_csv(self):
        cfg = self.small_config()
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_parallel_matches_serial(self):
        cfg = self.small_config(n_values=(8, 10), s_values=(0.5, 0.9))
        serial = run_sweep(cfg)
        os.environ["GRAPHCORR_WORKERS"] = "2"
        try:
            parallel = run_sweep(cfg)
        finally:
            del os.environ["GRAPHCORR_WORKERS"]
        assert serial == parallel

    def test_schema(self):
        cfg = self.small_config()
        text = run_sweep(cfg)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cfg.cells()) * len(cfg.tests)
        first = lines[1].split(",")
        assert first[0] == "er" and first[5] in cfg.tests

    def test_rows_in_grid_order(self):
        cfg = self.small_config(n_values=(8, 10), s_values=(0.5, 0.9), tests=("edges",))
        rows = sweep_rows(cfg)
        ns = [int(r.split(",")[1]) for r in rows]
        assert ns == sorted(ns)

    def test_gaussian_rho_zero_error_sum_near_one(self):
        cfg = SweepConfig(
            model="gaussian",
            n_values=(8,),
            tests=("qap-exact",),
            trials=40,
            master_seed=11,
            rho_values=(0.0,),
        )
        row = sweep_rows(cfg)[0].split(",")
        err_sum, ci = float(row[9]), float(row[10])
        assert abs(err_sum - 1.0) <= max(2 * ci, 0.05)

    def test_er_strong_signal_low_error(self):
        # isomorphic pair at s=1: the local-search statistic separates sharply
        cfg = SweepConfig(
            model="er",
            n_values=(30,),
            tests=("qap-ls",),
            trials=60,
            master_seed=12,
            p_values=(0.2,),
            s_values=(1.0,),
        )
        row = sweep_rows(cfg)[0].split(",")
        assert float(row[9]) <= 0.1

    def test_oracle_mode_never_worse_than_auto(self):
        auto = self.small_config(trials=30)
        oracle = self.small_config(trials=30, threshold_mode="oracle")
        for ra, ro in zip(sweep_rows(auto), sweep_rows(oracle)):
            assert float(ro.split(",")[9]) <= float(ra.split(",")[9]) + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.small_config(model="gaussian")  # edges test with gaussian
        with pytest.raises(ValueError):
            self.small_config(trials=0)
        with pytest.raises(ValueError):
            self.small_config(tests=("nope",))
        with pytest.raises(ValueError):
            SweepConfig(
                model="er", n_values=(), tests=("edges",), trials=1, master_seed=0,
                p_values=(0.5,), s_values=(0.5,),
            )

    def test_rejects_negative_master_seed(self):
        self.small_config(master_seed=0)
        with pytest.raises(FieldError, match=r"master_seed must be >= 0, got -4") as err:
            self.small_config(master_seed=-4)
        assert err.value.field == "master_seed"

    @pytest.mark.parametrize(
        "field, value",
        [("trials", True), ("trials", 1.5), ("master_seed", True), ("master_seed", 1.5), ("restarts", True),
         ("restarts", 2.5), ("ls_rounds", 1.5)],
    )
    def test_rejects_bool_or_float_counts(self, field, value):
        with pytest.raises(FieldError, match=re.escape(f"{field} must be an integer, got {value!r}")) as err:
            self.small_config(**{field: value})
        assert err.value.field == field

    def test_rejects_test_above_its_size_limit(self):
        self.small_config(tests=("lr",), n_values=(QAP_EXACT_DEFAULT_LIMIT,), s_values=(0.9,))
        with pytest.raises(ValueError, match="limited to n <= 10, got n=11"):
            self.small_config(tests=("lr",), n_values=(5, QAP_EXACT_DEFAULT_LIMIT + 1))
        with pytest.raises(ValueError, match="limited to n <= "):
            self.small_config(tests=("qap-exact",), n_values=(QAP_EXACT_DEFAULT_LIMIT + 1,))

    @pytest.mark.parametrize("tests, repeated", [(("lr", "lr"), ["lr"]), (("edges", "qap-ls", "edges"), ["edges"])])
    def test_rejects_a_repeated_test(self, tests, repeated):
        with pytest.raises(FieldError, match=re.escape(f"repeated tests: {repeated}")) as err:
            self.small_config(tests=tests, n_values=(6,), s_values=(0.9,))
        assert err.value.field == "tests"
        self.small_config(tests=("edges",), n_values=(6, 6), s_values=(0.9, 0.9))  # repeated grid values stay

    def test_lr_runs_up_to_the_exact_limit(self):
        config = SweepConfig(
            model="er", n_values=(8, 9, QAP_EXACT_DEFAULT_LIMIT), tests=("lr", "qap-exact"), trials=1,
            master_seed=3, p_values=(0.5,), s_values=(0.9,),
        )
        rows = [row.split(",") for row in sweep_rows(config)]
        assert [(row[1], row[5]) for row in rows] == [(n, t) for n in ("8", "9", "10") for t in ("lr", "qap-exact")]

    def test_rejects_test_on_unsupported_model(self):
        with pytest.raises(ValueError, match="does not apply to the gaussian model"):
            SweepConfig(
                model="gaussian", n_values=(6,), tests=("qap-ls", "edges"), trials=1,
                master_seed=0, rho_values=(0.5,),
            )

    def test_rejects_undefined_auto_threshold(self):
        # m p s^2 = 10 * 0.2 * 0.25 = 0.5 <= 1: threshold_er is undefined
        tiny = dict(n_values=(5,), tests=("qap-ls",), p_values=(0.2,), s_values=(0.5, 0.9))
        with pytest.raises(ValueError, match="no auto threshold for qap-ls"):
            self.small_config(**tiny)
        self.small_config(threshold_mode="oracle", **tiny)
        self.small_config(**dict(tiny, tests=("edges",)))

    def test_min_error_sum_helper(self):
        err, tau = min_error_sum([0, 1, 2, 3], [10, 11, 12, 13])
        assert err == 0.0 and 3 < tau <= 10
        err, _ = min_error_sum([0, 1], [0, 1])
        assert err == pytest.approx(1.0)


class TestSharedTable:
    """One all_statistic_values table per graph pair, shared by the exact tests of that pair."""

    @staticmethod
    def count_calls(monkeypatch, config, names=("all_statistic_values",)):
        calls = []
        for name in names:
            real = getattr(detect, name)
            monkeypatch.setattr(detect, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args))
        sweep_rows(config)
        return {name: calls.count(name) for name in names}

    def test_one_table_per_er_pair(self, monkeypatch):
        config = SweepConfig(
            model="er", n_values=(6,), tests=("lr", "qap-exact"), trials=3, master_seed=5,
            p_values=(0.4,), s_values=(0.8, 1.0),
        )
        pairs = 2 * config.trials * len(config.cells())
        assert self.count_calls(monkeypatch, config) == {"all_statistic_values": pairs}

    def test_sweep_calls_the_public_exact_functions_per_pair(self, monkeypatch):
        config = SweepConfig(
            model="er", n_values=(6,), tests=("lr", "qap-exact"), trials=2, master_seed=5,
            p_values=(0.4,), s_values=(0.8,),
        )
        names = ("qap_exact", "log_likelihood_ratio_exact", "all_statistic_values")
        assert self.count_calls(monkeypatch, config, names) == dict.fromkeys(names, 2 * config.trials)

    def test_edges_sweep_builds_no_table(self, monkeypatch):
        config = SweepConfig(
            model="er", n_values=(6,), tests=("edges",), trials=3, master_seed=5, p_values=(0.4,), s_values=(0.8,),
        )
        assert self.count_calls(monkeypatch, config) == {"all_statistic_values": 0}


class FakePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkers:
    def config(self, s_values):
        return SweepConfig(
            model="er", n_values=(6,), tests=("edges",), trials=2, master_seed=1, p_values=(0.4,), s_values=s_values,
        )

    @pytest.mark.parametrize("value", ["two", "2.5", "", " ", "0", "-1"])
    def test_rejects_non_integer_or_below_one(self, value, monkeypatch):
        monkeypatch.setenv("GRAPHCORR_WORKERS", value)
        with pytest.raises(ValueError) as err:
            sweep_rows(self.config((0.8,)))
        assert str(err.value) == f"GRAPHCORR_WORKERS must be an integer >= 1, got {value!r}"

    @pytest.mark.parametrize("value, cells, pool", [("5000", 2, [2]), ("4", 1, []), ("2", 3, [2]), ("1", 3, [])])
    def test_pool_is_capped_at_the_cell_count(self, value, cells, pool, monkeypatch):
        config = self.config((0.5, 0.7, 0.9)[:cells])
        serial = sweep_rows(config)
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.setenv("GRAPHCORR_WORKERS", value)
        assert sweep_rows(config) == serial
        assert FakePool.sizes == pool


class TestErrorEstimate:
    def test_fields(self):
        est = ErrorEstimate(0.2, 0.1, 0.05, 0.04, 100)
        assert est.err_sum == pytest.approx(0.3)
        assert est.ci == pytest.approx(math.hypot(0.05, 0.04))


class TestExactTv:
    def test_tiny_s_vanishes(self):
        assert exact_tv_er(ErParams(3, 0.4, 1e-4)) < 1e-3

    def test_s_one_in_unit_interval_and_matches_lr(self):
        params = ErParams(3, 0.5, 1.0)
        tv = exact_tv_er(params)
        assert 0 < tv < 1
        assert exact_min_error_er(params, "lr") == pytest.approx(1 - tv, abs=1e-9)

    def test_monotone_in_s(self):
        vals = [exact_tv_er(ErParams(3, 0.4, s)) for s in np.linspace(0.1, 1.0, 8)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_refusal(self):
        with pytest.raises(ExactLimitError):
            exact_tv_er(ErParams(5, 0.3, 0.5))

    def test_lr_table_normalizations(self):
        # the likelihood ratio integrates to one under the null, and the
        # planted table is a probability distribution
        params = ErParams(3, 0.45, 0.55)
        lr, q = exact_er_lr_table(params)
        qq = q[:, None] * q[None, :]
        assert float((qq * lr).sum()) == pytest.approx(1.0, abs=1e-9)
        assert float(qq.sum()) == pytest.approx(1.0, abs=1e-12)


class TestLrTableCache:
    def test_one_lr_table_per_params(self, monkeypatch):
        calls = {"moments": 0, "experiments": 0}
        for name, module in (("moments", moments), ("experiments", experiments)):
            real = module.edge_code_maps

            def counted(n, name=name, real=real):
                calls[name] += 1
                return real(n)

            monkeypatch.setattr(module, "edge_code_maps", counted)
        exact_er_lr_table.cache_clear()
        experiments._qap_stat_table.cache_clear()
        params = ErParams(4, 0.3, 0.7)
        for statistic in ("lr", "qap", "edges"):
            exact_min_error_er(params, statistic)
        exact_tv_er(params)
        # the LR table is built once; the qap statistic reads the code maps itself
        assert calls == {"moments": 1, "experiments": 1}

    def test_one_qap_table_per_n(self, monkeypatch):
        calls = []
        real = experiments.edge_code_maps
        monkeypatch.setattr(experiments, "edge_code_maps", lambda n: calls.append(n) or real(n))
        experiments._qap_stat_table.cache_clear()
        first = exact_min_error_er(ErParams(4, 0.3, 0.7), "qap")
        second = exact_min_error_er(ErParams(4, 0.5, 0.4), "qap")
        assert calls == [4]
        table = experiments._qap_stat_table(4)
        assert not table.flags.writeable
        experiments._qap_stat_table.cache_clear()
        assert exact_min_error_er(ErParams(4, 0.3, 0.7), "qap") == first
        assert exact_min_error_er(ErParams(4, 0.5, 0.4), "qap") == second
        assert np.array_equal(experiments._qap_stat_table(4), table)

    def test_cached_tables_are_read_only_and_unchanged(self):
        params = ErParams(3, 0.4, 0.6)
        exact_er_lr_table.cache_clear()
        lr, q = exact_er_lr_table(params)
        assert exact_er_lr_table(params)[0] is lr
        assert not lr.flags.writeable and not q.flags.writeable
        with pytest.raises(ValueError):
            lr[0, 0] = 0.0
        exact_er_lr_table(ErParams(3, 0.4, 0.7))
        lr2, q2 = exact_er_lr_table(params)
        assert lr2 is not lr
        assert np.array_equal(lr2, lr) and np.array_equal(q2, q)


class TestLrDominance:
    def test_lr_betters_other_tests(self):
        for params in (ErParams(3, 0.3, 0.6), ErParams(4, 0.5, 0.5)):
            lr = exact_min_error_er(params, "lr")
            assert lr <= exact_min_error_er(params, "qap") + 1e-12
            assert lr <= exact_min_error_er(params, "edges") + 1e-12


class TestCurves:
    def test_gaussian_boundary_value(self):
        rows = threshold_curves("gaussian", 100, 100)
        _, n, up, lo = rows[1].split(",")
        assert float(up) == pytest.approx(4 * math.log(100) / 99, rel=1e-9)
        assert float(lo) == pytest.approx(4 * math.log(100) / 100, rel=1e-9)

    def test_er_rows(self):
        rows = threshold_curves("er", 50, 52, p=0.2)
        assert len(rows) == 4
        parts = rows[1].split(",")
        denom = 0.2 * (math.log(5) - 1 + 0.2)
        assert float(parts[3]) == pytest.approx(2 * math.log(50) / (49 * denom), rel=1e-9)
        assert float(parts[5]) == pytest.approx(min(1 / (50 * 0.2), 0.01), rel=1e-9)

    def test_er_boundary_diverges_near_full_density(self):
        rows_mid = threshold_curves("er", 50, 50, p=0.5)
        rows_hi = threshold_curves("er", 50, 50, p=0.999999)
        up_mid = float(rows_mid[1].split(",")[3])
        up_hi = float(rows_hi[1].split(",")[3])
        assert up_hi > 1e4 * up_mid

    def test_p_star(self):
        p = find_p_star()
        assert abs(math.log(1 / p) - 2 * (1 - p)) < 1e-6
        assert round(p, 3) == 0.203

    def test_er_requires_p(self):
        with pytest.raises(ValueError):
            threshold_curves("er", 10, 20)

    @pytest.mark.parametrize("model, p", [("gaussian", None), ("er", 0.2)])
    def test_rejects_n_below_two(self, model, p):
        for n_min in (0, 1):
            with pytest.raises(ValueError, match="n_min >= 2"):
                threshold_curves(model, n_min, 5, p=p)
