import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from graphcorr.cli import _read_config, main
from graphcorr.graphs import (
    BinaryGraph,
    Permutation,
    read_binary_graph,
    read_permutation,
    write_binary_graph,
    write_permutation,
)
from graphcorr.moments import SECOND_MOMENT_EXACT_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenerate:
    def test_planted_er_writes_triplet(self, tmp_path, capsys):
        out = tmp_path / "draw"
        code, _ = run(
            capsys,
            "generate", "--model", "er", "--n", "12", "--p", "0.4", "--s", "0.8",
            "--hypothesis", "planted", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        a = read_binary_graph(out / "a.txt")
        b = read_binary_graph(out / "b.txt")
        pi = read_permutation(out / "pi.txt")
        assert a.n == b.n == pi.n == 12

    def test_null_gaussian(self, tmp_path, capsys):
        out = tmp_path / "draw"
        code, _ = run(
            capsys,
            "generate", "--model", "gaussian", "--n", "6", "--rho", "0.5",
            "--hypothesis", "null", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert (out / "a.txt").exists() and not (out / "pi.txt").exists()


class TestOrbitCommand:
    def test_census_table_and_dump(self, tmp_path, capsys):
        sig = tmp_path / "sigma.txt"
        write_permutation(Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5, 6, 7)]), sig)
        code, out = run(capsys, "orbit", "--sigma", str(sig))
        assert code == 0
        assert "M_2" in out and "B_{4,2}" in out and "S_4" in out
        dump = json.loads(out.strip().splitlines()[-1])
        assert dump["census"] == {"1": 2, "2": 3, "4": 5}

    def test_rejected_inputs_exit_with_one_line(self, tmp_path):
        sig = tmp_path / "sigma.txt"
        write_permutation(Permutation.from_cycles(4, [(0, 1)]), sig)
        bad = tmp_path / "bad.txt"
        bad.write_text("1 x 2\n")
        h = tmp_path / "h.txt"
        write_binary_graph(BinaryGraph(4, frozenset({(0, 2)})), h)  # half of the orbit {02, 12}
        cases = [
            (["--sigma", str(bad)], f"{bad}:1: expected a vertex number, got 'x'"),
            (["--sigma", str(sig), "--k", "0"], "k must be >= 1"),
            (["--sigma", str(sig), "--backbone", str(bad)], f"{bad}:1: "),
            (["--sigma", str(sig), "--backbone", str(h)], "graph is not a union of complete edge orbits"),
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as err:
                main(["orbit", *argv])
            assert str(err.value.code).startswith(message) and "\n" not in err.value.code

    def test_walks_node_cycles_a_bounded_number_of_times(self, tmp_path, capsys, monkeypatch):
        from graphcorr import orbits

        sig = tmp_path / "sigma.txt"
        write_permutation(Permutation.identity(30), sig)
        calls = []
        real = orbits.node_cycles
        monkeypatch.setattr(orbits, "node_cycles", lambda s: calls.append(s) or real(s))
        code, out = run(capsys, "orbit", "--sigma", str(sig))
        assert code == 0 and json.loads(out.splitlines()[-1])["orbit_count"] == 435
        assert len(calls) <= 2  # cycle_type, and one lookup shared by all 435 orbits


class TestTestCommand:
    def test_qap_exact_decision(self, tmp_path, capsys):
        from graphcorr.sampling import ErParams, sample_planted_er

        a, b, _ = sample_planted_er(ErParams(12, 0.5, 1.0), 4)
        write_binary_graph(a, tmp_path / "a.txt")
        write_binary_graph(b, tmp_path / "b.txt")
        code, out = run(
            capsys,
            "test", "--stat", "qap-ls", "--a", str(tmp_path / "a.txt"),
            "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "12",
            "--p", "0.5", "--s", "1.0",
        )
        assert code == 0 and "decision planted" in out

    def test_explicit_threshold(self, tmp_path, capsys):
        from graphcorr.sampling import ErParams, sample_null_er

        a, b = sample_null_er(ErParams(8, 0.3, 0.5), 5)
        write_binary_graph(a, tmp_path / "a.txt")
        write_binary_graph(b, tmp_path / "b.txt")
        code, out = run(
            capsys,
            "test", "--stat", "qap-exact", "--a", str(tmp_path / "a.txt"),
            "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "8",
            "--p", "0.3", "--s", "0.5", "--threshold", "1e9",
        )
        assert code == 0 and "decision null" in out

    def test_threshold_applies_to_edge_count(self, tmp_path, capsys):
        from graphcorr.sampling import ErParams, sample_null_er

        a, b = sample_null_er(ErParams(8, 0.3, 0.5), 5)
        write_binary_graph(a, tmp_path / "a.txt")
        write_binary_graph(b, tmp_path / "b.txt")
        base = [
            "test", "--stat", "edges", "--a", str(tmp_path / "a.txt"),
            "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "8",
            "--p", "0.3", "--s", "0.5",
        ]
        _, out = run(capsys, *base, "--threshold", "1")
        assert "threshold 1 decision null" in out
        _, out = run(capsys, *base, "--threshold=-1e9")
        assert "decision planted" in out

    @pytest.mark.parametrize(
        "value, message",
        [(v, f"--threshold must be 'auto' or a finite number, got {v!r}") for v in ("nan", "inf", "-inf", "-Infinity")]
        + [(v, f"could not convert string to float: {v!r}") for v in ("abc", "")],
    )
    def test_bad_threshold_exits_with_one_line(self, tmp_path, monkeypatch, value, message):
        from graphcorr import detect

        calls = []
        monkeypatch.setattr(detect, "qap_exact", lambda *args: calls.append(args))
        write_binary_graph(BinaryGraph.complete(5), tmp_path / "a.txt")
        write_binary_graph(BinaryGraph.complete(5), tmp_path / "b.txt")
        with pytest.raises(SystemExit) as err:
            main([
                "test", "--stat", "qap-exact", "--a", str(tmp_path / "a.txt"),
                "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "5",
                "--p", "0.3", "--s", "0.5", f"--threshold={value}",
            ])
        assert err.value.code == message
        assert calls == []  # rejected before the statistic runs

    def test_undefined_auto_threshold_exits_with_one_line(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            write_binary_graph(BinaryGraph.complete(5), tmp_path / name)
        with pytest.raises(SystemExit) as err:
            main([
                "test", "--stat", "qap-ls", "--a", str(tmp_path / "a.txt"),
                "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "5",
                "--p", "0.3", "--s", "0.5",
            ])
        assert err.value.code == "threshold requires m*p*s^2 > 1, got 0.75"

    @pytest.mark.parametrize("s", ["0.5", "1"])
    def test_lr_decides_on_the_log_scale(self, tmp_path, capsys, s):
        run(capsys, "generate", "--model", "er", "--n", "7", "--p", "0.9", "--s", "0.9",
            "--hypothesis", "planted", "--seed", "3", "--out", str(tmp_path))
        code, out = run(
            capsys,
            "test", "--stat", "lr", "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "a.txt"),
            "--model", "er", "--n", "7", "--p", "1e-40", "--s", s,
        )
        stat = re.fullmatch(r"statistic (\S+) threshold 0 decision planted\n", out).group(1)
        assert code == 0 and math.isfinite(float(stat)) and float(stat) > 709  # its exp overflows a float

    def test_lr_runs_up_to_the_exact_limit(self, tmp_path, capsys):
        from graphcorr.sampling import ErParams, sample_planted_er

        for n in (10, 11):
            a, b, _ = sample_planted_er(ErParams(n, 0.5, 0.9), 4)
            write_binary_graph(a, tmp_path / f"a{n}.txt")
            write_binary_graph(b, tmp_path / f"b{n}.txt")
        argv = ["test", "--stat", "lr", "--model", "er", "--p", "0.5", "--s", "0.9"]
        code, out = run(capsys, *argv, "--n", "10", "--a", str(tmp_path / "a10.txt"), "--b", str(tmp_path / "b10.txt"))
        assert code == 0 and re.fullmatch(r"statistic \S+ threshold 0 decision (planted|null)\n", out)
        with pytest.raises(SystemExit) as err:
            main([*argv, "--n", "11", "--a", str(tmp_path / "a11.txt"), "--b", str(tmp_path / "b11.txt")])
        assert err.value.code == "the lr test is limited to n <= 10, got n=11"

    def test_edge_count_refused_for_gaussian(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="does not apply to the gaussian model"):
            main([
                "test", "--stat", "edges", "--a", str(tmp_path / "a.txt"),
                "--b", str(tmp_path / "b.txt"), "--model", "gaussian", "--n", "6",
                "--rho", "0.5",
            ])


    def test_size_mismatch_exits_with_one_line(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            write_binary_graph(BinaryGraph.complete(5), tmp_path / name)
        with pytest.raises(SystemExit) as err:
            main([
                "test", "--stat", "edges", "--a", str(tmp_path / "a.txt"),
                "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "7",
                "--p", "0.3", "--s", "0.5",
            ])
        assert err.value.code == (
            f"--n 7 does not match the graph files: {tmp_path / 'a.txt'} has n=5, {tmp_path / 'b.txt'} has n=5"
        )

    def test_bad_restarts_exit_with_one_line(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            write_binary_graph(BinaryGraph.complete(5), tmp_path / name)
        with pytest.raises(SystemExit) as err:
            main([
                "test", "--stat", "qap-ls", "--a", str(tmp_path / "a.txt"),
                "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "5",
                "--p", "0.3", "--s", "0.5", "--restarts", "0",
            ])
        assert err.value.code == "restarts must be >= 1, got 0"

    def test_unreadable_graph_file_exits_with_one_line(self, tmp_path):
        write_binary_graph(BinaryGraph.complete(5), tmp_path / "a.txt")
        (tmp_path / "b.txt").write_text("")
        with pytest.raises(SystemExit) as err:
            main([
                "test", "--stat", "edges", "--a", str(tmp_path / "a.txt"),
                "--b", str(tmp_path / "b.txt"), "--model", "er", "--n", "5",
                "--p", "0.3", "--s", "0.5",
            ])
        assert str(err.value.code).startswith(f"{tmp_path / 'b.txt'}:1: ")
        assert "\n" not in str(err.value.code)

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_weight_file_exits_with_one_line(self, tmp_path, entry):
        (tmp_path / "a.txt").write_text(f"3\n0,1,{entry}\n1,0,2\n{entry},2,0\n")
        (tmp_path / "b.txt").write_text("3\n0,1,2\n1,0,2\n2,2,0\n")
        with pytest.raises(SystemExit) as err:
            main([
                "test", "--stat", "qap-exact", "--a", str(tmp_path / "a.txt"),
                "--b", str(tmp_path / "b.txt"), "--model", "gaussian", "--n", "3", "--rho", "0.5",
            ])
        assert err.value.code == f"{tmp_path / 'a.txt'}: weight matrix must be finite"


class TestSeedFlags:
    MODEL = ["--model", "er", "--n", "5", "--p", "0.3", "--s", "0.5"]
    COMMANDS = {
        "generate": ["generate", *MODEL, "--hypothesis", "null", "--out", "unused"],
        "test": ["test", "--stat", "edges", "--a", "unused", "--b", "unused", *MODEL],
        "moments": ["moments", *MODEL],
        "verify": ["verify", "--suite", "no-such-criterion"],
    }

    @pytest.mark.parametrize(
        "command,flag",
        [("generate", "--seed"), ("generate", "--stream"), ("test", "--seed"), ("moments", "--seed"), ("verify", "--seed")],
    )
    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_rejected_seed_exits_with_one_line(self, tmp_path, monkeypatch, command, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([*self.COMMANDS[command], f"{flag}={value}"])
        assert err.value.code == f"{flag} must be an integer >= 0, got {value!r}"
        assert not (tmp_path / "unused").exists()


class TestModelParams:
    @pytest.mark.parametrize(
        "command, message",
        [
            (["generate", "--model", "er", "--n", "5", "--p", "2", "--s", "0.5",
              "--hypothesis", "null", "--out", "unused"], "p must lie in (0, 1)"),
            (["test", "--stat", "edges", "--a", "unused", "--b", "unused", "--model", "er",
              "--n", "5", "--p", "0.3", "--s", "1.5"], "s must lie in (0, 1]"),
            (["moments", "--model", "gaussian", "--n", "5", "--rho", "1"], "rho must lie in [0, 1)"),
            (["moments", "--model", "er", "--n", "0", "--p", "0.3", "--s", "0.5"], "n must be positive"),
        ],
    )
    def test_rejected_parameters_exit_with_one_line(self, command, message):
        with pytest.raises(SystemExit) as err:
            main(command)
        assert err.value.code == message


class TestGfCommand:
    def test_margin_nonnegative(self, tmp_path, capsys):
        sig = tmp_path / "sigma.txt"
        write_permutation(Permutation.from_cycles(8, [(0, 1), (2, 3), (4, 5, 6, 7)]), sig)
        code, out = run(capsys, "gf", "--sigma", str(sig), "--k", "4", "--s", "0.3")
        assert code == 0 and "margin" in out
        code, out = run(capsys, "gf", "--sigma", str(sig), "--k", "4", "--s", "0.3", "--forest")
        assert code == 0

    def test_rejected_inputs_exit_with_one_line(self, tmp_path):
        sig = tmp_path / "sigma.txt"
        write_permutation(Permutation.identity(13), sig)
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1 2\n")
        long = tmp_path / "long.txt"
        cycles = [tuple(range(30000)), tuple(range(30000, 60001)), (60001, 60002)]
        write_permutation(Permutation.from_cycles(60003, cycles), long)
        cases = [
            (["--sigma", str(sig), "--k", "1", "--s", "0.3"], "13 short node cycles exceed the counting limit 12"),
            (["--sigma", str(long), "--k", "30001", "--s", "0.3"], "30003 short orbits on 3 node cycles need 6.8e+10 work units"),
            (["--sigma", str(sig), "--k", "1", "--s", "0.3", "--forest"], "13 short node cycles exceed"),
            (["--sigma", str(bad), "--k", "1", "--s", "0.3"], f"{bad}: mapping is not a bijection"),
            (["--sigma", str(sig), "--k", "0", "--s", "0.3"], "k must be >= 1"),
        ]
        for argv, message in cases:
            with pytest.raises(SystemExit) as err:
                main(["gf", *argv])
            assert str(err.value.code).startswith(message) and "\n" not in err.value.code

    def test_dense_and_huge_k_answer_at_once(self, tmp_path, capsys, deadline):
        # the identity on 9 nodes has 36 orbits at k = 1 and 66,617,234
        # pseudoforests; levels above n hold no node cycle
        dense, small = tmp_path / "dense.txt", tmp_path / "small.txt"
        write_permutation(Permutation.identity(9), dense)
        write_permutation(Permutation.from_cycles(4, [(0, 1)]), small)
        with deadline(1.0, "gf on the identity on 9 nodes"):
            code, out = run(capsys, "gf", "--sigma", str(dense), "--k", "1", "--s", "0.3")
        assert code == 0 and out.startswith("pseudoforest generating function: brute ")
        with deadline(2.0, "gf at --k 99999999999"):
            huge = run(capsys, "gf", "--sigma", str(small), "--k", "99999999999", "--s", "0.3")
        assert huge == run(capsys, "gf", "--sigma", str(small), "--k", "4", "--s", "0.3") and huge[0] == 0


class TestEnumerateCommand:
    def test_huge_k_answers_at_once(self, capsys, deadline):
        with deadline(2.0, "enumerate at --k 10**12"):
            code, out = run(capsys, "enumerate", "--cycle-type", "1:4", "--k", str(10**12), "--a", "1:2")
        assert code == 0
        assert out == run(capsys, "enumerate", "--cycle-type", "1:4", "--k", "4", "--a", "1:2")[1]

    def test_stream_summary(self, capsys):
        code, out = run(
            capsys,
            "enumerate", "--cycle-type", "2:2,4:1", "--k", "4", "--a", "2:1",
            "--b", "2:1", "--validate",
        )
        assert code == 0
        assert "stream length" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--cycle-type", "2"], "--cycle-type: expected length:count of nonnegative integers, got '2'"),
            (["--cycle-type", "2:1,x:1"], "--cycle-type: expected length:count of nonnegative integers, got 'x:1'"),
            (["--cycle-type", "3:-1"], "--cycle-type: expected length:count of nonnegative integers, got '3:-1'"),
            (["--cycle-type", "2:1", "--a", "2"], "--a: expected length:count of nonnegative integers, got '2'"),
            (["--cycle-type", "2:2", "--a", "2:-1"], "--a: expected length:count of nonnegative integers, got '2:-1'"),
            (["--cycle-type", "2:1", "--d", "2:1:1"], "--d: expected length:count of nonnegative integers, got '2:1:1'"),
            (["--cycle-type", "0:1"], "need orbit length >= 1 and count >= 0, got 0:1"),
            (["--cycle-type", "2:1,5:0"], "orbit length 5 exceeds n=2"),
            (["--cycle-type", "2:1", "--k", "0"], "k must be >= 1"),  # the last --k wins
            (["--cycle-type", "2:1", "--k", "-1"], "k must be >= 1"),
            (["--cycle-type", "2:1,2:2"], "--cycle-type: length 2 is given twice"),
            (["--cycle-type", "2:2", "--a", "2:5,2:1"], "--a: length 2 is given twice"),
        ],
    )
    def test_rejected_counts_exit_with_one_line(self, argv, message):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--k", "2", *argv])
        assert err.value.code == message


class TestSweepCommand:
    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "model=er\nn=8\ntests=edges\ntrials=5\nseed=9\np=0.4\ns=0.8\n"
        )
        code, out = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0].startswith("model,n,rho")

    def test_out_file_identical_to_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model=er\nn=8\ntests=edges\ntrials=5\nseed=9\np=0.4\ns=0.8\n")
        _, text = run(capsys, "sweep", "--config", str(cfg))
        out = tmp_path / "rows.csv"
        run(capsys, "sweep", "--config", str(cfg), "--out", str(out))
        assert out.read_text() == text

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_worker_count_exits_with_one_line_before_the_run(self, tmp_path, value, monkeypatch):
        from graphcorr import experiments

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model=er\nn=8\ntests=edges\ntrials=5\nseed=9\np=0.4\ns=0.8\n")
        monkeypatch.setenv("GRAPHCORR_WORKERS", value)
        monkeypatch.setattr(experiments, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg)])
        assert err.value.code == f"GRAPHCORR_WORKERS must be an integer >= 1, got {value!r}"

    def test_errors_inside_the_run_keep_their_traceback(self, tmp_path, monkeypatch):
        from graphcorr import experiments

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model=er\nn=8\ntests=edges\ntrials=5\nseed=9\np=0.4\ns=0.8\n")
        monkeypatch.setattr(experiments, "run_sweep", lambda *a, **k: int("boom"))
        with pytest.raises(ValueError, match="boom"):
            main(["sweep", "--config", str(cfg)])


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv, at",
        [
            (["orbit", "--sigma", "{missing}"], "{missing}"),
            (["orbit", "--sigma", "{sigma}", "--backbone", "{missing}"], "{missing}"),
            (["gf", "--sigma", "{dir}", "--k", "2", "--s", "0.3"], "{dir}"),
            (["test", "--stat", "edges", "--a", "{missing}", "--b", "{missing}", "--model", "er",
              "--n", "4", "--p", "0.3", "--s", "0.5"], "{missing}"),
            (["sweep", "--config", "{missing}"], "{missing}"),
            (["generate", "--model", "er", "--n", "4", "--p", "0.3", "--s", "0.5",
              "--hypothesis", "null", "--out", "{sigma}"], "{sigma}"),
        ],
        ids=["orbit-sigma", "orbit-backbone", "gf-sigma-directory", "test-graphs", "sweep-config", "generate-out-file"],
    )
    def test_missing_or_wrong_kind_of_file_exits_with_one_line(self, tmp_path, argv, at):
        sigma = tmp_path / "sigma.txt"
        write_permutation(Permutation.identity(4), sigma)
        names = {"missing": tmp_path / "nope", "dir": tmp_path, "sigma": sigma}
        with pytest.raises(SystemExit) as err:
            main([a.format(**names) for a in argv])
        assert str(err.value.code).startswith(f"{at.format(**names)}: ")
        assert "\n" not in str(err.value.code)

    @pytest.mark.parametrize("out", ["missing/rows.csv", "."], ids=["missing-directory", "a-directory"])
    def test_sweep_out_is_refused_before_the_run(self, tmp_path, monkeypatch, out):
        from graphcorr import experiments

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model=er\nn=8\ntests=edges\ntrials=5\nseed=9\np=0.4\ns=0.8\n")
        monkeypatch.setattr(experiments, "run_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
        out = tmp_path / out
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert err.value.code == f"--out {out}: not a file in an existing directory"
        assert not (tmp_path / "missing").exists()

    def test_empty_permutation_file_exits_with_one_line(self, tmp_path):
        empty = tmp_path / "sigma.txt"
        empty.write_text("")
        with pytest.raises(SystemExit) as err:
            main(["orbit", "--sigma", str(empty)])
        assert err.value.code == f"{empty}:1: empty file, expected a permutation"


class TestRepeatedMain:
    """Commands run one after another in one process behave as each does alone."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_commands_in_sequence_match_single_runs(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model=er\nn=6\ntests=lr,qap-exact\ntrials=3\nseed=9\np=0.4\ns=0.8\n")
        commands = [["tv", "--n", "3", "--p", "0.5", "--s", "0.5"], ["sweep", "--config", str(cfg)], ["sweep"]]
        alone = [self.outcome(capsys, argv) for argv in commands]
        assert alone[2][0] == 2 and "--config" in alone[2][2]
        assert [self.outcome(capsys, argv) for argv in commands] == alone
        assert [self.outcome(capsys, argv) for argv in reversed(commands)] == alone[::-1]

    def test_dispatch_sees_a_patched_command(self, capsys, monkeypatch):
        from graphcorr import cli

        run(capsys, "tv", "--n", "3", "--p", "0.5", "--s", "0.5")
        monkeypatch.setattr(cli, "_cmd_tv", lambda args: print(f"patched n={args.n}") or 7)
        code, out = run(capsys, "tv", "--n", "3", "--p", "0.5", "--s", "0.5")
        assert (code, out) == (7, "patched n=3\n")


class TestSweepConfig:
    def test_rejected_config_exits_with_one_line(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model=er\nn=8\ntests=edges\ntrials=0\np=0.4\ns=0.8\n")
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(cfg)])
        assert err.value.code == f"{cfg}:4: trials must be >= 1"

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"A sweep config file looks like:\n\n```\n(.*?)```", readme, re.S).group(1)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(block)
        config = _read_config(cfg)
        assert config.model == "er" and config.n_values == (30, 50)
        assert config.tests == ("qap-ls", "edges") and config.s_values == (0.6, 1.0)
        assert config.threshold_mode == "auto" and config.master_seed == 42

    def test_defaults_come_from_sweep_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# comment line\nmodel=er  # trailing\nn=8\ntests=edges\ntrials=5\np=0.4\ns=0.8\n")
        config = _read_config(cfg)
        assert (config.master_seed, config.threshold_mode, config.restarts, config.ls_rounds) == (
            0, "auto", 20, 10,
        )

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("model=er\nn=8\ntreshold=oracle\n", 3, "unknown key 'treshold'"),
            ("model=er\nn=8\nmodel=gaussian\n", 3, "duplicate key 'model', first set on line 1"),
            ("model=er\n\nn 8\n", 3, "expected key=value"),
            ("model=er\nn=8\ntests=edges\np=0.4\ns=0.8\n# end\n", 6, "missing required keys trials"),
            ("model=er\nn=8,x\n", 2, "bad value for 'n'"),
            (
                "model=er\nn=8\nthreshold=oracel\ntests=edges\ntrials=5\np=0.4\ns=0.8\n",
                3,
                "threshold_mode must be 'auto' or 'oracle'",
            ),
            ("model=er\nn=8\ntests=edges,qap\ntrials=5\np=0.4\ns=0.8\n", 3, "unknown tests: ['qap']"),
            ("model=er\nn=8\ntests=lr,lr\ntrials=5\np=0.4\ns=0.8\n", 3, "repeated tests: ['lr']"),
            ("model=er\nn=8\ntests=edges\ntrials=5\np=0.4\n# no s\n", 6, "empty parameter grid"),
            ("model=er\nn=8\ntests=qap-ls\nrestarts=0\ntrials=5\np=0.4\ns=0.8\n", 4, "restarts must be >= 1"),
            ("model=er\nn=8\nls_rounds=-1\ntests=qap-ls\ntrials=5\np=0.4\ns=0.8\n", 3, "ls_rounds must be >= 0"),
            ("model=er\nn=8\ntests=edges\ntrials=5\np=0.4\ns=0.8\nseed=-4\n", 7, "master_seed must be >= 0, got -4"),
            # a grid value the model refuses is named at its own key's line, not the config's last
            ("model=er\nn=8\np=2\ntests=edges\ntrials=5\ns=0.8\nseed=1\n", 3, "p must lie in (0, 1)"),
            ("model=er\nn=8\np=0.4\ns=nan\ntests=edges\ntrials=5\nseed=1\n", 4, "s must lie in (0, 1]"),
            ("model=er\nn=0\np=0.4\ns=0.8\ntests=edges\ntrials=5\nseed=1\n", 2, "n must be positive"),
            ("model=gaussian\nn=8\nrho=1.5\ntests=qap-ls\ntrials=5\nseed=1\n", 3, "rho must lie in [0, 1)"),
            # so is a grid key of the other model
            ("model=er\nn=8\nrho=0.5\np=0.4\ns=0.8\ntests=edges\ntrials=5\n", 3, "rho_values do not apply to model 'er'"),
            ("model=gaussian\nn=8\nrho=0.5\ntests=qap-ls\np=0.4\ntrials=5\n", 5, "p_values do not apply to model 'gaussian'"),
            ("model=gaussian\nn=8\ns=0.8\nrho=0.5\ntests=qap-ls\ntrials=5\n", 3, "s_values do not apply to model 'gaussian'"),
            # an auto threshold the tests cannot set is named at the tests line
            ("model=er\nn=5\ntests=qap-ls\np=0.2\ns=0.5\ntrials=1\nseed=3\n", 3, "no auto threshold for qap-ls"),
            ("model=er\nn=5\ntests=qap-ls\nthreshold=auto\np=0.2\ns=0.5\ntrials=1\nseed=3\n", 3, "no auto threshold for qap-ls"),
        ],
    )
    def test_rejection_names_path_and_line(self, tmp_path, text, line, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError) as err:
            _read_config(cfg)
        assert str(err.value).startswith(f"{cfg}:{line}: ")
        assert message in str(err.value)


class TestOtherCommands:
    def test_tv(self, capsys):
        code, out = run(capsys, "tv", "--n", "3", "--p", "0.5", "--s", "0.5")
        assert code == 0 and "exact TV" in out

    def test_curves(self, capsys):
        code, out = run(capsys, "curves", "--model", "gaussian", "--n-min", "10", "--n-max", "12")
        assert code == 0 and len(out.strip().splitlines()) == 4

    @pytest.mark.parametrize(
        "command, message",
        [
            (["tv", "--n", "3", "--p", "2", "--s", "0.5"], "p must lie in (0, 1)"),
            (["tv", "--n", "5", "--p", "0.3", "--s", "0.5"],
             "exact enumeration over graph pairs supports n <= 4, got n=5"),
            (["curves", "--model", "er", "--n-min", "2", "--n-max", "3"],
             "er curves need a density p in (0,1)"),
            (["curves", "--model", "gaussian", "--n-min", "1", "--n-max", "3"],
             "curves need n_min >= 2, got 1"),
            (["curves", "--model", "er", "--p", "0.1", "--n-min", "1", "--n-max", "3"],
             "curves need n_min >= 2, got 1"),
            (["curves", "--model", "er", "--p", "0.1", "--n-min", "10", "--n-max", "5"],
             "curves need n_max >= n_min, got 5 < 10"),
            (["curves", "--model", "gaussian", "--n-min", "3", "--n-max", "2"],
             "curves need n_max >= n_min, got 2 < 3"),
        ],
    )
    def test_rejected_tv_and_curves_exit_with_one_line(self, command, message):
        with pytest.raises(SystemExit) as err:
            main(command)
        assert err.value.code == message

    def test_moments(self, capsys):
        code, out = run(
            capsys, "moments", "--model", "er", "--n", "5", "--p", "0.3", "--s", "0.5", "--table"
        )
        assert code == 0 and "cycle_type,weight,factor" in out

    def test_moments_falls_back_beyond_exact_limit(self, capsys):
        code, out = run(
            capsys, "moments", "--model", "er", "--n", str(SECOND_MOMENT_EXACT_LIMIT + 1), "--p", "0.3", "--s", "0.5",
            "--trials", "50",
        )
        assert code == 0 and out.splitlines()[1].split(",")[3] == "False"

    @pytest.mark.parametrize(
        "n, line",
        [(8, "gaussian,8,inf,True,"), (SECOND_MOMENT_EXACT_LIMIT + 1, f"gaussian,{SECOND_MOMENT_EXACT_LIMIT + 1},inf,False,inf")],
    )
    def test_moments_past_the_float_range_print_inf(self, capsys, n, line):
        code, out = run(capsys, "moments", "--model", "gaussian", "--n", str(n), "--rho", "0.9999999999999999", "--trials", "20")
        assert code == 0 and out.splitlines()[1] == line

    def test_moments_rejects_one_trial_with_one_line(self):
        with pytest.raises(SystemExit) as err:
            main(["moments", "--model", "er", "--n", str(SECOND_MOMENT_EXACT_LIMIT + 1), "--p", "0.3", "--s", "0.5", "--trials", "1"])
        assert err.value.code == "trials must be >= 2 for a confidence half-width"

    def test_moments_walks_exactly_to_n_40(self, capsys):
        # Monte Carlo reads 1.25 +- 0.02 at this cell, far from the exact value
        code, out = run(capsys, "moments", "--model", "er", "--n", "40", "--p", "0.3", "--s", "0.5")
        assert code == 0 and out.splitlines()[1] == "er,40,141265.039794,True,"

    def test_moments_does_not_hide_other_errors(self, monkeypatch):
        from graphcorr import cli

        def broken(params):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(cli, "second_moment_exact", broken)
        with pytest.raises(ZeroDivisionError):
            main(["moments", "--model", "er", "--n", "5", "--p", "0.3", "--s", "0.5"])

    def test_orbit_table_flag_removed(self, tmp_path, capsys):
        sig = tmp_path / "sigma.txt"
        write_permutation(Permutation.identity(3), sig)
        with pytest.raises(SystemExit):
            main(["orbit", "--sigma", str(sig), "--table"])

    def test_verify_single_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "02-orbit-table")
        assert code == 0 and out.startswith("[PASS]")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_verify_refuses_a_suite_that_matches_nothing(self, capsys, monkeypatch, flags):
        from graphcorr import acceptance

        monkeypatch.setattr(acceptance, "run_criterion", lambda *args, **kwargs: pytest.fail("a criterion ran"))
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "zzz", *flags])
        names = ", ".join(name for name, _ in acceptance.CRITERIA)
        assert err.value.code == f"--suite 'zzz' matches no criterion; known: {names}"
        assert len(acceptance.CRITERIA) == 12 and capsys.readouterr().out == ""
        with pytest.raises(ValueError, match="matches no criterion"):
            acceptance.verify(suite="zzz")

    def test_verify_json(self, capsys):
        code, out = run(capsys, "verify", "--suite", "02-orbit-table", "--json")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 1
        record = json.loads(lines[0])
        assert list(record) == ["name", "passed", "measured", "seconds"]
        assert record["name"] == "02-orbit-table" and record["passed"] is True
        assert record["measured"].startswith("decomposition ") and record["seconds"] >= 0

    def test_verify_json_exit_code_follows_the_criteria(self, capsys, monkeypatch):
        from graphcorr import acceptance

        monkeypatch.setattr(acceptance, "CRITERIA", (("02-orbit-table", lambda seed: (False, "forced")),))
        code, out = run(capsys, "verify", "--json")
        assert code == 1 and json.loads(out)["passed"] is False

    def test_verify_json_takes_a_numpy_bool(self, capsys, monkeypatch):
        # criterion 07 reports its verdict as a numpy bool_, which json cannot encode
        from graphcorr import acceptance

        monkeypatch.setattr(acceptance, "CRITERIA", (("07-poisson-cycles", lambda seed: (np.bool_(True), "fast")),))
        code, out = run(capsys, "verify", "--json")
        assert code == 0 and json.loads(out)["passed"] is True
