import json

import pytest

from mwisim.cli import main
from mwisim.graphs import load


def run_cli(args):
    return main(args)


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "c10.g"
    assert run_cli(["gen", "--family", "cycle", "--n", "10",
                    "--weights", "unit", "--graph-seed", "1",
                    "-o", str(out)]) == 0
    g = load(out.read_text())
    assert g.n == 10 and g.m == 10


def test_gen_stdout(capsys):
    assert run_cli(["gen", "--family", "path", "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "3 2"


def test_gen_invalid_family_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--family", "moebius", "--n", "5"])
    assert exc.value.code == 2


def test_run_jsonl_and_determinism(tmp_path, capsys):
    args = ["run", "--family", "gnp", "--n", "14", "--p", "0.3",
            "--weights", "uniform_range", "--graph-seed", "4",
            "--alg", "boost-heavy", "--eps", "0.5", "--seeds", "0:3",
            "--oracle"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    second = capsys.readouterr().out
    records = [json.loads(line) for line in first.splitlines()]
    assert len(records) == 3
    for r in records:
        assert r["oracle"]["opt"] >= r["result"]["weight"]
        assert 1.5 * r["max_degree"] * r["result"]["weight"] >= r["oracle"]["opt"]
    # byte-identical apart from wall times
    strip = lambda s: [
        {k: v for k, v in json.loads(line).items() if k != "wall_time_s"}
        for line in s.splitlines()]
    assert strip(first) == strip(second)


def test_run_with_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert run_cli(["gen", "--family", "star", "--n", "8", "-o", str(path)]) == 0
    assert run_cli(["run", "--graph", str(path), "--alg", "luby",
                    "--seeds", "7"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["graph"]["file"] == str(path)
    assert rec["result"]["size"] >= 1


def test_run_boppana_edgeless(capsys):
    assert run_cli(["run", "--family", "gnp", "--n", "5", "--p", "0",
                    "--alg", "boppana", "--c", "2", "--seeds", "0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["result"]["size"] == 5


def test_run_missing_params_usage_errors(capsys):
    assert run_cli(["run", "--family", "cycle", "--n", "10",
                    "--alg", "arb", "--seeds", "0"]) == 2
    assert run_cli(["run", "--family", "cycle", "--n", "10",
                    "--alg", "boost-heavy", "--seeds", "0"]) == 2
    assert run_cli(["run", "--graph", "/nonexistent.g", "--alg", "luby",
                    "--seeds", "0"]) == 2
    assert run_cli(["run", "--alg", "luby", "--seeds", "0"]) == 2  # no source


def test_run_csv_projection(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    csv = tmp_path / "r.csv"
    assert run_cli(["run", "--family", "cycle", "--n", "12",
                    "--alg", "heavy", "--seeds", "0:2",
                    "-o", str(out), "--csv", str(csv)]) == 0
    assert len(out.read_text().splitlines()) == 2
    assert len(csv.read_text().splitlines()) == 3


def test_run_seed_list_forms(capsys):
    assert run_cli(["run", "--family", "path", "--n", "6", "--alg", "luby",
                    "--seeds", "3,5"]) == 0
    recs = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert [r["seed"] for r in recs] == [3, 5]


def test_reduce_jsonl(capsys):
    assert run_cli(["reduce", "--n0", "12", "--n1", "4", "--seeds", "0:2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["n0"] == 12 and rec["mis_size"] >= 4
    assert rec["r_large"] > rec["r_small"]


def test_cross_process_determinism(tmp_path):
    import os
    import subprocess
    import sys

    args = [sys.executable, "-m", "mwisim.cli", "run", "--family", "gnp",
            "--n", "30", "--p", "0.2", "--weights", "heavy_tail",
            "--graph-seed", "11", "--alg", "sparse", "--seeds", "0:3"]
    outs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append([
            {k: v for k, v in json.loads(line).items() if k != "wall_time_s"}
            for line in proc.stdout.splitlines()])
    assert outs[0] == outs[1]
    assert len(outs[0]) == 3


def test_corrupt_graph_file_is_invariant_failure(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("1 0\n0 -5\n")  # negative weight
    assert run_cli(["run", "--graph", str(bad), "--alg", "luby",
                    "--seeds", "0"]) == 3
    assert "negative weight" in capsys.readouterr().err


@pytest.mark.parametrize("big", [2**63, 5 + 2**64])
def test_node_id_past_int64_is_invariant_failure(big, tmp_path, capsys):
    # 5 + 2**64 would share node 5's random stream, which is masked to 64 bits
    wide = tmp_path / "wide.g"
    wide.write_text(f"2 1\n5 1\n{big} 1\n5 {big}\n")
    assert run_cli(["run", "--graph", str(wide), "--alg", "boppana",
                    "--seeds", "0"]) == 3
    err = capsys.readouterr().err
    assert f"node identifier {big} exceeds 64-bit range" in err


@pytest.mark.parametrize("node_line,reason", [
    ("1 -3", "line 3: negative weight -3 at node 1"),
    (f"{2**63} 1", f"line 3: node identifier {2**63} exceeds 64-bit range"),
    (f"1 {2**63}", "line 3: weight of node 1 exceeds 64-bit range"),
], ids=["negative-weight", "id-past-int64", "weight-past-int64"])
def test_bad_node_line_is_blamed_on_its_line(node_line, reason, tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text(f"2 0\n0 4\n{node_line}\n")
    assert run_cli(["run", "--graph", str(bad), "--alg", "luby",
                    "--seeds", "0"]) == 3
    assert reason in capsys.readouterr().err


def test_congest_violation_exit_code(tmp_path, capsys):
    # 20-bit weights cannot fit the 32-bit budget of a 2-node network
    fat = tmp_path / "fat.g"
    fat.write_text("2 1\n0 1000000\n1 1000000\n0 1\n")
    assert run_cli(["run", "--graph", str(fat), "--alg", "heavy",
                    "--seeds", "0"]) == 4
    assert "budget" in capsys.readouterr().err


def test_env_var_default_seed(monkeypatch, capsys):
    monkeypatch.setenv("MWISIM_SEED", "17")
    assert run_cli(["run", "--family", "path", "--n", "4", "--alg", "luby"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["seed"] == 17 and rec["graph"]["seed"] == 17


def test_dump_stack_flag(capsys):
    assert run_cli(["run", "--family", "path", "--n", "5",
                    "--weights", "uniform_range", "--graph-seed", "2",
                    "--alg", "boost-heavy", "--eps", "1", "--seeds", "0",
                    "--dump-stack"]) == 0
    rec = json.loads(capsys.readouterr().out)
    stack = rec["diagnostics"]["stack"]
    # boost-heavy's 8 phases end once nothing is left: only phases that
    # pushed nodes are frames, numbered 1..k
    assert rec["diagnostics"]["phases"] == 8
    assert [f["phase"] for f in stack] == list(range(1, len(stack) + 1))
    assert all(f["members"] for f in stack)
    assert all(set(f) == {"phase", "members", "pushed_weights"} for f in stack)


def test_directory_paths_are_usage_errors(tmp_path, capsys):
    assert run_cli(["run", "--graph", str(tmp_path), "--alg", "luby",
                    "--seeds", "0"]) == 2
    assert run_cli(["gen", "--family", "path", "--n", "3",
                    "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("spec", ["abc", "1:", "1,x", "5:1", "5:5", ","])
def test_malformed_seeds_are_usage_errors(spec, capsys):
    assert run_cli(["run", "--family", "path", "--n", "4", "--alg", "luby",
                    "--seeds", spec]) == 2
    assert run_cli(["reduce", "--n0", "12", "--n1", "4", "--seeds", spec]) == 2
    out = capsys.readouterr()
    assert out.err.count("bad --seeds") == 2 and out.out == ""


def test_oracle_cap_defaults_to_the_solver_cap(monkeypatch, capsys):
    from mwisim import cli

    monkeypatch.setattr(cli, "BRUTE_FORCE_CAP", 5)
    assert run_cli(["run", "--family", "path", "--n", "6", "--alg", "luby",
                    "--seeds", "0", "--oracle"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["oracle"] is None and "cap of 5" in rec["oracle_refused"]


@pytest.mark.parametrize("cap", ["-1", "-27"])
def test_negative_oracle_cap_is_usage_error(cap, capsys):
    assert run_cli(["run", "--family", "path", "--n", "6", "--alg", "luby",
                    "--seeds", "0", "--oracle", "--oracle-cap", cap]) == 2
    out = capsys.readouterr()
    assert "--oracle-cap must be >= 0" in out.err and out.out == ""


def test_gen_without_family_is_usage_error(capsys):
    assert run_cli(["gen", "--n", "5"]) == 2
    assert "--family" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["reduce", "--n0", "12", "--n1", "4", "--seeds", "0", "--lam", "0"],
    ["run", "--family", "path", "--n", "6", "--alg", "sparse", "--lam", "0",
     "--seeds", "0"],
    ["run", "--family", "path", "--n", "6", "--alg", "boost-heavy",
     "--eps", "0.5", "--c", "0", "--seeds", "0"],
])
def test_zero_parameters_are_rejected_not_defaulted(args, capsys):
    assert run_cli(args) == 3
    assert "invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("args,reason", [
    (["--alg", "sparse", "--lam", "nan"], "finite"),
    (["--alg", "sparse", "--lam", "inf"], "finite"),
    (["--alg", "boost-sparse", "--eps", "0.5", "--lam", "nan"], "finite"),
    (["--alg", "fastld", "--eps", "inf"], "finite"),
    (["--alg", "boost-heavy", "--eps", "nan"], "finite"),
    (["--alg", "arb", "--alpha", "2", "--eps", "inf"], "finite"),
    (["--alg", "boost-heavy", "--eps", "0.5", "--c", "inf"], "finite"),
    (["--alg", "boppana", "--c", "2.7"], "integer"),
    (["--alg", "boppana", "--c", "0.5"], "integer"),
    (["--alg", "boppana", "--c", "nan"], "integer"),
    (["--alg", "fastld", "--eps", "0.5", "--c", "inf"], "integer"),
])
def test_non_finite_and_truncated_parameters_are_rejected(args, reason, capsys):
    assert run_cli(["run", "--family", "path", "--n", "6", "--seeds", "0",
                    *args]) == 3
    assert reason in capsys.readouterr().err


def test_integral_rank_constant_given_as_float_is_kept(capsys):
    assert run_cli(["run", "--family", "path", "--n", "6", "--seeds", "0",
                    "--alg", "boppana", "--c", "3.0"]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"]["c"] == 3


def test_reduce_rejects_non_finite_lambda(capsys):
    assert run_cli(["reduce", "--n0", "12", "--n1", "4", "--seeds", "0",
                    "--lam", "nan"]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["-5", "0.5", "nan", "inf"])
def test_reduce_rejects_an_invalid_approximation_constant(c, capsys):
    assert run_cli(["reduce", "--n0", "12", "--n1", "4", "--seeds", "0",
                    "--c", c]) == 3
    out = capsys.readouterr()
    assert "c must be a finite number >= 1" in out.err and out.out == ""


def test_python_dash_m_runs_the_cli():
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "mwisim", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mwisim")
