import ast
import hashlib
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwisim import cli
from mwisim.algorithms import ALGORITHMS
from mwisim.cli import _parse_seeds, main
from mwisim.graphs import FAMILIES, WEIGHT_MODELS, load


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


def test_lines_past_the_header_counts_are_invariant_failures(tmp_path, capsys):
    under = tmp_path / "under.g"
    under.write_text("3 1\n0 1\n1 1\n2 1\n0 1\n1 2\n")  # header undercounts edges
    assert run_cli(["run", "--graph", str(under), "--alg", "luby",
                    "--seeds", "0"]) == 3
    assert "line 6: line past the header's 3 nodes and 1 edges" in capsys.readouterr().err


def test_congest_violation_exit_code(tmp_path, capsys):
    # 20-bit weights cannot fit the 32-bit budget of a 2-node network
    fat = tmp_path / "fat.g"
    fat.write_text("2 1\n0 1000000\n1 1000000\n0 1\n")
    assert run_cli(["run", "--graph", str(fat), "--alg", "heavy",
                    "--seeds", "0"]) == 4
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["sparse", "boost-sparse"])
def test_weighted_degree_past_63_bits_runs_in_local_mode(alg, tmp_path, capsys):
    # the middle node's weighted degree is 2^64 - 2: it goes out as two limbs
    path = tmp_path / "big.g"
    big = 2**63 - 1
    path.write_text(f"3 2\n0 {big}\n1 1\n2 {big}\n0 1\n1 2\n")
    assert run_cli(["run", "--graph", str(path), "--alg", alg, "--mode", "local",
                    "--eps", "0.5", "--seeds", "0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["result"]["weight"] == 2 * big and rec["result"]["size"] == 2
    # 2^64 - 2 is the limbs (2^63 - 2, 1): 4 + (6 + 63) + (6 + 1) bits
    assert rec["result"]["max_message_bits"] == 80


@pytest.mark.parametrize("alg", [["boppana"], ["fastld", "--eps", "0.5"]])
def test_huge_rank_constant_exit_code(alg, capsys):
    assert run_cli(["run", "--family", "gnp", "--n", "20", "--p", "0.2",
                    "--alg", *alg, "--c", "1000000000"]) == 3
    assert "limbs" in capsys.readouterr().err


def test_failing_record_exit_code(monkeypatch, capsys):
    from mwisim import records

    monkeypatch.setattr(records, "degeneracy", lambda g: -1)
    assert run_cli(["run", "--family", "path", "--n", "4", "--alg", "luby"]) == 3
    assert "record.degeneracy fails 'minimum'" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["17", "x7"])
def test_seeds_come_only_from_flags(env, monkeypatch, capsys):
    """An absent ``--seeds`` or ``--graph-seed`` is 0; ``MWISIM_SEED`` is
    not read, so neither a number nor a non-number there changes a run."""
    monkeypatch.setenv("MWISIM_SEED", env)
    graph = ["--family", "gnp", "--n", "12", "--p", "0.3", "--weights", "uniform_range"]
    assert run_cli(["run", *graph, "--alg", "luby"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["seed"] == 0 and rec["graph"]["seed"] == 0
    assert run_cli(["reduce", "--n0", "12", "--n1", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    texts = []
    for seed_flags in ([], ["--graph-seed", "0"], ["--graph-seed", env.strip("x")]):
        assert run_cli(["gen", *graph, *seed_flags]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] != texts[2]


def test_gen_names_its_graph_seed_as_run_does(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--family", "path", "--n", "4", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("args,unknown", [
    (["run", "--family", "path", "--n", "4", "--alg", "luby", "--seed", "3"], "--seed 3"),
    (["run", "--family", "path", "--n", "4", "--alg", "boost-heavy", "--graph-s", "5",
      "--e", "0.5"], "--graph-s 5 --e 0.5"),
    (["gen", "--family", "path", "--n", "4", "--graph", "3"], "--graph 3"),
    (["reduce", "--n0", "12", "--n1", "4", "--seed", "3"], "--seed 3"),
    (["verify", "acceptance", "--q"], "--q"),
])
def test_every_flag_has_one_spelling(args, unknown, capsys):
    """No prefix of a flag stands for it, in any subcommand."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--family", "cycle", "--n", "50"],
                                   ["--family", "gnp", "--n", "9", "--p", "0.5"]])
def test_a_run_has_one_graph_source(flags, tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert run_cli(["gen", "--family", "star", "--n", "8", "-o", str(path)]) == 0
    assert run_cli(["run", "--graph", str(path), *flags, "--alg", "luby"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "drop --family to run on the file, or --graph to generate" in err
    # either source alone runs
    assert run_cli(["run", "--graph", str(path), "--alg", "luby"]) == 0
    assert run_cli(["run", *flags, "--alg", "luby"]) == 0


@pytest.mark.parametrize("flag,value", [
    ("--n", "50"), ("--p", "0.5"), ("--n0", "4"), ("--n1", "3"),
    ("--weights", "heavy_tail"), ("--graph-seed", "4"),
    # the default values are refused as well: a given flag is refused, whatever it says
    ("--weights", "unit"), ("--graph-seed", "0"),
])
def test_graph_file_refuses_each_generator_flag(flag, value, tmp_path, capsys):
    path = tmp_path / "g8.txt"
    assert run_cli(["gen", "--family", "star", "--n", "8", "-o", str(path)]) == 0
    assert run_cli(["run", "--graph", str(path), flag, value, "--alg", "luby"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {flag} shapes a generated graph, and --graph reads one "
                   f"from its file: drop {flag}\n")


def test_absent_weights_and_graph_seed_are_unit_and_0(capsys):
    """``--weights`` and ``--graph-seed`` default to None, which a generated
    graph reads as ``unit`` and 0: the record and the file are those of the
    spelled-out flags."""
    graph = ["--family", "gnp", "--n", "12", "--p", "0.3"]
    spelled = ["--weights", "unit", "--graph-seed", "0"]
    outputs = []
    for flags in ([], spelled):
        assert run_cli(["run", *graph, *flags, "--alg", "luby"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
        assert run_cli(["gen", *graph, *flags]) == 0
        outputs.append(capsys.readouterr().out)
    for record in outputs[::2]:
        del record["wall_time_s"]
    assert outputs[0] == outputs[2] and outputs[1] == outputs[3]
    assert outputs[0]["graph"]["weights"] == "unit" and outputs[0]["graph"]["seed"] == 0


def test_no_module_reads_the_environment():
    """Every input of a run comes from its flags: no module under
    ``src/mwisim`` reads ``os.environ`` or ``os.getenv``."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Name, ast.alias)):
                names.add(node.id if isinstance(node, ast.Name) else node.name)
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.stem


@pytest.mark.parametrize("passed,code", [(True, 0), (False, 3)])
def test_verify_writes_json_results(passed, code, monkeypatch, tmp_path, capsys):
    from mwisim import verify

    results = [verify.CheckResult(f"C{i} check", passed or i < 10, "detail", i / 3)
               for i in range(1, 11)]
    monkeypatch.setattr(verify, "run_acceptance_suite", lambda quick: results)
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "acceptance", "--json", str(out)]) == code
    payload = json.loads(out.read_text())
    assert len(payload) == 10
    assert payload[0] == {"name": "C1 check", "passed": True, "detail": "detail",
                          "seconds": 0.333}
    assert [e["passed"] for e in payload].count(False) == (not passed)
    assert capsys.readouterr().out.endswith(f"{9 + passed}/10 checks passed\n")


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


# sha256 of each record's diagnostics.stack (JSON, sorted keys), seeds 0 and 1,
# with --alpha 3 unless the key sets it
STACK_DIGESTS = {
    "boost-heavy": ("0c9ec0d3f1549ac85273c66b481926f7aced69380ec75afe2ee709953acaf5c8",
                    "0c9ec0d3f1549ac85273c66b481926f7aced69380ec75afe2ee709953acaf5c8"),
    "boost-sparse": ("0c9ec0d3f1549ac85273c66b481926f7aced69380ec75afe2ee709953acaf5c8",
                     "00818a52951f05dcb719108249ef2844ab9eda1a812571106bf972a4a534622a"),
    "fastld": ("22185777cc50f0ddbc48d641865e273513eb7c29cece5d396f7d77632194dfc1",
               "adbc58f77de0fa105f9a5b4c35ade355251cd19d0a3826d71214a643d01d84d2"),
    "arb": ("d13e0c1bcf76106adcbdaa5375f142cdcb34e8954747840be59b2f5d43bfe11d",
            "8a21a1c1f295fce289a575a946bfc4c6e5158192626d5e6a8e7a69050fe5fd3b"),
    # the degree cap 4 binds: phase 1 sees 11 of the 24 nodes
    "arb --alpha 1": ("b6613c9009a1768c71f814ce17a6cecb4cb63dc513df02c8c15412f4161c9de5",
                      "88214dfec96935f48b198d1b59ad1682e937953b999504d1164550243cf42644"),
}


@pytest.mark.parametrize("case", sorted(STACK_DIGESTS))
def test_dump_stack_is_pinned(case, capsys):
    alg, *flags = case.split()
    assert run_cli(["run", "--family", "gnp", "--n", "24", "--p", "0.2",
                    "--weights", "heavy_tail", "--graph-seed", "2", "--alg", alg,
                    *(flags or ["--alpha", "3"]), "--eps", "0.5", "--seeds", "0:2",
                    "--dump-stack"]) == 0
    diagnostics = [json.loads(line)["diagnostics"]
                   for line in capsys.readouterr().out.splitlines()]
    assert tuple(hashlib.sha256(json.dumps(d["stack"], sort_keys=True).encode()).hexdigest()
                 for d in diagnostics) == STACK_DIGESTS[case]
    if flags:
        assert all(d["sizes"][:3] == [24, 3, 0] for d in diagnostics)


def test_directory_paths_are_usage_errors(tmp_path, capsys):
    assert run_cli(["run", "--graph", str(tmp_path), "--alg", "luby",
                    "--seeds", "0"]) == 2
    assert run_cli(["gen", "--family", "path", "--n", "3",
                    "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_a_wide_seed_range_is_not_built():
    start = time.perf_counter()
    seeds = _parse_seeds("0:1000000000000")
    assert time.perf_counter() - start < 0.1
    assert seeds == range(10**12) and len(seeds) == 10**12


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


@pytest.mark.parametrize("command", [["gen"], ["run", "--alg", "luby", "--seeds", "0"]],
                         ids=["gen", "run"])
def test_gnp_without_n_is_usage_error(command, capsys):
    assert run_cli([*command, "--family", "gnp", "--p", "0.1"]) == 2
    out = capsys.readouterr()
    assert "error: gnp needs --n" in out.err and out.out == ""


@pytest.mark.parametrize("flags,reason", [
    (["--family", "cycle_of_cliques", "--n0", "5"], "cycle_of_cliques needs --n0 and --n1"),
    (["--family", "cycle_of_cliques"], "cycle_of_cliques needs --n0 and --n1"),
    (["--family", "gnp", "--n", "8"], "gnp needs --p"),
])
def test_missing_family_parameters_are_usage_errors(flags, reason, capsys):
    assert run_cli(["run", "--alg", "luby", "--seeds", "0", *flags]) == 2
    out = capsys.readouterr()
    assert f"error: {reason}" in out.err and out.out == ""


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


@pytest.mark.parametrize("args,message", [
    (["boost-heavy", "--eps", "1e-320"],
     "algorithm 'boost-heavy': eps=1e-320 is too small: c/eps overflows"),
    (["fastld", "--eps", "1e-320"],
     "algorithm 'fastld': eps=1e-320 is too small: c/eps overflows"),
    (["arb", "--alpha", "2", "--eps", "1e-320"],
     "algorithm 'arb': eps=1e-320 is too small: c/eps overflows"),
    (["boppana", "--c", "0"], "rank constant c must be an integer >= 1, got 0"),
    (["fastld", "--eps", "0.5", "--c", "0"],
     "rank constant c must be an integer >= 1, got 0"),
])
def test_parameters_are_refused_before_any_round(args, message, capsys):
    # a refusal from a phase's inner run would name the phase
    assert run_cli(["run", "--family", "gnp", "--n", "10", "--p", "0.3",
                    "--alg", *args]) == 3
    assert capsys.readouterr().err == f"invariant violation: {message}\n"


def test_integral_rank_constant_given_as_float_is_kept(capsys):
    assert run_cli(["run", "--family", "path", "--n", "6", "--seeds", "0",
                    "--alg", "boppana", "--c", "3.0"]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"]["c"] == 3


def test_reduce_rejects_non_finite_lambda(capsys):
    assert run_cli(["reduce", "--n0", "12", "--n1", "4", "--seeds", "0",
                    "--lam", "nan"]) == 3
    assert "finite" in capsys.readouterr().err


def test_reduce_takes_no_approximation_constant(capsys):
    """The diagnostic radii use ``DEFAULT_C_BOOST``: ``reduce --c`` is gone."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["reduce", "--n0", "12", "--n1", "4", "--seeds", "0", "--c", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --c 8" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["reduce", "--n0", "100000000", "--n1", "100000", "--seeds", "0"],
    ["reduce", "--n0", "1000", "--n1", "100000", "--seeds", "0"],
    ["gen", "--family", "gnp", "--n", "1000000000", "--p", "0.5"],
    ["gen", "--family", "cycle_of_cliques", "--n0", "100000", "--n1", "1000"],
    ["run", "--family", "clique", "--n", "100000", "--alg", "luby", "--seeds", "0"],
], ids=["reduce", "reduce-wide-cliques", "gen-gnp", "gen-cycle-of-cliques", "run-clique"])
def test_graphs_past_the_build_ceiling_exit_3_within_a_second(args, capsys):
    start = time.perf_counter()
    assert run_cli(args) == 3
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert "past the ceiling of 4 GiB" in out.err and out.out == ""


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


def test_arb_without_alpha_points_to_the_records_degeneracy(capsys):
    assert run_cli(["run", "--family", "path", "--n", "6", "--seeds", "0",
                    "--alg", "arb"]) == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and "degeneracy" in err and "mwisim gen" not in err


ARB_BELOW_ARBORICITY = ["run", "--family", "gnp", "--n", "200", "--p", "0.05",
                        "--weights", "uniform_range", "--graph-seed", "0", "--alg", "arb",
                        "--eps", "0.5", "--seeds", "0:3"]


def test_arb_warns_when_alpha_leaves_nodes_never_offered(capsys):
    assert run_cli([*ARB_BELOW_ARBORICITY, "--alpha", "1"]) == 0
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3 and len(err.splitlines()) == 3
    for r, line in zip(records, err.splitlines()):
        left = r["diagnostics"]["sizes"][-1]
        assert left > 0
        assert line.startswith(f"warning: arb seed {r['seed']}: {left} of 200 nodes ")
        assert "alpha 1 " in line and f"degeneracy is {r['degeneracy']}" in line
        assert "8(1+eps)*alpha bound does not apply" in line
    # the degeneracy is never below the arboricity, so it leaves no node out
    assert run_cli([*ARB_BELOW_ARBORICITY, "--alpha", str(records[0]["degeneracy"])]) == 0
    out, err = capsys.readouterr()
    assert err == "" and all(json.loads(line)["diagnostics"]["sizes"][-1] == 0
                             for line in out.splitlines())


@pytest.mark.parametrize("base", ["two", "natural"])
def test_run_has_no_log_base_flag(base, capsys):
    # the sampler's scale is lam * log2 n; a natural-log lam is lam * ln 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--family", "path", "--n", "6", "--seeds", "0",
                 "--alg", "sparse", "--log-base", base])
    assert exc.value.code == 2
    assert "unrecognized arguments: --log-base" in capsys.readouterr().err


def _flag(name, good, bad=()):
    """``[name, value]`` or nothing; a good value is drawn three times as
    often as a bad one."""
    values = [str(v) for v in good] * 3 + [str(v) for v in bad] + [None]
    return st.sampled_from(values).map(lambda v: [] if v is None else [name, v])


BAD = ("nan", "inf", "-1", "0", "x", "")
SEED_SPECS = ("0", "3", "1:3", "0,2,5")
BAD_SEED_SPECS = ("5:5", "2:", "x", ",")


def _generator_flags():
    return st.tuples(
        _flag("--family", FAMILIES, ("tree",)), _flag("--n", range(1, 65), (-1, 0)),
        _flag("--p", ("0", "0.1", "0.3", "1"), BAD + ("1.5",)),
        _flag("--n0", range(1, 9), (-1, 0)), _flag("--n1", range(1, 5), (-1, 0)),
        _flag("--weights", WEIGHT_MODELS), _flag("--graph-seed", range(4), (-1,)),
    ).map(lambda flags: sum(flags, []))


def _cli_args(paths):
    """Argument lists for ``gen``, ``run`` and ``reduce`` with small graphs,
    short seed sweeps and files in ``paths``: a valid graph, a corrupt one,
    a missing one, a directory and a new file."""
    files = st.sampled_from(paths)
    outputs = st.one_of(st.just([]), files.map(lambda f: ["-o", f]))
    gen = st.tuples(st.just(["gen"]), _generator_flags(), outputs)
    run = st.tuples(
        st.just(["run"]),
        st.one_of(_generator_flags(), files.map(lambda f: ["--graph", f])),
        st.sampled_from(ALGORITHMS).map(lambda a: ["--alg", a]),
        _flag("--eps", ("0.25", "0.5", "1"), BAD), _flag("--c", ("1", "2", "20"), BAD),
        _flag("--lam", ("0.5", "4"), BAD), _flag("--alpha", range(1, 4), (-1, 0)),
        _flag("--mode", ("congest", "local")),
        _flag("--seeds", SEED_SPECS, BAD_SEED_SPECS), st.sampled_from([[], ["--oracle"]]),
        _flag("--oracle-cap", ("0", "8"), ("-1", "x")),
        st.sampled_from([[], ["--dump-stack"]]),
        outputs, st.one_of(st.just([]), files.map(lambda f: ["--csv", f])))
    reduce = st.tuples(
        st.just(["reduce"]), _flag("--n0", range(1, 9), (-1, 0)),
        _flag("--n1", range(1, 5), (-1, 0)), _flag("--lam", ("0.5", "4"), BAD),
        _flag("--seeds", SEED_SPECS, BAD_SEED_SPECS), outputs)
    return st.one_of(gen, run, reduce).map(lambda parts: sum(parts, []))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_exits_with_a_documented_code(tmp_path, capsys, data):
    good, corrupt = tmp_path / "good.g", tmp_path / "corrupt.g"
    good.write_text("3 2\n0 5\n1 1\n2 7\n0 1\n1 2\n")
    corrupt.write_text("3 1\n0 5\n1 x\n")
    paths = [str(good), str(corrupt), str(tmp_path / "missing.g"), str(tmp_path),
             str(tmp_path / "out.txt")]
    args = data.draw(_cli_args(paths))
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as e:  # argparse refuses the arguments
        code = e.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
