import copy
import json
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from mwisim.graphs import (GraphError, IndependentSet, brute_force_max_is,
                           generate, load, save)
from mwisim.records import (RECORD_SCHEMA, SCHEMA_ID, GraphSource, RecordError,
                            _compile, make_record, replay, same_outcome,
                            to_csv, to_jsonl, validate_record)

# a line of the golden file made before the counter-based node streams
V1_LUBY = (
    '{"algorithm": {"mode": "congest", "name": "luby"}, "degeneracy": 4, '
    '"diagnostics": {}, "graph": {"family": "gnp", "file": null, "params": '
    '{"n": 14, "p": 0.3}, "seed": 0, "sha256": null, "weights": "unit"}, '
    '"max_degree": 7, "n": 14, "oracle": {"opt": 5, "ratio": 1.25}, "result": '
    '{"max_message_bits": 42, "messages": 87, "rounds": 4, "size": 4, '
    '"weight": 4}, "schema": "mwisim-record-v1", "seed": 7, '
    '"wall_time_s": 0.000598}')


def _record(alg="heavy", params=None, oracle=False, **kw):
    g = generate("gnp", {"n": 18, "p": 0.25}, "uniform_range", 3)
    source = GraphSource.generator("gnp", {"n": 18, "p": 0.25}, "uniform_range", 3)
    return make_record(g, source, alg, params or {}, seed=5, oracle=oracle, **kw)


def test_record_validates_and_serializes():
    r = _record(oracle=True)
    validate_record(r)
    line = to_jsonl([r])
    assert json.loads(line) == r


def test_jsonl_is_strict_json():
    r = _record(oracle=True)
    for bad in (float("nan"), float("inf")):
        r["oracle"]["ratio"] = bad
        with pytest.raises(ValueError):
            to_jsonl([r])


def test_record_schema_is_a_valid_draft_2020_12_schema():
    # validate_record skips this metaschema check; it is done once, here
    Draft202012Validator.check_schema(RECORD_SCHEMA)


@pytest.mark.parametrize("oracle,valid", [
    (None, True), ({"opt": 5, "ratio": 1.25}, True), ({"opt": 5, "ratio": None}, True),
    ({"opt": 1}, False), ({"opt": -1, "ratio": 1.0}, False), (3, False),
    ("x", False), ([], False), ({"opt": 5, "ratio": "1.25"}, False),
    ({"opt": 5.5, "ratio": 1.0}, False)],
    ids=["null", "good", "null-ratio", "opt-only", "negative-opt", "int", "str",
         "list", "str-ratio", "float-opt"])
def test_ratio_travels_with_opt(oracle, valid):
    r = _record(oracle=oracle is not None)
    if oracle is None:
        assert r["oracle"] is None
    else:
        assert set(r["oracle"]) == {"opt", "ratio"}
    r["oracle"] = oracle
    if valid:
        validate_record(r)
    else:
        with pytest.raises(RecordError):
            validate_record(r)


# jsonschema is the reference the compiled checker must agree with
REFERENCE = Draft202012Validator(RECORD_SCHEMA)
DELETE = object()
PROBES = {
    "None": None, "True": True, "False": False, "0": 0, "-1": -1, "5": 5,
    "5.0": 5.0, "-1.0": -1.0, "5.5": 5.5, "nan": float("nan"),
    "inf": float("inf"), "-inf": float("-inf"), "np.int64(5)": np.int64(5),
    "np.float64(5.0)": np.float64(5.0), "np.float64(-1.0)": np.float64(-1.0),
    "Decimal(5)": Decimal(5), "Decimal(-1)": Decimal(-1), "str": "x",
    "str-empty": "", "str-local": "local", "str-congest": "congest",
    "str-schema-id": SCHEMA_ID, "[]": [], "{}": {},
    "oracle-opt-only": {"opt": 5}, "oracle-ratio-only": {"ratio": 1.0},
    "oracle-null-ratio": {"opt": 5, "ratio": None},
    "oracle-bool-opt": {"opt": True, "ratio": 1.0},
    "oracle-negative-opt": {"opt": -1, "ratio": 1.0},
    "oracle-str-ratio": {"opt": 5, "ratio": "1"}, "delete": DELETE,
}


def _refused_record():
    g = generate("gnp", {"n": 40, "p": 0.1}, "unit", 1)
    source = GraphSource.generator("gnp", {"n": 40, "p": 0.1}, "unit", 1)
    return make_record(g, source, "heavy", {}, seed=0, oracle=True)


def _field_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def _verdict(record):
    try:
        validate_record(record)
    except RecordError as e:
        return e
    return None


# each field path of a real record, with the record it is probed in; the
# refused one adds oracle_refused, the other an oracle object
GRID = {path: record
        for record in (_refused_record(),
                       _record("boost-heavy", {"eps": 0.5}, oracle=True))
        for path in _field_paths(record)}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
@pytest.mark.parametrize("path", GRID, ids=".".join)
def test_compiled_checker_agrees_with_jsonschema(path, probe):
    r = copy.deepcopy(GRID[path])
    parent = r
    for key in path[:-1]:
        parent = parent[key]
    if probe is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = probe
    error = _verdict(r)
    assert (error is None) == REFERENCE.is_valid(r)
    if error is not None:
        # the error names a path and keyword jsonschema also reports
        found = {("record" + e.json_path[1:], e.validator)
                 for e in REFERENCE.iter_errors(r)}
        assert (error.path, error.keyword) in found


def test_record_error_names_path_and_keyword():
    r = _record(oracle=True)
    r["oracle"]["opt"] = -1
    with pytest.raises(RecordError, match=r"record\.oracle\.opt fails 'minimum'"):
        validate_record(r)


@pytest.mark.parametrize("value", [True, False, 0, 1, 1.0, 0.0, "a", None])
@pytest.mark.parametrize("schema", [{"const": 1}, {"const": False},
                                    {"enum": [0, "a"]}, {"enum": [True, None]}],
                         ids=str)
def test_const_and_enum_keep_bools_apart_like_jsonschema(schema, value):
    # RECORD_SCHEMA compares only strings, so this is probed on small schemas
    try:
        for check in _compile(schema, "x"):
            check(value)
        ok = True
    except RecordError:
        ok = False
    assert ok == Draft202012Validator(schema).is_valid(value)


@pytest.mark.parametrize("schema,word", [
    ({"type": "integer", "maximum": 3}, "maximum"),
    ({"properties": {"x": {"pattern": "a+"}}}, "pattern"),
    ({"type": "boolean"}, "boolean"),
    ({"const": [1, 2]}, "const"),
])
def test_unsupported_schema_is_refused_at_compile_time(schema, word):
    with pytest.raises(ValueError, match=word):
        _compile(schema, "record")


def test_runtime_imports_skip_jsonschema():
    code = ("import mwisim.cli, mwisim.verify, sys; "
            "assert 'jsonschema' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_oracle_refusal_recorded():
    r = _refused_record()
    assert r["oracle"] is None
    assert "cap of 26" in r["oracle_refused"]


def test_replay_reproduces_exactly():
    for alg, params in [("heavy", {}), ("boost-heavy", {"eps": 0.5}),
                        ("boppana", {"c": 2}), ("arb", {"eps": 0.5})]:
        r = _record(alg, params, oracle=True)
        again = replay(r)
        assert same_outcome(r, again)
        assert r["result"] == again["result"]


def test_replay_keeps_a_raised_oracle_cap():
    g = generate("cycle", {"n": 28}, "uniform_range", 4)
    source = GraphSource.generator("cycle", {"n": 28}, "uniform_range", 4)
    r = make_record(g, source, "heavy", {}, seed=2, oracle=True, oracle_cap=28)
    assert r["oracle"] is not None
    again = replay(r)
    assert again["oracle"] == r["oracle"]
    assert same_outcome(r, again)


def test_replay_solves_the_oracle_independently():
    g = generate("gnp", {"n": 18, "p": 0.25}, "uniform_range", 3)
    source = GraphSource.generator("gnp", {"n": 18, "p": 0.25}, "uniform_range", 3)
    opt = brute_force_max_is(g).weight
    # poison the optimum cached on g: make_record reports it, replay (which
    # rebuilds the graph from its source) does not
    g._opt = IndependentSet(frozenset(), opt + 1)
    r = make_record(g, source, "heavy", {}, seed=5, oracle=True)
    assert r["oracle"]["opt"] == opt + 1
    again = replay(r)
    assert again["oracle"]["opt"] == opt
    assert not same_outcome(r, again)


def test_same_outcome_ignores_wall_time():
    a = _record()
    b = dict(a)
    b["wall_time_s"] = 99.0
    assert same_outcome(a, b)
    c = json.loads(json.dumps(a))
    c["result"] = dict(c["result"], weight=c["result"]["weight"] + 1)
    assert not same_outcome(a, c)


def test_file_source_hash_guard(tmp_path):
    g = generate("cycle", {"n": 6}, "unit", 0)
    path = tmp_path / "g.txt"
    text = save(g)
    path.write_text(text)
    src = GraphSource.from_file(str(path), text)
    assert src.build() == g
    path.write_text(text.replace("1", "2", 1))
    with pytest.raises(ValueError, match="changed since"):
        src.build()


def test_csv_projection():
    rows = to_csv([_record(oracle=True)]).strip().splitlines()
    assert rows[0].startswith("family,n,max_degree")
    assert len(rows) == 2
    assert rows[1].split(",")[0] == "gnp"


def test_csv_writes_a_null_ratio_as_an_empty_cell():
    # every weight 0: the oracle's opt is 0 and its ratio is null
    text = "4 3\n0 0\n1 0\n2 0\n3 0\n0 1\n1 2\n2 3\n"
    r = make_record(load(text), GraphSource.from_file("z.txt", text), "heavy",
                    {}, seed=0, oracle=True)
    assert r["oracle"] == {"opt": 0, "ratio": None}
    header, row = to_csv([r]).splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["opt"] == "0" and cells["ratio"] == ""
    assert "None" not in row


def test_resolved_params_stored():
    r = _record("arb", {"eps": 0.5})
    # alpha was defaulted to the degeneracy and must be recorded
    assert isinstance(r["algorithm"]["alpha"], int)
    assert r["algorithm"]["alpha"] >= 1


def test_clique_cycle_family_replays():
    params = {"n0": 8, "n1": 3}
    g = generate("cycle_of_cliques", params, "unit", 0)
    assert g.n == 24
    source = GraphSource.generator("cycle_of_cliques", params, "unit", 0)
    r = make_record(g, source, "luby", {}, seed=2, oracle=True)
    assert same_outcome(r, replay(r))
    assert r["oracle"]["opt"] >= r["result"]["weight"]


def test_make_record_resolves_parameters_once(monkeypatch):
    from mwisim import algorithms, graphs, records

    calls = []

    def counted(g):
        calls.append(g.n)
        return graphs.degeneracy(g)

    monkeypatch.setattr(algorithms, "degeneracy", counted)
    monkeypatch.setattr(records, "degeneracy", counted)
    r = _record("arb", {"eps": 0.5})
    # one for the record's degeneracy field, one for arb's default alpha
    assert calls == [18, 18]
    assert r["algorithm"]["alpha"] == max(1, r["degeneracy"])


def test_replay_refuses_a_record_of_another_schema():
    old = json.loads(V1_LUBY)
    with pytest.raises(GraphError, match="'mwisim-record-v1'.*'mwisim-record-v2'"):
        replay(old)
    assert SCHEMA_ID == "mwisim-record-v2"
    # the same record under the current schema replays (to this version's run)
    again = replay(dict(old, schema=SCHEMA_ID))
    assert again["schema"] == SCHEMA_ID
