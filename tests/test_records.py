import json

import jsonschema
import pytest

from mwisim.graphs import generate, save
from mwisim.records import (RECORD_SCHEMA, GraphSource, make_record, replay,
                            same_outcome, to_csv, to_jsonl, validate_record)


def _record(alg="heavy", params=None, oracle=False, **kw):
    g = generate("gnp", {"n": 18, "p": 0.25}, "uniform_range", 3)
    source = GraphSource.generator("gnp", {"n": 18, "p": 0.25}, "uniform_range", 3)
    return make_record(g, source, alg, params or {}, seed=5, oracle=oracle, **kw)


def test_record_validates_and_serializes():
    r = _record(oracle=True)
    validate_record(r)
    line = to_jsonl([r])
    assert json.loads(line) == r


def test_record_schema_is_a_valid_draft_2020_12_schema():
    # validate_record skips this metaschema check; it is done once, here
    jsonschema.Draft202012Validator.check_schema(RECORD_SCHEMA)


def test_ratio_travels_with_opt():
    r = _record(oracle=True)
    assert r["oracle"] is not None and "ratio" in r["oracle"]
    r2 = _record(oracle=False)
    assert r2["oracle"] is None

    broken = dict(r)
    broken["oracle"] = {"opt": 5}
    with pytest.raises(jsonschema.ValidationError):
        validate_record(broken)


def test_oracle_refusal_recorded():
    g = generate("gnp", {"n": 40, "p": 0.1}, "unit", 1)
    source = GraphSource.generator("gnp", {"n": 40, "p": 0.1}, "unit", 1)
    r = make_record(g, source, "heavy", {}, seed=0, oracle=True)
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
