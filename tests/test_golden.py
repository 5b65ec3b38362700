"""Golden records and graph hashes: outcomes fixed before a change, replayed after.

``golden/records.jsonl`` holds one record per algorithm x weight model on a
small gnp, cycle, star and clique graph; each must replay to the same outcome.
``GRAPH_SHA256`` pins the saved text of the n = 4096 graphs the acceptance
criteria C5 and C7 are measured on. A change that is meant to alter generated
graphs or outcomes regenerates both, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from mwisim.algorithms import ALGORITHMS
from mwisim.graphs import WEIGHT_MODELS, generate, save
from mwisim.records import (GraphSource, make_record, replay, same_outcome,
                            to_jsonl)
from mwisim.rng import derive_seed

GOLDEN = pathlib.Path(__file__).parent / "golden" / "records.jsonl"

GRAPHS = (("gnp", {"n": 14, "p": 0.3}), ("cycle", {"n": 12}),
          ("star", {"n": 9}), ("clique", {"n": 6}))
PARAMS = {"eps": 0.5}
RUN_SEED = 7

# (family, params, weight model, seed) -> sha256 of graphs.save(g)
GRAPH_SHA256 = {
    "C5": (("gnp", {"n": 4096, "p": 0.04}, "heavy_tail", derive_seed(0xAC05, 0)),
           "559061b155a4c7cb7e20469802446898e7be9dcf65df4bf6d08bc5b1f9f6ade6"),
    "C7": (("gnp", {"n": 4096, "p": 0.01}, "unit", derive_seed(0xAC07, 0)),
           "263239a8b4fe3b530db3bb9189b129c7dbe2816089bf02b303a7d8bb69ee734c"),
}


def golden_records() -> list[dict]:
    out = []
    for k, (family, params) in enumerate(GRAPHS):
        for weights in WEIGHT_MODELS:
            g = generate(family, params, weights, k)
            source = GraphSource.generator(family, params, weights, k)
            for alg in ALGORITHMS:
                out.append(make_record(g, source, alg, PARAMS, RUN_SEED,
                                       oracle=True))
    return out


RECORDS = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def _key(record):
    return (record["graph"]["family"], record["graph"]["weights"],
            record["algorithm"]["name"])


def test_golden_file_covers_the_grid():
    want = [(family, weights, alg) for family, _ in GRAPHS
            for weights in WEIGHT_MODELS for alg in ALGORITHMS]
    assert [_key(r) for r in RECORDS] == want


@pytest.mark.parametrize("record", RECORDS, ids=["-".join(_key(r)) for r in RECORDS])
def test_golden_record_replays(record):
    again = replay(record)
    assert same_outcome(record, again)
    assert record["diagnostics"] == json.loads(json.dumps(again["diagnostics"]))


@pytest.mark.parametrize("name", sorted(GRAPH_SHA256))
def test_acceptance_graph_hash(name):
    (family, params, weights, seed), digest = GRAPH_SHA256[name]
    text = save(generate(family, params, weights, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(to_jsonl(golden_records()))
    for name, ((family, params, weights, seed), _) in sorted(GRAPH_SHA256.items()):
        text = save(generate(family, params, weights, seed))
        print(name, hashlib.sha256(text.encode()).hexdigest())
