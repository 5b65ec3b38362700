"""Experiment records: one JSON object per run, schema-validated, replayable.

A record carries everything needed to reproduce the run bit-for-bit: the
graph source (generator family, params, weight model, graph seed — or a
file path with a content hash), the algorithm name and parameters, and the
run seed. ``replay`` re-executes a record and returns a fresh record whose
result fields must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from jsonschema import Draft202012Validator

from . import algorithms
from .graphs import (BRUTE_FORCE_CAP, BruteForceCapError, GraphError,
                     WeightedGraph, brute_force_max_is, degeneracy, generate,
                     load)

SCHEMA_ID = "mwisim-record-v2"

RECORD_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "graph", "n", "max_degree", "degeneracy",
                 "algorithm", "seed", "result"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "graph": {
            "type": "object",
            "properties": {
                "family": {"type": ["string", "null"]},
                "params": {"type": "object"},
                "weights": {"type": ["string", "null"]},
                "seed": {"type": ["integer", "null"]},
                "file": {"type": ["string", "null"]},
                "sha256": {"type": ["string", "null"]},
            },
        },
        "n": {"type": "integer", "minimum": 0},
        "max_degree": {"type": "integer", "minimum": 0},
        "degeneracy": {"type": "integer", "minimum": 0},
        "algorithm": {
            "type": "object",
            "required": ["name", "mode"],
            "properties": {
                "name": {"type": "string"},
                "mode": {"enum": ["congest", "local"]},
            },
        },
        "seed": {"type": "integer"},
        "result": {
            "type": "object",
            "required": ["weight", "size", "rounds", "messages",
                         "max_message_bits"],
            "properties": {
                "weight": {"type": "integer", "minimum": 0},
                "size": {"type": "integer", "minimum": 0},
                "rounds": {"type": "integer", "minimum": 0},
                "messages": {"type": "integer", "minimum": 0},
                "max_message_bits": {"type": "integer", "minimum": 0},
            },
        },
        # null when the oracle did not run; opt and ratio travel together
        "oracle": {
            "oneOf": [
                {"type": "null"},
                {"type": "object", "required": ["opt", "ratio"],
                 "properties": {"opt": {"type": "integer", "minimum": 0},
                                "ratio": {"type": ["number", "null"]}}},
            ],
        },
        "oracle_refused": {"type": ["string", "null"]},
        "diagnostics": {"type": "object"},
        "wall_time_s": {"type": "number"},
    },
}


# built once: jsonschema.validate would re-check the schema on every call
_VALIDATOR = Draft202012Validator(RECORD_SCHEMA)


def validate_record(record: Mapping[str, Any]) -> None:
    _VALIDATOR.validate(record)


@dataclass(frozen=True)
class GraphSource:
    """Where a graph came from; generator-based sources are replayable."""

    family: str | None = None
    params: dict[str, Any] | None = None
    weights: str | None = None
    seed: int | None = None
    file: str | None = None
    sha256: str | None = None

    @classmethod
    def generator(cls, family: str, params: Mapping[str, Any], weights: str,
                  seed: int) -> "GraphSource":
        return cls(family=family, params=dict(params), weights=weights, seed=seed)

    @classmethod
    def from_file(cls, path: str, text: str) -> "GraphSource":
        return cls(file=path, sha256=hashlib.sha256(text.encode()).hexdigest())

    def build(self) -> WeightedGraph:
        if self.family is not None:
            return generate(self.family, self.params or {},
                            self.weights or "unit", self.seed or 0)
        if self.file is not None:
            text = Path(self.file).read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.sha256 and digest != self.sha256:
                raise ValueError(f"{self.file} changed since the record was made")
            return load(text)
        raise ValueError("graph source has neither a generator spec nor a file")

    def to_json(self) -> dict[str, Any]:
        return {"family": self.family, "params": self.params or {},
                "weights": self.weights, "seed": self.seed,
                "file": self.file, "sha256": self.sha256}

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "GraphSource":
        return cls(family=d.get("family"), params=dict(d.get("params") or {}),
                   weights=d.get("weights"), seed=d.get("seed"),
                   file=d.get("file"), sha256=d.get("sha256"))


def make_record(g: WeightedGraph, source: GraphSource, alg_name: str,
                params: Mapping[str, Any], seed: int, mode: str = "congest",
                oracle: bool = False, oracle_cap: int = BRUTE_FORCE_CAP,
                dump_stack: bool = False) -> dict[str, Any]:
    """Run one algorithm on one graph and package the observation."""
    start = time.perf_counter()
    p = algorithms.resolved_params(alg_name, params, g)
    outcome = algorithms.run_algorithm(g, alg_name, p, seed, mode)
    elapsed = time.perf_counter() - start

    record: dict[str, Any] = {
        "schema": SCHEMA_ID,
        "graph": source.to_json(),
        "n": g.n,
        "max_degree": g.max_degree,
        "degeneracy": degeneracy(g),
        "algorithm": {"name": alg_name, "mode": mode, **p},
        "seed": seed,
        "result": {
            "weight": outcome.iset.weight,
            "size": len(outcome.iset.members),
            "rounds": outcome.stats.rounds,
            "messages": outcome.stats.messages_sent,
            "max_message_bits": outcome.stats.max_message_bits,
        },
        "oracle": None,
        "diagnostics": dict(outcome.diagnostics),
        "wall_time_s": round(elapsed, 6),
    }
    if dump_stack and outcome.stack is not None:
        record["diagnostics"]["stack"] = [
            {"phase": f.phase, "members": sorted(f.members),
             "pushed_weights": {str(v): w for v, w in sorted(f.pushed_weights.items())}}
            for f in outcome.stack
        ]
    if oracle:
        try:
            opt = brute_force_max_is(g, cap=oracle_cap)
            ratio = (opt.weight / outcome.iset.weight
                     if outcome.iset.weight > 0 else None)
            record["oracle"] = {"opt": opt.weight, "ratio": ratio}
        except BruteForceCapError as e:
            record["oracle_refused"] = str(e)
    validate_record(record)
    return record


def replay(record: Mapping[str, Any]) -> dict[str, Any]:
    """Re-execute a record; the caller compares ``result`` fields.

    A record of another schema was made by a program whose random streams
    or counts may differ, so it is refused, not re-run.
    """
    if record.get("schema") != SCHEMA_ID:
        raise GraphError(f"record schema {record.get('schema')!r} is not "
                         f"{SCHEMA_ID!r}; it cannot be replayed by this version")
    source = GraphSource.from_json(record["graph"])
    g = source.build()
    alg = record["algorithm"]
    params = {k: v for k, v in alg.items() if k not in ("name", "mode")}
    return make_record(g, source, alg["name"], params, record["seed"],
                       mode=alg["mode"],
                       oracle=record.get("oracle") is not None,
                       # an oracle value was computed under a cap >= n
                       oracle_cap=max(BRUTE_FORCE_CAP, record["n"]))


def same_outcome(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Equality of everything reproducible (wall time excluded)."""
    keys = ("graph", "n", "max_degree", "degeneracy", "algorithm", "seed",
            "result", "oracle")
    return all(a.get(k) == b.get(k) for k in keys)


def to_jsonl(records: list[Mapping[str, Any]]) -> str:
    """One strict JSON line per record: NaN or Infinity raises ValueError."""
    return "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                   for r in records)


CSV_COLUMNS = ["family", "n", "max_degree", "degeneracy", "algorithm", "mode",
               "seed", "weight", "size", "opt", "ratio", "rounds", "messages",
               "max_message_bits", "wall_time_s"]


def to_csv(records: list[Mapping[str, Any]]) -> str:
    """Flat projection for plotting; no plotting built in."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        oracle = r.get("oracle") or {}
        row = [
            r["graph"].get("family") or "file",
            r["n"], r["max_degree"], r["degeneracy"],
            r["algorithm"]["name"], r["algorithm"]["mode"], r["seed"],
            r["result"]["weight"], r["result"]["size"],
            oracle.get("opt", ""), oracle.get("ratio", ""),
            r["result"]["rounds"], r["result"]["messages"],
            r["result"]["max_message_bits"], r["wall_time_s"],
        ]
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
