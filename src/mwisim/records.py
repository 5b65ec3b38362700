"""Experiment records: one JSON object per run, schema-checked, replayable.

A record carries everything needed to reproduce the run bit-for-bit: the
graph source (generator family, params, weight model, graph seed — or a
file path with a content hash), the algorithm name and parameters, and the
run seed. ``replay`` re-executes a record and returns a fresh record whose
result fields must match exactly.

``RECORD_SCHEMA`` (JSON Schema, Draft 2020-12) is the one definition of the
format. It is compiled once, at import, into nested check functions that
support exactly the keywords it uses (``$schema``, ``type``, ``const``,
``enum``, ``required``, ``properties``, ``minimum``) and raise on any
other, so a schema edit the checker cannot follow fails at import. Types
and equality follow Draft 2020-12 as jsonschema implements it; jsonschema
itself is only the tests' reference. A record that fails raises
``RecordError`` naming the JSON path and the keyword.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

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
        "oracle": {"type": ["object", "null"], "required": ["opt", "ratio"],
                   "properties": {"opt": {"type": "integer", "minimum": 0},
                                  "ratio": {"type": ["number", "null"]}}},
        "oracle_refused": {"type": ["string", "null"]},
        "diagnostics": {"type": "object"},
        "wall_time_s": {"type": "number"},
    },
}


class RecordError(ValueError):
    """A record that does not match ``RECORD_SCHEMA``."""

    def __init__(self, path: str, keyword: str, detail: str):
        super().__init__(f"{path} fails {keyword!r}: {detail}")
        self.path = path
        self.keyword = keyword


def _is_integer(value: Any) -> bool:
    # an integral float counts, a bool does not (Draft 2020-12)
    if isinstance(value, int):
        return not isinstance(value, bool)
    return isinstance(value, float) and value.is_integer()


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


# type name -> (exact Python types that always pass, the full test)
_TYPES: dict[str, tuple[tuple[type, ...], Callable[[Any], bool]]] = {
    "null": ((type(None),), lambda value: value is None),
    "integer": ((int,), _is_integer),
    "number": ((int, float), _is_number),
    "string": ((str,), lambda value: isinstance(value, str)),
    "object": ((dict,), lambda value: isinstance(value, dict)),
}
_PLAIN_NUMBERS = frozenset(_TYPES["number"][0])

# "$schema" only names the dialect; it checks nothing
_KEYWORDS = frozenset({"$schema", "type", "const", "enum", "required",
                       "properties", "minimum"})

Check = Callable[[Any], None]


def _json_equal(a: Any, b: Any) -> bool:
    """Equality of a value and a schema scalar; a bool equals only itself."""
    if a is b:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return False
    return a == b


def _scalars(values: list[Any], path: str, keyword: str) -> tuple[Any, ...]:
    if not all(v is None or isinstance(v, (str, int, float)) for v in values):
        raise ValueError(f"{path}: the record checker compares {keyword!r} "
                         f"only with JSON scalars, got {values!r}")
    return tuple(values)


def _type_check(names: Any, path: str) -> Check:
    names = [names] if isinstance(names, str) else list(names)
    unknown = [t for t in names if t not in _TYPES]
    if unknown:
        raise ValueError(f"{path}: the record checker has no type {unknown}")
    # the exact-type lookup settles every value a record normally holds
    fast = frozenset(t for name in names for t in _TYPES[name][0])
    tests = tuple(_TYPES[name][1] for name in names)
    expected = " or ".join(names)

    def check_type(value):
        if type(value) not in fast and not any(test(value) for test in tests):
            raise RecordError(path, "type", f"{value!r} is not of type {expected}")
    return check_type


def _compile(schema: Mapping[str, Any], path: str) -> tuple[Check, ...]:
    """The checks of ``schema``'s keywords, applied at JSON path ``path``."""
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"{path}: the record checker does not support "
                         f"keyword(s) {sorted(unknown)}")
    checks: list[Check] = []
    if "type" in schema:
        checks.append(_type_check(schema["type"], path))
    if "const" in schema:
        (const,) = _scalars([schema["const"]], path, "const")

        def check_const(value):
            if not _json_equal(value, const):
                raise RecordError(path, "const", f"{const!r} was expected, "
                                  f"got {value!r}")
        checks.append(check_const)
    if "enum" in schema:
        enum = _scalars(schema["enum"], path, "enum")

        def check_enum(value):
            if not any(_json_equal(each, value) for each in enum):
                raise RecordError(path, "enum", f"{value!r} is not one of "
                                  f"{list(enum)!r}")
        checks.append(check_enum)
    if "minimum" in schema:
        minimum = schema["minimum"]

        def check_minimum(value):
            # only a number is compared, and NaN is not less than anything
            if ((type(value) in _PLAIN_NUMBERS or _is_number(value))
                    and value < minimum):
                raise RecordError(path, "minimum", f"{value!r} is less than "
                                  f"{minimum!r}")
        checks.append(check_minimum)
    if "required" in schema or "properties" in schema:
        required = tuple(schema.get("required", ()))
        props = tuple((key, _compile(sub, f"{path}.{key}"))
                      for key, sub in schema.get("properties", {}).items())

        def check_object(value):
            if not isinstance(value, dict):
                return
            for key in required:
                if key not in value:
                    raise RecordError(path, "required", f"{key!r} is missing")
            for key, sub_checks in props:
                if key in value:
                    item = value[key]
                    for check in sub_checks:
                        check(item)
        checks.append(check_object)
    return tuple(checks)


# compiled once, at import: a call walks closures, never the schema dict
_RECORD_CHECKS = _compile(RECORD_SCHEMA, "record")


def validate_record(record: Mapping[str, Any]) -> None:
    """Raise ``RecordError`` unless ``record`` matches ``RECORD_SCHEMA``."""
    for check in _RECORD_CHECKS:
        check(record)


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
            {"phase": k, "members": f.ids.tolist(),
             "pushed_weights": dict(zip(map(str, f.ids.tolist()), f.pushed.tolist()))}
            for k, f in enumerate(outcome.stack, 1)
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
            oracle.get("opt"), oracle.get("ratio"),
            r["result"]["rounds"], r["result"]["messages"],
            r["result"]["max_message_bits"], r["wall_time_s"],
        ]
        # a null (no oracle, or a ratio over a zero-weight set) is an empty cell
        lines.append(",".join("" if x is None else str(x) for x in row))
    return "\n".join(lines) + "\n"
