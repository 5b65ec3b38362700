"""Span tracer that instruments mwisim from outside the package.

Modules import names directly (``heavy.run is engine.run``), so wrapping a
function means rebinding it in every ``mwisim.*`` namespace that holds it.
Methods (node programs' ``init``/``step``, ``Message.__post_init__``,
``WeightedGraph.induced``) are patched on their classes. ``uninstall`` puts
every original object back, checked by identity.

Two kinds of span:

* function spans (one record per call) carry name, start, end, parent span
  and op id, plus optional info taken from the return value;
* leaf spans on the per-node hot paths (program steps, message
  construction, rng streams) are aggregated per (parent span, name) into
  call count, total time and child time, which keeps memory bounded at
  tens of thousands of nodes.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

perf = time.perf_counter

# the benchmark's fixed algorithm list (the program's own list may grow)
ALGORITHMS = ("heavy", "sparse", "boost-heavy", "boost-sparse", "arb",
              "boppana", "fastld", "luby")


def _engine_info(args, result):
    stats = result[1]
    return (stats.rounds, stats.messages_sent, stats.max_message_bits)


def _sample_info(args, result):
    return (len(result), args[0].n)


def _stack_info(args, result):
    return (result.phases, sum(1 for f in result.stack if not f.members))


def _algorithm_name(args, kwargs):
    return "algorithms." + (args[1] if len(args) > 1 else kwargs["alg"])


# (module, attribute, span name, info from (args, result))
FUNCTIONS = (
    ("records", "validate_record", "records.validate", None),
    ("records", "make_record", "records.make_record", None),
    ("graphs", "generate", "graphs.generate", None),
    ("graphs", "random_tree", "graphs.generate", None),
    ("graphs", "degeneracy", "graphs.degeneracy", None),
    ("graphs", "brute_force_max_is", "graphs.oracle", None),
    ("engine", "run_on_subgraph", "engine.run", _engine_info),
    ("mis", "verify_mis", "mis.verify", None),
    ("heavy", "heavy_mis_approx", "heavy.approx", None),
    ("sparsify", "compute_sampling_profile", "sparsify.profile_seq", None),
    ("sparsify", "sample_subgraph", "sparsify.sample", _sample_info),
    ("sparsify", "sparse_approx", "sparsify.approx", None),
    ("ranking", "check_perm_equivalence", "ranking.perm_check", None),
    ("boost", "boost", "boost.loop", _stack_info),
    ("boost", "pop_stack", "boost.pop", None),
    ("arb", "arb_approx", "arb.approx", _stack_info),
    ("arb", "arb_reduce", "arb.reduce", None),
    ("cliquecycle", "rand_mis", "cliquecycle.rand_mis", None),
)
# (module, class, method, span name)
METHODS = (
    ("graphs", "WeightedGraph", "induced", "graphs.induced"),
    ("graphs", "WeightedGraph", "is_independent", "graphs.is_independent"),
)
# (module, class or None for a function, attributes, leaf name)
LEAVES = (
    ("mis", "LubyProgram", ("init", "step"), "mis.luby_step"),
    ("heavy", "LocalStatsProgram", ("init", "step"), "heavy.stats_step"),
    ("sparsify", "ProfileProgram", ("init", "step"), "sparsify.profile_step"),
    ("ranking", "BoppanaProgram", ("init", "step"), "ranking.rank_step"),
    ("boost", "ResidualUpdateProgram", ("init", "step"), "boost.update_step"),
    ("wire", "Message", ("__post_init__",), "wire.build"),
    ("rng", None, ("node_rng",), "rng.seed"),
    ("rng", None, ("node_uniform",), "rng.uniform"),
)


# every module that may hold a reference to a wrapped object
MODULES = ("engine", "graphs", "wire", "rng", "mis", "heavy", "sparsify",
           "boost", "arb", "ranking", "cliquecycle", "records", "algorithms",
           "verify", "cli")


def _mwisim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mwisim" or name.startswith("mwisim."))]


def rebind(module: str, attr: str, make_replacement) -> list[tuple]:
    """Replace the object ``mwisim.<module>.<attr>`` wherever mwisim holds it.

    Returns the patch list ``(namespace owner, attribute, original)`` for
    ``restore``.
    """
    original = getattr(sys.modules["mwisim." + module], attr)
    replacement = make_replacement(original)
    patches = []
    for mod in _mwisim_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, name, original))
                setattr(mod, name, replacement)
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def restored(patches: list[tuple]) -> bool:
    """Every patched attribute holds its original object again."""
    return all(vars(owner)[name] is original for owner, name, original in patches)


@contextmanager
def engine_ledger(totals: list[int]):
    """Add each engine run's (rounds, messages) to ``totals`` and keep the
    maximum message size in ``totals[2]``: one wrapper call per engine run,
    for callers such as the acceptance battery that return no RoundStats."""

    def make(run_on_subgraph):
        @functools.wraps(run_on_subgraph)
        def counted(*args, **kwargs):
            outputs, stats = run_on_subgraph(*args, **kwargs)
            totals[0] += stats.rounds
            totals[1] += stats.messages_sent
            totals[2] = max(totals[2], stats.max_message_bits)
            return outputs, stats
        return counted

    patches = rebind("engine", "run_on_subgraph", make)
    try:
        yield totals
    finally:
        restore(patches)


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened while set."""

    def __init__(self):
        # [child_s, name, parent, op, start, end, info]
        self.spans: list[list] = []
        # (parent span index, name) -> [calls, total_s, child_s]
        self.leaves: dict[tuple, list] = {}
        self.op = None
        self.patches: list[tuple] = []
        self._stack: list[list] = []
        self._cur: int | None = None

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name, info=None, name_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._cur
            rec = [0.0, name_of(args, kwargs) if name_of else name, parent,
                   self.op, 0.0, 0.0, None]
            self._cur = len(spans)
            spans.append(rec)
            stack.append(rec)
            rec[4] = start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = end = perf()
                stack.pop()
                self._cur = parent
                if stack:
                    stack[-1][0] += end - start
            if info is not None:
                rec[6] = info(args, result)
            return result

        return wrapper

    def _leaf(self, fn, name):
        stack, leaves = self._stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = (self._cur, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, dt, frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += frame[0]

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        for module in MODULES:
            importlib.import_module("mwisim." + module)
        mods = sys.modules
        for module, attr, name, info in FUNCTIONS:
            self.patches += rebind(module, attr,
                                   lambda fn, n=name, i=info: self._span(fn, n, i))
        self.patches += rebind(
            "algorithms", "run_algorithm",
            lambda fn: self._span(fn, None, name_of=_algorithm_name))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(mods["mwisim." + module], cls_name)
            original = vars(cls)[attr]
            self.patches.append((cls, attr, original))
            setattr(cls, attr, self._span(original, name))
        for module, cls_name, attrs, name in LEAVES:
            for attr in attrs:
                if cls_name is None:
                    self.patches += rebind(module, attr,
                                           lambda fn, n=name: self._leaf(fn, n))
                    continue
                cls = getattr(mods["mwisim." + module], cls_name)
                original = vars(cls)[attr]
                self.patches.append((cls, attr, original))
                setattr(cls, attr, self._leaf(original, name))

    def uninstall(self) -> list[tuple]:
        """Restore every original; returns the patch list for identity checks."""
        patches, self.patches = self.patches, []
        restore(patches)
        return patches

    # -- reading the trace ---------------------------------------------------

    def engine_ledger_by_op(self) -> dict:
        """op id -> [rounds, messages, max message bits] over its engine spans."""
        out: dict = {}
        for rec in self.spans:
            if rec[1] == "engine.run" and rec[6] is not None:
                acc = out.setdefault(rec[3], [0, 0, 0])
                acc[0] += rec[6][0]
                acc[1] += rec[6][1]
                acc[2] = max(acc[2], rec[6][2])
        return out

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and summed info tuples."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": None})
        for child, name, _parent, _op, start, end, info in self.spans:
            t = out[name]
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child
            if info is not None:
                if t["info"] is None:
                    t["info"] = list(info)
                elif name == "engine.run":
                    t["info"][0] += info[0]
                    t["info"][1] += info[1]
                    t["info"][2] = max(t["info"][2], info[2])
                else:
                    t["info"] = [a + b for a, b in zip(t["info"], info)]
        for (_parent, name), (calls, total, child) in self.leaves.items():
            t = out[name]
            t["calls"] += calls
            t["total_s"] += total
            t["self_s"] += total - child
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics over everything recorded so far."""
        t = self.totals()

        def self_s(name):
            return t[name]["self_s"] if name in t else 0.0

        def calls(name):
            return t[name]["calls"] if name in t else 0

        def info(name, k):
            return t[name]["info"][k] if name in t and t[name]["info"] else 0

        run_s, runs, msgs = self_s("engine.run"), calls("engine.run"), info("engine.run", 1)
        sampled, sample_n = info("sparsify.sample", 0), info("sparsify.sample", 1)
        m = {
            "records.validate_s": self_s("records.validate"),
            "records.validate_calls": calls("records.validate"),
            "records.make_record_s": self_s("records.make_record"),
            "graphs.generate_s": self_s("graphs.generate"),
            "graphs.induced_s": self_s("graphs.induced"),
            "graphs.induced_calls": calls("graphs.induced"),
            "graphs.degeneracy_s": self_s("graphs.degeneracy"),
            "graphs.oracle_s": self_s("graphs.oracle"),
            "graphs.oracle_calls": calls("graphs.oracle"),
            "graphs.is_independent_s": self_s("graphs.is_independent"),
            "engine.run_s": run_s,
            "engine.runs": runs,
            "engine.rounds": info("engine.run", 0),
            "engine.messages": msgs,
            "engine.max_message_bits": info("engine.run", 2),
            "engine.ns_per_msg": run_s / msgs * 1e9 if msgs else 0.0,
            "engine.us_per_run": run_s / runs * 1e6 if runs else 0.0,
            "wire.build_s": self_s("wire.build"),
            "wire.messages_built": calls("wire.build"),
            "rng.seed_s": self_s("rng.seed"),
            "rng.streams": calls("rng.seed"),
            "rng.uniform_s": self_s("rng.uniform"),
            "rng.uniform_calls": calls("rng.uniform"),
            "mis.luby_step_s": self_s("mis.luby_step"),
            "mis.luby_steps": calls("mis.luby_step"),
            "mis.verify_s": self_s("mis.verify"),
            "heavy.stats_step_s": self_s("heavy.stats_step"),
            "heavy.stats_steps": calls("heavy.stats_step"),
            "heavy.approx_s": self_s("heavy.approx"),
            "sparsify.profile_step_s": self_s("sparsify.profile_step"),
            "sparsify.profile_seq_s": self_s("sparsify.profile_seq"),
            "sparsify.sample_s": self_s("sparsify.sample"),
            "sparsify.sample_frac": sampled / sample_n if sample_n else 0.0,
            "sparsify.approx_s": self_s("sparsify.approx"),
            "ranking.rank_step_s": self_s("ranking.rank_step"),
            "ranking.rank_steps": calls("ranking.rank_step"),
            "ranking.perm_check_s": self_s("ranking.perm_check"),
            "boost.update_step_s": self_s("boost.update_step"),
            "boost.loop_s": self_s("boost.loop"),
            "boost.phases": info("boost.loop", 0),
            "boost.empty_phases": info("boost.loop", 1),
            "boost.pop_s": self_s("boost.pop"),
            "arb.reduce_s": self_s("arb.reduce"),
            "arb.phases": info("arb.approx", 0),
            "arb.empty_phases": info("arb.approx", 1),
            "cliquecycle.rand_mis_s": self_s("cliquecycle.rand_mis"),
        }
        # algorithm spans are reported inclusive: their self time is only
        # dispatch, while the layer question is what one algorithm costs
        for alg in ALGORITHMS:
            name = "algorithms." + alg
            m[f"algorithms.{alg}_s"] = t[name]["total_s"] if name in t else 0.0
        return m

    def write(self, path) -> None:
        """Spans as JSON lines, then one line per aggregated leaf."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (child, name, parent, op, start, end, info) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "op": op, "start": start, "end": end,
                                    "self_s": end - start - child,
                                    "info": info}) + "\n")
            for (parent, name), (calls, total, child) in self.leaves.items():
                f.write(json.dumps({"leaf": name, "parent": parent,
                                    "calls": calls, "total_s": total,
                                    "self_s": total - child}) + "\n")
