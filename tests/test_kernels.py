"""Each program's array kernel against the per-node reference interpreter.

``run_on_subgraph`` runs a program's kernel unless ``node_order`` is given;
with ``node_order=list`` the interpreter runs in id order. Both forms send
through the same ``Net``, which holds the round limit, the CONGEST check and
the charge, so these tests compare what each form computes: outputs,
``RoundStats`` (with ``per_round_messages``, ``max_message_bits`` and
``budget_bits``) and any error with all of its fields must agree.
"""

import ast
import inspect
import os
import random
import tempfile
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwisim import boost, engine, heavy, mis, ranking, sparsify, verify
from mwisim.algorithms import ALGORITHMS, as_inner, run_algorithm
from mwisim.cliquecycle import rand_mis
from mwisim.cli import main as run_cli
from mwisim.engine import (DEFAULT_MAX_ROUNDS, CongestViolation, EngineError, Net,
                           RoundLimitExceeded, RoundStats, message_budget_bits, run,
                           run_on_subgraph)
from mwisim.graphs import (INT64_MAX, WEIGHT_MODELS, IndependentSet, WeightedGraph,
                           generate, load, neighbor_reduce, save)
from mwisim.records import GraphSource, make_record, replay, same_outcome, to_jsonl
from mwisim.wire import Message, WireError, check_fields, message_sizes
from test_boost import stack_arrays
from test_golden import GRAPHS

PROGRAM_CLASSES = (mis.LubyProgram, heavy.LocalStatsProgram,
                   sparsify.ProfileProgram, ranking.BoppanaProgram,
                   boost.ResidualUpdateProgram)
PARAMS = {"eps": 0.5, "alpha": 2, "c": None, "lam": None}


def outcome(fn):
    """What a run shows: its value, or its error with every field."""
    try:
        return ("ok", fn())
    except (EngineError, ValueError, OverflowError) as e:
        return (type(e).__name__, str(e), vars(e))


def listed(result):
    """A run's ``(outputs, stats)`` with the outputs as a list, for ``==``."""
    out, stats = result
    return out.tolist(), stats


def both(g, program, **kw):
    return (outcome(lambda: listed(run(g, program, **kw))),
            outcome(lambda: listed(run(g, program, node_order=list, **kw))))


def programs(g, rng):
    independent = set()
    for v in g.nodes:
        if rng.random() < 0.4 and not independent.intersection(g.adj[v]):
            independent.add(v)
    selected = frozenset(independent)
    return [mis.LubyProgram(), heavy.LocalStatsProgram(),
            sparsify.ProfileProgram(rng.choice([0.3, 4.0])),
            ranking.BoppanaProgram(rng.randint(1, 4)),
            boost.ResidualUpdateProgram(selected)]


weights = st.one_of(st.integers(0, 10**6),
                    st.integers(INT64_MAX - 2**20, INT64_MAX))


@given(st.integers(1, 30), st.floats(0.0, 0.6), st.integers(0, 2**32),
       st.lists(weights, min_size=30, max_size=30), st.integers(0, 2**64),
       st.sampled_from(["congest", "local"]),
       st.sampled_from([1, 2, 3, DEFAULT_MAX_ROUNDS]),
       st.sampled_from([None, 1, 4096]))
@settings(max_examples=120, deadline=None)
def test_kernels_equal_the_interpreter(n, p, graph_seed, ws, seed, mode,
                                       max_rounds, n_upper):
    base = generate("gnp", {"n": n, "p": p}, "unit", graph_seed)
    g = base.induced(base.mask(base.nodes), ws[:base.n])
    rng = random.Random(graph_seed)
    sub = np.array([rng.random() < 0.8 for _ in g.nodes], dtype=bool)
    kw = dict(mode=mode, seed=seed, n_upper=n_upper)
    for program in programs(g, rng):
        with mock.patch.object(engine, "DEFAULT_MAX_ROUNDS", max_rounds):
            kernel, reference = both(g, program, **kw)
            assert kernel == reference, type(program).__name__
            # a subset, and the empty graph
            for keep in (sub, np.zeros(g.n, dtype=bool)):
                kernel = outcome(lambda: listed(run_on_subgraph(g, keep, program, **kw)))
                reference = outcome(lambda: listed(run_on_subgraph(
                    g, keep, program, node_order=list, **kw)))
                assert kernel == reference, type(program).__name__
        assert kernel == ("ok", ([], RoundStats(budget_bits=kernel[1][1].budget_bits)))


@contextmanager
def interpreted():
    """Takes the kernels away, so every engine run interprets."""
    saved = [(cls, cls.kernel) for cls in PROGRAM_CLASSES]
    try:
        for cls, _ in saved:
            del cls.kernel
        yield
    finally:
        for cls, kernel in saved:
            cls.kernel = kernel


def _comparable(o):
    """A run's outcome with its stack as arrays, so two runs compare by value."""
    return o.iset, o.stats, o.diagnostics, stack_arrays(o.stack)


def _algorithm_runs(graphs, modes=("congest", "local")):
    out = []
    for g in graphs:
        for mode in modes:
            for alg in ALGORITHMS:
                r = outcome(lambda: run_algorithm(g, alg, PARAMS, seed=7, mode=mode))
                if r[0] == "ok":
                    r = ("ok", *_comparable(r[1]))
                out.append((alg, mode, r))
    return out


def test_golden_grid_and_c10_sweep_interpret_the_same():
    graphs = [generate(family, params, weights, k)
              for k, (family, params) in enumerate(GRAPHS) for weights in WEIGHT_MODELS]
    graphs.append(generate("gnp", {"n": 60, "p": 0.12}, "uniform_range", 99))
    kernels = _algorithm_runs(graphs)
    with interpreted():
        assert _algorithm_runs(graphs) == kernels
    assert all(r[0] == "ok" for _, _, r in kernels)


# ------------------------------------------------------- the output form

# the dtype each program's kernel returns; the reduction's residuals are
# Python ints (object) where a closed neighbourhood's sum can pass int64
KERNEL_DTYPES = {mis.LubyProgram: bool, heavy.LocalStatsProgram: bool,
                 sparsify.ProfileProgram: np.float64, ranking.BoppanaProgram: bool,
                 boost.ResidualUpdateProgram: np.int64}


@pytest.mark.parametrize("mode", ["congest", "local"])
@pytest.mark.parametrize("near_int64_max", [False, True])
def test_runs_return_one_array_by_position(mode, near_int64_max):
    base = generate("gnp", {"n": 30, "p": 0.2}, "uniform_range", 4)
    ws = [INT64_MAX - w if near_int64_max else w for w in base.w.tolist()]
    g = base.induced(np.ones(base.n, dtype=bool), ws)
    rng = random.Random(6)
    sub = np.array([rng.random() < 0.7 for _ in g.nodes], dtype=bool)
    seen = set()
    for program in programs(g, rng):
        for keep in (np.ones(g.n, dtype=bool), sub, np.zeros(g.n, dtype=bool)):
            # n_upper 2^40: a 1280-bit budget, which every message fits
            kw = dict(mode=mode, seed=3, n_upper=2**40)
            kernel, stats = run_on_subgraph(g, keep, program, **kw)
            reference, ref_stats = run_on_subgraph(g, keep, program, node_order=list, **kw)
            for out in (kernel, reference):
                assert type(out) is np.ndarray and out.shape == (np.count_nonzero(keep),)
            assert reference.dtype == object
            want = KERNEL_DTYPES[type(program)]
            if kernel.dtype == object:
                assert want is np.int64 and near_int64_max and keep.any()
            else:
                assert kernel.dtype == want
            seen.add((type(program), kernel.dtype))
            assert kernel.tolist() == reference.tolist()
            assert list(map(type, kernel.tolist())) == list(map(type, reference.tolist()))
            assert stats == ref_stats
    assert len(seen) == 5 + near_int64_max  # the object residuals came up


def _functions(names):
    """``(module stem, function node)`` for each function in ``src/mwisim``
    whose name is in ``names``, methods included."""
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                yield path.stem, fn


def _called_names(fn):
    return {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))}


def test_no_kernel_converts_its_output_to_a_list():
    """The kernels and the profile's array forms return the arrays they
    compute: none of them calls ``.tolist()``."""
    checked = []
    for stem, fn in _functions(("kernel", "compute_sampling_profile", "_profile")):
        checked.append((stem, fn.name))
        assert "tolist" not in _called_names(fn), (stem, fn.name)
    assert sorted(checked) == [("boost", "kernel"), ("heavy", "kernel"), ("mis", "kernel"),
                               ("ranking", "kernel"), ("sparsify", "_profile"),
                               ("sparsify", "compute_sampling_profile"),
                               ("sparsify", "kernel")]


def test_each_kernel_states_its_rules_once():
    """No kernel re-enters the sequential profile, which has no ``net``
    mode, and the good-node kernel decides by ``heavy.is_good`` with no
    comparison of its own."""
    kernels = dict(_functions(("kernel",)))  # one per module
    assert sorted(kernels) == ["boost", "heavy", "mis", "ranking", "sparsify"]
    for stem, fn in kernels.items():
        assert "compute_sampling_profile" not in _called_names(fn), stem
    assert list(inspect.signature(sparsify.compute_sampling_profile).parameters) == [
        "g", "lam"]
    stats = kernels["heavy"]  # LocalStatsProgram.kernel
    assert "is_good" in _called_names(stats)
    assert not [node for node in ast.walk(stats) if isinstance(node, ast.Compare)]


# ------------------------------------------------------- weights near 2^63

big_weights = st.lists(st.integers(INT64_MAX - 2**16, INT64_MAX), min_size=4,
                       max_size=4)


@given(st.integers(2, 4), st.floats(0.0, 1.0), st.integers(0, 2**32), big_weights,
       st.integers(0, 99))
@settings(max_examples=25, deadline=None)
def test_63_bit_weights(n, p, graph_seed, ws, seed):
    # n <= 4 keeps the CONGEST budget at 32 or 64 bits, below one 63-bit
    # weight plus its headers
    g = generate("gnp", {"n": n, "p": p}, "unit", graph_seed)
    g = g.induced(g.mask(g.nodes), ws[:g.n])
    # totals are exact Python ints: four weights near 2^63 overflow an int64 sum
    assert g.total_weight() == sum(ws[:n]) and type(g.total_weight()) is int
    kernels = _algorithm_runs([g])
    with interpreted():
        assert _algorithm_runs([g]) == kernels
    heavy_run = {mode: r for alg, mode, r in kernels if alg == "heavy"}
    senders = [v for v in g.nodes if g.adj[v]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "big.g")
        with open(path, "w", encoding="utf-8") as f:
            f.write(save(g))
        code = run_cli(["run", "--graph", path, "--alg", "heavy",
                        "--seeds", str(seed)])
    if senders:
        # the first sender's (degree, weight) message breaks the budget
        kind, _, fields = heavy_run["congest"]
        assert kind == "CongestViolation" and code == 4
        assert fields["sender"] == senders[0] and fields["round_no"] == 1
        assert fields["receiver"] == g.adj[senders[0]][0]
        assert fields["budget_bits"] == message_budget_bits(n) <= 64
        assert fields["size_bits"] > 64
    else:
        assert heavy_run["congest"][0] == "ok" and code == 0
    # LOCAL mode: exact, whatever the sum
    kind, iset, *_ = heavy_run["local"]
    assert kind == "ok"
    for alg, mode, (kind, *rest) in kernels:
        if kind != "ok":
            continue
        iset, _, _, stack = rest
        assert iset.weight == sum(ws[v] for v in iset.members)  # id v is position v
        assert type(iset.weight) is int
        if mode == "local" and stack is not None:
            total = sum(sum(pushed) for _, pushed in stack)
            assert type(total) is int and iset.weight >= total
            # phase 1 pushes original weights
            ids, pushed = stack[0]
            assert pushed == [ws[v] for v in ids]
    # no run is refused in LOCAL mode: a residual past int64 is negative and
    # only drops its node, and the sampler's weighted degree travels as limbs
    assert all(kind == "ok" for alg, mode, (kind, *_) in kernels if mode == "local")


def big_star():
    """The centre (weight 1) of a star with eight leaves of weight 2^63 - 1:
    its weighted degree 2^66 - 8 goes out as the limbs (2^63 - 8, 7). Built
    anew on each call, so its first profile run computes rather than
    returning a run kept from another test."""
    return WeightedGraph(range(9), [(0, v) for v in range(1, 9)],
                         {0: 1, **{v: INT64_MAX for v in range(1, 9)}})


@pytest.mark.parametrize("alg", ["sparse", "boost-sparse"])
def test_weighted_degree_past_63_bits_in_congest_mode(alg, monkeypatch):
    # n = 9 gives a 128-bit budget, which holds the centre's limbs:
    # 4 + (6 + 63) + (6 + 3) = 82 bits
    star = big_star()
    program = sparsify.ProfileProgram(4.0)
    kernel, reference = both(star, program, mode="congest")
    assert kernel == reference and kernel[0] == "ok"
    assert kernel[1][1].max_message_bits == 82
    out = run_algorithm(star, alg, PARAMS, seed=0, mode="congest")
    assert out.iset.members == frozenset(range(1, 9))
    assert out.iset.weight == 8 * INT64_MAX
    # an 80-bit budget holds each leaf's (degree, weight) in round 1,
    # 4 + (6 + 1) + (6 + 63) = 80 bits, but not the centre's limbs in round 2
    monkeypatch.setattr(engine, "DEFAULT_C_MSG", 20)
    kernel, reference = both(star, program, mode="congest")
    assert kernel == reference
    kind, _, fields = kernel
    assert kind == "CongestViolation"
    assert fields == {"sender": 0, "receiver": 1, "round_no": 2,
                      "size_bits": 82, "budget_bits": 80}
    with pytest.raises(CongestViolation):
        run_algorithm(star, alg, PARAMS, seed=0, mode="congest")


def test_local_heavy_weight_past_int64_is_stored_exactly(tmp_path):
    g = WeightedGraph(range(3), [(0, 1)], {v: INT64_MAX for v in range(3)})
    path = tmp_path / "big.g"
    text = save(g)
    path.write_text(text)
    source = GraphSource.from_file(str(path), text)
    rec = make_record(g, source, "heavy", {}, seed=0, mode="local")
    # the isolated node and one end of the edge: 2 * (2^63 - 1)
    assert rec["result"]["weight"] == 2**64 - 2
    assert '"weight": 18446744073709551614' in to_jsonl([rec])
    assert same_outcome(rec, replay(rec))


def shuffled(seed):
    """A ``node_order`` that shuffles the nodes with ``random.Random(seed)``."""
    shuffler = random.Random(seed)

    def order(nodes):
        nodes = list(nodes)
        shuffler.shuffle(nodes)
        return nodes

    return order


def test_shuffled_interpreter_matches_the_kernel():
    g = generate("gnp", {"n": 40, "p": 0.2}, "uniform_range", 5)
    want = listed(run(g, mis.LubyProgram(), seed=11))
    for k in range(5):
        assert listed(run(g, mis.LubyProgram(), seed=11, node_order=shuffled(k))) == want


@pytest.mark.parametrize("program", [sparsify.ProfileProgram(0.3), heavy.LocalStatsProgram()],
                         ids=["profile", "stats"])
@pytest.mark.parametrize("mode", ["congest", "local"])
def test_shuffled_interpreter_matches_the_kernel_where_ids_are_not_positions(
        program, mode, monkeypatch):
    """Every node sends in every round of both programs, so the interpreter
    hands each node its CSR row of the messages by position; on a subgraph
    with gaps in its ids, and in a shuffled order, that row must still be
    the messages of the node's neighbours."""
    filtered = []

    def counting_filter(*args):
        filtered.append(args)
        return filter(*args)

    monkeypatch.setattr(engine, "filter", counting_filter, raising=False)
    g = generate("gnp", {"n": 60, "p": 0.15}, "heavy_tail", 3)
    keep = np.array([v % 3 != 1 for v in g.nodes])
    h = g.induced(keep)
    assert h.nodes != tuple(range(h.n)) and h.csr()[1].size
    want = listed(run_on_subgraph(g, keep, program, mode=mode))
    for k in range(4):
        assert listed(run_on_subgraph(g, keep, program, mode=mode,
                                      node_order=shuffled(k))) == want
    assert not filtered


def test_round_limit_and_budget_errors_carry_the_same_fields():
    g = generate("gnp", {"n": 50, "p": 0.2}, "unit", 1)
    for program in (mis.LubyProgram(), heavy.LocalStatsProgram()):
        with mock.patch.object(engine, "DEFAULT_MAX_ROUNDS", 1):
            kernel, reference = both(g, program)
        assert kernel[0] == "RoundLimitExceeded" and kernel == reference
        assert isinstance(kernel[2]["stats"].per_round_messages, list)
    fat = WeightedGraph([0, 1, 2], [(1, 2)], {0: 10**6, 1: 10**6, 2: 10**6})
    kernel, reference = both(fat, heavy.LocalStatsProgram(), n_upper=2)
    assert kernel[0] == "CongestViolation" and kernel == reference
    assert (kernel[2]["sender"], kernel[2]["receiver"]) == (1, 2)
    with mock.patch.object(engine, "DEFAULT_MAX_ROUNDS", 1), \
            pytest.raises(RoundLimitExceeded):
        run(g, mis.LubyProgram())
    with pytest.raises(CongestViolation):
        run(fat, heavy.LocalStatsProgram(), n_upper=2)


# field values where a float64 bit length can round the wrong way, and the
# first ones past the wire's range
EDGE_VALUES = (0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62, INT64_MAX)
OUT_OF_RANGE = (-1, -(2**63), INT64_MAX + 1, 2**64)


@st.composite
def message_fields(draw):
    """Up to three fields of one round's messages: int64 arrays, or
    object arrays (always when a value leaves int64), a few values out of
    the wire's range."""
    count = draw(st.integers(0, 6))
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, INT64_MAX))
    if draw(st.booleans()):
        value = st.one_of(value, st.sampled_from(OUT_OF_RANGE))
    fields = []
    for _ in range(draw(st.integers(0, 3))):
        col = draw(st.lists(value, min_size=count, max_size=count))
        in_int64 = all(-(2**63) <= v <= INT64_MAX for v in col)
        dtype = np.int64 if in_int64 and draw(st.booleans()) else object
        fields.append(np.array(col, dtype=dtype))
    return count, fields


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 15), message_fields())
def test_message_sizes_equal_message_size_bits(tag, case):
    count, fields = case
    try:
        want = [Message(tag, tuple(int(f[i]) for f in fields)).size_bits
                for i in range(count)]
    except WireError as e:
        with pytest.raises(WireError) as got:
            check_fields(fields, count)
        assert str(got.value) == str(e)
        return
    check_fields(fields, count)
    sizes = message_sizes(fields, count)
    assert sizes.dtype == np.int64 and sizes.tolist() == want


@st.composite
def send_rounds(draw):
    """One ``Net.send`` call: a graph with some isolated nodes, the
    active and sending nodes, and 0, 1 or 2 fields by position, which may
    hold a value outside the wire's range (at a sender or not) and may give
    an isolated sender the round's largest value."""
    n = draw(st.integers(1, 8))
    # nodes outside ``linked`` are isolated, wherever they fall by position
    linked = sorted(draw(st.lists(st.integers(0, n - 1), min_size=min(n, 2),
                                  unique=True)))
    pairs = [(u, v) for i, u in enumerate(linked) for v in linked[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)) if pairs else []
    g = WeightedGraph(range(n), edges, {v: 1 for v in range(n)})
    senders = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    active = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.integers(0, 3)) == 0:  # a final round: no node goes on
        active[:] = False
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, INT64_MAX))
    fields = []
    for _ in range(draw(st.integers(0, 2))):
        col = draw(st.lists(value, min_size=n, max_size=n))
        isolated = [v for v in range(n) if senders[v] and not g.degrees[v]]
        if isolated and draw(st.booleans()):
            col[draw(st.sampled_from(isolated))] = INT64_MAX
        if draw(st.integers(0, 4)) == 0:
            col[draw(st.integers(0, n - 1))] = draw(st.sampled_from(OUT_OF_RANGE))
        in_int64 = all(-(2**63) <= v <= INT64_MAX for v in col)
        dtype = np.int64 if in_int64 and draw(st.booleans()) else object
        fields.append(np.array(col, dtype=dtype))
    # sizes run from 4 bits (no field) to 4 + 2 * (6 + 63)
    budget = draw(st.one_of(st.none(), st.integers(0, 150)))
    return g, active, senders, draw(st.integers(0, 15)), fields, budget


def send_by_sender(g, active, senders, tag, fields, budget):
    """``Net.send``'s checks and charge with one ``Message`` per sender."""
    msgs = [(u, Message(tag, tuple(int(f[u]) for f in fields)))
            for u in senders.nonzero()[0].tolist()]
    if not active.any():
        return None
    talking = [(u, m.size_bits) for u, m in msgs if g.degrees[u]]
    for u, bits in talking:
        if budget is not None and bits > budget:
            raise CongestViolation(u, int(g.csr()[1][g.csr()[0][u]]), 1, bits, budget)
    msgs_sent = sum(int(g.degrees[u]) for u, _ in msgs)
    return 1, msgs_sent, [msgs_sent], max((bits for _, bits in talking), default=0)


def send_once(g, active, senders, tag, fields, budget):
    net = Net(g, g.n, 0, budget)
    net.send(active, senders, tag, *fields)
    stats = net.stats
    return (stats.rounds, stats.messages_sent, stats.per_round_messages,
            stats.max_message_bits) if stats.rounds else None


# node 0 is an isolated sender with the round's largest value: it sends nothing
_EDGE_AND_ISOLATED = WeightedGraph(range(3), [(1, 2)], {v: 1 for v in range(3)})
_EVERY = np.ones(3, dtype=bool)
_TOP_ISOLATED = [np.array([INT64_MAX, 1, 2**53 + 1], dtype=np.int64)]


@settings(max_examples=400, deadline=None)
@given(send_rounds())
@example((_EDGE_AND_ISOLATED, _EVERY, _EVERY, 1, _TOP_ISOLATED, None))
@example((_EDGE_AND_ISOLATED, _EVERY, _EVERY, 1, _TOP_ISOLATED, 40))
@example((_EDGE_AND_ISOLATED, ~_EVERY, _EVERY, 1, [np.array([1, -1, 2])], None))
def test_send_sizes_a_round_as_its_largest_message(case):
    # node ids are positions, so both name the same nodes
    want = outcome(lambda: send_by_sender(*case))
    assert outcome(lambda: send_once(*case)) == want


def test_one_field_rounds_build_no_per_sender_sizes(monkeypatch):
    g = generate("gnp", {"n": 40, "p": 0.2}, "uniform_range", 5)
    selected = frozenset(g.nodes[::4])
    programs = (mis.LubyProgram(), boost.ResidualUpdateProgram(selected))
    want = [listed(run(g, p, mode=mode, seed=3))
            for p in programs for mode in ("congest", "local")]

    def refuse(*args):
        raise AssertionError("a round with at most one field built per-sender sizes")

    monkeypatch.setattr(engine, "message_sizes", refuse)
    assert [listed(run(g, p, mode=mode, seed=3))
            for p in programs for mode in ("congest", "local")] == want


def test_kernels_build_no_message(monkeypatch):
    """With ``Message`` refused, the kernels of every algorithm run in both
    modes on the C10 graph, the limb paths run (ranks at c = 20, weighted
    degrees past 2^63 in LOCAL mode), and a field outside the wire's range
    still raises the interpreter's ``WireError``. Each pass runs on graphs
    built anew, so the refused pass computes the seedless kernels rather
    than returning the runs the first pass kept."""
    def graphs():
        return (generate("gnp", {"n": 60, "p": 0.12}, "uniform_range", 99),
                generate("gnp", {"n": 24, "p": 0.2}, "unit", 2), big_star())

    def runs(c10, unit, star):
        ranks = [run_algorithm(unit, alg, {**PARAMS, "c": 20}, seed=2, mode=mode)
                 for alg in ("boppana", "fastld") for mode in ("congest", "local")]
        sums = [run_algorithm(star, alg, PARAMS, seed=0, mode="local")
                for alg in ("sparse", "boost-sparse")]
        return _algorithm_runs([c10]), [_comparable(o) for o in ranks + sums]

    want = runs(*graphs())
    assert all(r[0] == "ok" for _, _, r in want[0])
    assert want[1][0][1].max_message_bits == 124
    bad = [np.array([1, -1, 2]), np.array([1, 2**63, 2], dtype=object)]
    texts = []
    for f in bad:
        with pytest.raises(WireError) as e:
            Message(1, (int(f[1]),))
        texts.append(str(e.value))

    def refuse(self):
        raise AssertionError("a kernel built a Message")

    monkeypatch.setattr(Message, "__post_init__", refuse)
    c10, unit, star = graphs()
    assert c10._runs is star._runs is None
    assert runs(c10, unit, star) == want
    # the refused pass kept its own good-node and profile runs on C10, and
    # the star's profile in LOCAL mode, where the limbs go out
    assert {type(key[0]) for key in c10._runs} == {heavy.LocalStatsProgram,
                                                   sparsify.ProfileProgram}
    assert (sparsify.ProfileProgram(4.0), star.n, None) in star._runs
    for f, text in zip(bad, texts):
        with pytest.raises(WireError) as e:
            Net(_EDGE_AND_ISOLATED, 3, 0, None).send(_EVERY, _EVERY, 1, f)
        assert str(e.value) == text
    with pytest.raises(WireError) as e:
        Net(_EDGE_AND_ISOLATED, 3, 0, None).send_limbs(_EVERY, _EVERY, 1, bad[1] - 2)
    assert str(e.value) == texts[0]


def test_send_checks_the_tag_as_message_does():
    """A kernel's tag out of range raises the ``WireError`` of ``Message``,
    before its fields are checked and even when no node is active."""
    for tag in (16, -1):
        with pytest.raises(WireError) as want:
            Message(tag, (1,))
        assert str(want.value) == f"tag {tag} does not fit in 4 bits"
        for active in (_EVERY, ~_EVERY):
            for f in (np.array([1, 2, 3]), np.array([1, -1, 2])):
                net = Net(_EDGE_AND_ISOLATED, 3, 0, 64)
                with pytest.raises(WireError) as got:
                    net.send(active, _EVERY, tag, f)
                assert str(got.value) == str(want.value)
                assert net.stats.rounds == 0
    net = Net(_EDGE_AND_ISOLATED, 3, 0, 64)
    net.send(_EVERY, _EVERY, 15, np.array([1, 2, 3]))
    assert net.stats.per_round_messages == [2]


def test_engine_leaves_the_encoding_to_wire():
    """``engine`` takes from ``wire`` the interpreter's ``Message`` and the
    size and range functions, restates none of them, and builds no
    ``Message``."""
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for module, name in imported if module == "wire"} == {
        "Message", "size_bits", "check_tag", "check_fields", "message_sizes",
        "limb_sizes"}
    assert (None, "wire") not in imported
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"FIELD_BITS", "LEN_BITS", "TAG_BITS", "to_limbs",
                        "bit_length", "frexp"}
    helpers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and any(word in fn.name for word in ("size", "field", "bit_length"))]
    assert helpers == []
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "Message"]


def test_kernels_and_graph_queries_build_no_adjacency_tuples():
    g = generate("gnp", {"n": 200, "p": 0.05}, "uniform_range", 3)
    out, _ = run(g, mis.LubyProgram(), seed=1)
    selected = frozenset(compress(g.nodes, out))
    for program in (heavy.LocalStatsProgram(), sparsify.ProfileProgram(4.0),
                    ranking.BoppanaProgram(2),
                    boost.ResidualUpdateProgram(selected)):
        run(g, program, seed=1)
    keep = np.zeros(g.n, dtype=bool)
    keep[::3] = True
    h = g.induced(keep)
    run_on_subgraph(g, keep, mis.LubyProgram(), seed=2)
    run(h, heavy.LocalStatsProgram(), seed=2)
    assert IndependentSet.of(g, np.array(out)).weight == g.total_weight(selected)
    assert g.max_degree == max(g.degrees.tolist()) and g.m == g.csr()[1].size // 2
    neighbor_reduce(g, np.add, np.ones(g.n, dtype=np.int64))
    assert g._adj is None and h._adj is None


def test_run_paths_read_no_adjacency_tuples(monkeypatch):
    """With ``WeightedGraph.adj`` refused: a record of every algorithm in
    both modes with the oracle and the stack, ``arb`` with and without
    alpha, ``save`` and ``load``, the reduction as C9 runs it, and the quick
    C3, C8 and C9."""
    def refuse(g):
        raise AssertionError("a run path read WeightedGraph.adj")

    monkeypatch.setattr(WeightedGraph, "adj", property(refuse))
    for source in (GraphSource.generator("gnp", {"n": 24, "p": 0.2}, "heavy_tail", 2),
                   GraphSource.generator("cycle", {"n": 24}, "uniform_range", 3)):
        g = source.build()
        for alg in ALGORITHMS:
            for mode in ("congest", "local"):
                make_record(g, source, alg, {**PARAMS, "alpha": None}, seed=1, mode=mode,
                            oracle=True, dump_stack=True)
        record = make_record(g, source, "arb", PARAMS, seed=1, oracle=True, dump_stack=True)
        assert record["algorithm"]["alpha"] == 2
        assert load(save(g)) == g
    inner = as_inner("sparse", {"lam": 4.0}, "local")
    assert rand_mis(generate("cycle", {"n": 32}, "unit", 0), inner, 16, seed=5).iset
    assert verify._c3_boost(verify._Tally(), quick=True)[0]
    assert verify._c8_arb(verify._Tally(), quick=True)[0]
    assert verify._c9_reduction(quick=True)[0]
    with pytest.raises(AssertionError, match="read WeightedGraph.adj"):
        g.adj


def test_only_the_interpreter_and_arb_reduce_read_adj():
    """The functions in ``src/`` that read an ``.adj`` attribute: the
    reference interpreter and the sequential mirror the tracer binds."""
    readers = set()
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                readers.update((path.stem, fn.name) for node in ast.walk(fn)
                               if isinstance(node, ast.Attribute) and node.attr == "adj")
    assert readers == {("engine", "run_on_subgraph"), ("arb", "arb_reduce")}
