"""The benchmark in ``perfbench/`` binds mwisim names and checks engine ledgers.

Its tracer rebinds functions and node-program methods by name, so renaming
or removing one breaks ``perfbench/run.py --trace 1`` at install time. Both
self-tests run here on small inputs: the exact-check path counts doctored
outcomes as failures, and every traced algorithm's engine spans sum to its
RoundStats, which covers each local-ratio reduction round.

The benchmark's seed-1 outputs are pinned too: a change that alters
simulated counts or records has changed behaviour, and shows here first.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import selftest  # noqa: E402
import workloads  # noqa: E402


def test_checker_selftest():
    assert selftest.checker_selftest() == []


def test_tracer_selftest():
    assert selftest.tracer_selftest() == []


def _seed_one_pass(workload):
    w = workloads.make(workload)
    w.setup(1)
    return w.run_pass()


def test_oracle26_seed1_counts_and_records_pinned():
    p = _seed_one_pass("oracle-26")
    assert (p.rounds, p.messages, p.max_bits) == (2330, 57208, 50)
    assert len(p.outputs) == 360
    lines = "".join(json.dumps({k: v for k, v in r.items() if k != "wall_time_s"},
                               sort_keys=True) + "\n" for r in p.outputs)
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "d15e664814b505009999e300a95bb0d2b282ef854cef4063f3d0a7d999b9620f")


def test_verify_quick_seed1_counts_pinned():
    p = _seed_one_pass("verify-quick")
    assert (p.rounds, p.messages, p.max_bits) == (2426, 10441646, 72)
