"""The benchmark in ``perfbench/`` binds mwisim names and checks engine ledgers.

Its tracer rebinds functions and node-program methods by name, so renaming
or removing one breaks ``perfbench/run.py --trace 1`` at install time. Both
self-tests run here on small inputs: the exact-check path counts doctored
outcomes as failures, and every traced algorithm's engine spans sum to its
RoundStats, which covers each local-ratio reduction round.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import selftest  # noqa: E402


def test_checker_selftest():
    assert selftest.checker_selftest() == []


def test_tracer_selftest():
    assert selftest.tracer_selftest() == []
