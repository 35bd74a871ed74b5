"""Checks on the benchmark itself: traced call counts are deterministic,
and the output check turns a digest mismatch into a failed run.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_cli()
TABLE = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
EXPECTED = {key: digest for cells in TABLE.values() for key, digest in cells.items()}
COUNTS = (
    "mlp.gradient.calls",
    "vectors.angle_between.calls",
    "aggregation.apply_rule.calls",
    "mlp.loss.calls",
)


def test_traced_call_counts_repeat(tmp_path):
    # one crafting cell and one leave-one-out cell exercise all four counters
    cells = [workloads.cells("sync-attack", 0)[3], workloads.cells("async-robust", 0)[1]]
    assert [c[0] for c in cells] == ["fedpoisonmia-atm", "async-fang"]
    runner = run.CellRunner(CLI, EXPECTED, tmp_path)
    first = run.traced_pass(runner, CLI, cells)[1]
    second = run.traced_pass(runner, CLI, cells)[1]
    for key in COUNTS:
        assert first[key] > 0, key
        assert first[key] == second[key], key
    assert (runner.attempted, runner.failed) == (4, 0)


def test_corrupted_digest_is_a_failed_run(tmp_path):
    name, seed, values = workloads.cells("async-robust", 0)[0]
    key = f"{name}@{seed}"
    good = EXPECTED[key]
    bad = ("1" if good[0] == "0" else "0") + good[1:]
    for digest, failed in ((good, 0), (bad, 1)):
        runner = run.CellRunner(CLI, {key: digest}, tmp_path)
        runner.run(name, seed, values)
        assert (runner.attempted, runner.failed) == (1, failed)
