"""fedarena benchmark: whole training runs through the public CLI path.

    python3 perfbench/run.py --workload sync-attack --seed 0 --seconds 45 --trace 0

Each cell of the chosen workload (see workloads.py) is one in-process
`fedarena run --config ... --out ...`, timed from outside. Cells run one
after another in this process (closed loop, no pool) until --seconds
have passed, and at least once each. Every cell's rounds.csv and
summary.json are checked against digests recorded at the seed commit;
a mismatch, a nonzero exit or a raised error counts as a failed run and
does not stop the pass.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json, with
timings corrected for host contention by HostProbe; the uncorrected
values are printed on the line before them.
--trace 1 alternates untraced and traced passes while another pair fits
in --seconds (at least one pair), and prints the per-layer
metrics; spans of the first traced pass go to perfbench/_traces/.
The last line of stdout is the JSON result; the lines before it are the
host description and one human-readable line per metric.
"""

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "reference_digests.json"
WORK = HERE / "_work"
TRACES = HERE / "_traces"
SETUP_REPEATS = 5
PROBES_PER_GAP = 10

# Fresh interpreter: import the package the way `fedarena run` does, then
# materialise every cell's world. Prints the elapsed seconds.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
from fedarena import cli, engine
for text in sys.argv[1:]:
    engine.build_world(cli.to_experiment_config(cli.parse_config_text(text)))
print(time.perf_counter() - t0)
"""


def load_cli():
    if not (SRC / "fedarena" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fedarena sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from fedarena import cli

    return cli


def run_cell(cli, values: dict, out: Path) -> int:
    """`fedarena run` on one cell's config, in process; returns its exit code."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "config.txt"
    config.write_text(workloads.config_text(values), encoding="utf-8")
    return cli.main(["run", "--config", str(config), "--out", str(out)])


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("rounds.csv", "summary.json"):
        h.update((out_dir / name).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class CellRunner:
    """Runs cells through `cli.main` and checks their outputs."""

    def __init__(self, cli, expected: dict, work: Path):
        self.cli = cli
        self.expected = expected
        self.work = work
        self.attempted = 0
        self.failed = 0

    def run(self, name: str, seed: int, values: dict) -> tuple[float, float]:
        """One cell; returns (wall s, process CPU s)."""
        out = self.work / "cell"
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            rc = run_cell(self.cli, values, out)
        except Exception:  # a crashing cell is a failed run, not a failed pass
            traceback.print_exc()
            rc = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if rc != 0 or output_digest(out) != self.expected.get(f"{name}@{seed}"):
            self.failed += 1
            print(f"perfbench: cell {name} seed {seed} failed (exit {rc})", file=sys.stderr)
        return wall, cpu

    def run_pass(self, cells) -> float:
        return sum(self.run(*cell)[0] for cell in cells)


class HostProbe:
    """Fixed reference work (a Python loop and small matrix products),
    timed in the gaps between set-up runs and cells.

    Other tenants of a shared host slow this probe and the workload alike,
    by an amount that drifts over minutes. median / min of the probe's
    timings estimates that slowdown for one run. The probe runs no
    fedarena code, so no change to the program can move it.
    """

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((64, 64)) * 0.1
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(PROBES_PER_GAP):
            t0 = time.perf_counter()
            total = 0
            for i in range(3000):
                total += i * i
            b = self._a
            for _ in range(40):
                b = np.tanh(b @ self._a)
            self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        return statistics.median(self.samples) / min(self.samples)


def setup_seconds(cells) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    texts = [workloads.config_text(values) for _, _, values in cells]
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *texts],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def end_to_end(runner: CellRunner, cells, seconds: float) -> tuple[dict, dict]:
    """Set-up in fresh interpreters, then cells round-robin until the
    deadline. Per-cell medians make one representative pass. Timings are
    divided by the host slowdown the probe measured in the same run;
    the uncorrected values are returned alongside."""
    probe = HostProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        setups.append(setup_seconds(cells))
    walls = [[] for _ in cells]
    cpus = [[] for _ in cells]
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cells) or time.perf_counter() < deadline:
        probe.sample()
        wall, cpu = runner.run(*cells[i % len(cells)])
        walls[i % len(cells)].append(wall)
        cpus[i % len(cells)].append(cpu)
        i += 1
    rounds = sum(values["rounds"] for _, _, values in cells)
    raw = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": rounds / sum(map(statistics.median, walls)),
        "cpu_ms_per_round": 1000.0 * sum(map(statistics.median, cpus)) / rounds,
    }
    slow = probe.slowdown()
    metrics = {
        "setup_s": raw["setup_s"] / slow,
        "rounds_per_s": raw["rounds_per_s"] * slow,
        "cpu_ms_per_round": raw["cpu_ms_per_round"] / slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"host_slowdown": slow, "probe_samples": len(probe.samples), "uncorrected": raw}


def layer_metrics(summary: dict, tallies: dict, crafts: int, feasible: int) -> dict:
    """Per-layer metrics of one traced pass (0 for layers never called)."""

    def stat(name, key="s"):
        return summary.get(name, {}).get(key, 0)

    def total(names, key="s"):
        return sum(stat(n, key) for n in names)

    craft = [n for n in summary if n.startswith("attacks.craft_")]
    rule_calls = stat("aggregation.apply_rule", "calls")
    rule_rows = tallies["aggregation.apply_rule"]["rows"]
    return {
        "attacks.craft.calls": total(craft, "calls"),
        "attacks.craft.s": total(craft),
        "attacks.greedy_mask_select.s": stat("attacks.greedy_mask_select"),
        "attacks.optimize_alpha.s": stat("attacks.optimize_alpha"),
        "attacks.craft.feasible_share": feasible / crafts if crafts else 0.0,
        "vectors.angle_between.calls": stat("vectors.angle_between", "calls"),
        "vectors.angle_between.s": stat("vectors.angle_between"),
        "mlp.gradient.calls": stat("mlp.gradient", "calls"),
        "mlp.gradient.rows": tallies["mlp.gradient"]["rows"],
        "mlp.gradient.s": stat("mlp.gradient"),
        "mlp.loss.calls": stat("mlp.loss", "calls"),
        "mlp.loss.s": stat("mlp.loss"),
        "aggregation.apply_rule.calls": rule_calls,
        "aggregation.apply_rule.s": stat("aggregation.apply_rule"),
        "aggregation.apply_rule.rows_mean": rule_rows / rule_calls if rule_calls else 0.0,
        "aggregation.atm.s": stat("aggregation.atm"),
        "aggregation.multi_krum.s": stat("aggregation.multi_krum"),
        "aggregation.fang_filter.s": stat("aggregation.fang_filter"),
        "aggregation.kept_share": (
            tallies["aggregation.apply_rule"]["kept"] / rule_rows if rule_rows else 0.0
        ),
        "vectors.pairwise_angles.calls": stat("vectors.pairwise_angles", "calls"),
        "vectors.pairwise_angles.s": stat("vectors.pairwise_angles"),
        # run_sync / run_async are the body of run, not a layer below it
        "engine.run.self_s": total(("engine.run", "engine.run_sync", "engine.run_async"), "self_s"),
        "engine.select_clients.calls": stat("engine.select_clients", "calls"),
        "mlp.predict_batch.s": stat("mlp.predict_batch"),
        "engine.build_world.s": stat("engine.build_world"),
        "data.s": total(
            ("data.synth_dataset", "data.partition_iid", "data.partition_noniid", "data.build_attacker_data")
        ),
        "cli.parse_config_text.s": stat("cli.parse_config_text"),
        "cli.write_outputs.s": stat("cli.write_outputs"),
    }


def traced_pass(runner: CellRunner, cli, cells) -> tuple[float, dict, Tracer]:
    """One pass with every public function of the traced layers wrapped;
    the fedpoisonmia craft observer feeds attacks.craft.feasible_share."""
    from fedarena import aggregation, attacks, data, engine, mlp, vectors

    crafts = {"all": 0, "feasible": 0}

    def observe(round_idx, result, refs):
        crafts["all"] += 1
        crafts["feasible"] += bool(result.feasible)

    tracer = Tracer()
    tracer.install((engine, data, mlp, vectors, attacks, aggregation, cli))
    traced_run = cli.run
    cli.run = lambda cfg, craft_observer=None: traced_run(cfg, craft_observer=observe)
    try:
        wall = runner.run_pass(cells)
    finally:
        tracer.uninstall()
    stats = layer_metrics(tracer.summary(), tracer.tallies, crafts["all"], crafts["feasible"])
    return wall, stats, tracer


def per_layer(runner: CellRunner, cli, cells, seconds: float, trace_path: Path) -> tuple[dict, bool]:
    """Alternate untraced and traced passes while another pair fits in
    `seconds` (at least one pair). Returns per-pass medians and whether
    every count repeated exactly across the traced passes."""
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        plain.append(runner.run_pass(cells))
        wall, stats, tracer = traced_pass(runner, cli, cells)
        traced.append(wall)
        passes.append(stats)
        if len(passes) == 1:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_path)
    counts = [k for k in passes[0] if k.endswith((".calls", ".rows"))]
    repeat = all(p[k] == passes[0][k] for p in passes for k in counts)
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, repeat


def host_info() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    cells = workloads.cells(args.workload, args.seed)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
    missing = sorted({f"{n}@{s}" for n, s, _ in cells} - set(expected))
    if missing:
        sys.exit(f"perfbench: no reference digest for {missing}")

    print(json.dumps({"host": host_info(), "workload": args.workload, "seed": args.seed}))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = CellRunner(cli, expected, work)
        repeat = True
        if args.trace:
            trace_path = TRACES / f"{args.workload}-seed{args.seed}.csv"
            metrics, repeat = per_layer(runner, cli, cells, args.seconds, trace_path)
            if not repeat:
                print("perfbench: call counts differ between traced passes", file=sys.stderr)
        else:
            metrics, notes = end_to_end(runner, cells, args.seconds)
            print(json.dumps(notes))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(declared):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")

    for name, unit in declared.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    share = runner.failed / runner.attempted
    print(f"{args.workload} failed_run_share = {share:.6g} ratio ({runner.failed}/{runner.attempted} cells)")
    print(f"loadavg after: {os.getloadavg()}")
    result = {
        "correct": runner.failed == 0 and repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
