"""Command-line front end.

Subcommands:
  run       one experiment -> manifest.json, rounds.csv, summary.json
  sweep     grid over one config key, one run per value
  theory    deviation-bound verification suite -> CSV
  selftest  quick built-in property checks

Config files are flat `key = value` lines (# comments allowed). Unknown
keys are rejected; missing keys take their defaults. Each key in `KEYS`
maps onto one ExperimentConfig field, whose dataclass declares the
default and `engine.validate_config` the check; the few keys only the CLI
reads carry their own default and check here. Every rejected value,
`--seed` included, exits 1 naming its key. Outputs use fixed column
orders and 9-significant-digit decimals so reruns diff clean.
FEDARENA_THREADS caps sweep parallelism (0 = sequential).
"""

import argparse
import json
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .aggregation import KINDS as RULE_KINDS
from .aggregation import AggregationRule
from .attacks import AttackStrategy
from .engine import ExperimentConfig, ExperimentResult, run, validate_config
from .errors import ConfigError, FedArenaError, InvalidConfig
from .theory import (
    ADVERSARIES,
    TruncatedGaussian,
    deviation_bound,
    monte_carlo_deviation,
)

ARTIFACT_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3


@dataclass(frozen=True)
class CliOnly:
    """A key no ExperimentConfig field holds, with its default."""

    default: object


# key -> dotted ExperimentConfig field path, or CliOnly(default); order
# here is the canonical emission order
KEYS: dict[str, object] = {
    "n_clients": "n_clients",
    "malicious_fraction": "malicious_fraction",
    "C": "participation",
    "lr": "lr",
    "rounds": "rounds",
    "batch_size": "batch_size",
    "rule": "rule.kind",
    "trim_b": "rule.trim_b",
    "dp_sigma": "rule.dp_sigma",
    "top_k": "rule.top_k",
    "krum_f": "rule.krum_f",
    "krum_count": "rule.krum_count",
    "fang_mode": "rule.fang_mode",
    "fang_remove": "rule.fang_remove",
    "inner_rule": CliOnly(AggregationRule.kind),  # rule.inner under dp|topk
    "attack": "attack.kind",
    "gamma": "attack.mask_fraction",
    # attack.alpha_grid = geomspace(alpha_min, alpha_max, alpha_points)
    "alpha_min": CliOnly(float(AttackStrategy.alpha_grid[0])),
    "alpha_max": CliOnly(float(AttackStrategy.alpha_grid[-1])),
    "alpha_points": CliOnly(len(AttackStrategy.alpha_grid)),
    "knowledge": "attack.knowledge",
    "ga_scale": "attack.ga_scale",
    "dataset": "dataset",
    "csv_path": "csv_path",
    "classes": "classes",
    "features": "features",
    "per_class": "per_class",
    "spread": "spread",
    "partition": "partition",
    "beta": "beta",
    "train_fraction": "train_fraction",
    "holdout_fraction": "holdout_fraction",
    "val_fraction": "val_fraction",
    "n_attack": "n_attack",
    "n_mask": "n_mask",
    "async": "asynchronous",
    "tau_max": "tau_max",
    "seed": "seed",
    "theory_n": CliOnly(20),
    "theory_mu": CliOnly(math.pi / 2),
    "theory_sigma": CliOnly(0.3),
    "theory_m_values": CliOnly((0, 2, 4)),
    "theory_b_max": CliOnly(5),
    "theory_trials": CliOnly(2000),
    "theory_adversaries": CliOnly(ADVERSARIES),
}
_KEY_OF_PATH = {row: key for key, row in KEYS.items() if isinstance(row, str)}


def _defaults() -> dict:
    base = ExperimentConfig()
    return {
        key: row.default if isinstance(row, CliOnly) else reduce(getattr, row.split("."), base)
        for key, row in KEYS.items()
    }


DEFAULTS = _defaults()


def _convert(raw: str, default):
    """Parse `raw` as the type of `default`; a tuple takes a comma list."""
    if isinstance(default, tuple):
        return tuple(_convert(v.strip(), default[0]) for v in raw.split(",") if v.strip())
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(raw)
    return type(default)(raw)


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        raw = raw[1:-1]
    try:
        return _convert(raw, DEFAULTS[key])
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r}") from None


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    if isinstance(value, str):
        return value if value else '""'
    return str(value)


def parse_config_text(text: str) -> dict:
    values = dict(DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(key, "unknown key")
        values[key] = _coerce(key, raw)
    to_experiment_config(values)  # the check; the config itself is rebuilt per run
    return values


def parse_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"no such file: {path}")
    return parse_config_text(p.read_text(encoding="utf-8"))


def default_config_text() -> str:
    lines = ["# fedarena configuration (defaults)"]
    for key, default in DEFAULTS.items():
        lines.append(f"{key} = {_fmt_value(default)}")
    return "\n".join(lines) + "\n"


def _check_cli_keys(v: dict) -> None:
    """Range checks of the keys no ExperimentConfig field holds."""
    if v["inner_rule"] not in RULE_KINDS or v["inner_rule"] in ("dp", "topk"):
        raise ConfigError("inner_rule", f"{v['inner_rule']!r} cannot nest")
    if v["alpha_min"] <= 0 or v["alpha_max"] < v["alpha_min"] or v["alpha_points"] < 1:
        raise ConfigError("alpha_min", "need 0 < alpha_min <= alpha_max, alpha_points >= 1")
    if v["theory_sigma"] < 0:
        raise ConfigError("theory_sigma", f"{v['theory_sigma']} must be >= 0")
    if v["theory_trials"] < 1:
        raise ConfigError("theory_trials", f"{v['theory_trials']} must be >= 1")
    for adv in v["theory_adversaries"]:
        if adv not in ADVERSARIES:
            raise ConfigError("theory_adversaries", f"{adv!r} not one of {ADVERSARIES}")


def to_experiment_config(values: dict) -> ExperimentConfig:
    """Check every value and set it on its field; a rejected value raises
    ConfigError naming its key."""
    _check_cli_keys(values)
    fields = {"": {}, "rule": {}, "attack": {}}
    for key, row in KEYS.items():
        if isinstance(row, str):
            owner, _, name = row.rpartition(".")
            fields[owner][name] = values[key]
    inner = None
    if values["rule"] in ("dp", "topk"):
        inner = AggregationRule(kind=values["inner_rule"])
    grid = tuple(
        float(a)
        for a in np.geomspace(values["alpha_min"], values["alpha_max"], values["alpha_points"])
    )
    cfg = ExperimentConfig(
        **fields[""],
        rule=AggregationRule(**fields["rule"], inner=inner),
        attack=AttackStrategy(**fields["attack"], alpha_grid=grid),
    )
    try:
        validate_config(cfg)
    except InvalidConfig as exc:
        raise ConfigError(_KEY_OF_PATH[exc.path], str(exc)) from None
    return cfg


def _fmt9(x: float) -> str:
    return format(float(x), ".9g")


def _round9(x: float) -> float:
    return float(_fmt9(x))


def write_outputs(out_dir: Path, values: dict, result: ExperimentResult) -> dict:
    """Write the three artifacts; returns the summary written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = np.asarray(result.member_flags, dtype=bool)
    rows = ["round,test_acc,mem_correct,mem_total,kept_count"]
    for r in result.records:
        correct = int(np.sum(r.membership_preds == truth))
        rows.append(
            f"{r.round},{_fmt9(r.test_acc)},{correct},{truth.size},"
            f"{len(r.diagnostics.get('kept', ()))}"
        )
    (out_dir / "rounds.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    summary = {
        "attack_accuracy": _round9(result.attack_acc),
        "precision": _round9(result.attack_prec),
        "recall": _round9(result.attack_rec),
        "final_test_acc": _round9(result.final_test_acc),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "config": {k: _manifest_value(v) for k, v in values.items()},
        "outputs": ["rounds.csv", "summary.json"],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def _manifest_value(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def run_experiment(values: dict, out_dir) -> dict:
    """Execute one configured run, write its artifacts, return its summary."""
    result = run(to_experiment_config(values))
    return write_outputs(Path(out_dir), values, result)


def theory_grid(values: dict):
    points = []
    for m in values["theory_m_values"]:
        for b in range(m + 1, values["theory_b_max"] + 1):
            for adv in values["theory_adversaries"]:
                points.append((values["theory_n"], m, b, adv))
    return points


def run_theory_suite(values: dict, out_path) -> int:
    """Monte-Carlo the deviation of the trimmed mean against the bound on
    every grid point; nonzero exit when any point exceeds it."""
    dist = TruncatedGaussian(mu=values["theory_mu"], sigma=values["theory_sigma"])
    sigma2 = dist.var
    points = theory_grid(values)
    rows = ["n,m,b,sigma2,adversary,trials,empirical,bound,pass"]
    failures = []
    for n, m, b, adv in points:
        empirical = monte_carlo_deviation(
            dist, n, m, b, adv, values["theory_trials"], values["seed"]
        )
        bound = deviation_bound(n, m, b, sigma2)
        ok = empirical <= bound
        if not ok:
            failures.append((n, m, b, adv))
        rows.append(
            f"{n},{m},{b},{_fmt9(sigma2)},{adv},{values['theory_trials']},"
            f"{_fmt9(empirical)},{_fmt9(bound)},{'true' if ok else 'false'}"
        )
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    if not points:
        print("warning: empty theory grid, nothing verified", file=sys.stderr)
        return EXIT_OK
    if failures:
        for n, m, b, adv in failures:
            print(f"bound violated at n={n} m={m} b={b} adversary={adv}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    return EXIT_OK


def _worker_threads() -> int:
    raw = os.environ.get("FEDARENA_THREADS", "0")
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def run_sweep(values: dict, sweep_spec: str, out_dir) -> int:
    if "=" not in sweep_spec:
        raise ConfigError("sweep", f"expected key=v1,v2,..., got {sweep_spec!r}")
    key, raw_values = sweep_spec.split("=", 1)
    key = key.strip()
    if key not in DEFAULTS:
        raise ConfigError(key, "unknown sweep key")
    points = []
    for raw in raw_values.split(","):
        v = dict(values)
        v[key] = _coerce(key, raw)
        to_experiment_config(v)
        points.append((v, Path(out_dir) / f"{key}={raw.strip()}"))
    threads = _worker_threads()
    if threads > 1:
        with multiprocessing.get_context("spawn").Pool(threads) as pool:
            summaries = pool.starmap(run_experiment, points)
    else:
        summaries = [run_experiment(v, out) for v, out in points]
    rows = ["value,attack_accuracy,precision,recall,final_test_acc"]
    for (v, _), summary in zip(points, summaries):
        rows.append(
            f"{_fmt_value(v[key])},{_fmt9(summary['attack_accuracy'])},"
            f"{_fmt9(summary['precision'])},{_fmt9(summary['recall'])},"
            f"{_fmt9(summary['final_test_acc'])}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep_summary.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return EXIT_OK


def run_selftest() -> int:
    """Fast built-in property checks; prints one line per suite."""
    from .selftest import SUITES

    failed = False
    for name, check in SUITES:
        try:
            check()
            print(f"selftest {name}: PASS")
        except AssertionError as exc:
            failed = True
            print(f"selftest {name}: FAIL ({exc})")
    return EXIT_ACCEPTANCE if failed else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedarena")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="grid over one config key")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--sweep", required=True, metavar="key=v1,v2,...")
    p_sweep.add_argument("--seed", type=int, default=None)

    p_theory = sub.add_parser("theory", help="deviation-bound suite")
    p_theory.add_argument("--config", default=None)
    p_theory.add_argument("--out", required=True, help="output CSV path")
    p_theory.add_argument("--seed", type=int, default=None)

    sub.add_parser("selftest", help="built-in property checks")

    p_defaults = sub.add_parser("defaults", help="print the default config")
    p_defaults.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return run_selftest()
        if args.command == "defaults":
            text = default_config_text()
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
            return EXIT_OK
        values = (
            parse_config(args.config)
            if args.config
            else parse_config_text("")
        )
        if args.seed is not None:
            values["seed"] = args.seed
            to_experiment_config(values)
        if args.command == "run":
            run_experiment(values, args.out)
            return EXIT_OK
        if args.command == "sweep":
            return run_sweep(values, args.sweep, args.out)
        if args.command == "theory":
            return run_theory_suite(values, args.out)
        raise ConfigError("command", f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FedArenaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
