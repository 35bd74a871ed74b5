"""Command-line front end.

Subcommands:
  run       one experiment -> manifest.json, rounds.csv, summary.json
  sweep     grid over config keys (`--sweep key=v1,v2,...`, repeatable),
            one run per point of their Cartesian product
  theory    deviation-bound verification suite -> CSV
  selftest  quick built-in property checks

Config files are flat `key = value` lines (# comments allowed). Unknown
keys are rejected; missing keys take their defaults. The run keys are
derived from the fields of ExperimentConfig, its nested rule and attack
configs expanded in place: each is its field's last name, except the six
in `RENAMED` (`C`, `rule`, `inner_rule`, `attack`, `gamma`, `async`).
The dataclasses declare every run key's default and order, and
`engine.validate_config` the check of what the config alone decides;
`engine.build_world` judges the values checked against the data (the
split, the partition, the attacker's samples, the model dimension) when a
run builds its world, and a sweep builds each point's world before any
run. Only the `theory_*` keys are read by the CLI alone, and carry their
own default and check here; a sweep over one of them, which no run
reads, is rejected, as is a sweep over a key of `READ_WHEN` (`tau_max`,
`csv_path`, ...) that no point of the sweep reads. Every rejected value,
`--seed` included, exits 1 naming its key, with nothing written. Outputs
use fixed column orders and 9-significant-digit decimals so reruns diff
clean.
FEDARENA_THREADS caps sweep parallelism (0 = sequential).
"""

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import data as datamod
from .engine import (
    ExperimentConfig,
    ExperimentResult,
    _rows_kind,
    build_world,
    run,
    validate_config,
)
from .errors import ConfigError, FedArenaError, InvalidConfig, InvalidParams
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


# the run keys that are not their field's last name
RENAMED = {
    "participation": "C",
    "rule.kind": "rule",
    "rule.inner": "inner_rule",
    "attack.kind": "attack",
    "attack.mask_fraction": "gamma",
    "asynchronous": "async",
}

# the run keys only some configs read: key -> (whether a config reads it,
# what it needs); a sweep over one that no point reads is rejected
_FANG = (lambda cfg: _rows_kind(cfg.rule) == "fang", "rule or inner_rule = fang")
READ_WHEN = {
    "fang_mode": _FANG,
    "fang_remove": _FANG,
    "tau_max": (lambda cfg: cfg.asynchronous, "async = true"),
    "csv_path": (lambda cfg: cfg.dataset == "csv", "dataset = csv"),
    "inner_rule": (lambda cfg: cfg.rule.kind in ("dp", "topk"), "rule = dp|topk"),
}

# the keys no ExperimentConfig field holds, read by `theory` alone
THEORY_DEFAULTS = {
    "theory_n": 20,
    "theory_mu": math.pi / 2,
    "theory_sigma": 0.3,
    "theory_m_values": (0, 2, 4),
    "theory_b_max": 5,
    "theory_trials": 2000,
    "theory_adversaries": ADVERSARIES,
}


def _walk(config, leaf, prefix=""):
    """`config` rebuilt with the value `v` of each field at dotted path `p`
    replaced by `leaf(p, v)`, in declaration order, a nested config walked
    in place. It reads the values, not the annotations, so a postponed
    annotation cannot flatten a nested config."""
    changes = {}
    for f in fields(config):
        path, value = prefix + f.name, getattr(config, f.name)
        nested = is_dataclass(value)
        changes[f.name] = _walk(value, leaf, path + ".") if nested else leaf(path, value)
    return replace(config, **changes)


KEYS: dict[str, str] = {}  # run key -> dotted field path; the canonical emission order
DEFAULTS: dict = {}


def _declare(path: str, default):
    key = RENAMED.get(path, path.rpartition(".")[2])
    KEYS[key], DEFAULTS[key] = path, default
    return default


_walk(ExperimentConfig(), _declare)
DEFAULTS.update(THEORY_DEFAULTS)
_KEY_OF_PATH = {path: key for key, path in KEYS.items()}


def _convert(raw: str, default):
    """Parse `raw` as the type of `default`; a tuple takes a comma list.
    A float must be finite."""
    if isinstance(default, tuple):
        return tuple(_convert(v.strip(), default[0]) for v in raw.split(",") if v.strip())
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(raw)
    value = type(default)(raw)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(raw)
    return value


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
    """Range checks of the `theory_*` keys."""
    if v["theory_sigma"] < 0:
        raise ConfigError("theory_sigma", f"{v['theory_sigma']} must be >= 0")
    if v["theory_trials"] < 1:
        raise ConfigError("theory_trials", f"{v['theory_trials']} must be >= 1")
    for adv in v["theory_adversaries"]:
        if adv not in ADVERSARIES:
            raise ConfigError("theory_adversaries", f"{adv!r} not one of {ADVERSARIES}")
    for n, m, b, _ in theory_grid(v):
        try:
            deviation_bound(n, m, b, 0.0)
        except InvalidParams as exc:
            raise ConfigError("theory_n", f"grid point m={m} b={b}: {exc}") from None
        if 2 * b >= n:
            raise ConfigError("theory_n", f"grid point b={b} trims all {n} values")


def to_experiment_config(values: dict) -> ExperimentConfig:
    """Check every value and set it on its field; a rejected value raises
    ConfigError naming its key."""
    _check_cli_keys(values)
    cfg = _walk(ExperimentConfig(), lambda path, _: values[_KEY_OF_PATH[path]])
    try:
        validate_config(cfg)
    except InvalidConfig as exc:
        raise _config_error(exc) from None
    return cfg


def _config_error(exc: InvalidConfig) -> ConfigError:
    return ConfigError(_KEY_OF_PATH[exc.path], str(exc))


def _data_checked(call, cfg: ExperimentConfig):
    """`call(cfg)`, `run` or `build_world`, with a value that `build_world`
    rejects against the data raised as the ConfigError naming its key."""
    try:
        return call(cfg)
    except InvalidConfig as exc:
        if exc.path is None:
            raise
        raise _config_error(exc) from None


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
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()},
        "outputs": ["rounds.csv", "summary.json"],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def run_experiment(values: dict, out_dir) -> dict:
    """Execute one configured run, write its artifacts, return its summary."""
    # a value judged against the data fails the world's build, before any round
    result = _data_checked(run, to_experiment_config(values))
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


def sweep_points(values: dict, sweep_specs: list[str], out_dir) -> tuple[list[str], list]:
    """The swept keys, and one (values, out_dir) pair per point of the
    Cartesian product of `key=v1,v2,...` specs, the last spec varying
    fastest; each point writes into nested `key=value` directories.
    Every point's world is built, as a check, before it is returned (each
    distinct CSV dataset is parsed once for these checks). Two values of
    one key that parse to the same value are rejected, and so is a key of
    `READ_WHEN` that no point reads."""
    keys, axes = [], []
    for spec in sweep_specs:
        if "=" not in spec:
            raise ConfigError("sweep", f"expected key=v1,v2,..., got {spec!r}")
        key, raw_values = spec.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(key, "unknown sweep key")
        if key in THEORY_DEFAULTS:
            raise ConfigError(key, "no run reads it; only `theory` does")
        if key in keys:
            raise ConfigError(key, "swept by two --sweep specs")
        keys.append(key)
        axes.append([(raw.strip(), _coerce(key, raw)) for raw in raw_values.split(",")])
        first: dict = {}  # coerced value -> its first spelling
        for raw, value in axes[-1]:
            if value in first:
                raise ConfigError(key, f"{raw!r} repeats the value of {first[value]!r}")
            first[value] = raw
    check = partial(build_world, load_csv=cache(datamod.load_csv))
    points, unread = [], {key for key in keys if key in READ_WHEN}
    for combo in itertools.product(*axes):
        v, out = dict(values), Path(out_dir)
        for key, (raw, value) in zip(keys, combo):
            v[key] = value
            out = out / f"{key}={raw}"
        try:
            cfg = to_experiment_config(v)
            _data_checked(check, cfg)
        except ConfigError as exc:
            where = out.relative_to(out_dir).as_posix()
            raise ConfigError(exc.key, f"{exc.message} (at {where})") from None
        unread = {key for key in unread if not READ_WHEN[key][0](cfg)}
        points.append((v, out))
    for key in keys:
        if key in unread:
            raise ConfigError(key, f"no point of the sweep reads it, none has {READ_WHEN[key][1]}")
    return keys, points


def run_sweep(values: dict, sweep_specs: list[str], out_dir) -> int:
    keys, points = sweep_points(values, sweep_specs, out_dir)
    threads = _worker_threads()
    if threads > 1:
        import multiprocessing  # only a parallel sweep spawns workers

        with multiprocessing.get_context("spawn").Pool(threads) as pool:
            summaries = pool.starmap(run_experiment, points)
    else:
        summaries = [run_experiment(v, out) for v, out in points]
    metrics = ["attack_accuracy", "precision", "recall", "final_test_acc"]
    header = keys if len(keys) > 1 else ["value"]  # the one-key layout predates grids
    rows = [",".join(header + metrics)]
    for (v, _), summary in zip(points, summaries):
        cells = [_fmt_value(v[key]) for key in keys] + [_fmt9(summary[m]) for m in metrics]
        rows.append(",".join(cells))
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

    p_sweep = sub.add_parser("sweep", help="grid over config keys")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument(
        "--sweep", required=True, action="append", metavar="key=v1,v2,...",
        help="repeat for a grid: the product of the specs, the last varying fastest",
    )
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
        values = parse_config(args.config) if args.config else parse_config_text("")
        if args.seed is not None:
            values["seed"] = args.seed
            to_experiment_config(values)
        if args.command == "run":
            run_experiment(values, args.out)
            return EXIT_OK
        if args.command == "sweep":
            return run_sweep(values, args.sweep, args.out)
        return run_theory_suite(values, args.out)  # argparse admits no other command
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FedArenaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
