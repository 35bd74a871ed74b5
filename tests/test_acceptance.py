"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The federated-training criteria share one set of runs through the
session fixture below; its desk-scale task (3-class blobs, 10 clients,
1 malicious, C=0.8, 200 rounds, seeds 0..4) is calibrated so the attack
and defense effects are visible under plain SGD.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import gradient_like_refs, perturbed
from fedarena import cli, mlp
from fedarena.aggregation import AggregationRule, atm
from fedarena.attacks import (
    AttackStrategy,
    craft_adaptive,
    flip_labels,
    greedy_mask_select,
    reference_geometry,
)
from fedarena.engine import ExperimentConfig, run_sync
from fedarena.selftest import naive_atm_kept
from fedarena.theory import (
    AngleSample,
    TruncatedGaussian,
    deviation_bound,
    lemma_order_stats_check,
    monte_carlo_deviation,
)
from fedarena.vectors import angle_between, pairwise_angles

DESK = dict(
    n_clients=10,
    malicious_fraction=0.1,
    participation=0.8,
    rounds=200,
    lr=0.1,
    classes=3,
    features=64,
    per_class=100,
    spread=0.6,
    batch_size=6,
    n_attack=20,
    n_mask=16,
)
MASK_FRACTION = 0.3
SEEDS = (0, 1, 2, 3, 4)

RULES = {
    "fedavg": AggregationRule("fedavg"),
    "median": AggregationRule("median"),
    "trimmed_mean": AggregationRule("trimmed_mean", trim_b=1),
    "atm": AggregationRule("atm", trim_b=1),
}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def attack_matrix():
    """All training runs shared by criteria 7, 8, and 9, plus the
    feasibility-certificate audit over every crafted gradient."""
    certificates = {"checked": 0, "violations": 0}

    def observer(t, result, refs):
        if result.feasible:
            certificates["checked"] += 1
            worst = max(angle_between(result.g_malicious, r) for r in refs)
            if worst > reference_geometry(refs).budget + 1e-9:
                certificates["violations"] += 1

    medians = {}
    timings = {}
    for rule_name, attack_kind in itertools.product(RULES, ("passive", "fedpoisonmia")):
        t0 = time.time()
        accs = []
        for seed in SEEDS:
            cfg = ExperimentConfig(
                rule=RULES[rule_name],
                attack=AttackStrategy(attack_kind, mask_fraction=MASK_FRACTION),
                seed=seed,
                **DESK,
            )
            obs = observer if attack_kind == "fedpoisonmia" else None
            accs.append(run_sync(cfg, craft_observer=obs).attack_acc)
        medians[(rule_name, attack_kind)] = float(np.median(accs))
        timings[(rule_name, attack_kind)] = time.time() - t0
    return {"medians": medians, "timings": timings, "certificates": certificates}


def test_criterion_01_deviation_bound_grid():
    t0 = time.time()
    dist = TruncatedGaussian(mu=math.pi / 2, sigma=0.3)
    sigma2 = dist.var
    worst_ratio = 0.0
    points = 0
    ok = True
    for m in (0, 2, 4):
        for b in range(m + 1, 6):
            for adversary in ("extreme_high", "extreme_low", "mimic_mean"):
                emp = monte_carlo_deviation(dist, 20, m, b, adversary, 2000, seed=0)
                bound = deviation_bound(20, m, b, sigma2)
                points += 1
                worst_ratio = max(worst_ratio, emp / bound)
                ok = ok and emp <= bound
    elapsed = time.time() - t0
    ok = ok and elapsed <= 10.0
    report(1, "deviation-bound-grid", ok, f"{points} points, worst emp/bound {worst_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_02_order_stats_inequalities():
    t0 = time.time()
    rng = np.random.default_rng(202)
    failures = 0
    trials = 10_000
    for i in range(trials):
        n = int(rng.integers(6, 31))
        b = int(rng.integers(1, n // 2))  # 1 <= b <= n//2 - 1
        m = int(rng.integers(0, b))
        theta = np.sort(rng.normal(size=n))
        mask = np.zeros(n, bool)
        if m:
            placement = i % 3
            if placement == 0:
                mask[:m] = True
            elif placement == 1:
                mask[-m:] = True
            else:
                mask[rng.choice(n, size=m, replace=False)] = True
        if not lemma_order_stats_check(AngleSample(theta, mask), b):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed <= 5.0
    report(2, "order-stats-inequalities", ok, f"{trials} instances, {failures} failures, {elapsed:.1f}s")


def test_criterion_03_atm_oracle_equivalence():
    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        b = int(rng.integers(0, (n - 1) // 2 + 1))
        G = rng.normal(size=(n, int(rng.integers(2, 12))))
        if atm(G, b).kept_indices != naive_atm_kept(G, b):
            mismatches += 1
    report(3, "atm-oracle-equivalence", mismatches == 0, f"500 instances, {mismatches} mismatches")


def test_criterion_04_self_inclusion_equivalence():
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(3, 10))
        b = int(rng.integers(0, (n - 1) // 2 + 1))
        G = rng.normal(size=(n, 6))
        a = atm(G, b, include_self=False).kept_indices
        c = atm(G, b, include_self=True).kept_indices
        if a != c:
            mismatches += 1
    report(4, "self-inclusion-equivalence", mismatches == 0, f"500 instances, {mismatches} mismatches")


def test_criterion_05_gradient_finite_differences():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(20):
        p_in = int(rng.integers(3, 7))
        hidden = int(rng.integers(4, 9))
        h = int(rng.integers(2, 5))
        params = perturbed(mlp.init_params(((p_in, hidden), (hidden, h)), seed=trial), 0.4, rng)
        X = rng.normal(size=(5, p_in))
        y = rng.integers(0, h, size=5)
        g = mlp.gradient(params, X, y)
        fd = np.empty_like(g)
        for i in range(params.dim):
            step = 1e-5 * (1.0 + abs(params.flat[i]))
            up = params.flat.copy()
            up[i] += step
            dn = params.flat.copy()
            dn[i] -= step
            fd[i] = (
                mlp.loss(mlp.ModelParams(up, params.layer_shapes), X, y)
                - mlp.loss(mlp.ModelParams(dn, params.layer_shapes), X, y)
            ) / (2 * step)
        worst = max(worst, np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
    report(5, "gradient-finite-differences", worst <= 1e-4, f"20 instances, worst rel err {worst:.2e}")


def test_criterion_06_greedy_effectiveness():
    rng = np.random.default_rng(606)

    def constrained_score(params, mask_X, mask_y, subset, g_attack, refs, budget):
        g_mask = mlp.gradient(params, mask_X[list(subset)], mask_y[list(subset)])
        g = g_attack + g_mask
        obj = max(angle_between(g, r) for r in refs)
        return obj if obj <= budget else -1.0

    greedy_scores, random_scores = [], []
    argmax_mismatches = 0
    for trial in range(100):
        params = perturbed(mlp.init_params(((6, 8), (8, 3)), seed=trial), 0.4, rng)
        mask_X = rng.normal(size=(12, 6))
        mask_y = rng.integers(0, 3, size=12)
        att_X = rng.normal(size=(8, 6))
        att_y = rng.integers(0, 3, size=8)
        g_attack = mlp.gradient(params, att_X, flip_labels(att_y, 3, seed=trial))
        refs = gradient_like_refs(rng, params, 4)
        geo = reference_geometry(refs)
        budget = geo.budget

        selected, _ = greedy_mask_select(geo, mask_X, mask_y, 0.25, params, g_attack)
        assert len(selected) == 3
        greedy_scores.append(
            constrained_score(params, mask_X, mask_y, selected, g_attack, refs, budget)
        )
        best5 = max(
            constrained_score(
                params, mask_X, mask_y, rng.choice(12, size=3, replace=False), g_attack, refs, budget
            )
            for _ in range(5)
        )
        random_scores.append(best5)

        # budget-1 greedy must equal the exhaustive single-sample argmax
        one, trace = greedy_mask_select(
            geo, mask_X, mask_y, 1.0 / 12.0 + 1e-12, params, g_attack
        )
        objs = []
        for k in range(12):
            g_mask = mlp.gradient(params, mask_X[[k]], mask_y[[k]])
            objs.append(max(angle_between(g_attack + g_mask, r) for r in refs))
        feas = [k for k in range(12) if objs[k] <= budget]
        if feas:
            expected = max(feas, key=lambda k: (objs[k], -k))
        else:
            expected = min(range(12), key=lambda k: (objs[k], k))
        if one[0] != expected:
            argmax_mismatches += 1

    mean_greedy = float(np.mean(greedy_scores))
    mean_random = float(np.mean(random_scores))
    ok = mean_greedy >= mean_random and argmax_mismatches == 0
    report(
        6,
        "greedy-effectiveness",
        ok,
        f"greedy {mean_greedy:.4f} vs best-of-5-random {mean_random:.4f}, "
        f"{argmax_mismatches} argmax mismatches",
    )


def test_criterion_07_feasibility_certificates(attack_matrix):
    certs = attack_matrix["certificates"]
    ok = certs["violations"] == 0 and certs["checked"] > 0
    report(7, "feasibility-certificates", ok, f"{certs['checked']} checked, {certs['violations']} violations")


def test_criterion_08_attack_directional_efficacy(attack_matrix):
    med = attack_matrix["medians"]
    gaps = {
        rule: med[(rule, "fedpoisonmia")] - med[(rule, "passive")]
        for rule in ("fedavg", "median", "trimmed_mean")
    }
    elapsed = sum(
        attack_matrix["timings"][(rule, kind)]
        for rule in ("fedavg", "median", "trimmed_mean")
        for kind in ("passive", "fedpoisonmia")
    )
    ok = all(gap >= 0.05 for gap in gaps.values()) and elapsed <= 120.0
    detail = ", ".join(f"{r}:{g:+.3f}" for r, g in gaps.items()) + f", {elapsed:.0f}s"
    report(8, "attack-directional-efficacy", ok, detail)


def test_criterion_09_defense_directional_efficacy(attack_matrix):
    med = attack_matrix["medians"]
    drop = med[("fedavg", "fedpoisonmia")] - med[("atm", "fedpoisonmia")]
    report(9, "defense-directional-efficacy", drop >= 0.03, f"fedavg->atm drop {drop:+.3f}")


def test_criterion_10_fidelity():
    worst = 0.0
    for seed in SEEDS:
        accs = {}
        for rule_name in ("fedavg", "atm"):
            cfg = ExperimentConfig(
                rule=RULES[rule_name], attack=AttackStrategy("none"), seed=seed, **DESK
            )
            accs[rule_name] = run_sync(cfg).final_test_acc
        worst = max(worst, abs(accs["atm"] - accs["fedavg"]))
    report(10, "fidelity", worst <= 0.05, f"worst |atm-fedavg| = {worst:.3f}")


def test_criterion_11_adaptive_contract():
    rng = np.random.default_rng(1111)
    breaks = 0
    trimmed_after_break = 0
    for trial in range(100):
        params = perturbed(mlp.init_params(((6, 8), (8, 3)), seed=trial), 0.4, rng)
        n_refs = int(rng.integers(4, 8))
        refs = gradient_like_refs(rng, params, n_refs)
        b = int(rng.integers(1, (n_refs + 1) // 2 + 1))
        if 2 * b >= n_refs + 1:
            b = 1
        g = -refs.mean(axis=0) + 0.5 * rng.normal(size=params.dim)
        out = craft_adaptive(refs, g, trim_b=b)  # returning at all proves the cap
        stack = np.vstack([refs, out])
        n = len(stack)
        means = pairwise_angles(stack).sum(axis=1) / (n - 1)
        threshold = np.sort(means)[::-1][2 * b - 1]
        if means[-1] < threshold:
            breaks += 1
            if (n - 1) not in atm(stack, b).kept_indices:
                trimmed_after_break += 1
    ok = trimmed_after_break == 0 and breaks > 0
    report(11, "adaptive-contract", ok, f"100 instances, {breaks} break exits, {trimmed_after_break} trimmed after break")


def test_criterion_12_determinism(tmp_path, monkeypatch):
    config_text = (
        "n_clients = 6\nrounds = 15\nlr = 0.1\nfeatures = 16\nper_class = 40\n"
        "batch_size = 6\nn_attack = 8\nn_mask = 6\nattack = fedpoisonmia\n"
        "gamma = 0.34\nmalicious_fraction = 0.2\nrule = atm\ntrim_b = 1\nseed = 0\n"
    )
    monkeypatch.setenv("FEDARENA_THREADS", "0")
    ok = True
    details = []
    for mode, extra in (("sync", ""), ("async", "async = true\ntau_max = 3\n")):
        cfg = tmp_path / f"cfg_{mode}"
        cfg.write_text(config_text + extra)
        outs = []
        for run_idx in (0, 1):
            out = tmp_path / f"{mode}_{run_idx}"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        same = (
            (outs[0] / "rounds.csv").read_bytes() == (outs[1] / "rounds.csv").read_bytes()
            and (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
        )
        ok = ok and same
        details.append(f"{mode} byte-identical: {same}")

    cfg = tmp_path / "cfg_sweep"
    cfg.write_text(config_text)
    sweeps = {}
    for threads in ("0", "3"):
        monkeypatch.setenv("FEDARENA_THREADS", threads)
        out = tmp_path / f"sweep_{threads}"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--sweep", "seed=0,1,2"]) == 0
        sweeps[threads] = (out / "sweep_summary.csv").read_bytes()
    thread_same = sweeps["0"] == sweeps["3"]
    ok = ok and thread_same
    details.append(f"threads 0 vs 3 metric-identical: {thread_same}")
    report(12, "determinism", ok, "; ".join(details))
