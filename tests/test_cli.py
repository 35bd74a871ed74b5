import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import re
import stat
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from fedarena import cli, engine
from fedarena.aggregation import KINDS as RULE_KINDS
from fedarena.engine import ExperimentConfig
from fedarena.errors import ConfigError

SMOKE = """
n_clients = 4
rounds = 10
lr = 0.1
features = 8
per_class = 40
batch_size = 8
n_attack = 8
n_mask = 6
attack = fedpoisonmia
gamma = 0.34
malicious_fraction = 0.25
seed = 0
"""


class TestParseConfig:
    def test_empty_config_gives_paper_defaults(self):
        v = cli.parse_config_text("")
        assert v["n_clients"] == 10
        assert v["C"] == 0.8
        assert v["gamma"] == 0.1
        assert v["beta"] == 0.5
        assert v["batch_size"] == 64
        assert v["lr"] == 0.01
        assert v["tau_max"] == 5

    def test_invalid_c_names_key(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config_text("C = 1.5")
        assert exc.value.key == "C"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config_text("warp_speed = 9")
        assert exc.value.key == "warp_speed"

    def test_comments_and_blanks_ignored(self):
        v = cli.parse_config_text("# hello\n\nrounds = 7  # trailing\n")
        assert v["rounds"] == 7

    def test_hash_inside_quotes_is_not_a_comment(self):
        for line in ('csv_path = "/tmp/run#1.csv"', 'csv_path = "/tmp/run#1.csv"  # the # data'):
            v = cli.parse_config_text(f"dataset = csv\n{line}\n")
            assert v["csv_path"] == "/tmp/run#1.csv"

    def test_round_trip_defaults(self):
        text = cli.default_config_text()
        assert cli.parse_config_text(text) == cli.parse_config_text("")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config_text("rounds = soon")
        assert exc.value.key == "rounds"

    def test_theory_sigma_negative_rejected(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config_text("theory_sigma = -0.1")
        assert exc.value.key == "theory_sigma"

    def test_to_experiment_config_alpha_grid(self):
        v = cli.parse_config_text("alpha_min = 0.1\nalpha_max = 10\nalpha_points = 3")
        cfg = cli.to_experiment_config(v)
        assert cfg.attack.alpha_grid == pytest.approx((0.1, 1.0, 10.0))


REJECTIONS = [
    ("C = 1.5", "C"),
    ("C = 0", "C"),
    ("malicious_fraction = 0.5", "malicious_fraction"),
    ("malicious_fraction = -0.1", "malicious_fraction"),
    ("n_clients = 0", "n_clients"),
    ("batch_size = 0", "batch_size"),
    ("rule = krum", "rule"),
    ("rule = dp\ninner_rule = dp", "inner_rule"),
    ("inner_rule = bogus", "inner_rule"),
    ("rule = topk\ninner_rule = topk", "inner_rule"),
    # the inner rule and the alpha grid are checked first
    ("inner_rule = dp\nrounds = 0", "inner_rule"),
    ("alpha_points = 0\nrule = krum", "alpha_points"),
    ("attack = teleport", "attack"),
    ("attack = passive\ngamma = 0", "gamma"),
    ("attack = passive\ngamma = 1", "gamma"),
    ("knowledge = some", "knowledge"),
    ("dataset = mnist", "dataset"),
    ("partition = dirichlet", "partition"),
    ("beta = 0", "beta"),
    ("beta = 1.5", "beta"),
    ("fang_mode = acc", "fang_mode"),
    ("alpha_min = 0", "alpha_min"),
    ("alpha_min = 2\nalpha_max = 1", "alpha_min"),
    ("alpha_points = 0", "alpha_points"),
    ("lr = 0", "lr"),
    ("rounds = 0", "rounds"),
    ("tau_max = -1", "tau_max"),
    ("classes = 1", "classes"),
    ("features = 0", "features"),
    ("per_class = 0", "per_class"),
    ("spread = -0.1", "spread"),
    ("n_attack = 0", "n_attack"),
    ("n_mask = -1", "n_mask"),
    ("train_fraction = 0.9", "train_fraction"),
    ("seed = -1", "seed"),
    ("theory_sigma = -0.1", "theory_sigma"),
    ("theory_trials = 0", "theory_trials"),
    ("theory_adversaries = extreme_high,sideways", "theory_adversaries"),
    ("theory_n = 3", "theory_n"),
    ("theory_n = 4\ntheory_m_values = 0\ntheory_b_max = 2", "theory_n"),
    ("rule = dp\ndp_sigma = -1", "dp_sigma"),
    ("rule = atm\ntrim_b = 5\nn_clients = 4", "trim_b"),
    ("rule = dp\ninner_rule = trimmed_mean\ntrim_b = 4", "trim_b"),
    ("rule = trimmed_mean\ntrim_b = -1", "trim_b"),
    ("rule = multi_krum\nkrum_f = 3\nn_clients = 4", "krum_f"),
    ("rule = multi_krum\nkrum_count = 9\nn_clients = 4", "krum_count"),
    ("rule = topk\ntop_k = 100000\nn_clients = 4", "top_k"),
    ("rule = dp\ninner_rule = multi_krum\nkrum_f = 3\nn_clients = 4", "krum_f"),
    ("rule = topk\ninner_rule = multi_krum\nkrum_count = 9\nn_clients = 4", "krum_count"),
    ("rule = multi_krum\nkrum_f = -1", "krum_f"),
    ("rule = multi_krum\nkrum_count = -1", "krum_count"),
    ("rule = topk\ntop_k = -1", "top_k"),
    ("rule = fang\nfang_remove = -3", "fang_remove"),
    ("rule = dp\ninner_rule = fang\nfang_remove = -3", "fang_remove"),
    ("rule = atm\ntrim_b = 0\nn_clients = 2\nC = 0.5", "rule"),
    ("rule = fang\nn_clients = 2\nC = 0.5", "rule"),
    ("rule = topk\ninner_rule = atm\ntrim_b = 0\nn_clients = 2\nC = 0.5", "rule"),
    ("rule = dp\ninner_rule = fang\nn_clients = 2\nC = 0.5", "rule"),
    ("attack = fedpoisonmia\nknowledge = partial", "knowledge"),
    ("attack = adaptive\nknowledge = partial", "knowledge"),
    # 2 proxies and the update: trimming 2 per side leaves nothing
    ("attack = adaptive\nknowledge = partial\nmalicious_fraction = 0.2\ntrim_b = 2", "trim_b"),
    ("attack = adaptive\nmalicious_fraction = 0.3\nC = 0.5\ntrim_b = 2", "trim_b"),
    # a round of 2 that selects the 1 malicious client leaves 1 reference
    ("n_clients = 3\nmalicious_fraction = 0.34\nC = 0.6\nattack = fedpoisonmia", "knowledge"),
    ("n_clients = 3\nmalicious_fraction = 0.34\nC = 0.6\nattack = adaptive", "knowledge"),
    ("n_clients = 10\nmalicious_fraction = 0.1\nC = 0.1\nattack = fedpoisonmia", "knowledge"),
    # a round of 1 that selects a malicious client leaves agrevader no reference
    ("attack = agrevader\nC = 0.1", "knowledge"),
    ("attack = agrevader\nmalicious_fraction = 0.4\nC = 0.1\nn_mask = 4", "knowledge"),
    ("attack = fedpoisonmia\ngamma = 0.05", "gamma"),
    ("attack = fedpoisonmia\nn_mask = 0", "n_mask"),
    ("attack = agrevader\nn_mask = 0", "n_mask"),
    # no malicious shard to draw the mask pool from
    ("attack = fedpoisonmia\nmalicious_fraction = 0", "malicious_fraction"),
    ("attack = agrevader\nn_clients = 9\nmalicious_fraction = 0.1", "malicious_fraction"),
    ("n_clients = 1000\nrounds = 0", "rounds"),
    ("dataset = csv", "csv_path"),
    # each fraction alone: a negative one makes build_world's slices overlap
    ("train_fraction = -0.1", "train_fraction"),
    ("holdout_fraction = -0.05", "holdout_fraction"),
    ("val_fraction = -0.05", "val_fraction"),
    ("lr = inf", "lr"),
    ("spread = inf", "spread"),
    ("attack = gradient_ascent\nga_scale = nan", "ga_scale"),
    ("attack = fedpoisonmia\nalpha_max = inf", "alpha_max"),
    ("theory_mu = -inf", "theory_mu"),
    ("rounds = soon", "rounds"),
    ("async = maybe", "async"),
    ("warp_speed = 9", "warp_speed"),
    ("rounds 7", "line 1"),
]

# values judged against the data when a run builds its world: they parse,
# then the run exits 1 naming the key before writing anything
BUILD_REJECTIONS = [
    # the split and partition of 3 * 100 examples: 180 train, 60 holdout,
    # 15 validation
    ("rule = fang\nval_fraction = 0.001", "val_fraction"),
    ("rule = fang\nval_fraction = 0.0033", "val_fraction"),
    ("rule = dp\ninner_rule = fang\nval_fraction = 0.001", "val_fraction"),
    ("partition = noniid\nn_clients = 2", "n_clients"),
    ("n_clients = 1000", "n_clients"),
    ("n_clients = 181", "n_clients"),
    # noniid deals a class group's samples to that group's clients only, so
    # whether a client gets none depends on the seed's draw (seed 1 runs)
    ("partition = noniid\nn_clients = 170", "n_clients"),
    ("partition = noniid\nn_clients = 150\nseed = 0", "n_clients"),
    # n_attack // 2 non-members come from the holdout, the rest from the
    # benign shards (15 training examples at train_fraction 0.05)
    ("n_attack = 200", "n_attack"),
    ("n_attack = 122", "n_attack"),
    ("train_fraction = 0.05\nn_attack = 40", "n_attack"),
    # the mask pool is the malicious shards: 18 examples, then 1
    ("attack = fedpoisonmia\nn_mask = 200", "n_mask"),
    ("attack = agrevader\nn_clients = 100\nmalicious_fraction = 0.01", "n_mask"),
    ("rule = topk\ntop_k = 100000\nn_clients = 4", "top_k"),
]


class TestRejections:
    @pytest.mark.parametrize("text,key", REJECTIONS + BUILD_REJECTIONS)
    def test_rejected_value_names_key(self, text, key, tmp_path, capsys):
        if (text, key) in BUILD_REJECTIONS:
            cli.to_experiment_config(cli.parse_config_text(text))
        else:
            with pytest.raises(ConfigError) as exc:
                cli.to_experiment_config(cli.parse_config_text(text))
            assert exc.value.key == key
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text,key",
        BUILD_REJECTIONS + [("attack = fedpoisonmia\nmalicious_fraction = 0", "malicious_fraction")],
    )
    def test_one_point_sweep_names_key(self, text, key, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        spec = text.splitlines()[-1].replace(" ", "")  # the rejected line, as one point
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--sweep", spec]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_top_k_beyond_csv_model_dimension(self, tmp_path, capsys):
        from fedarena import data

        csv = tmp_path / "data.csv"
        data.save_csv(data.synth_dataset(3, 4, 40, 0.4, seed=0), csv)
        # 4 features, 3 classes: (4 + 1) * 32 + (32 + 1) * 3 = 259 parameters
        for top_k, code in ((259, 0), (260, 1)):
            cfg = tmp_path / f"cfg{top_k}"
            cfg.write_text(f"dataset = csv\ncsv_path = {csv}\nrule = topk\ntop_k = {top_k}\nrounds = 2\n")
            out = tmp_path / f"o{top_k}"
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert "config key 'top_k'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,key",
        [
            ("n_clients = 72", None),  # 4 classes * 30 examples: 72 train
            ("n_clients = 73", "n_clients"),
            ("partition = noniid\nn_clients = 4", None),
            ("partition = noniid\nn_clients = 3", "n_clients"),  # classes = 3 is not the file's
            ("rule = fang\nval_fraction = 0.009", None),
            ("rule = fang\nval_fraction = 0.008", "val_fraction"),
            ("n_attack = 49", None),  # 24 holdout examples
            ("n_attack = 50", "n_attack"),
        ],
    )
    def test_split_checks_of_a_csv_use_the_loaded_data(self, text, key, tmp_path, capsys):
        from fedarena import data

        csv = tmp_path / "data.csv"
        data.save_csv(data.synth_dataset(4, 4, 30, 0.4, seed=0), csv)
        cfg = tmp_path / "cfg"
        cfg.write_text(f"dataset = csv\ncsv_path = {csv}\nrounds = 2\n{text}\n")
        cli.parse_config(cfg)  # the CSV is read only at run time
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == (1 if key else 0)
        assert out.exists() == (key is None)
        if key:
            assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "contents",
        [None, "0,1.0\nx,3\n", ""],
        ids=["missing", "malformed", "empty"],
    )
    def test_unreadable_csv_names_csv_path(self, contents, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        if contents is not None:
            csv.write_text(contents)
        cfg = tmp_path / "cfg"
        cfg.write_text(f"dataset = csv\ncsv_path = {csv}\nrounds = 2\n")
        cli.parse_config(cfg)  # the CSV is read only at run time
        for command, extra in (("run", []), ("sweep", ["--sweep", "seed=0,1"])):
            out = tmp_path / command
            assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == 1
            assert "config key 'csv_path'" in capsys.readouterr().err
            assert not out.exists()

    def test_config_error_survives_pickle(self):
        # sweep workers raise it in another process
        exc = pickle.loads(pickle.dumps(ConfigError("top_k", "need <= 259")))
        assert (exc.key, str(exc)) == ("top_k", "config key 'top_k': need <= 259")

    @pytest.mark.parametrize(
        "text",
        [
            "async = true\nrule = atm\ntrim_b = 0\nn_clients = 2\nC = 0.5",  # async clamps
            "attack = fedpoisonmia\nknowledge = partial\nmalicious_fraction = 0.2",
            "attack = adaptive\nknowledge = partial\nmalicious_fraction = 0.2",
            "attack = fedpoisonmia\ngamma = 0.0625",  # floor(0.0625 * 16) = 1 mask sample
            "attack = gradient_ascent\nn_mask = 0",
            "attack = adaptive\nknowledge = partial\nmalicious_fraction = 0.3\ntrim_b = 1",
            "attack = adaptive\nmalicious_fraction = 0.3\nC = 0.6\ntrim_b = 1",
            "n_clients = 4\nmalicious_fraction = 0.25\nC = 0.75\nattack = fedpoisonmia",
            "n_clients = 3\nmalicious_fraction = 0.34\nC = 0.6\nattack = gradient_ascent",
            "rule = fang\nval_fraction = 0.0034",  # int(300 * 0.0034) = 1 validation example
            "rule = dp\ninner_rule = fang\nval_fraction = 0.0034",
            "n_clients = 180",  # one training example per client
            "partition = noniid\nn_clients = 3",  # one client per class group
            "rule = atm\nval_fraction = 0",
            "holdout_fraction = 0\nn_attack = 1",  # one member, no non-member
            "n_attack = 121",  # 60 non-members fill the holdout
            "partition = noniid\nn_clients = 150\nseed = 1",  # no client is dealt none
            "attack = agrevader\nn_clients = 10\nmalicious_fraction = 0.1",
            # more malicious clients than a round's participants: these
            # attacks build no references, so knowledge is not checked
            "attack = gradient_ascent\nmalicious_fraction = 0.2\nC = 0.1",
            "attack = passive\nmalicious_fraction = 0.3\nC = 0.2",
        ],
    )
    def test_edge_of_first_round_checks_runs(self, text, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(text + "\nrounds = 2\nfeatures = 8\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_async_krum_keys_follow_the_buffer(self):
        # async runs clamp krum_f and krum_count to the buffer, so no round bounds them
        text = "async = true\nrule = multi_krum\nkrum_f = 3\nkrum_count = 9\nn_clients = 4"
        assert cli.to_experiment_config(cli.parse_config_text(text)).rule.krum_count == 9

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--out", "o"],
            ["sweep", "--out", "o", "--sweep", "rounds=1,2"],
            ["theory", "--out", "t.csv"],
        ],
    )
    def test_negative_seed_override_rejected(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv + ["--seed", "-1"]) == 1
        assert "config key 'seed'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_in_sweep_values_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["sweep", "--out", str(out), "--sweep", "seed=0,-1"]) == 1
        assert "config key 'seed'" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_smoke_run_under_five_seconds(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "out"
        t0 = time.time()
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert time.time() - t0 < 5.0
        assert (out / "rounds.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_summary_consistent_with_rounds_csv(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()[1:]
        best = 0.0
        last_test = None
        for row in rows:
            _, test_acc, correct, total, _ = row.split(",")
            best = max(best, int(correct) / int(total))
            last_test = float(test_acc)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["attack_accuracy"] == pytest.approx(best, abs=1e-8)
        assert summary["final_test_acc"] == pytest.approx(last_test, abs=1e-8)

    # C = 0.5 of 8 clients: 4 participants per sync round
    @pytest.mark.parametrize(
        "rule_lines, kept",
        [
            ("rule = fedavg", 4),
            ("rule = median", 4),
            ("rule = trimmed_mean\ntrim_b = 1", 4),
            ("rule = atm\ntrim_b = 1", 4 - 2 * 1),
            ("rule = multi_krum\nkrum_f = 1", 4 - 1),  # krum_count = 0: n - krum_f
            ("rule = multi_krum\nkrum_f = 1\nkrum_count = 2", 2),
            ("rule = fang\nfang_remove = 1", 4 - 1),
        ],
    )
    def test_kept_count_matches_rule(self, tmp_path, rule_lines, kept):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE.replace("n_clients = 4", "n_clients = 8\nC = 0.5") + rule_lines + "\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 10
        assert {row.split(",")[4] for row in rows} == {str(kept)}

    @pytest.mark.parametrize("rule", ["atm", "multi_krum", "fang"])
    def test_async_kept_count_is_kept_ids(self, tmp_path, rule):
        text = SMOKE.replace("n_clients = 4", "n_clients = 8")
        text += f"async = true\ntau_max = 2\nrule = {rule}\n"
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()[1:]
        records = engine.run(cli.to_experiment_config(cli.parse_config_text(text))).records
        counts = [int(row.split(",")[4]) for row in rows]
        assert counts == [len(r.diagnostics["kept"]) for r in records]
        assert len(set(counts)) > 1  # the buffer fills over the run

    def test_manifest_reproduces_run(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        out1 = tmp_path / "a"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        lines = []
        for key, value in manifest["config"].items():
            if isinstance(value, list):
                value = ",".join(str(x) for x in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            elif value == "":
                value = '""'
            lines.append(f"{key} = {value}")
        cfg2 = tmp_path / "cfg2"
        cfg2.write_text("\n".join(lines))
        out2 = tmp_path / "b"
        assert cli.main(["run", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_wrapper_passes_knobs_to_inner_rule(self, tmp_path):
        base = "n_clients = 10\nrounds = 6\nlr = 0.1\nfeatures = 8\nper_class = 40\nbatch_size = 8\n"
        dp = base + "rule = dp\ndp_sigma = 0\ninner_rule = trimmed_mean\n"
        texts = {
            "dp3": dp + "trim_b = 3",
            "dp1": dp + "trim_b = 1",
            "tm3": base + "rule = trimmed_mean\ntrim_b = 3",
        }
        outs = {}
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
            out = tmp_path / f"{name}_out"
            assert cli.main(["run", "--config", str(tmp_path / name), "--out", str(out)]) == 0
            outs[name] = [(out / f).read_bytes() for f in ("rounds.csv", "summary.json")]
        assert outs["dp3"] == outs["tm3"]
        assert outs["dp3"] != outs["dp1"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "rule,code",
        [("fedavg", 2), ("trimmed_mean", 2), ("multi_krum", 2), ("fang", 2), ("atm", 0), ("median", 0)],
    )
    def test_non_finite_update_exit_code(self, rule, code, tmp_path, capsys):
        # two ascent updates at 1e306 drive the model non-finite under the
        # rules that average them; atm trims them and the median ignores them
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "attack = gradient_ascent\nga_scale = 1e306\nmalicious_fraction = 0.2\n"
            f"rounds = 5\nrule = {rule}\n"
        )
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == code
        if code:
            assert "gradient 0 contains NaN or Inf entries" in capsys.readouterr().err
            assert not out.exists()
        else:
            for name in ("rounds.csv", "summary.json", "manifest.json"):
                assert (out / name).exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "rule,tau_max,code,position",
        [
            ("fedavg", 5, 2, 3),
            ("fedavg", 0, 2, 7),
            ("median", 5, 2, 0),
            ("multi_krum", 5, 2, 0),
            ("fang", 5, 2, 3),
            ("dp", 0, 2, 7),
            ("atm", 5, 0, None),
            ("median", 0, 0, None),
        ],
    )
    def test_async_non_finite_update_exit_code(self, rule, tau_max, code, position, tmp_path, capsys):
        # the position is the non-finite row's place among the clients
        # held when it arrives, ascending by id
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "async = true\nattack = gradient_ascent\nga_scale = 1e306\nmalicious_fraction = 0.2\n"
            f"rounds = 5\nrule = {rule}\ntau_max = {tau_max}\n"
        )
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert err == f"error: gradient {position} contains NaN or Inf entries\n"
            assert not out.exists()
        else:
            for name in ("rounds.csv", "summary.json", "manifest.json"):
                assert (out / name).exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("C = 2.0")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_unwritable_out_dir(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        wall = tmp_path / "wall"
        wall.write_text("not a directory")
        code = cli.main(["run", "--config", str(cfg), "--out", str(wall / "x")])
        assert code != 0
        if os.geteuid() != 0:
            blocked = tmp_path / "blocked"
            blocked.mkdir()
            blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
            assert cli.main(["run", "--config", str(cfg), "--out", str(blocked / "x")]) != 0

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1


class TestTheoryCommand:
    def test_default_grid_passes(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("theory_trials = 400")
        out = tmp_path / "theory.csv"
        assert cli.main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "n,m,b,sigma2,adversary,trials,empirical,bound,pass"
        assert len(rows) > 1
        assert all(row.endswith("true") for row in rows[1:])

    def test_empty_grid_warns_and_passes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("theory_m_values = \n")
        out = tmp_path / "theory.csv"
        assert cli.main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
        assert "empty theory grid" in capsys.readouterr().err
        assert out.read_text().strip().splitlines() == [
            "n,m,b,sigma2,adversary,trials,empirical,bound,pass"
        ]

    def test_small_grid_csv_is_unchanged(self, tmp_path):
        # golden rows: where fedarena.theory imports scipy.stats must change none
        cfg = tmp_path / "cfg"
        cfg.write_text("theory_trials = 200")
        out = tmp_path / "theory.csv"
        argv = ["theory", "--config", str(cfg), "--out", str(out), "--seed", "0"]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "77057d6c8580817538d7109a13849f665d07d3f58b61f26a48f2ce25c609b7cf"
        )

    def test_negative_sigma_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("theory_sigma = -1")
        assert cli.main(["theory", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 1

    def test_bound_violation_exits_three(self, tmp_path, monkeypatch):
        # the real bound holds, so force a violation to exercise the exit path
        monkeypatch.setattr(cli, "monte_carlo_deviation", lambda *a, **k: 1e9)
        cfg = tmp_path / "cfg"
        cfg.write_text("theory_trials = 10")
        out = tmp_path / "theory.csv"
        assert cli.main(["theory", "--config", str(cfg), "--out", str(out)]) == 3
        rows = out.read_text().strip().splitlines()
        assert all(row.endswith("false") for row in rows[1:])


class TestSweepCommand:
    def test_sweep_writes_per_value_outputs(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--sweep", "seed=0,1"]
        )
        assert code == 0
        assert (out / "seed=0" / "summary.json").exists()
        assert (out / "seed=1" / "summary.json").exists()
        rows = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert rows[0] == "value,attack_accuracy,precision,recall,final_test_acc"
        assert [row.split(",")[0] for row in rows[1:]] == ["0", "1"]

    def test_grid_runs_the_product_in_nested_dirs(self, tmp_path):
        base = SMOKE.replace("rounds = 10", "rounds = 4")
        cfg = tmp_path / "cfg"
        cfg.write_text(base)
        out = tmp_path / "grid"
        axes = {"attack": ("passive", "fedpoisonmia"), "rule": ("atm", "topk"), "seed": ("0", "1")}
        specs = [arg for key, vals in axes.items() for arg in ("--sweep", f"{key}={','.join(vals)}")]
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)] + specs) == 0
        rows = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert rows[0] == "attack,rule,seed,attack_accuracy,precision,recall,final_test_acc"
        points = list(itertools.product(*axes.values()))
        assert [tuple(row.split(",")[:3]) for row in rows[1:]] == points
        for attack, rule, seed in points:
            point = out / f"attack={attack}" / f"rule={rule}" / f"seed={seed}"
            single_cfg = tmp_path / "single"
            single_cfg.write_text(f"{base}\nattack = {attack}\nrule = {rule}\nseed = {seed}\n")
            single = tmp_path / f"single_{attack}_{rule}_{seed}"
            assert cli.main(["run", "--config", str(single_cfg), "--out", str(single)]) == 0
            for name in ("rounds.csv", "summary.json", "manifest.json"):
                assert (point / name).read_bytes() == (single / name).read_bytes()

    @pytest.mark.parametrize(
        "specs,key",
        [
            (["seed=0,1", "rule=atm,fedavg", "seed=2"], "seed"),
            (["rule=fedavg,atm", "n_clients=10,4"], "trim_b"),  # atm trims all 4 at trim_b = 2
            (["lr=0.1,0.10", "seed=0,1"], "lr"),  # two spellings of one value
            (["seed=0,0"], "seed"),
            # noniid leaves a client without samples at n_clients = 170, and
            # at 150 under seed 0 but not seed 1
            (["partition=noniid", "per_class=100", "n_clients=10,170"], "n_clients"),
            (["partition=noniid", "per_class=100", "n_clients=150", "seed=1,0"], "n_clients"),
            (["theory_trials=5,6"], "theory_trials"),  # no run reads it
            # keys that only some configs read, swept where no point does
            (["fang_mode=err,lfr"], "fang_mode"),
            (["rule=fedavg,median", "fang_remove=1,2"], "fang_remove"),
            (["rule=dp", "inner_rule=median", "fang_mode=err,lfr"], "fang_mode"),
            (["tau_max=1,2"], "tau_max"),
            (["csv_path=a.csv,b.csv"], "csv_path"),
            (["inner_rule=atm,median"], "inner_rule"),
            (["rule=fedavg,median", "inner_rule=fedavg,median"], "inner_rule"),
        ],
    )
    def test_rejected_grid_writes_nothing(self, specs, key, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE + "trim_b = 2\n")
        out = tmp_path / "o"
        specs = [arg for spec in specs for arg in ("--sweep", spec)]
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)] + specs) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "specs",
        [
            ["rule=fedavg,fang", "fang_mode=err,lfr"],
            ["rule=topk", "inner_rule=fang,median", "fang_remove=1,2"],
            ["async=false,true", "tau_max=1,2"],
            ["rule=fedavg,dp", "inner_rule=atm,median"],
        ],
    )
    def test_key_read_by_some_point_is_swept(self, specs, tmp_path):
        values = cli.parse_config_text(SMOKE)
        keys, points = cli.sweep_points(values, specs, tmp_path / "o")
        assert len(keys) == len(specs) and len(points) == 4

    def test_csv_parsed_once_for_the_checks(self, tmp_path, monkeypatch):
        from fedarena import data

        csv = tmp_path / "data.csv"
        data.save_csv(data.synth_dataset(3, 8, 40, 0.4, seed=0), csv)
        parsed = []
        load_csv = data.load_csv
        monkeypatch.setattr(data, "load_csv", lambda path: parsed.append(path) or load_csv(path))
        monkeypatch.setenv("FEDARENA_THREADS", "0")
        values = cli.parse_config_text(
            SMOKE.replace("rounds = 10", "rounds = 2") + f"dataset = csv\ncsv_path = {csv}\n"
        )
        _, points = cli.sweep_points(values, ["seed=0,1,2"], tmp_path / "checked")
        assert len(points) == 3 and parsed == [str(csv)]
        parsed.clear()
        assert cli.run_sweep(values, ["seed=0,1,2"], tmp_path / "sweep") == 0
        assert parsed == [str(csv)] * 4  # the checks, then one parse per run

    def test_thread_count_does_not_change_metrics(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        results = {}
        for threads in ("0", "2"):
            monkeypatch.setenv("FEDARENA_THREADS", threads)
            out = tmp_path / f"sweep{threads}"
            assert cli.main(
                ["sweep", "--config", str(cfg), "--out", str(out), "--sweep", "seed=0,1"]
            ) == 0
            results[threads] = (out / "sweep_summary.csv").read_bytes()
        assert results["0"] == results["2"]

    @pytest.mark.parametrize(
        "threads, seeds, pools",
        [("64", "0,1", [2]), ("2", "0,1,2", [2]), ("64", "0", []), ("1", "0,1", [])],
    )
    def test_pool_never_outnumbers_the_points(self, tmp_path, monkeypatch, threads, seeds, pools):
        # a fake pool records its size and runs the points in process, so
        # no worker starts; one worker runs the sweep without a pool
        import multiprocessing

        opened = []

        class Pool:
            def __init__(self, n):
                opened.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, args):
                return list(itertools.starmap(fn, args))

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
        monkeypatch.setenv("FEDARENA_THREADS", threads)
        values = cli.parse_config_text(SMOKE.replace("rounds = 10", "rounds = 2"))
        assert cli.run_sweep(values, [f"seed={seeds}"], tmp_path / "sweep") == 0
        assert opened == pools
        rows = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 1 + len(seeds.split(","))

    def test_readme_matrix_grid_is_valid(self, tmp_path):
        # the attack x defense matrix is documented as a config block and one grid command
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"cat > matrix.cfg <<EOF\n(.*?)\nEOF\n(.*?)\n```", readme, re.S)
        values = cli.parse_config_text(block.group(1))
        specs = re.findall(r"--sweep (\S+)", block.group(2))
        keys, points = cli.sweep_points(values, specs, tmp_path)
        assert keys == ["attack", "rule", "seed"]
        assert len(points) == 5 * 8 * 5
        assert {v["rule"] for v, _ in points} == set(RULE_KINDS)

    def test_unknown_sweep_key(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        code = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--sweep", "nope=1,2"]
        )
        assert code == 1


DEFAULTS_TEXT = """\
# fedarena configuration (defaults)
n_clients = 10
malicious_fraction = 0.1
C = 0.8
lr = 0.01
rounds = 200
batch_size = 64
rule = fedavg
trim_b = 1
dp_sigma = 0.05
top_k = 0
krum_f = 1
krum_count = 0
fang_mode = lfr
fang_remove = 1
inner_rule = fedavg
attack = none
gamma = 0.1
alpha_min = 0.01
alpha_max = 100.0
alpha_points = 25
knowledge = full
ga_scale = 1.0
dataset = synthetic
csv_path = ""
classes = 3
features = 64
per_class = 100
spread = 0.6
partition = iid
beta = 0.5
train_fraction = 0.6
holdout_fraction = 0.2
val_fraction = 0.05
n_attack = 20
n_mask = 16
async = false
tau_max = 5
seed = 0
theory_n = 20
theory_mu = 1.5707963267948966
theory_sigma = 0.3
theory_m_values = 0,2,4
theory_b_max = 5
theory_trials = 2000
theory_adversaries = extreme_high,extreme_low,mimic_mean
"""


class TestDefaults:
    def test_defaults_text_is_unchanged(self, capsys):
        assert cli.main(["defaults"]) == 0
        assert capsys.readouterr().out == DEFAULTS_TEXT

    def test_run_keys_are_a_bijection_onto_the_config_fields(self):
        def leaves(config, prefix=""):
            for f in dataclasses.fields(config):
                value = getattr(config, f.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value, f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name, value

        base = dict(leaves(ExperimentConfig()))
        # every leaf field has exactly one run key, and the keys are distinct
        assert sorted(cli.KEYS.values()) == sorted(base)
        for key, path in cli.KEYS.items():
            assert key == cli.RENAMED.get(path, path.rpartition(".")[2]), key
            assert cli.DEFAULTS[key] == base[path], key
        # no run key is a theory key, and every other key is one
        theory = [key for key in cli.DEFAULTS if key not in cli.KEYS]
        assert theory and all(key.startswith("theory_") for key in theory)
        assert not any(key.startswith("theory_") for key in cli.KEYS)
        assert set(cli.RENAMED) <= set(base)

    def test_defaults_subcommand_round_trips(self, tmp_path, capsys):
        assert cli.main(["defaults"]) == 0
        text = capsys.readouterr().out
        assert cli.parse_config_text(text) == cli.parse_config_text("")

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 10


COLD_RUN = """
import json, sys
import fedarena, fedarena.cli, fedarena.engine

cfg, out = sys.argv[1:]
assert fedarena.cli.main(["run", "--config", cfg, "--out", out]) == 0
lazy = ("scipy.stats", "multiprocessing")
after_run = [m for m in lazy if m in sys.modules]
mean = fedarena.TruncatedGaussian(mu=1.5, sigma=0.3).mean
after_mean = "scipy.stats" in sys.modules
print(json.dumps({"after_run": after_run, "mean": mean, "scipy_after_mean": after_mean}))
"""


class TestColdImports:
    """A fresh interpreter, as the `fedarena` entry point starts one."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cold")
        cfg = tmp / "cfg"
        cfg.write_text("attack = fedpoisonmia\nrule = atm\nrounds = 3\n")
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", COLD_RUN, str(cfg), str(tmp / "o")],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout)

    def test_run_loads_neither_scipy_stats_nor_multiprocessing(self, cold):
        assert cold["after_run"] == []

    def test_truncated_gaussian_loads_scipy_stats_when_asked(self, cold):
        from fedarena.theory import TruncatedGaussian

        assert cold["scipy_after_mean"]
        assert cold["mean"] == TruncatedGaussian(mu=1.5, sigma=0.3).mean
