import json
import os
import stat
import time

import pytest

from fedarena import cli
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
    ("alpha_points = 0", "alpha_min"),
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
    ("rounds = soon", "rounds"),
    ("async = maybe", "async"),
    ("warp_speed = 9", "warp_speed"),
    ("rounds 7", "line 1"),
]


class TestRejections:
    @pytest.mark.parametrize("text,key", REJECTIONS)
    def test_rejected_value_names_key(self, text, key, tmp_path, capsys):
        with pytest.raises(ConfigError) as exc:
            cli.to_experiment_config(cli.parse_config_text(text))
        assert exc.value.key == key
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        assert rows[0].startswith("value,attack_accuracy")
        assert len(rows) == 3

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

    def test_unknown_sweep_key(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(SMOKE)
        code = cli.main(
            ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--sweep", "nope=1,2"]
        )
        assert code == 1


class TestDefaults:
    def test_defaults_subcommand_round_trips(self, tmp_path, capsys):
        assert cli.main(["defaults"]) == 0
        text = capsys.readouterr().out
        assert cli.parse_config_text(text) == cli.parse_config_text("")

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
