import numpy as np
import pytest

from fedarena import data as dm
from fedarena.errors import (
    EmptyFile,
    InsufficientData,
    InvalidBeta,
    InvalidConfig,
    ParseError,
    TooFewClients,
    TooManyClients,
)


def make_blobs(h=3, p=4, per_class=30, spread=0.2, seed=0):
    return dm.synth_dataset(h, p, per_class, spread, seed)


class TestSynth:
    def test_balanced_labels(self):
        ds = dm.synth_dataset(2, 3, 10, 0.1, seed=0)
        assert ds.size == 20
        assert sorted(set(ds.labels.tolist())) == [0, 1]
        assert np.sum(ds.labels == 0) == 10

    def test_zero_spread_collapses_classes(self):
        ds = dm.synth_dataset(2, 3, 5, 0.0, seed=1)
        for c in (0, 1):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_class_means_on_unit_sphere(self):
        ds = dm.synth_dataset(4, 6, 50, 0.0, seed=2)
        for c in range(4):
            mean = ds.features[ds.labels == c][0]
            assert np.linalg.norm(mean) == pytest.approx(1.0)

    def test_deterministic(self):
        a = dm.synth_dataset(3, 4, 7, 0.3, seed=9)
        b = dm.synth_dataset(3, 4, 7, 0.3, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            dm.synth_dataset(1, 4, 10, 0.1, seed=0)
        with pytest.raises(InvalidConfig):
            dm.synth_dataset(3, 4, 0, 0.1, seed=0)


class TestCsv:
    def test_labels_infer_classes(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1.5,2.0\n1,0.0,1.0\n2,3.25,-1.0\n")
        ds = dm.load_csv(f)
        assert ds.num_classes == 3
        assert ds.size == 3
        assert ds.feature_dim == 2

    def test_malformed_row_reports_number(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1.0,2.0\n1,oops,2.0\n")
        with pytest.raises(ParseError) as exc:
            dm.load_csv(f)
        assert exc.value.row == 2

    def test_width_mismatch(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError) as exc:
            dm.load_csv(f)
        assert exc.value.row == 2

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(EmptyFile):
            dm.load_csv(f)

    def test_round_trip(self, tmp_path):
        ds = make_blobs(seed=4)
        f = tmp_path / "rt.csv"
        dm.save_csv(ds, f)
        again = dm.load_csv(f)
        assert np.array_equal(ds.features, again.features)
        assert np.array_equal(ds.labels, again.labels)
        assert ds.num_classes == again.num_classes


class TestPartitionIid:
    def test_even_split(self):
        ds = dm.synth_dataset(2, 3, 5, 0.1, seed=0)
        part = dm.partition_iid(ds, 2, seed=0)
        assert sorted(len(s) for s in part.shards) == [5, 5]

    def test_singleton_shards(self):
        ds = dm.synth_dataset(2, 3, 5, 0.1, seed=0)
        part = dm.partition_iid(ds, 10, seed=0)
        assert all(len(s) == 1 for s in part.shards)

    def test_deterministic(self):
        ds = make_blobs()
        a = dm.partition_iid(ds, 4, seed=3)
        b = dm.partition_iid(ds, 4, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.shards, b.shards))

    def test_disjoint_cover(self):
        ds = make_blobs(per_class=17)
        part = dm.partition_iid(ds, 7, seed=1)
        joined = np.concatenate(part.shards)
        assert len(joined) == ds.size
        assert len(set(joined.tolist())) == ds.size
        assert max(len(s) for s in part.shards) - min(len(s) for s in part.shards) <= 1

    def test_too_many_clients(self):
        ds = dm.synth_dataset(2, 3, 2, 0.1, seed=0)
        with pytest.raises(TooManyClients) as exc:
            dm.partition_iid(ds, 5, seed=0)
        assert exc.value.path == "n_clients"


class TestPartitionNonIid:
    def test_full_bias_groups_by_label(self):
        ds = make_blobs(h=3, per_class=30)
        part = dm.partition_noniid(ds, 6, bias=1.0, seed=0)
        # client k serves group k % 3; full bias puts label q only on group q
        for k, shard in enumerate(part.shards):
            labels = set(ds.labels[shard].tolist())
            assert labels == {k % 3}

    def test_disjoint_cover(self):
        ds = make_blobs(h=3, per_class=40)
        part = dm.partition_noniid(ds, 5, bias=0.5, seed=2)
        joined = np.concatenate(part.shards)
        assert len(joined) == ds.size
        assert len(set(joined.tolist())) == ds.size

    def test_invalid_bias(self):
        ds = make_blobs()
        with pytest.raises(InvalidBeta):
            dm.partition_noniid(ds, 4, bias=0.0, seed=0)
        with pytest.raises(InvalidBeta):
            dm.partition_noniid(ds, 4, bias=1.5, seed=0)

    def test_too_few_clients(self):
        ds = make_blobs(h=3)
        with pytest.raises(TooFewClients) as exc:
            dm.partition_noniid(ds, 2, bias=0.5, seed=0)
        assert exc.value.path == "n_clients"

    def test_group_frequency_half_bias(self):
        # two classes, bias 0.5: each label lands in either group with p=0.5
        ds = dm.synth_dataset(2, 2, 5000, 0.1, seed=3)
        part = dm.partition_noniid(ds, 2, bias=0.5, seed=3)
        own = sum(int(np.sum(ds.labels[part.shards[g]] == g)) for g in (0, 1))
        n = ds.size
        sigma = np.sqrt(n * 0.5 * 0.5)
        assert abs(own - 0.5 * n) <= 3 * sigma

    def test_group_frequency_uniform_bias(self):
        # bias = 1/h makes every group equally likely for every label
        h = 4
        ds = dm.synth_dataset(h, 2, 2500, 0.1, seed=5)
        part = dm.partition_noniid(ds, h, bias=1.0 / h, seed=5)
        n = ds.size
        p = 1.0 / h
        sigma = np.sqrt(n * p * (1 - p))
        for g in range(h):
            got = len(part.shards[g])
            assert abs(got - p * n) <= 3 * sigma


class TestAttackerData:
    def _setup(self, n_attack=4, n_mask=4, seed=0):
        ds = make_blobs(h=2, per_class=40, seed=seed)
        part = dm.partition_iid(ds, 4, seed=seed)
        holdout = dm.synth_dataset(2, 4, 20, 0.2, seed=seed + 100)
        att = dm.build_attacker_data(
            part, ds, holdout, malicious_ids=[3], n_attack=n_attack, n_mask=n_mask, seed=seed
        )
        return ds, part, holdout, att

    def test_half_members(self):
        _, _, _, att = self._setup(n_attack=4)
        assert int(np.sum(att.member_flags)) == 2
        assert len(att.member_flags) == 4

    def test_odd_count_rounds_members_up(self):
        _, _, _, att = self._setup(n_attack=5)
        assert int(np.sum(att.member_flags)) == 3

    def test_member_flags_match_shard_containment(self):
        ds, part, holdout, att = self._setup(n_attack=10, seed=2)
        benign_rows = ds.features[np.concatenate(part.shards[:3])]
        for i, flag in enumerate(att.member_flags):
            row = att.attack_features[i]
            contained = bool(np.any(np.all(benign_rows == row, axis=1)))
            assert contained == bool(flag)

    def test_mask_comes_from_malicious_shard(self):
        ds, part, _, att = self._setup(n_mask=6, seed=3)
        mal_rows = ds.features[part.shards[3]]
        for row in att.mask_features:
            assert np.any(np.all(mal_rows == row, axis=1))

    def test_deterministic(self):
        _, _, _, a = self._setup(seed=7)
        _, _, _, b = self._setup(seed=7)
        assert np.array_equal(a.attack_features, b.attack_features)
        assert np.array_equal(a.mask_features, b.mask_features)

    def test_insufficient_data(self):
        ds = make_blobs(h=2, per_class=5)
        part = dm.partition_iid(ds, 2, seed=0)
        holdout = dm.synth_dataset(2, 4, 2, 0.2, seed=1)
        with pytest.raises(InsufficientData) as exc:
            dm.build_attacker_data(part, ds, holdout, [1], n_attack=40, n_mask=1, seed=0)
        assert exc.value.path == "n_attack"
        with pytest.raises(InsufficientData) as exc:
            dm.build_attacker_data(part, ds, holdout, [1], n_attack=2, n_mask=50, seed=0)
        assert exc.value.path == "n_mask"
