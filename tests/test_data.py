import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionseg.data import (
    Dataset,
    Demonstration,
    SyntheticConfig,
    confusion_matrix,
    generate_synthetic,
    load_dataset,
    mask_labels,
    save_dataset,
    segmentation_accuracy,
    split_leave_one_out,
)
from motionseg.errors import DataFormatError, MotionsegError, SchemaError, ShapeError


def default_config(**overrides):
    base = dict(
        demonstrators=2,
        demos_per_demonstrator=2,
        num_classes=4,
        feature_width=6,
        mean_durations=4.0,
        cycles=1,
        seed=0,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestGenerator:
    def test_zero_noise_zero_style_collapses_classes(self):
        ds = generate_synthetic(default_config(noise_sigma=0.0, style_scale=0.0))
        by_class = {}
        for demo in ds.demos:
            for t in range(demo.num_frames):
                by_class.setdefault(int(demo.labels[t]), []).append(demo.features[t])
        for vectors in by_class.values():
            stacked = np.stack(vectors)
            assert np.max(np.abs(stacked - stacked[0])) == 0.0

    def test_label_histogram_tracks_mean_durations(self):
        means = (3.0, 6.0, 9.0)
        config = default_config(
            num_classes=3,
            mean_durations=means,
            demonstrators=8,
            demos_per_demonstrator=7,
            cycles=10,
            seed=1,
        )
        ds = generate_synthetic(config)
        counts = np.zeros(3)
        for demo in ds.demos:
            for c in range(3):
                counts[c] += int((demo.labels == c + 1).sum())
        assert ds.num_frames > 10_000
        shares = counts / counts.sum()
        expected = np.asarray(means) / sum(means)
        np.testing.assert_allclose(shares, expected, rtol=0.10)

    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(default_config(seed=9))
        b = generate_synthetic(default_config(seed=9))
        for da, db in zip(a.demos, b.demos):
            np.testing.assert_array_equal(da.features, db.features)
            np.testing.assert_array_equal(da.labels, db.labels)
            np.testing.assert_array_equal(da.poses, db.poses)

    def test_poses_attached_and_quaternions_unit(self):
        ds = generate_synthetic(default_config())
        for demo in ds.demos:
            assert demo.poses is not None
            for base in (3, 11):
                norms = np.linalg.norm(demo.poses[:, base : base + 4], axis=1)
                np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestSerialization:
    def test_round_trip_is_value_identical(self, tmp_path):
        ds = generate_synthetic(default_config(seed=2))
        manifest = save_dataset(ds, tmp_path / "out")
        back = load_dataset(manifest)
        assert back.num_classes == ds.num_classes
        assert back.feature_width == ds.feature_width
        assert len(back.demos) == len(ds.demos)
        for da, db in zip(ds.demos, back.demos):
            assert da.demo_id == db.demo_id and da.demonstrator_id == db.demonstrator_id
            np.testing.assert_array_equal(da.features, db.features)
            np.testing.assert_array_equal(da.labels, db.labels)
            np.testing.assert_array_equal(da.poses, db.poses)
            assert da.fps == db.fps

    def test_unlabeled_demo_round_trips_as_unlabeled(self, tmp_path):
        ds = generate_synthetic(default_config(seed=3))
        ds.demos[0].labels = None
        manifest = save_dataset(ds, tmp_path / "out")
        back = load_dataset(manifest)
        assert back.demos[0].labels is None
        assert back.demos[1].labels is not None

    def test_missing_demo_file_names_it(self, tmp_path):
        ds = generate_synthetic(default_config(seed=4))
        manifest = save_dataset(ds, tmp_path / "out")
        (tmp_path / "out" / "demos" / "demo_0001.csv").unlink()
        with pytest.raises(DataFormatError, match="demo_0001.csv"):
            load_dataset(manifest)

    def test_truncated_row_reports_line_number(self, tmp_path):
        ds = generate_synthetic(default_config(seed=5))
        manifest = save_dataset(ds, tmp_path / "out")
        csv = tmp_path / "out" / "demos" / "demo_0000.csv"
        lines = csv.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-2])
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=":4"):
            load_dataset(manifest)

    def _corrupt_field(self, tmp_path, seed, line, field, value):
        ds = generate_synthetic(default_config(seed=seed))
        manifest = save_dataset(ds, tmp_path / "out")
        csv = tmp_path / "out" / "demos" / "demo_0001.csv"
        lines = csv.read_text().splitlines()
        parts = lines[line - 1].split(",")
        parts[field] = value
        lines[line - 1] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        return manifest

    def test_nan_feature_rejected_with_file_and_line(self, tmp_path):
        manifest = self._corrupt_field(tmp_path, 7, line=6, field=-1, value="nan")
        with pytest.raises(DataFormatError, match="non-finite feature") as info:
            load_dataset(manifest)
        assert info.value.path.endswith("demo_0001.csv") and info.value.line == 6

    def test_inf_pose_rejected_with_file_and_line(self, tmp_path):
        # column 2 + 4 is the left quaternion's second component
        manifest = self._corrupt_field(tmp_path, 8, line=3, field=6, value="-inf")
        with pytest.raises(DataFormatError, match="non-finite pose") as info:
            load_dataset(manifest)
        assert info.value.path.endswith("demo_0001.csv") and info.value.line == 3

    def test_non_unit_quaternion_rejected_with_file_and_line(self, tmp_path):
        manifest = save_dataset(generate_synthetic(default_config(seed=9)), tmp_path / "out")
        csv = tmp_path / "out" / "demos" / "demo_0001.csv"
        lines = csv.read_text().splitlines()
        parts = lines[4].split(",")
        # line 5's right-arm quaternion (columns 2 + 11..14), scaled by 1.01
        parts[13:17] = [repr(float(v) * 1.01) for v in parts[13:17]]
        lines[4] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="quaternion norm") as info:
            load_dataset(manifest)
        assert info.value.path.endswith("demo_0001.csv") and info.value.line == 5

    def test_poses_rounded_to_six_significant_digits_load(self, tmp_path):
        ds = generate_synthetic(default_config(seed=10))
        manifest = save_dataset(ds, tmp_path / "out")
        for csv in sorted((tmp_path / "out" / "demos").glob("*.csv")):
            header, *rows = csv.read_text().splitlines()
            rows = [r.split(",") for r in rows]
            rows = [",".join(r[:2] + [f"{float(v):.6g}" for v in r[2:18]] + r[18:]) for r in rows]
            csv.write_text("\n".join([header, *rows]) + "\n")
        back = load_dataset(manifest)
        for da, db in zip(ds.demos, back.demos):
            np.testing.assert_allclose(db.poses, da.poses, rtol=1e-5, atol=1e-5)
            assert not np.array_equal(db.poses, da.poses)

    @pytest.mark.parametrize("fps", ["0", "-3.0", "nan", "inf", "fast"])
    def test_bad_fps_rejected_with_manifest_line(self, tmp_path, fps):
        ds = generate_synthetic(default_config(seed=9))
        manifest = save_dataset(ds, tmp_path / "out")
        lines = Path(manifest).read_text().splitlines()
        demo_lines = [i for i, line in enumerate(lines) if line.startswith("demo =")]
        target = demo_lines[1]
        parts = lines[target].split("|")
        parts[2] = fps
        lines[target] = "|".join(parts)
        with open(manifest, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="fps") as info:
            load_dataset(manifest)
        assert info.value.path == manifest and info.value.line == target + 1

    def test_duplicate_demo_id_rejected_with_manifest_line(self, tmp_path):
        manifest = save_dataset(generate_synthetic(default_config(seed=9)), tmp_path / "out")
        lines = Path(manifest).read_text().splitlines()
        first, second = [i for i, line in enumerate(lines) if line.startswith("demo =")][:2]
        parts = lines[second].split("|")
        parts[1] = lines[first].split("|")[1]
        lines[second] = "|".join(parts)
        Path(manifest).write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=f"already used on line {first + 1}") as info:
            load_dataset(manifest)
        assert info.value.path == manifest and info.value.line == second + 1

    def test_unknown_manifest_key_rejected(self, tmp_path):
        ds = generate_synthetic(default_config(seed=6))
        manifest = save_dataset(ds, tmp_path / "out")
        with open(manifest, "a") as fh:
            fh.write("surprise = 1\n")
        with pytest.raises(SchemaError, match="surprise"):
            load_dataset(manifest)

    def test_missing_manifest_errors(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "nope" / "manifest.txt")

    @pytest.mark.parametrize("name", ["manifest.txt", "demos/demo_0001.csv"])
    def test_non_utf8_file_named(self, tmp_path, name):
        manifest = save_dataset(generate_synthetic(default_config(seed=10)), tmp_path / "out")
        path = tmp_path / "out" / name
        path.write_bytes(path.read_bytes()[:40] + b"\xff" + path.read_bytes()[40:])
        with pytest.raises(DataFormatError, match="not UTF-8") as info:
            load_dataset(manifest)
        assert info.value.path == str(path)

    def test_header_only_csv_named(self, tmp_path):
        manifest = save_dataset(generate_synthetic(default_config(seed=11)), tmp_path / "out")
        csv = tmp_path / "out" / "demos" / "demo_0002.csv"
        csv.write_text(csv.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataFormatError, match="no frames") as info:
            load_dataset(manifest)
        assert info.value.path == str(csv)

    def test_negative_feature_width_rejected(self, tmp_path):
        (tmp_path / "demos").mkdir()
        (tmp_path / "demos" / "d.csv").write_text("frame_index\n0\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("classes = 2\nfeature_width = -1\ndemo = a|a0|3.0|demos/d.csv\n")
        with pytest.raises(SchemaError, match="feature_width"):
            load_dataset(manifest)

    def test_label_beyond_int64_rejected(self, tmp_path):
        manifest = self._corrupt_field(tmp_path, 12, line=2, field=1, value="9" * 20)
        with pytest.raises(DataFormatError, match="label") as info:
            load_dataset(manifest)
        assert info.value.path.endswith("demo_0001.csv")


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    ds = generate_synthetic(
        default_config(demonstrators=1, num_classes=2, feature_width=2, mean_durations=2.0, seed=13)
    )
    return os.path.dirname(save_dataset(ds, tmp_path_factory.mktemp("fuzz")))


FUZZ_CSVS = ["demos/demo_0000.csv", "demos/demo_0001.csv"]


@settings(max_examples=300, deadline=None)
@given(
    # one file, or the manifest and one demo CSV together
    names=st.sampled_from(
        [["manifest.txt"], *[[c] for c in FUZZ_CSVS], *[["manifest.txt", c] for c in FUZZ_CSVS]]
    ),
    # per file, each edit replaces `cut` bytes at `at` (mod the file length) with `put`
    edits=st.lists(
        st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(0, 3), st.binary(max_size=3)),
            min_size=1, max_size=4,
        ),
        min_size=2, max_size=2,
    ),
)
def test_loader_fuzz_fails_only_with_library_or_os_errors(fuzz_root, names, edits):
    """Any byte-level corruption of a saved dataset, in one file or in the
    manifest and a demo CSV together, either still loads or raises a
    MotionsegError (exit 1 from the CLI) or an OSError."""
    originals = {}
    for name, file_edits in zip(names, edits):
        path = os.path.join(fuzz_root, name)
        with open(path, "rb") as fh:
            originals[path] = fh.read()
        data = bytearray(originals[path])
        for at, cut, put in file_edits:
            at %= len(data) + 1
            data[at : at + cut] = put
        with open(path, "wb") as fh:
            fh.write(data)
    try:
        load_dataset(os.path.join(fuzz_root, "manifest.txt"))
    except (MotionsegError, OSError):
        pass
    finally:
        for path, original in originals.items():
            with open(path, "wb") as fh:
                fh.write(original)


class TestSplits:
    def test_counts_and_disjointness(self):
        ds = generate_synthetic(
            default_config(demonstrators=8, demos_per_demonstrator=5, seed=7)
        )
        train, test = split_leave_one_out(ds, held_out_index=4)
        assert len(test.demos) == 8 and len(train.demos) == 32
        train_ids = {d.demo_id for d in train.demos}
        test_ids = {d.demo_id for d in test.demos}
        assert not (train_ids & test_ids)
        assert train_ids | test_ids == {d.demo_id for d in ds.demos}

    def test_stereo_corpus_layout_yields_62_16(self):
        # 16 demonstrator-view groups of 5 trials, two groups missing one
        # corrupted trial: 78 demos total split 62 train / 16 test.
        demos = []
        for g in range(16):
            trials = 5 if g >= 2 else 4
            for t in range(trials):
                demos.append(
                    Demonstration(
                        demo_id=f"g{g}_t{t}",
                        demonstrator_id=f"g{g}",
                        features=np.zeros((3, 2)),
                        labels=np.ones(3, dtype=int),
                    )
                )
        ds = Dataset(demos, num_classes=2, feature_width=2)
        assert len(ds.demos) == 78
        train, test = split_leave_one_out(ds, held_out_index=0)
        assert len(train.demos) == 62 and len(test.demos) == 16

    def test_out_of_range_index_rejected(self):
        ds = generate_synthetic(default_config(seed=8))
        with pytest.raises(IndexError):
            split_leave_one_out(ds, held_out_index=2)


class TestMaskLabels:
    def test_fraction_one_keeps_everything(self):
        ds = generate_synthetic(default_config(seed=9))
        masked = mask_labels(ds, 1.0, seed=0)
        assert all(d.labels is not None for d in masked.demos)

    def test_small_fraction_keeps_exactly_one(self):
        ds = generate_synthetic(
            default_config(demonstrators=4, demos_per_demonstrator=2, seed=10)
        )
        masked = mask_labels(ds, 0.05, seed=0)
        assert sum(d.labels is not None for d in masked.demos) == 1

    def test_hidden_truth_not_visible_to_training_accessors(self):
        ds = generate_synthetic(default_config(seed=11))
        masked = mask_labels(ds, 0.5, seed=1)
        hidden = [d for d in masked.demos if d.labels is None]
        assert hidden
        for d in hidden:
            assert d.true_labels() is not None  # evaluation-only path
        assert all(d.labels is not None for d in masked.labeled_demos())
        assert all(d.labels is None for d in masked.unlabeled_demos())

    def test_features_and_poses_untouched(self):
        ds = generate_synthetic(default_config(seed=12))
        masked = mask_labels(ds, 0.5, seed=2)
        for a, b in zip(ds.demos, masked.demos):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.poses, b.poses)

    def test_fraction_bounds(self):
        ds = generate_synthetic(default_config(seed=13))
        with pytest.raises(ValueError):
            mask_labels(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            mask_labels(ds, 1.5, seed=0)


class TestMetrics:
    def test_identical_sequences_score_one(self):
        y = np.array([1, 2, 3, 1])
        assert segmentation_accuracy(y, y) == 1.0

    def test_half_match(self):
        assert segmentation_accuracy([1, 1, 2, 2], [1, 1, 3, 3]) == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            segmentation_accuracy([1, 2], [1, 2, 3])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40))
    def test_self_accuracy_and_relabel_covariance(self, labels):
        labels = np.asarray(labels)
        assert segmentation_accuracy(labels, labels) == 1.0
        perm = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
        relabeled = np.asarray([perm[v] for v in labels])
        pred = np.roll(labels, 1)
        pred_relabeled = np.asarray([perm[v] for v in pred])
        assert segmentation_accuracy(pred, labels) == pytest.approx(
            segmentation_accuracy(pred_relabeled, relabeled)
        )

    def test_confusion_perfect_prediction_is_identity(self):
        y = np.array([1, 2, 3, 2, 1])
        mat, present = confusion_matrix(y, y, num_classes=4)
        np.testing.assert_array_equal(present, [True, True, True, False])
        np.testing.assert_allclose(mat[:3, :3], np.eye(3))
        assert not mat[3].any()

    def test_confusion_constant_predictor_single_column(self):
        true = np.array([1, 2, 3, 1, 2])
        pred = np.full(5, 2)
        mat, present = confusion_matrix(pred, true, num_classes=3)
        assert (mat[:, 1][present] == 1.0).all()
        assert mat[:, [0, 2]].sum() == 0.0

    def test_diagonal_mean_equals_mean_recall(self):
        rng = np.random.default_rng(0)
        true = rng.integers(1, 5, size=300)
        pred = np.where(rng.random(300) < 0.7, true, rng.integers(1, 5, size=300))
        mat, present = confusion_matrix(pred, true, num_classes=4)
        recalls = []
        for c in range(1, 5):
            mask = true == c
            if mask.any():
                recalls.append(float(np.mean(pred[mask] == c)))
        assert np.mean(np.diag(mat)[present]) == pytest.approx(np.mean(recalls))

    def test_rows_sum_to_one_where_present(self):
        rng = np.random.default_rng(1)
        true = rng.integers(1, 4, size=100)
        pred = rng.integers(1, 4, size=100)
        mat, present = confusion_matrix(pred, true, num_classes=5)
        np.testing.assert_allclose(mat[present].sum(axis=1), 1.0, atol=1e-12)
