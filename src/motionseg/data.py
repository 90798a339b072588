"""Dataset model, synthetic demonstration generator, file I/O, splits, metrics.

A demonstration is a sequence of per-frame feature vectors with optional
per-frame segment labels (1..C) and optional 16-dim end-effector pose
targets. Datasets serialize to a key-value manifest plus one CSV per
demonstration; all numbers are written with full round-trip precision.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, SchemaError, ShapeError

POSE_DIM = 16  # per arm: position (3), quaternion (4), jaw (1); left then right
QUAT_NORM_TOL = 1e-4  # |norm - 1| a loaded pose quaternion may show; 6 significant digits pass


@dataclass
class Demonstration:
    demo_id: str
    demonstrator_id: str
    features: np.ndarray  # (T, F)
    labels: np.ndarray | None = None  # (T,) ints in 1..C, None when unlabeled
    poses: np.ndarray | None = None  # (T, 16)
    fps: float = 3.0
    # ground truth retained for evaluation after mask_labels; never read by training
    hidden_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError("features must be (T, F)")
        for name in ("labels", "hidden_labels"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int64)
                if arr.shape != (self.num_frames,):
                    raise ShapeError(f"{name} must align 1:1 with frames")
                setattr(self, name, arr)
        if self.poses is not None:
            self.poses = np.asarray(self.poses, dtype=np.float64)
            if self.poses.shape != (self.num_frames, POSE_DIM):
                raise ShapeError(f"poses must be (T, {POSE_DIM})")

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def feature_width(self) -> int:
        return self.features.shape[1]

    def true_labels(self) -> np.ndarray | None:
        """Evaluation-only accessor: visible labels, else hidden ground truth."""
        return self.labels if self.labels is not None else self.hidden_labels


@dataclass
class Dataset:
    demos: list[Demonstration]
    num_classes: int
    feature_width: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for demo in self.demos:
            if demo.feature_width != self.feature_width:
                raise SchemaError(
                    f"demo {demo.demo_id} width {demo.feature_width} != {self.feature_width}"
                )
            for arr in (demo.labels, demo.hidden_labels):
                if arr is not None and arr.size and (
                    arr.min() < 1 or arr.max() > self.num_classes
                ):
                    raise SchemaError(f"demo {demo.demo_id} labels outside 1..{self.num_classes}")

    @property
    def num_frames(self) -> int:
        return sum(d.num_frames for d in self.demos)

    def labeled_demos(self) -> list[Demonstration]:
        return [d for d in self.demos if d.labels is not None]

    def unlabeled_demos(self) -> list[Demonstration]:
        return [d for d in self.demos if d.labels is None]


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass
class SyntheticConfig:
    """Cyclic segment grammar over C classes with per-demonstrator style offsets.

    Features are class prototype + demonstrator style + white noise, so with
    zero style and zero noise every frame of a class is the same vector.
    Poses follow a smooth known function of (class, within-segment phase)
    plus a per-demonstrator pose offset. Positions are in centimeters.
    """

    demonstrators: int = 8
    demos_per_demonstrator: int = 5
    num_classes: int = 11
    feature_width: int = 64
    mean_durations: float | tuple = 6.0  # frames per segment, scalar or per class
    cycles: int = 2
    proto_scale: float = 1.0
    style_scale: float = 6.0  # demonstrator offsets dominate raw geometry
    noise_sigma: float = 0.35
    pose_spread_cm: float = 4.0
    pose_phase_amp_cm: float = 0.5
    pose_style_cm: float = 1.0
    quat_phase_amp: float = 0.3
    jaw_amp: float = 0.4
    fps: float = 3.0
    seed: int = 0

    def duration_means(self) -> np.ndarray:
        if np.isscalar(self.mean_durations):
            out = np.full(self.num_classes, float(self.mean_durations))
        else:
            out = np.asarray(self.mean_durations, dtype=np.float64)
            if out.shape != (self.num_classes,):
                raise SchemaError("mean_durations must be scalar or one per class")
        if np.any(out < 1.0):
            raise SchemaError("mean durations must be >= 1 frame")
        return out

    def __post_init__(self):
        if self.num_classes < 2:
            raise SchemaError("need at least 2 classes")
        if min(self.demonstrators, self.demos_per_demonstrator, self.cycles, self.feature_width) < 1:
            raise SchemaError("counts and feature_width must be positive")
        self.duration_means()


def _unit_rows(rng, shape):
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Deterministic synthetic dataset; identical config (incl. seed) -> identical data."""
    rng = np.random.default_rng(config.seed)
    C, F = config.num_classes, config.feature_width
    M = config.demonstrators
    means = config.duration_means()

    protos = _unit_rows(rng, (C, F)) * config.proto_scale
    pose_anchor = rng.uniform(-config.pose_spread_cm, config.pose_spread_cm, size=(C, 2, 3))
    quat_axis = _unit_rows(rng, (C, 2, 3))
    quat_base = rng.uniform(0.0, np.pi / 2.0, size=(C, 2))
    styles = _unit_rows(rng, (M, F)) * config.style_scale
    pose_styles = _unit_rows(rng, (M, 2, 3)) * config.pose_style_cm

    demos = []
    for m in range(M):
        for j in range(config.demos_per_demonstrator):
            labels, phases = [], []
            for _ in range(config.cycles):
                for c in range(C):
                    dur = 1 + rng.poisson(max(means[c] - 1.0, 0.0))
                    labels.extend([c + 1] * dur)
                    phases.extend((np.arange(dur) / dur).tolist())
            labels = np.asarray(labels, dtype=np.int64)
            phases = np.asarray(phases, dtype=np.float64)
            T = labels.shape[0]
            idx = labels - 1

            noise = rng.normal(0.0, config.noise_sigma, size=(T, F)) if config.noise_sigma > 0 else 0.0
            features = protos[idx] + styles[m] + noise

            poses = np.empty((T, POSE_DIM))
            for a in range(2):
                wig = config.pose_phase_amp_cm * np.stack(
                    [np.sin(2 * np.pi * phases), np.cos(2 * np.pi * phases), np.sin(np.pi * phases)],
                    axis=1,
                )
                pos = pose_anchor[idx, a] + pose_styles[m, a] + wig
                angle = quat_base[idx, a] + config.quat_phase_amp * phases
                quat = np.concatenate(
                    [np.cos(angle / 2)[:, None], np.sin(angle / 2)[:, None] * quat_axis[idx, a]],
                    axis=1,
                )
                jaw = config.jaw_amp * np.sin(2 * np.pi * phases + idx + a)
                base = a * 8
                poses[:, base : base + 3] = pos
                poses[:, base + 3 : base + 7] = quat
                poses[:, base + 7] = jaw

            demos.append(
                Demonstration(
                    demo_id=f"dem{m}_t{j}",
                    demonstrator_id=f"dem{m}",
                    features=features,
                    labels=labels,
                    poses=poses,
                    fps=config.fps,
                )
            )
    return Dataset(
        demos=demos,
        num_classes=C,
        feature_width=F,
        metadata={"source": "synthetic", "seed": str(config.seed)},
    )


# ---------------------------------------------------------------------------
# serialization: manifest + one CSV per demo

MANIFEST_FORMAT = "motionseg-dataset-v1"
MANIFEST_NAME = "manifest.txt"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(path, header, rows):
    """A CSV file of header and rows; floats are written with repr, so they read back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [_fmt(v) if isinstance(v, float) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")


def save_dataset(dataset: Dataset, out_dir) -> str:
    """Write manifest + per-demo CSVs under out_dir; returns the manifest path."""
    out_dir = os.fspath(out_dir)
    demo_dir = os.path.join(out_dir, "demos")
    os.makedirs(demo_dir, exist_ok=True)
    lines = [
        f"format = {MANIFEST_FORMAT}",
        f"classes = {dataset.num_classes}",
        f"feature_width = {dataset.feature_width}",
    ]
    for key in sorted(dataset.metadata):
        lines.append(f"meta.{key} = {dataset.metadata[key]}")
    for i, demo in enumerate(dataset.demos):
        rel = f"demos/demo_{i:04d}.csv"
        lines.append(f"demo = {demo.demonstrator_id}|{demo.demo_id}|{_fmt(demo.fps)}|{rel}")
        _write_demo_csv(os.path.join(out_dir, rel), demo)
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path


def _write_demo_csv(path, demo: Demonstration):
    cols = ["frame_index", "label"]
    values = demo.features
    if demo.poses is not None:
        cols += [f"pose_{k}" for k in range(POSE_DIM)]
        values = np.hstack([demo.poses, values])
    cols += [f"f_{k}" for k in range(demo.feature_width)]
    labels = demo.labels.tolist() if demo.labels is not None else [-1] * demo.num_frames
    write_csv(path, cols, ([t, lab, *row.tolist()] for t, (lab, row) in enumerate(zip(labels, values))))


def load_dataset(manifest_path) -> Dataset:
    manifest_path = os.fspath(manifest_path)
    if not os.path.exists(manifest_path):
        raise DataFormatError("manifest not found", path=manifest_path)
    base = os.path.dirname(manifest_path)
    num_classes = feature_width = None
    metadata = {}
    demo_specs, first_line = [], {}  # demo_id -> line of its demo entry
    for lineno, raw in enumerate(_text_lines(manifest_path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError("expected 'key = value'", path=manifest_path, line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "format":
            if value != MANIFEST_FORMAT:
                raise SchemaError(f"unsupported format {value!r}", path=manifest_path, line=lineno)
        elif key == "classes":
            num_classes = _parse_int(value, manifest_path, lineno)
        elif key == "feature_width":
            feature_width = _parse_int(value, manifest_path, lineno)
        elif key.startswith("meta."):
            metadata[key[5:]] = value
        elif key == "demo":
            parts = value.split("|")
            if len(parts) != 4:
                raise DataFormatError(
                    "demo line wants demonstrator|demo_id|fps|path",
                    path=manifest_path,
                    line=lineno,
                )
            fps = _parse_fps(parts[2], manifest_path, lineno)
            if parts[1] in first_line:  # pseudo-labels are keyed by demo_id
                raise DataFormatError(
                    f"demo_id {parts[1]!r} already used on line {first_line[parts[1]]}",
                    path=manifest_path,
                    line=lineno,
                )
            first_line[parts[1]] = lineno
            demo_specs.append((parts[0], parts[1], fps, parts[3], lineno))
        else:
            raise SchemaError(f"unknown manifest key {key!r}", path=manifest_path, line=lineno)
    if num_classes is None or feature_width is None or min(num_classes, feature_width) < 0:
        raise SchemaError("manifest needs classes and feature_width >= 0", path=manifest_path)
    demos = []
    for demonstrator, demo_id, fps, rel, lineno in demo_specs:
        csv_path = os.path.join(base, rel)
        if not os.path.exists(csv_path):
            raise DataFormatError(f"demo file missing: {rel}", path=manifest_path, line=lineno)
        demos.append(_read_demo_csv(csv_path, demonstrator, demo_id, fps, feature_width))
    return Dataset(demos=demos, num_classes=num_classes, feature_width=feature_width, metadata=metadata)


def _text_lines(path):
    """Yield the lines of a UTF-8 text file; any other bytes raise DataFormatError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise DataFormatError("not UTF-8 text", path=path) from None


def _parse_int(value, path, lineno) -> int:
    try:
        return int(value)
    except ValueError:
        raise DataFormatError(f"expected integer, got {value!r}", path=path, line=lineno) from None


def _parse_fps(value, path, lineno) -> float:
    try:
        fps = float(value)
    except ValueError:
        fps = math.nan
    if not (math.isfinite(fps) and fps > 0):
        raise DataFormatError(
            f"fps must be a positive finite number, got {value!r}", path=path, line=lineno
        )
    return fps


def _read_demo_csv(path, demonstrator, demo_id, fps, feature_width) -> Demonstration:
    lines = _text_lines(path)
    cols = next(lines, "").rstrip("\n").split(",")
    has_poses = "pose_0" in cols
    expected = 2 + (POSE_DIM if has_poses else 0) + feature_width
    if len(cols) != expected:
        raise SchemaError(
            f"header has {len(cols)} columns, expected {expected}", path=path, line=1
        )
    labels, poses, feats = [], [], []
    for lineno, raw in enumerate(lines, start=2):
        parts = raw.rstrip("\n").split(",")
        if len(parts) != expected:
            raise DataFormatError(
                f"row has {len(parts)} fields, expected {expected}", path=path, line=lineno
            )
        try:
            labels.append(int(parts[1]))
            values = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise DataFormatError(f"bad number: {exc}", path=path, line=lineno) from None
        if has_poses:
            poses.append(values[:POSE_DIM])
            feats.append(values[POSE_DIM:])
        else:
            feats.append(values)
    if not labels:
        raise DataFormatError("demo has no frames", path=path)
    try:
        labels_arr = np.asarray(labels, dtype=np.int64)
    except OverflowError:
        raise DataFormatError("label outside the int64 range", path=path) from None
    feats_arr = np.asarray(feats, dtype=np.float64)
    poses_arr = np.asarray(poses, dtype=np.float64)
    # float() parses nan and inf; reject them here, at the first offending row
    bad_feat = ~np.isfinite(feats_arr).all(axis=-1)
    bad_pose = ~np.isfinite(poses_arr).all(axis=-1) if has_poses else False
    if np.any(bad_feat | bad_pose):
        row = int(np.argmax(bad_feat | bad_pose))
        what = "feature" if bad_feat[row] else "pose"
        raise DataFormatError(f"non-finite {what} value", path=path, line=row + 2)
    if has_poses:
        norms = np.linalg.norm(poses_arr.reshape(-1, 2, 8)[:, :, 3:7], axis=2)
        off = np.flatnonzero((np.abs(norms - 1.0) > QUAT_NORM_TOL).any(axis=1))
        if off.size:
            raise DataFormatError(
                f"pose quaternion norm is not 1 within {QUAT_NORM_TOL}", path=path, line=int(off[0]) + 2
            )
    return Demonstration(
        demo_id=demo_id,
        demonstrator_id=demonstrator,
        features=feats_arr,
        labels=None if np.all(labels_arr == -1) else labels_arr,
        poses=poses_arr if has_poses else None,
        fps=fps,
    )


# ---------------------------------------------------------------------------
# splits and masking


def split_leave_one_out(dataset: Dataset, held_out_index: int) -> tuple[Dataset, Dataset]:
    """Hold out one demo per demonstrator (by position within that demonstrator)."""
    groups: dict[str, list[Demonstration]] = {}
    for demo in dataset.demos:
        groups.setdefault(demo.demonstrator_id, []).append(demo)
    for dem, items in groups.items():
        if held_out_index < 0 or held_out_index >= len(items):
            raise IndexError(
                f"held_out_index {held_out_index} out of range for demonstrator {dem} "
                f"({len(items)} demos)"
            )
    test_ids = {id(items[held_out_index]) for items in groups.values()}
    train = [d for d in dataset.demos if id(d) not in test_ids]
    test = [d for d in dataset.demos if id(d) in test_ids]
    mk = lambda demos: Dataset(demos, dataset.num_classes, dataset.feature_width, dict(dataset.metadata))
    return mk(train), mk(test)


def mask_labels(dataset: Dataset, labeled_fraction: float, seed: int) -> Dataset:
    """Keep labels on a whole-demonstration subset; hide the rest for training.

    The number of labeled demos is max(1, floor(fraction * total)). Hidden
    ground truth stays available through Demonstration.true_labels() for
    evaluation only.
    """
    if not (0.0 < labeled_fraction <= 1.0):
        raise ValueError("labeled_fraction must be in (0, 1]")
    n = len(dataset.demos)
    n_labeled = max(1, math.floor(labeled_fraction * n))
    rng = np.random.default_rng(seed)
    keep = set(rng.choice(n, size=n_labeled, replace=False).tolist())
    demos = []
    for i, demo in enumerate(dataset.demos):
        if i in keep or demo.labels is None:
            demos.append(demo)
        else:
            demos.append(
                Demonstration(
                    demo_id=demo.demo_id,
                    demonstrator_id=demo.demonstrator_id,
                    features=demo.features,
                    labels=None,
                    poses=demo.poses,
                    fps=demo.fps,
                    hidden_labels=demo.labels,
                )
            )
    return Dataset(demos, dataset.num_classes, dataset.feature_width, dict(dataset.metadata))


# ---------------------------------------------------------------------------
# metrics


def segmentation_accuracy(pred, true) -> float:
    """Fraction of frames whose predicted segment label matches ground truth."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape:
        raise ShapeError(f"length mismatch: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ShapeError("empty label sequences")
    return float(np.mean(pred == true))


def confusion_matrix(pred, true, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized confusion matrix.

    Returns (matrix, present) where matrix[c-1] is the distribution of
    predictions for true class c (all zeros when c never occurs) and
    present flags which classes occur in the ground truth.
    """
    pred = np.asarray(pred, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if pred.shape != true.shape:
        raise ShapeError("length mismatch")
    if pred.size and (
        pred.min() < 1 or pred.max() > num_classes or true.min() < 1 or true.max() > num_classes
    ):
        raise ValueError(f"labels must lie in 1..{num_classes}")
    counts = np.zeros((num_classes, num_classes))
    np.add.at(counts, (true - 1, pred - 1), 1.0)
    row_sums = counts.sum(axis=1)
    present = row_sums > 0
    matrix = np.zeros_like(counts)
    matrix[present] = counts[present] / row_sums[present, None]
    return matrix, present
