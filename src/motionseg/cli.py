"""Command-line surface.

Subcommands: gen-data, train, eval, imitate, embed-dump. Configuration
comes from a sectioned key-value text file plus command-line overrides;
every run is deterministic given (config, seed) and reruns produce
byte-identical outputs. Exit codes: 0 success, 1 runtime or data error,
2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import modelio
from .data import (
    SyntheticConfig,
    _fmt,
    _text_lines,
    confusion_matrix,
    generate_synthetic,
    load_dataset,
    save_dataset,
    write_csv,
)
from .embedding import Encoder, encode_array, pca2d
from .errors import ConfigError, DataFormatError, MotionsegError
from .experiments import GRID_ROWS, fraction_sweep, grid_eval, pose_table
from .imitation import DECODER_EPOCHS, DECODER_HIDDEN, DECODER_W_POS, trajectory_rows
from .pipeline import (
    LOSS_MODES,
    SEQ_MODELS,
    PipelineConfig,
    predict_frames,
    run_alternation,
    train_val_split,
)


@dataclasses.dataclass
class ImitateConfig:
    """Pose-decoder settings of the imitate subcommand."""

    decoder_hidden: tuple = DECODER_HIDDEN
    decoder_epochs: int = DECODER_EPOCHS
    w_pos: float = DECODER_W_POS  # weight of the position term in the pose loss

    def __post_init__(self):
        if not (0.0 <= self.w_pos <= 1.0):
            raise ValueError("w_pos must lie in [0, 1]")


CONFIG_SECTIONS = {
    "synthetic": SyntheticConfig,
    "pipeline": PipelineConfig,
    "imitate": ImitateConfig,
}


def parse_config_file(path) -> dict:
    """Sectioned key-value text: '[section]' headers, 'key = value' lines."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        lines = list(_text_lines(path))
    except DataFormatError as exc:
        raise ConfigError(f"config file {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in CONFIG_SECTIONS:
                raise ConfigError(f"unknown config section [{current}] at line {lineno}")
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"expected 'key = value' inside a section at line {lineno}")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def _coerce(value: str, default):
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    if isinstance(default, tuple):  # layer widths
        return tuple(int(p) for p in value.split(",") if p.strip())
    return value


def build_dataclass(cls, raw: dict, overrides: dict | None = None):
    section = _section_of(cls)
    field_defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in field_defaults:
            raise ConfigError(f"unknown key '{key}' for section [{section}]")
        default = field_defaults[key]
        try:
            if key == "mean_durations":
                parts = [float(p) for p in value.split(",") if p.strip()]
                kwargs[key] = parts[0] if len(parts) == 1 else tuple(parts)
            else:
                kwargs[key] = _coerce(value, default if default is not dataclasses.MISSING else "")
        except ValueError as exc:
            raise ConfigError(f"bad value {value!r} for key '{key}' in section [{section}]") from exc
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _section_of(cls):
    return next((name for name, c in CONFIG_SECTIONS.items() if c is cls), cls.__name__)


def echo_config(obj) -> list[str]:
    fields = sorted(dataclasses.fields(obj), key=lambda f: f.name)
    return [f"{f.name} = {getattr(obj, f.name)}" for f in fields]


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    sections = parse_config_file(args.config) if args.config else {}
    overrides = {"seed": args.seed} if args.seed is not None else None
    config = build_dataclass(SyntheticConfig, sections.get("synthetic", {}), overrides)
    dataset = generate_synthetic(config)
    manifest = save_dataset(dataset, args.out)
    print(f"demos = {len(dataset.demos)}")
    print(f"frames = {dataset.num_frames}")
    print(f"classes = {dataset.num_classes}")
    print(f"feature_width = {dataset.feature_width}")
    print(f"manifest = {manifest}")
    return 0


def _pipeline_config(args, sections) -> PipelineConfig:
    overrides = {
        "seed": args.seed,
        "rounds": args.rounds,
        "loss_mode": args.loss,
        "seq_model": args.seq_model,
        "labeled_fraction": args.labeled_fraction,
        "top_k": args.top_k,
    }
    return build_dataclass(PipelineConfig, sections.get("pipeline", {}), overrides)


def _load_dataset_for(args, config: PipelineConfig):
    """The --data dataset and the run's train_val_split of it, which checks config.val_index."""
    dataset = load_dataset(args.data)
    try:
        return dataset, train_val_split(dataset, config)
    except IndexError as exc:  # names the demonstrator and its demo count
        raise ConfigError(f"[pipeline] val_index: {exc}") from None


def cmd_train(args) -> int:
    sections = parse_config_file(args.config) if args.config else {}
    config = _pipeline_config(args, sections)
    dataset, (_, val) = _load_dataset_for(args, config)
    encoder, bundle, trace = run_alternation(dataset, config)
    os.makedirs(args.out, exist_ok=True)
    modelio.save_model(encoder, os.path.join(args.out, "encoder.model"))
    modelio.save_model(bundle.model, os.path.join(args.out, "seqmodel.model"))
    if bundle.state_map is not None:
        with open(os.path.join(args.out, "state_map.json"), "w", encoding="utf-8") as fh:
            json.dump({str(k): int(v) for k, v in enumerate(bundle.state_map)}, fh, sort_keys=True)
    write_csv(
        os.path.join(args.out, "trace.csv"),
        ["round", "loss", "train_acc", "val_acc", "n_pseudo"],
        [(m.round, m.embed_loss, m.train_acc, m.val_acc, m.n_pseudo) for m in trace],
    )
    # final-round confusion matrix on the validation split
    preds, truths = [], []
    for demo in val.demos:
        p, _ = predict_frames(bundle, encode_array(encoder, demo.features))
        preds.append(p)
        truths.append(demo.true_labels())
    mat, _ = confusion_matrix(
        np.concatenate(preds), np.concatenate(truths), dataset.num_classes
    )
    write_csv(
        os.path.join(args.out, "confusion.csv"),
        [f"pred_{c}" for c in range(1, dataset.num_classes + 1)],
        [tuple(row) for row in mat],
    )
    report = [
        f"final_val_acc = {_fmt(trace[-1].val_acc)}",
        f"final_train_acc = {_fmt(trace[-1].train_acc)}",
        f"rounds_run = {len(trace)}",
        "confusion_matrix = confusion.csv",
        "",
        "[pipeline]",
        *echo_config(config),
    ]
    with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report) + "\n")
    print(f"val_acc = {_fmt(trace[-1].val_acc)}")
    print(f"out = {args.out}")
    return 0


def cmd_eval(args) -> int:
    sections = parse_config_file(args.config) if args.config else {}
    config = _pipeline_config(args, sections)
    if not (args.grid or args.sweep):
        raise ConfigError("eval needs --grid and/or --sweep FRACTIONS")
    if args.grid_seeds < 1:
        raise ConfigError(f"--grid-seeds must be >= 1, got {args.grid_seeds}")
    try:  # before any work; PipelineConfig holds the range check
        fractions = [float(f) for f in (args.sweep or "").split(",") if f.strip()]
        for fraction in fractions:
            dataclasses.replace(config, labeled_fraction=fraction)
    except ValueError as exc:
        raise ConfigError(f"--sweep {args.sweep!r}: {exc}") from None
    dataset, _ = _load_dataset_for(args, config)
    os.makedirs(args.out, exist_ok=True)
    seeds = [config.seed + i for i in range(args.grid_seeds)]
    if args.grid:
        cells = grid_eval(dataset, config, seeds)
        rows = []
        for row_name in GRID_ROWS:
            rows.append((row_name, *[cells[(row_name, c)] for c in SEQ_MODELS]))
        write_csv(os.path.join(args.out, "grid.csv"), ["embedding", *SEQ_MODELS], rows)
        print(f"grid = {os.path.join(args.out, 'grid.csv')}")
    if args.sweep:
        records = fraction_sweep(dataset, fractions, config, seeds)
        write_csv(
            os.path.join(args.out, "sweep.csv"),
            ["fraction", "triplet_rnn_ss", "svtcn_rnn", "seeds"],
            [(r["fraction"], r["triplet_rnn_ss"], r["svtcn_rnn"], r["seeds"]) for r in records],
        )
        print(f"sweep = {os.path.join(args.out, 'sweep.csv')}")
    return 0


def cmd_imitate(args) -> int:
    sections = parse_config_file(args.config) if args.config else {}
    config = _pipeline_config(args, sections)
    imitate = build_dataclass(ImitateConfig, sections.get("imitate", {}))
    if not args.noise_sigma >= 0:  # also rejects nan
        raise ConfigError(f"--noise-sigma must be >= 0, got {args.noise_sigma}")
    dataset, (_, test) = _load_dataset_for(args, config)
    if any(d.poses is None for d in dataset.demos):
        raise MotionsegError("dataset lacks poses; imitate needs pose ground truth")
    os.makedirs(args.out, exist_ok=True)
    noise_sigmas = [0.0, args.noise_sigma] if args.noise_sigma > 0 else [0.0]
    rows, encoder, decoders = pose_table(
        dataset, config, noise_sigmas=noise_sigmas, seed=config.seed,
        decoder_hidden=imitate.decoder_hidden, decoder_epochs=imitate.decoder_epochs,
        w_pos=imitate.w_pos,
    )
    write_csv(
        os.path.join(args.out, "pose_metrics.csv"),
        ["scope", "noise_sigma", "rmse_position_cm", "median_cosine_quat_loss"],
        [
            (r["scope"], r["noise_sigma"], r["rmse_position_cm"], r["median_cosine_quat_loss"])
            for r in rows
        ],
    )
    for r in rows:
        print(
            f"scope={r['scope']} noise={_fmt(r['noise_sigma'])} "
            f"rmse_position_cm={_fmt(r['rmse_position_cm'])} "
            f"median_cosine_quat_loss={_fmt(r['median_cosine_quat_loss'])}"
        )
    traj = trajectory_rows(decoders["per_demonstrator"], encoder, test.demos)
    write_csv(
        os.path.join(args.out, "trajectories.csv"),
        ["demo_id", "frame", *[f"pose_{k}" for k in range(16)]],
        traj,
    )
    print(f"out = {args.out}")
    return 0


def cmd_embed_dump(args) -> int:
    dataset = load_dataset(args.data)
    encoder = modelio.load_model(args.encoder)
    if not isinstance(encoder, Encoder):
        raise DataFormatError(f"not an encoder model: {type(encoder).__name__}", path=args.encoder)
    os.makedirs(args.out, exist_ok=True)
    keys = []  # (demo_id, frame_index, label) per encoded row
    for demo in dataset.demos:
        labels = demo.labels.tolist() if demo.labels is not None else [-1] * demo.num_frames
        keys += [(demo.demo_id, t, int(lab)) for t, lab in enumerate(labels)]
    E = np.vstack([encode_array(encoder, demo.features) for demo in dataset.demos])
    write_csv(
        os.path.join(args.out, "embeddings.csv"),
        ["demo_id", "frame_index", "label", *[f"e_{k}" for k in range(encoder.dim)]],
        [(*key, *e) for key, e in zip(keys, E.tolist())],
    )
    write_csv(
        os.path.join(args.out, "pca2d.csv"),
        ["demo_id", "frame_index", "label", "x", "y"],
        [(*key, *xy) for key, xy in zip(keys, pca2d(E).tolist())],
    )
    print(f"embeddings = {len(keys)}")
    print(f"out = {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _defaults_epilog() -> str:
    lines = ["config defaults (override per key in the config file or via flags):"]
    for section, cls in CONFIG_SECTIONS.items():
        pairs = ", ".join(
            f"{f.name}={f.default}"
            for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING
        )
        lines.append(f"  [{section}] {pairs}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionseg",
        description="Semi-supervised action segmentation and pose imitation "
        "on per-frame feature vectors.",
        epilog=_defaults_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the PipelineConfig overrides shared by train, eval and imitate
    pipeline_flags = argparse.ArgumentParser(add_help=False)
    pipeline_flags.add_argument("--rounds", type=int, default=None)
    pipeline_flags.add_argument("--loss", choices=LOSS_MODES, default=None)
    pipeline_flags.add_argument("--seq-model", dest="seq_model", choices=SEQ_MODELS, default=None)
    pipeline_flags.add_argument("--labeled-fraction", dest="labeled_fraction", type=float,
                                default=None)
    pipeline_flags.add_argument("--top-k", dest="top_k", type=int, default=None)

    def common(p, data=True):
        p.add_argument("--config", help="sectioned key-value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if data:
            p.add_argument("--data", required=True, help="dataset manifest path")

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    common(p, data=False)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run the semi-supervised alternation",
                       parents=[pipeline_flags])
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="emit the embedding-by-model grid and/or fraction sweep",
                       parents=[pipeline_flags])
    common(p)
    p.add_argument("--grid", action="store_true", help="run the 6x5 accuracy grid")
    p.add_argument("--sweep", default=None, help="comma list of labeled fractions")
    p.add_argument("--grid-seeds", dest="grid_seeds", type=int, default=1,
                   help="number of seeds to average")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("imitate", help="train and evaluate pose decoders",
                       parents=[pipeline_flags])
    common(p)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.0)
    p.set_defaults(func=cmd_imitate)

    p = sub.add_parser("embed-dump", help="dump embeddings and a 2-D projection")
    common(p)
    p.add_argument("--encoder", required=True, help="path to a saved encoder model")
    p.set_defaults(func=cmd_embed_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MotionsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
