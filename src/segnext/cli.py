"""Command-line front end: build, analyze, train, eval, infer, and ablate.
Every failure prints a single `error: ...` line and exits nonzero; all
randomness flows from the config seed."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import analysis
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .data import synth_dataset
from .encoder import ConfigError
from .imagefile import ImageFormatError, read_ppm, write_pgm
from .model import build_model
from .tensor import GraphError, ShapeError
from .train import TrainingDiverged, data_seeds, evaluate, predict, train


class _Parser(argparse.ArgumentParser):
    """Argparse that fails with a one-line message instead of usage text."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _parse_size(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError(f"input size must look like 512x512, got {text!r}")
    try:
        h, w = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"input size must look like 512x512, got {text!r}") from None
    if h < 1 or w < 1:
        raise ConfigError(f"input size must be positive, got {text!r}")
    return h, w


def _parse_scales(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"scales must be comma-separated floats, got {text!r}") from None


def _datasets(rc: RunConfig):
    train_seed, val_seed = data_seeds(rc.seed)
    train_set = synth_dataset(train_seed, rc.data.num_train, rc.data.size,
                              rc.model.num_classes)
    val_set = synth_dataset(val_seed, rc.data.num_val, rc.data.size,
                            rc.model.num_classes)
    return train_set, val_set


def _cmd_build(args) -> int:
    rc = _load_config(args.config)
    model = build_model(rc.model, rc.seed)
    m = rc.model
    enc = sum(e.tensor.size for e in model.parameters() if e.name.startswith("encoder."))
    dec = sum(e.tensor.size for e in model.parameters() if e.name.startswith("decoder."))
    print(f"stages: channels {m.channels} depths {m.depths} expansions {m.expansions}")
    print(f"decoder: variant {m.decoder_variant} dim {m.decoder_dim} "
          f"rank {m.ham_rank} iters {m.ham_iters} classes {m.num_classes}")
    print(f"parameters: {enc + dec:,} (encoder {enc:,}, decoder {dec:,})")
    return 0


def _cmd_analyze(args) -> int:
    rc = _load_config(args.config)
    model = build_model(rc.model, rc.seed)
    h, w = _parse_size(args.input_size)
    report = analysis.cost_report(model, h, w)
    print(report.machine_lines() if args.machine else report.table())
    return 0


def _run_training(rc: RunConfig) -> int:
    train_set, val_set = _datasets(rc)
    os.makedirs(rc.out_dir, exist_ok=True)
    log_path = os.path.join(rc.out_dir, "metrics.log")
    log_fh = open(log_path, "w", encoding="utf-8")

    def checkpoint_fn(model, optim, tag):
        path = os.path.join(rc.out_dir, f"checkpoint_{tag}.ckpt")
        save_checkpoint(model, path, optim=optim, run_cfg=rc)

    def log_fn(line):
        print(line, flush=True)
        log_fh.write(line + "\n")
        log_fh.flush()

    try:
        # TrainParams' field names are train()'s keyword names.
        result = train(rc.model, train_set, seed=rc.seed, val_set=val_set,
                       checkpoint_fn=checkpoint_fn, log_fn=log_fn, **asdict(rc.train))
    finally:
        log_fh.close()
    if result.final_miou is not None:
        print(f"final miou: {result.final_miou.mean:.4f}")
    return 0


def _cmd_train(args) -> int:
    return _run_training(_load_config(args.config))


def _cmd_eval(args) -> int:
    rc = _load_config(args.config)
    loaded = load_checkpoint(args.checkpoint)
    _, val_set = _datasets(rc)
    scales = _parse_scales(args.scales)
    result = evaluate(loaded.model, val_set, loaded.model.cfg.num_classes,
                      scales=scales, flip=args.ms_flip)
    for c, iou in enumerate(result.per_class):
        shown = "absent" if np.isnan(iou) else f"{iou:.4f}"
        print(f"class {c}\t{shown}")
    print(f"miou\t{result.mean:.4f}")
    return 0


def _cmd_infer(args) -> int:
    loaded = load_checkpoint(args.checkpoint)
    image = read_ppm(args.image)
    pred = predict(loaded.model, image)
    write_pgm(args.out, pred)
    print(f"wrote {args.out} ({pred.shape[0]}x{pred.shape[1]})")
    return 0


def _cmd_ablate(args) -> int:
    rc = _load_config(args.config)
    overrides = {}
    suffix = []
    if args.decoder:
        overrides["decoder_variant"] = args.decoder
        suffix.append(f"dec-{args.decoder}")
    if args.with_stage1:
        overrides["include_stage1_in_decoder"] = True
        suffix.append("stage1")
    if args.no_msca:
        overrides["use_msca"] = False
        suffix.append("nomsca")
    if overrides:
        rc = replace(rc, model=replace(rc.model, **overrides))
    if suffix:
        rc = replace(rc, out_dir=rc.out_dir + "_" + "-".join(suffix))
    model = build_model(rc.model, rc.seed)
    flops = analysis.count_flops(model, 512, 512)
    print(f"variant {rc.model.decoder_variant}"
          f"{' +stage1' if rc.model.include_stage1_in_decoder else ''}"
          f"{' -msca' if not rc.model.use_msca else ''}: "
          f"params {analysis.count_params(model):,}  "
          f"gflops(512x512) {flops / 1e9:.2f}")
    return _run_training(rc)


def _build_parser() -> _Parser:
    parser = _Parser(prog="segnext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a model and summarize it")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("analyze", help="per-layer parameter and FLOP table")
    p.add_argument("config")
    p.add_argument("--input-size", default="512x512")
    p.add_argument("--machine", action="store_true",
                   help="tab-separated layer\\tparams\\tflops lines")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("train", help="train on the synthetic dataset")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ms-flip", action="store_true")
    p.add_argument("--scales", default="1.0")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("infer", help="segment one image")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("ablate", help="train a modified decoder/attention variant")
    p.add_argument("config")
    p.add_argument("--decoder", choices=("a", "b", "c"))
    p.add_argument("--with-stage1", action="store_true")
    p.add_argument("--no-msca", action="store_true")
    p.set_defaults(fn=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, ImageFormatError, ShapeError,
            GraphError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
