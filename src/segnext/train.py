"""Training and evaluation: AdamW with poly decay, cross-entropy, mIoU,
and single/multi-scale flip inference. Fully deterministic given a seed."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .config import TrainParams
from .data import SegSample, augment
from .decoder import _argmax_classes
from .encoder import ModelConfig
from .model import ParamEntry, SegModel, _seed_of, build_model
from .ops import IGNORE_INDEX, softmax_cross_entropy as cross_entropy  # public loss entry point
from .tensor import GradTape, Tensor, backward


class TrainingDiverged(RuntimeError):
    """Raised when the loss, a gradient or a parameter turns non-finite; the
    last checkpoint survives."""


def poly_lr(i: int, tp: TrainParams) -> float:
    if tp.iters < 1:
        raise ValueError(f"the schedule needs iters >= 1, got {tp.iters}")
    if i < 0 or i > tp.iters:
        raise ValueError(f"iteration {i} outside [0, {tp.iters}]")
    if i < tp.warmup_iters:
        frac = i / tp.warmup_iters
        return tp.lr * (tp.warmup_ratio + (1.0 - tp.warmup_ratio) * frac)
    return tp.lr * (1.0 - i / tp.iters) ** tp.power


ADAM_BETAS = (0.9, 0.999)  # fixed, like ADAM_EPS; a checkpoint holding others is refused
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """AdamW moments keyed by parameter name, plus the step counter."""

    weight_decay: float
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_optim(params: list[ParamEntry],
               weight_decay: float = TrainParams.weight_decay) -> OptimState:
    state = OptimState(weight_decay)
    for e in params:
        state.m[e.name] = np.zeros_like(e.tensor.data)
        state.v[e.name] = np.zeros_like(e.tensor.data)
    return state


def adamw_step(params: list[ParamEntry], grads, state: OptimState, lr: float) -> None:
    """One in-place decoupled-weight-decay Adam update.

    Decay multiplies the parameter by (1 - lr*wd) before the moment update,
    and applies only to entries flagged for decay (conv and linear weights,
    not norms, biases, or layer scales).
    """
    # Validate the rate and every gradient before touching any state, so a
    # bad step leaves parameters, moments and the step counter as they were.
    if not np.isfinite(lr):
        raise ValueError(f"learning rate must be finite, got {lr}")
    gs = [grads.of(e.tensor) for e in params]
    for e, g in zip(params, gs):
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient for parameter {e.name}")
    b1, b2 = ADAM_BETAS
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for e, g in zip(params, gs):
        p = e.tensor.data
        if e.decay and state.weight_decay:
            p *= 1.0 - lr * state.weight_decay
        m = state.m[e.name]
        v = state.v[e.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class IouResult:
    per_class: np.ndarray  # NaN for classes absent from both pred and gt
    mean: float


def confusion(preds, gts, num_classes: int) -> np.ndarray:
    """Accumulated (num_classes, num_classes) matrix, rows = ground truth.
    Consumes one (pred, gt) pair at a time; skips ``IGNORE_INDEX`` pixels."""
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, g in zip(preds, gts):
        p = np.asarray(p)
        g = np.asarray(g)
        if p.shape != g.shape:
            raise ValueError(f"prediction shape {p.shape} != label shape {g.shape}")
        keep = g != IGNORE_INDEX
        pk = p[keep].astype(np.int64)
        gk = g[keep].astype(np.int64)
        if pk.size and (pk.min() < 0 or pk.max() >= num_classes):
            raise ValueError(f"prediction value outside [0, {num_classes})")
        if gk.size and (gk.min() < 0 or gk.max() >= num_classes):
            raise ValueError(f"label value outside [0, {num_classes}) and not ignored")
        mat += np.bincount(gk * num_classes + pk,
                           minlength=num_classes * num_classes
                           ).reshape(num_classes, num_classes)
    return mat


def miou(preds, gts, num_classes: int) -> IouResult:
    mat = confusion(preds, gts, num_classes)
    tp = np.diag(mat).astype(np.float64)
    union = mat.sum(axis=0) + mat.sum(axis=1) - np.diag(mat)
    per_class = np.full(num_classes, np.nan)
    present = union > 0
    per_class[present] = tp[present] / union[present]
    mean = float(per_class[present].mean()) if present.any() else 0.0
    return IouResult(per_class, mean)


def _forward_at_scale(model: SegModel, image: Tensor, scale: float,
                      out_h: int, out_w: int, flip: bool) -> Tensor:
    x = image
    if flip:
        x = Tensor(np.ascontiguousarray(x.data[:, :, :, ::-1]))
    h = max(1, round(out_h * scale))
    w = max(1, round(out_w * scale))
    x = ops.bilinear_resize(x, h, w)
    logits = model.forward(x, training=False)
    logits = ops.bilinear_resize(logits, out_h, out_w)
    if flip:
        logits = Tensor(np.ascontiguousarray(logits.data[:, :, :, ::-1]))
    return logits


def ms_flip_inference(model: SegModel, image: Tensor, scales=(1.0,),
                      flip: bool = False) -> Tensor:
    """Average logits over scales (and mirrored copies); argmax downstream.

    With scales=(1.0,) and flip off this is bitwise equal to a plain
    forward pass: the resize short-circuits and the average has one term.
    """
    scales = tuple(scales)
    if not scales:
        raise ValueError("scales must be non-empty")
    if not all(0 < s < np.inf for s in scales):
        raise ValueError(f"scales must be positive and finite, got {scales}")
    _, _, h, w = image.shape
    total = None
    count = 0
    for s in scales:
        for flipped in ((False, True) if flip else (False,)):
            logits = _forward_at_scale(model, image, s, h, w, flipped)
            total = logits.data if total is None else total + logits.data
            count += 1
    if count == 1:
        return Tensor(total)
    return Tensor(total / np.asarray(count, dtype=total.dtype))


def predict(model: SegModel, image: Tensor, scales=(1.0,), flip: bool = False) -> np.ndarray:
    """Class map of the batch's first image. One scale and no flip take the
    model's argmax path; otherwise the averaged logits are folded."""
    scales = tuple(scales)
    if scales == (1.0,) and not flip:
        return model.forward(image, argmax=True)[0]
    logits = ms_flip_inference(model, image, scales, flip).data[0]
    return _argmax_classes(lambda: [logits])


def evaluate(model: SegModel, samples: list[SegSample], num_classes: int,
             scales=(1.0,), flip: bool = False) -> IouResult:
    # Generators, so that one prediction map is alive at a time.
    preds = (predict(model, s.image, scales, flip) for s in samples)
    gts = (s.label for s in samples)
    return miou(preds, gts, num_classes)


def _run_streams(seed: int) -> list[np.random.SeedSequence]:
    """The independent random streams of a run: 0 model init, 1 batch order,
    2 augmentation, 3 training set, 4 validation set, 5 drop-path gates."""
    return np.random.SeedSequence(seed).spawn(6)


def data_seeds(seed: int) -> tuple[int, int]:
    """Seeds of a run's training and validation sets (streams 3 and 4)."""
    ss = _run_streams(seed)
    return _seed_of(ss[3]), _seed_of(ss[4])


@dataclass
class TrainResult:
    model: SegModel
    optim: OptimState
    metrics: list[str]
    final_miou: IouResult | None


def train(cfg: ModelConfig, train_set: list[SegSample], iters: int, batch: int,
          seed: int, *, val_set: list[SegSample] | None = None, checkpoint_fn=None,
          log_fn=None, **hyper) -> TrainResult:
    """Deterministic training loop; returns the model and the metric lines.

    ``iters``, ``batch`` and ``hyper`` are ``TrainParams`` fields, defaulted
    and checked there. Metric lines are tab-separated: iteration, loss, lr,
    and mIoU on eval iterations. ``checkpoint_fn(model, optim, tag)`` is
    called at the start, every checkpoint_interval iterations, and at the
    end. A non-finite loss, or a parameter left non-finite by an update,
    aborts with TrainingDiverged before any later save; the last checkpoint
    stays on disk.
    """
    tp = TrainParams(iters=iters, batch=batch, **hyper)
    if not train_set:
        raise ValueError("training set is empty")
    ss = _run_streams(seed)
    model_seed = _seed_of(ss[0])
    rng_order = np.random.default_rng(ss[1])
    rng_aug = np.random.default_rng(ss[2])
    rng_drop = np.random.default_rng(ss[5])

    model = build_model(cfg, model_seed)
    params = model.parameters()
    optim = init_optim(params, tp.weight_decay)
    metrics: list[str] = []
    final_miou: IouResult | None = None

    def emit(line: str) -> None:
        metrics.append(line)
        if log_fn is not None:
            log_fn(line)

    def save(tag: str) -> None:
        if checkpoint_fn is not None:
            checkpoint_fn(model, optim, tag)

    # The loss node holds the batch labels, so they keep the set's own
    # (8-bit for synth_dataset) type.
    label_dtype = np.result_type(*{s.label.dtype for s in train_set})
    if iters:
        save("init")
    for it in range(iters):
        idx = rng_order.integers(0, len(train_set), size=batch)
        images = np.empty((batch, 3, tp.crop, tp.crop), dtype=np.float32)
        labels = np.empty((batch, tp.crop, tp.crop), dtype=label_dtype)
        for bi, j in enumerate(idx):
            s = augment(train_set[int(j)], rng_aug, tp.crop)
            images[bi] = s.image.data[0]
            labels[bi] = s.label
        step_lr = poly_lr(it, tp)
        with GradTape() as tape:
            # No name holds the logits, which no adjoint reads, so they are
            # freed before the backward.
            loss = cross_entropy(model.forward(Tensor(images), training=True, rng=rng_drop),
                                 labels)
        loss_val = float(loss.item())
        if not np.isfinite(loss_val):
            raise TrainingDiverged(f"loss became non-finite at iteration {it}")
        grads = backward(tape, loss)
        adamw_step(params, grads, optim, step_lr)
        for e in params:
            if not np.isfinite(e.tensor.data).all():
                raise TrainingDiverged(
                    f"parameter {e.name} became non-finite at iteration {it}")

        line = f"{it}\t{loss_val:.6f}\t{step_lr:.8f}"
        done = it + 1 == iters
        if val_set and (done or (tp.eval_interval and (it + 1) % tp.eval_interval == 0)):
            result = evaluate(model, val_set, cfg.num_classes)
            line += f"\t{result.mean:.4f}"
            if done:
                final_miou = result
        emit(line)
        if tp.checkpoint_interval and (it + 1) % tp.checkpoint_interval == 0 and not done:
            save(f"iter{it + 1}")
    save("final")
    return TrainResult(model, optim, metrics, final_miou)
