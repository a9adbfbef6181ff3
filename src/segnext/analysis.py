"""Exact parameter counts and FLOP counts, layer by layer.

The counter is the real forward run on an empty batch (0, 3, H, W): every
op checks shapes, does no arithmetic, and charges the per-image cost it
states in ``ops.py`` to the row of the layer whose parameters it reads (the
registry name without its last part), or else to the innermost scope the
forward opened: ``encoder.stageS.blockB``, ``decoder`` or ``decoder.nmf``.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .model import SegModel
from .ops import CONVENTION
from .tensor import CostSink, Tensor


@dataclass(frozen=True)
class LayerCost:
    name: str
    params: int
    flops: int


@dataclass
class CostReport:
    layers: list[LayerCost]
    input_h: int
    input_w: int
    convention: str = CONVENTION

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_flops(self) -> int:
        return sum(l.flops for l in self.layers)

    def table(self) -> str:
        """Aligned text rendering with a totals row."""
        name_w = max(len(l.name) for l in self.layers + [LayerCost("total", 0, 0)])
        lines = [f"{'layer':<{name_w}}  {'params':>12}  {'flops':>16}"]
        for l in self.layers:
            lines.append(f"{l.name:<{name_w}}  {l.params:>12,}  {l.flops:>16,}")
        lines.append(
            f"{'total':<{name_w}}  {self.total_params:>12,}  {self.total_flops:>16,}"
        )
        lines.append(f"input {self.input_h}x{self.input_w}; convention: {self.convention}")
        return "\n".join(lines)

    def machine_lines(self) -> str:
        rows = [f"{l.name}\t{l.params}\t{l.flops}" for l in self.layers]
        rows.append(f"total\t{self.total_params}\t{self.total_flops}")
        return "\n".join(rows)


def count_params(model) -> int:
    """Learnable scalars of anything exposing a ``parameters()`` registry."""
    return sum(e.tensor.size for e in model.parameters())


def cost_report(model: SegModel, input_h: int, input_w: int) -> CostReport:
    """Per-layer costs of one ``input_h`` x ``input_w`` image; raises what
    the forward raises for an input the model rejects."""
    params = model.parameters()
    layer_of = {id(e.tensor): e.name.rpartition(".")[0] for e in params}
    x = Tensor(np.empty((0, 3, input_h, input_w), dtype=params[0].tensor.dtype))
    with CostSink(layer_of) as sink:
        model.forward(x)
    layers = [LayerCost(name, p, f) for name, (p, f) in sink.rows.items()]
    return CostReport(layers, input_h, input_w)


def count_flops(model: SegModel, input_h: int, input_w: int) -> int:
    return cost_report(model, input_h, input_w).total_flops


@dataclass
class LatencyStats:
    median_ms: float
    p90_ms: float
    reps: int
    warmup: int
    cpu_count: int
    thread_env: dict[str, str]

    def __str__(self) -> str:
        env = ", ".join(f"{k}={v}" for k, v in self.thread_env.items()) or "unset"
        return (
            f"median {self.median_ms:.2f} ms  p90 {self.p90_ms:.2f} ms  "
            f"({self.reps} reps, {self.warmup} warmup, {self.cpu_count} cpus, {env})"
        )


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bench_latency(model: SegModel, input_h: int, input_w: int,
                  warmup: int = 1, reps: int = 5, seed: int = 0) -> LatencyStats:
    """Wall-clock single-image forward latency; informational only."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    rng = np.random.default_rng(seed)
    x = Tensor(rng.random((1, 3, input_h, input_w), dtype=np.float32))
    for _ in range(warmup):
        model.forward(x)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        model.forward(x)
        times.append((time.perf_counter() - t0) * 1000.0)
    arr = np.asarray(times)
    return LatencyStats(
        median_ms=float(np.median(arr)),
        p90_ms=float(np.percentile(arr, 90)),
        reps=reps,
        warmup=warmup,
        cpu_count=os.cpu_count() or 1,
        thread_env={k: os.environ[k] for k in _THREAD_VARS if k in os.environ},
    )
