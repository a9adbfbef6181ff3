"""Exact parameter counts and FLOP counts, layer by layer.

The counter is the real forward run on an empty batch (0, 3, H, W): every
op checks shapes, does no arithmetic, and charges the per-image cost it
states in ``ops.py`` to the row of the layer whose parameters it reads (the
registry name without its last part), or else to the innermost scope the
forward opened: ``encoder.stageS.blockB``, ``decoder`` or ``decoder.nmf``.
"""
from __future__ import annotations

import contextvars
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


def _charge_forward(model: SegModel, x: Tensor, layer_of: dict[int, str]) -> CostSink:
    with CostSink(layer_of) as sink:
        model.forward(x)
    return sink


def cost_report(model: SegModel, input_h: int, input_w: int) -> CostReport:
    """Per-layer costs of one ``input_h`` x ``input_w`` image; raises what
    the forward raises for an input the model rejects.

    The forward runs in a fresh context, so a caller's open tape or scope
    sees none of it."""
    params = model.parameters()
    layer_of = {id(e.tensor): e.name.rpartition(".")[0] for e in params}
    x = Tensor(np.empty((0, 3, input_h, input_w), dtype=params[0].tensor.dtype))
    sink = contextvars.Context().run(_charge_forward, model, x, layer_of)
    layers = [LayerCost(name, p, f) for name, (p, f) in sink.rows.items()]
    return CostReport(layers, input_h, input_w)


def count_flops(model: SegModel, input_h: int, input_w: int) -> int:
    return cost_report(model, input_h, input_w).total_flops
