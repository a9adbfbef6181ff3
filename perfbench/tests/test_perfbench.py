"""Tests of the benchmark's own machinery: the tail rule, op classification,
the tracer's FLOP accounting and its clean removal, and the metric lists."""
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracer as tracing
import segnext.cli  # noqa: F401  (a tracer target the package does not import)
from segnext import analysis, ops
from segnext.encoder import preset
from segnext.model import build_model
from segnext.tensor import GradTape, Tensor, backward

BENCH = Path(__file__).resolve().parents[1]


# -- tail percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 90, 95, 100, 250, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = [float(i) for i in range(n)]
    value, pct, beyond = stats.tail(values)
    assert beyond >= 10
    assert value == values[n - 1 - beyond]
    higher = pct + 1
    assert n - math.ceil(higher * n / 100) < 10, "a higher percentile still qualifies"


def test_tail_ignores_input_order():
    rng = np.random.default_rng(0)
    values = list(rng.random(90))
    assert stats.tail(values) == stats.tail(sorted(values))
    assert stats.tail(values)[1:] == (88, 10)


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    assert stats.tail([float(i) for i in range(10)]) == (9.0, 100, 0)


# -- span arithmetic -------------------------------------------------------------

def test_self_time_and_per_unit_sums():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, 0],
        ["checkpoint.load", 1.0, 3.0, 0, 0, 0],
        ["train.predict", 3.0, 9.0, 0, 0, 0],
        ["ops.conv_pw.fwd", 4.0, 5.0, 2, 7, 9],
        ["data.augment", 11.0, 12.0, -1, 0, 0],
    ]
    assert stats.self_times(spans) == [2.0, 2.0, 5.0, 1.0, 1.0]
    sums = stats.per_unit_sums(spans, [(0.0, 10.5), (10.5, 20.0)], ("cli.main",))
    assert sums[0]["ops.conv_pw.fwd"] == [1.0, 1.0, 1, 7, 9, 0.0]
    assert sums[0]["cli.main"][5] == 0.0  # counted through its children
    assert sums[0]["checkpoint.load"][5] == 2.0
    assert sums[0]["train.predict"][5] == 6.0
    assert sums[1]["data.augment"][5] == 1.0


# -- conv classification ---------------------------------------------------------

def test_conv_kind_on_a_tiny_model():
    model = build_model(preset("segnext-micro"), 0)
    enc = model.encoder
    block = enc.stages[0].blocks[0]
    want = {
        "conv_pw": [block.attn_in, block.attn_out, block.attn.channel_mix,
                    block.ffn_expand, block.ffn_project, model.decoder.pre_proj,
                    model.decoder.post_proj, model.decoder.classifier],
        "conv_dw": [block.attn.local_dw, block.ffn_dw,
                    *[c for pair in block.attn.branches for c in pair]],
        "conv_dense": [d.conv for stage in enc.stages for d in stage.downsample],
    }
    for kind, layers in want.items():
        for layer in layers:
            assert tracing.conv_kind(layer.spec) == kind, layer.spec


def test_conv_kind_edge_cases():
    # Strided 1x1 and grouped-but-not-depthwise convolutions are dense.
    assert tracing.conv_kind(ops.ConvSpec(8, 8, (1, 1), stride=(2, 2))) == "conv_dense"
    assert tracing.conv_kind(ops.ConvSpec(8, 8, (3, 3), groups=2)) == "conv_dense"
    assert tracing.conv_kind(ops.ConvSpec(8, 8, (1, 7), groups=8)) == "conv_dw"


# -- tracer ----------------------------------------------------------------------

def _snapshot():
    """Every attribute of every segnext module and class, by identity."""
    snap = {}
    for mod in tracing.segnext_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, inner in vars(value).items():
                    snap[(mod.__name__, attr, member)] = inner
    return snap


def _image(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((n, 3, size, size), dtype=np.float32))


def test_remove_restores_every_wrapped_name():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.leftover_wrappers(), "install wrapped nothing"
        model = build_model(preset("segnext-micro"), 0)
        with GradTape() as tape:
            loss = ops.mean_all(model.forward(_image(1, 64), training=True))
        backward(tape, loss)
    finally:
        tracer.remove()
    assert tracing.leftover_wrappers() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.missing == []


def test_tape_accounting_matches_the_tape():
    tracer = tracing.Tracer()
    model = build_model(preset("segnext-micro"), 0)
    tracer.install()
    try:
        with GradTape() as tape:
            loss = ops.mean_all(model.forward(_image(2, 64), training=True))
        import segnext.tensor
        segnext.tensor.backward(tape, loss)
    finally:
        tracer.remove()
    (nodes, nbytes), = tracer.tape_steps
    assert nodes == len(tape) > 0
    assert nbytes > 0
    bwd = [s for s in tracer.spans if s[0].endswith(".bwd")]
    assert len(bwd) > 0 and all(s[3] >= 0 for s in bwd)  # nested under tensor.backward


VARIANTS = {
    "c": {},
    "a": {"decoder_variant": "a"},
    "b": {"decoder_variant": "b"},
    "c+stage1": {"include_stage1_in_decoder": True},
    "c-msca": {"use_msca": False},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("n,h,w", [(1, 64, 64), (2, 96, 64)])
def test_traced_forward_flops_equal_the_analytic_count(variant, n, h, w):
    cfg = replace(preset("segnext-micro"), **VARIANTS[variant])
    model = build_model(cfg, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        model.forward(Tensor(np.random.default_rng(1).random((n, 3, h, w), dtype=np.float32)))
    finally:
        tracer.remove()
    assert tracer.first_forward[1] == (n, 3, h, w)
    assert tracer.first_forward_flops() == analysis.count_flops(model, h, w) * n


def test_op_kinds_match_the_reported_kinds():
    kinds = {k for k, _ in tracing.OP_TABLE.values() if k} | {"conv_pw", "conv_dw", "conv_dense"}
    assert kinds == set(run.OP_KINDS)


def test_op_table_covers_every_public_op():
    public = {name for name, value in vars(ops).items()
              if callable(value) and not name.startswith("_")
              and getattr(value, "__module__", None) == ops.__name__
              and not isinstance(value, type)}
    assert public == set(tracing.OP_TABLE)


# -- metric lists ----------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert len(run.per_layer_spec()) == 85
