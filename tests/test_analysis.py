"""Cost analyzer: totals against a golden table, closed-form layer
arithmetic on named rows, row naming, scaling behavior, and the latency
bench's contract."""
from dataclasses import replace

import numpy as np
import pytest

from segnext.analysis import (CONVENTION, bench_latency, cost_report,
                              count_flops, count_params)
from segnext.decoder import build_decoder
from segnext.encoder import StageConfig, build_encoder, preset
from segnext.model import SegModel, build_model
from segnext.tensor import GradTape

MICRO = preset("mscan-micro")

VARIANTS = {
    "c": {},
    "a": {"decoder_variant": "a"},
    "b": {"decoder_variant": "b"},
    "c+stage1": {"include_stage1_in_decoder": True},
    "c-msca": {"use_msca": False},
}

SIZES = ((32, 32), (64, 96), (97, 131), (512, 512))

# (preset, variant) -> (parameters, FLOPs at each of SIZES), as counted by
# the earlier hand-written per-layer counter.
GOLDEN = {
    ("micro", "c"): (119683, (1231680, 6314880, 14623952, 260474880)),
    ("micro", "a"): (132675, (1772864, 10637184, 23796656, 453853184)),
    ("micro", "b"): (182403, (626432, 3758592, 9478128, 160366592)),
    ("micro", "c+stage1"): (120195, (2665792, 14919552, 32682448, 627607552)),
    ("micro", "c-msca"): (114883, (1194240, 6090240, 14100104, 250890240)),
    ("t", "c"): (4130038, (40360064, 177771264, 410074064, 7048331264)),
    ("t", "a"): (4335606, (40222848, 241337088, 555320912, 10297049088)),
    ("t", "b"): (5122294, (20798080, 124788480, 312414288, 5324308480)),
    ("t", "c+stage1"): (4138230, (64626816, 323371776, 715601872, 13260619776)),
    ("t", "c-msca"): (4066038, (39855872, 174746112, 402965456, 6919258112)),
    ("s", "c"): (13798486, (76617472, 395315712, 964639760, 16330227712)),
    ("s", "a"): (14012246, (75476736, 452860416, 1096265104, 19322044416)),
    ("s", "b"): (15257686, (55625984, 333755904, 850884496, 14240251904)),
    ("s", "c+stage1"): (13814870, (107499264, 580606464, 1353578000, 24235966464)),
    ("s", "c-msca"): (13690966, (75898624, 391002624, 954371216, 16146202624)),
    ("b", "c"): (27107414, (237622016, 916517376, 2134547472, 34861285376)),
    ("b", "a"): (27928150, (182428416, 1094570496, 2610884880, 46701674496)),
    ("b", "b"): (31074390, (110352128, 662112768, 1711179024, 28250144768)),
    ("b", "c+stage1"): (27140182, (330457856, 1473532416, 3303396368, 58627260416)),
    ("b", "c-msca"): (26869334, (236244224, 908250624, 2114427216, 34508570624)),
    ("l", "c"): (46822230, (1099161856, 2544846336, 5097657232, 74829070336)),
    ("l", "a"): (50036566, (474816768, 2848900608, 6596276112, 121553092608)),
    ("l", "b"): (58950486, (201165056, 1206990336, 3161085840, 51498254336)),
    ("l", "c+stage1"): (46887766, (1410277632, 4411540992, 9013839760, 154474708992)),
    ("l", "c-msca"): (46381910, (1096875520, 2531128320, 5063536912, 74243768320)),
}


def micro_model(variant="c", **changes):
    return build_model(replace(MICRO, **VARIANTS[variant], **changes), seed=0)


def rows(model, h, w):
    return {l.name: l for l in cost_report(model, h, w).layers}


def variant_models(size):
    """Every decoder variant of one preset. Variants with the same encoder
    configuration share one built encoder, which keeps the large presets
    quick to set up; costs depend only on the shapes."""
    base = preset(f"segnext-{size}")
    encoders = {}
    for variant, changes in VARIANTS.items():
        cfg = replace(base, **changes)
        if cfg.use_msca not in encoders:
            encoders[cfg.use_msca] = build_encoder(cfg, 0)
        enc = replace(encoders[cfg.use_msca], cfg=cfg)
        yield variant, SegModel(cfg, enc, build_decoder(cfg, 0), 0)


class TestGolden:
    @pytest.mark.parametrize("size", ["micro", "t", "s", "b", "l"])
    def test_totals_match_golden_table(self, size):
        for variant, model in variant_models(size):
            params, flops = GOLDEN[(size, variant)]
            assert count_params(model) == params, variant
            for (h, w), want in zip(SIZES, flops):
                rep = cost_report(model, h, w)
                assert (rep.total_params, rep.total_flops) == (params, want), \
                    (variant, h, w)


class TestClosedForms:
    def test_conv_3to8_3x3_with_bias_has_224_params(self):
        m = micro_model(stages=(StageConfig(16, 1, 8),) + MICRO.stages[1:])
        down0 = rows(m, 64, 64)["encoder.stage1.down0.conv"]
        assert down0.params == 8 * 3 * 9 + 8 == 224
        assert down0.flops == 32 * 32 * 8 * 3 * 9

    def test_pointwise_4to8_on_16x16_costs_8192_units(self):
        m = micro_model(stages=(StageConfig(4, 1, 2),) + MICRO.stages[1:])
        expand = rows(m, 64, 64)["encoder.stage1.block0.ffn_expand"]
        assert expand.flops == 4 * 8 * 256 == 8192
        assert expand.params == 4 * 8 + 8

    def test_strided_conv_cost_uses_output_grid(self):
        m = micro_model()
        down0 = rows(m, 64, 64)["encoder.stage1.down0.conv"]
        assert down0.flops == 32 * 32 * 4 * 3 * 9
        assert down0.params == 4 * 3 * 9 + 4 == 112
        # 4 -> 8 channels, 3x3 stride 2, from a 16x16 grid onto 8x8.
        assert rows(m, 32, 32)["encoder.stage1.down1.conv"].flops == 8 * 8 * 8 * 4 * 9

    def test_depthwise_divides_by_groups(self):
        m = micro_model()
        # 8 channels, 5x5, on the 10x10 stage-1 grid of a 40x40 input.
        local = rows(m, 40, 40)["encoder.stage1.block0.attn.local_dw"]
        assert local.flops == 100 * 8 * 1 * 25
        assert local.params == 8 * 25 + 8
        # 64 hidden channels, 3x3, on the 16x16 stage-1 grid of a 64x64 input.
        ffn_dw = rows(m, 64, 64)["encoder.stage1.block0.ffn_dw"]
        assert ffn_dw.flops == 256 * 64 * 1 * 9
        assert ffn_dw.params == 64 * 9 + 64


class TestReport:
    def test_totals_equal_sum_of_layers(self):
        rep = cost_report(micro_model(), 64, 64)
        assert rep.total_params == sum(l.params for l in rep.layers)
        assert rep.total_flops == sum(l.flops for l in rep.layers)

    def test_params_match_optimizer_registry(self):
        m = micro_model()
        rep = cost_report(m, 64, 64)
        assert rep.total_params == count_params(m)
        assert count_params(m) == sum(e.tensor.data.size for e in m.parameters())

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_registry_layer_is_one_row(self, variant):
        m = micro_model(variant)
        rep = cost_report(m, 64, 96)
        names = [l.name for l in rep.layers]
        assert len(names) == len(set(names))
        sizes = {}
        for e in m.parameters():
            layer = e.name.rpartition(".")[0]
            sizes[layer] = sizes.get(layer, 0) + e.tensor.size
        # Parameter-free ops land in the decoder's scopes; everything else in
        # the row of the layer whose parameters it reads.
        assert set(names) - set(sizes) <= {"decoder", "decoder.nmf"}
        for l in rep.layers:
            assert l.params == sizes.get(l.name, 0), l.name

    def test_params_independent_of_input_size(self):
        m = micro_model()
        assert cost_report(m, 64, 64).total_params == \
            cost_report(m, 256, 256).total_params

    def test_flops_grow_with_input_area(self):
        m = micro_model()
        f64 = count_flops(m, 64, 64)
        f128 = count_flops(m, 128, 128)
        assert f64 > 0
        # conv-dominated: quadrupling area roughly quadruples work
        assert 3.0 < f128 / f64 < 5.0

    def test_full_model_additivity(self):
        # Encoder rows do not depend on the decoder, and the encoder and
        # decoder rows together make up the total.
        encoder_rows = None
        for variant in ("a", "b", "c"):
            rep = cost_report(micro_model(variant), 64, 64)
            enc = [l for l in rep.layers if l.name.startswith("encoder.")]
            dec = [l for l in rep.layers if l.name.split(".")[0] == "decoder"]
            assert len(enc) + len(dec) == len(rep.layers)
            assert sum(l.flops for l in enc + dec) == rep.total_flops
            assert encoder_rows in (None, enc)
            encoder_rows = enc

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_every_variant_reports_positive_costs(self, variant):
        rep = cost_report(micro_model(variant), 64, 64)
        assert rep.total_params > 0 and rep.total_flops > 0

    def test_leaves_caller_tape_untouched(self):
        m = micro_model()
        want = cost_report(m, 64, 64)
        with GradTape() as tape:
            got = cost_report(m, 64, 64)
        assert len(tape) == 0
        assert got.layers == want.layers

    def test_machine_lines_format(self):
        rep = cost_report(micro_model(), 64, 64)
        lines = rep.machine_lines().splitlines()
        assert len(lines) == len(rep.layers) + 1
        for line in lines:
            name, params, flops = line.split("\t")
            assert int(params) >= 0 and int(flops) >= 0
        assert lines[-1].split("\t")[0] == "total"
        assert lines[-1] == f"total\t{rep.total_params}\t{rep.total_flops}"

    def test_table_has_totals_and_convention(self):
        rep = cost_report(micro_model(), 64, 64)
        text = rep.table()
        assert "total" in text
        assert f"{rep.total_params:,}" in text
        assert rep.convention == CONVENTION
        assert CONVENTION in text


class TestPresetScaling:
    def test_params_and_flops_increase_with_size(self):
        sizes = ["mscan-t", "mscan-s", "mscan-b", "mscan-l"]
        models = [build_model(preset(n), seed=0) for n in sizes]
        params = [count_params(m) for m in models]
        flops = [count_flops(m, 64, 64) for m in models]
        assert params == sorted(params) and len(set(params)) == 4
        assert flops == sorted(flops) and len(set(flops)) == 4


class TestLatencyBench:
    def test_rejects_bad_reps_and_warmup(self):
        m = micro_model()
        with pytest.raises(ValueError):
            bench_latency(m, 64, 64, reps=0)
        with pytest.raises(ValueError):
            bench_latency(m, 64, 64, warmup=-1)

    def test_single_rep_positive_and_finite(self):
        stats = bench_latency(micro_model(), 64, 64, warmup=0, reps=1)
        assert stats.median_ms > 0 and np.isfinite(stats.median_ms)
        assert stats.reps == 1

    def test_median_not_above_p90(self):
        stats = bench_latency(micro_model(), 64, 64, warmup=1, reps=5)
        assert stats.median_ms <= stats.p90_ms
        text = str(stats)
        assert "median" in text and "p90" in text
