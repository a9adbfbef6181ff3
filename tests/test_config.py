"""Config text format: preset expansion, validation with line numbers,
defaults, and lossless round-trips."""
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnext import config
from segnext.config import (DataParams, RunConfig, TrainParams, parse_config,
                            serialize_config)
from segnext.encoder import ConfigError, preset

# The keys of each section in written order. They are the field names of the
# config classes, and checkpoints store them, so a renamed field must show here.
KEYS = {
    "model": ["channels", "depths", "expansions", "decoder_dim", "num_classes",
              "decoder_variant", "include_stage1", "ham_rank", "ham_iters",
              "use_msca", "drop_path"],
    "train": ["iters", "batch", "crop", "lr", "power", "warmup_iters",
              "warmup_ratio", "weight_decay", "eval_interval", "checkpoint_interval"],
    "data": ["size", "num_train", "num_val"],
    "run": ["seed", "out_dir"],
}

# One non-default value for every scalar key.
NON_DEFAULT = [
    ("model", "decoder_dim", "128"), ("model", "num_classes", "19"),
    ("model", "decoder_variant", "b"), ("model", "include_stage1", "true"),
    ("model", "ham_rank", "32"), ("model", "ham_iters", "3"),
    ("model", "use_msca", "false"), ("model", "drop_path", "0.25"),
    ("train", "iters", "12"), ("train", "batch", "4"), ("train", "crop", "96"),
    ("train", "lr", "0.0003"), ("train", "power", "0.9"),
    ("train", "warmup_iters", "10"), ("train", "warmup_ratio", "0.5"),
    ("train", "weight_decay", "0.05"), ("train", "eval_interval", "6"),
    ("train", "checkpoint_interval", "7"),
    ("data", "size", "96"), ("data", "num_train", "16"), ("data", "num_val", "4"),
    ("run", "seed", "5"), ("run", "out_dir", "runs/x"),
]

# Written by the earlier serializer, which put num_classes before decoder_dim.
EARLIER_TEXT = """[model]
channels = 8,16,32,64
depths = 1,1,1,1
expansions = 8,8,4,4
num_classes = 19
decoder_dim = 64
decoder_variant = b
include_stage1 = true
ham_rank = 16
ham_iters = 3
use_msca = true
drop_path = 0.125

[train]
iters = 12
batch = 8
crop = 128
lr = 0.0003
power = 1.0
warmup_iters = 0
warmup_ratio = 0.1
weight_decay = 0.01
eval_interval = 250
checkpoint_interval = 500

[data]
size = 96
num_train = 64
num_val = 8

[run]
seed = 5
out_dir = runs/x
"""


def written_keys(text: str) -> dict[str, list[str]]:
    keys: dict[str, list[str]] = {}
    for line in text.splitlines():
        if line.startswith("["):
            section = keys.setdefault(line[1:-1], [])
        elif line:
            section.append(line.partition(" = ")[0])
    return keys


class TestParse:
    def test_preset_expansion(self):
        rc = parse_config("[model]\nmodel = segnext-t\n")
        assert rc.model.channels == (32, 64, 160, 256)
        assert rc.model.depths == (3, 3, 5, 2)
        assert rc.model is preset("segnext-t")

    def test_empty_sections_get_defaults(self):
        rc = parse_config("[model]\nmodel = mscan-micro\n")
        assert rc.train == TrainParams()
        assert rc.data == DataParams()
        assert rc.seed == 0
        assert rc.out_dir == "runs/default"
        assert rc.train.iters == 2000
        assert rc.train.lr == 6e-5
        assert rc.train.crop == 128
        assert rc.train.batch == 8

    def test_comments_and_blank_lines_skipped(self):
        rc = parse_config(
            "# experiment four\n\n[model]\n# tiny\nmodel = mscan-t\n\n"
            "[run]\nseed = 9\n"
        )
        assert rc.seed == 9

    def test_field_overrides_on_preset(self):
        rc = parse_config(
            "[model]\nmodel = mscan-t\nnum_classes = 19\ndecoder_variant = a\n"
            "include_stage1 = true\nuse_msca = false\ndrop_path = 0.1\n"
        )
        m = rc.model
        assert m.num_classes == 19
        assert m.decoder_variant == "a"
        assert m.include_stage1_in_decoder is True
        assert m.use_msca is False
        assert m.drop_path == 0.1

    def test_custom_model_needs_all_three_lists(self):
        rc = parse_config(
            "[model]\nchannels = 8,16,32,64\ndepths = 1,1,1,1\n"
            "expansions = 2,2,2,2\ndecoder_dim = 32\nham_rank = 8\n"
            "num_classes = 5\n"
        )
        assert rc.model.channels == (8, 16, 32, 64)
        assert rc.model.num_classes == 5
        with pytest.raises(ConfigError, match="all of channels"):
            parse_config("[model]\nchannels = 8,16,32,64\n")

    def test_custom_model_lists_of_unequal_length_raise(self):
        # Five channels with four depths once parsed to a 4-stage model,
        # silently dropping the 128.
        with pytest.raises(ConfigError, match="^channels must have 4 values, got 5"):
            parse_config("[model]\nchannels = 8,16,32,64,128\ndepths = 1,1,1,1\n"
                         "expansions = 2,2,2,2\n")
        with pytest.raises(ConfigError, match="^expansions must have 4 values, got 3"):
            parse_config("[model]\nchannels = 8,16,32,64\ndepths = 1,1,1,1\n"
                         "expansions = 2,2,2\n")

    def test_preset_and_explicit_lists_conflict(self):
        with pytest.raises(ConfigError, match="cannot be combined"):
            parse_config("[model]\nmodel = mscan-t\nchannels = 8,16,32,64\n")

    def test_no_model_section_defaults_to_tiny(self):
        rc = parse_config("[run]\nseed = 1\n")
        assert rc.model is preset("mscan-t")


class TestErrors:
    @pytest.mark.parametrize("text,lineno", [
        ("[model]\nmodel == mscan-t\n", 2),          # '== ' makes the value invalid
        ("[oops]\n", 1),
        ("model = mscan-t\n", 1),                    # entry before section
        ("[model]\nwidth = 3\n", 2),
        ("[model]\nmodel = mscan-t\nmodel = mscan-s\n", 3),
        ("[model]\nmodel = mscan-galactic\n", 2),
        ("[train]\niters = soon\n", 2),
        ("[model]\njust some words\n", 2),
    ])
    def test_error_carries_line_number(self, text, lineno):
        with pytest.raises(ConfigError, match=rf"line {lineno}:"):
            parse_config(text)

    def test_duplicate_mentions_first_line(self):
        with pytest.raises(ConfigError, match="first set on line 2"):
            parse_config("[run]\nseed = 1\nseed = 2\n")

    def test_unknown_preset_error_lists_choices(self):
        with pytest.raises(ConfigError, match="mscan-micro"):
            parse_config("[model]\nmodel = nope\n")

    def test_semantic_model_errors_surface(self):
        with pytest.raises(ConfigError, match="num_classes"):
            parse_config("[model]\nmodel = mscan-t\nnum_classes = 1\n")
        with pytest.raises(ConfigError, match="decoder_variant"):
            parse_config("[model]\nmodel = mscan-t\ndecoder_variant = z\n")


NAN, INF = float("nan"), float("inf")
# One out-of-range value per checked [train] key: the four checks that the
# lr schedule made (lr, warmup_iters, warmup_ratio), the two that train()
# made (iters, batch), a crop below the encoder's minimum input, and the
# non-finite or negative rates, decay and intervals that training cannot use.
BAD_TRAIN = [("lr", 0.0), ("lr", -1.0), ("lr", NAN), ("lr", INF), ("warmup_iters", -1),
             ("warmup_ratio", 0.0), ("warmup_ratio", 1.5), ("iters", -1),
             ("batch", 0), ("crop", 31), ("crop", 16),
             ("power", 0.0), ("power", -1.0), ("power", NAN), ("power", INF),
             ("weight_decay", -0.01), ("weight_decay", NAN), ("weight_decay", INF),
             ("eval_interval", -1), ("checkpoint_interval", -1)]
# The synthetic dataset's own limits, one per [data] key.
BAD_DATA = [("size", 63), ("num_train", 0), ("num_val", 0)]


class TestTrainParamsChecks:
    @pytest.mark.parametrize("key,value", BAD_TRAIN, ids=[f"{k}={v}" for k, v in BAD_TRAIN])
    def test_out_of_range_value_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must"):
            TrainParams(**{key: value})
        with pytest.raises(ConfigError, match=rf"^{key} must"):
            parse_config(f"[train]\n{key} = {value}\n")

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            TrainParams(lr=-1.0)

    def test_edges_of_the_ranges_accepted(self):
        tp = TrainParams(iters=0, batch=1, crop=32, warmup_iters=0, warmup_ratio=1.0,
                         lr=1e-12, power=1e-12, weight_decay=0.0, eval_interval=0,
                         checkpoint_interval=0)
        rc = RunConfig(preset("mscan-t"), tp, DataParams(size=64, num_train=1, num_val=1))
        assert parse_config(serialize_config(rc)) == rc


class TestDataParamsChecks:
    @pytest.mark.parametrize("key,value", BAD_DATA, ids=[f"{k}={v}" for k, v in BAD_DATA])
    def test_out_of_range_value_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must"):
            DataParams(**{key: value})
        with pytest.raises(ConfigError, match=rf"^{key} must"):
            parse_config(f"[data]\n{key} = {value}\n")


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        rc = parse_config(
            "[model]\nmodel = mscan-micro\ndecoder_variant = a\n"
            "[train]\niters = 12\nlr = 0.0003\n[data]\nsize = 96\n"
            "[run]\nseed = 5\nout_dir = runs/x\n"
        )
        text = serialize_config(rc)
        assert parse_config(text) == rc

    def test_serialization_is_canonical(self):
        rc = parse_config("[model]\nmodel = mscan-s\n")
        text = serialize_config(rc)
        assert serialize_config(parse_config(text)) == text

    @given(st.integers(0, 2**31 - 1), st.integers(1, 10000),
           st.sampled_from(["a", "b", "c"]), st.booleans(),
           st.floats(1e-6, 1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_over_generated_configs(self, seed, iters, variant,
                                               stage1, lr):
        rc = RunConfig(
            model=preset("mscan-micro"),
            train=TrainParams(iters=iters, lr=lr),
            seed=seed,
        )
        rc = replace(rc, model=replace(
            rc.model, decoder_variant=variant,
            include_stage1_in_decoder=stage1))
        assert parse_config(serialize_config(rc)) == rc


class TestKeysFromFields:
    def test_written_keys_match_golden(self):
        assert written_keys(serialize_config(RunConfig(preset("mscan-t")))) == KEYS

    def test_non_default_values_cover_every_scalar_key(self):
        lists = {"channels", "depths", "expansions"}
        assert [(s, k) for s, k, _ in NON_DEFAULT] == [
            (s, k) for s, keys in KEYS.items() for k in keys if k not in lists]

    @pytest.mark.parametrize("section,key,value", NON_DEFAULT,
                             ids=[f"{s}.{k}" for s, k, _ in NON_DEFAULT])
    def test_every_scalar_key_round_trips(self, section, key, value):
        rc = parse_config(f"[{section}]\n{key} = {value}\n")
        assert rc != RunConfig(preset("mscan-t"))
        text = serialize_config(rc)
        assert f"{key} = {value}" in text.splitlines()
        assert parse_config(text) == rc

    def test_earlier_key_order_parses_to_same_config(self):
        want = RunConfig(
            model=replace(preset("mscan-micro"), num_classes=19, decoder_variant="b",
                          include_stage1_in_decoder=True, ham_iters=3, drop_path=0.125),
            train=TrainParams(iters=12, lr=3e-4), data=DataParams(size=96),
            seed=5, out_dir="runs/x")
        assert parse_config(EARLIER_TEXT) == want
        assert serialize_config(want) == EARLIER_TEXT.replace(
            "num_classes = 19\ndecoder_dim = 64\n", "decoder_dim = 64\nnum_classes = 19\n")

    def test_custom_model_keeps_mscan_t_decoder(self):
        rc = parse_config("[model]\nchannels = 8,16,32,64\ndepths = 1,1,1,1\n"
                          "expansions = 2,2,2,2\n")
        assert rc.model == replace(preset("mscan-t"), channels=(8, 16, 32, 64),
                                   depths=(1, 1, 1, 1), expansions=(2, 2, 2, 2))

    def test_field_without_parser_raises(self):
        @dataclass(frozen=True)
        class Toy:
            ok: int = 1
            pair: complex = 1j

        with pytest.raises(TypeError, match="Toy.pair"):
            config._scalar_keys(Toy)


# Characters the parser branches on, plus a few it should reject cleanly.
_FUZZ_CHARS = "[]=#,.-+_e0159 \t\n\r\x00\x85 xéZ"


@st.composite
def mutated_text(draw, valid: str) -> str:
    """``valid`` with a few characters replaced, inserted or deleted, and
    some truncated."""
    chars = list(valid)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, max(0, len(chars) - 1)))
        ch = draw(st.sampled_from(_FUZZ_CHARS) | st.characters())
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or not chars:
            chars.insert(pos, ch)
        elif op == "replace":
            chars[pos] = ch
        else:
            del chars[pos]
    if draw(st.integers(0, 3)) == 0:
        chars = chars[:draw(st.integers(0, len(chars)))]
    return "".join(chars)


class TestFuzzedText:
    """Mutated and truncated config text either parses or raises
    ``ConfigError``; nothing else escapes."""

    @settings(max_examples=500, deadline=None)
    @given(text=mutated_text(serialize_config(RunConfig(model=preset("mscan-micro")))))
    def test_parse_config_raises_only_its_error(self, text):
        try:
            rc = parse_config(text)
        except ConfigError:
            return
        assert isinstance(rc, RunConfig)
