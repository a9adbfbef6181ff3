"""Parameter/buffer registry: names, order, shapes and decay flags pinned
for every preset and decoder variant (that order is the checkpoint layout),
and the package's public names."""
import hashlib
from dataclasses import replace

import pytest

import segnext
from segnext.encoder import preset
from segnext.model import build_classifier, build_model

VARIANTS = {
    "a": {"decoder_variant": "a"},
    "b": {"decoder_variant": "b"},
    "c": {},
    "c+stage1": {"include_stage1_in_decoder": True},
    "c-msca": {"use_msca": False},
}


def registry_lines(model, prefix: str = "") -> list[str]:
    """``P name shape decay`` per parameter, then ``B name shape`` per buffer,
    for the entries under ``prefix`` (which is cut from the names)."""
    cut = len(prefix)
    lines = [f"P {e.name[cut:]} {tuple(e.tensor.shape)} {e.decay}"
             for e in model.parameters() if e.name.startswith(prefix)]
    lines += [f"B {e.name[cut:]} {tuple(e.array.shape)}"
              for e in model.buffers() if e.name.startswith(prefix)]
    return lines


def registry_digest(model) -> str:
    return hashlib.sha256("\n".join(registry_lines(model)).encode()).hexdigest()


# sha256 of registry_lines(build_model(preset, seed=0)) for each preset and
# variant, computed with the earlier hand-written registry walkers.
GOLDEN = {
    "micro": {
        "a": "54d42f41559168352589326a93bed5e8cf90d32be3dcfe5716aa1ca6f9beded8",
        "b": "5e1263148b0e2a6b03c5681dafb4f23569e762e6769d520ceec781fb8e526c97",
        "c": "6b7643c5b5331e4eb4dc10f0a9755de8dc0da26c7ba3d01c2910e08e3a94895f",
        "c+stage1": "c73cd4b79c447e98fc63e26114dfb4fdc5f3648491527435d7cab0c384a06c67",
        "c-msca": "c8975b8d33a78a7025cdc14b03e4c8bffe9dbe8d1996330b4fa414d1b0661b1d",
    },
    "t": {
        "a": "cf6077dc4d755d744a20ab6b50b6a105e3389e2e2b93e7ec431bbd12641441b5",
        "b": "b1f44286b937361e41d1b91a8626ab612c38d91f7793634a5e659246fb2c402b",
        "c": "5443862fc26d3cf2226cd6167885c6aeffcafdf1b6a313ab152bb6113b815755",
        "c+stage1": "02d9a4491ea2afaeedeaf58c947e38a89a20b041f07913e153d6b5a241ebcdcb",
        "c-msca": "33b0546526dcddc2ce601b1f84628621664451b34eef749c483873ca76c4c1cc",
    },
    "s": {
        "a": "ada93a01f1d87bd7abf424960a90a45276a7a569485709efe47c300af9c91a2a",
        "b": "35c2a6d3d57c3a0afa8314a3012a70509aad369cdf3bd53c9570d73e95cd1937",
        "c": "b8fdd26cd60707e84ed5ace6ad61b979ebf712b9cad84787df18050ad76fd09f",
        "c+stage1": "c07f99b84552594b94abd548112707438405cb36fae14e29e99aa29f3984a6a8",
        "c-msca": "8e6cc6196f073ed9352a0c03e779fb160694e4d7f34de525f54d31cff62d2ad1",
    },
    "b": {
        "a": "d6dfeccbc686e0f2852bc0985dd5e10ab5ca2cd596e16534a72d93f538a857ea",
        "b": "1ec42f0ad9aae692efc413d8a6b3599ef7f16e24603ecc7c4d527e7cd434bb23",
        "c": "76aa42b7b138dbf51c5dfafbb63920d706879313596a00f6319a38b13d1961be",
        "c+stage1": "59e761468043958db49bf876d4c488df12b0094e6f93c32f84ff9d46587622d4",
        "c-msca": "8d501e185d349d0b52fba0be5625213f203c017ea0480bc13ab3e2100daaef22",
    },
    "l": {
        "a": "092f2770b6295c7f2f5589d3734224baa110716d22b1bdd49108bda72ac12d72",
        "b": "d8ce780c0237e59bfacd013838a704f73a4d866fea23ea433a8397cf095fe0a1",
        "c": "047ed057ff86d3baba3079dc2f34bb1017551a2e4104cf3d86afa71b9b498e99",
        "c+stage1": "5dc9cbf93ef5367144fe00be232f5236b74f9963b5d16e69210d9354da30263e",
        "c-msca": "9b63aa4c765ca5dd828c398c3c57d2aeb4daa151a5ea4d2513d9c08770ab143b",
    },
}

# build_classifier(preset, seed=0, num_classes) -> sha256, as above.
GOLDEN_CLASSIFIER = {
    ("t", 1000): "52eb69c6e5caa9c7b1b4a4f2807e04baa92b01354062be647a02e159fe2e3443",
    ("micro", 10): "e4e1552efa30f393564db802d8989dd547f45b80b76557f16d6e5d221cf0f6ea",
}

# mscan-micro's first stage-1 block, names relative to encoder.stage1.block0.
MICRO_BLOCK = [
    "P norm1.gamma (1, 8, 1, 1) False",
    "P norm1.beta (1, 8, 1, 1) False",
    "P attn_in.weight (8, 8, 1, 1) True",
    "P attn_in.bias (1, 8, 1, 1) False",
    "P attn.local_dw.weight (8, 1, 5, 5) True",
    "P attn.local_dw.bias (1, 8, 1, 1) False",
    "P attn.branch0.h.weight (8, 1, 1, 7) True",
    "P attn.branch0.h.bias (1, 8, 1, 1) False",
    "P attn.branch0.v.weight (8, 1, 7, 1) True",
    "P attn.branch0.v.bias (1, 8, 1, 1) False",
    "P attn.branch1.h.weight (8, 1, 1, 11) True",
    "P attn.branch1.h.bias (1, 8, 1, 1) False",
    "P attn.branch1.v.weight (8, 1, 11, 1) True",
    "P attn.branch1.v.bias (1, 8, 1, 1) False",
    "P attn.branch2.h.weight (8, 1, 1, 21) True",
    "P attn.branch2.h.bias (1, 8, 1, 1) False",
    "P attn.branch2.v.weight (8, 1, 21, 1) True",
    "P attn.branch2.v.bias (1, 8, 1, 1) False",
    "P attn.channel_mix.weight (8, 8, 1, 1) True",
    "P attn.channel_mix.bias (1, 8, 1, 1) False",
    "P attn_out.weight (8, 8, 1, 1) True",
    "P attn_out.bias (1, 8, 1, 1) False",
    "P norm2.gamma (1, 8, 1, 1) False",
    "P norm2.beta (1, 8, 1, 1) False",
    "P ffn_expand.weight (64, 8, 1, 1) True",
    "P ffn_expand.bias (1, 64, 1, 1) False",
    "P ffn_dw.weight (64, 1, 3, 3) True",
    "P ffn_dw.bias (1, 64, 1, 1) False",
    "P ffn_project.weight (8, 64, 1, 1) True",
    "P ffn_project.bias (1, 8, 1, 1) False",
    "P layer_scale1 (1, 8, 1, 1) False",
    "P layer_scale2 (1, 8, 1, 1) False",
    "B norm1.running_mean (8,)",
    "B norm1.running_var (8,)",
    "B norm2.running_mean (8,)",
    "B norm2.running_var (8,)",
]

_HAM = [
    "P pre_proj.weight (64, 112, 1, 1) True",
    "P pre_proj.bias (1, 64, 1, 1) False",
    "P post_proj.weight (64, 64, 1, 1) True",
    "P post_proj.bias (1, 64, 1, 1) False",
    "P classifier.weight (3, 64, 1, 1) True",
    "P classifier.bias (1, 3, 1, 1) False",
]

# mscan-micro's decoder per variant, names relative to decoder.
MICRO_DECODER = {
    "a": [
        "P proj0.weight (64, 8, 1, 1) True",
        "P proj0.bias (1, 64, 1, 1) False",
        "P proj1.weight (64, 16, 1, 1) True",
        "P proj1.bias (1, 64, 1, 1) False",
        "P proj2.weight (64, 32, 1, 1) True",
        "P proj2.bias (1, 64, 1, 1) False",
        "P proj3.weight (64, 64, 1, 1) True",
        "P proj3.bias (1, 64, 1, 1) False",
        "P fuse.weight (64, 256, 1, 1) True",
        "P fuse.bias (1, 64, 1, 1) False",
        "P classifier.weight (3, 64, 1, 1) True",
        "P classifier.bias (1, 3, 1, 1) False",
    ],
    "b": [
        "P refine1.weight (64, 64, 3, 3) True",
        "P refine1.bias (1, 64, 1, 1) False",
        "P refine_norm1.gamma (1, 64, 1, 1) False",
        "P refine_norm1.beta (1, 64, 1, 1) False",
        "P refine2.weight (64, 64, 3, 3) True",
        "P refine2.bias (1, 64, 1, 1) False",
        "P refine_norm2.gamma (1, 64, 1, 1) False",
        "P refine_norm2.beta (1, 64, 1, 1) False",
        "P classifier.weight (3, 64, 1, 1) True",
        "P classifier.bias (1, 3, 1, 1) False",
        "B refine_norm1.running_mean (64,)",
        "B refine_norm1.running_var (64,)",
        "B refine_norm2.running_mean (64,)",
        "B refine_norm2.running_var (64,)",
    ],
    "c": _HAM,
    "c+stage1": ["P pre_proj.weight (64, 120, 1, 1) True"] + _HAM[1:],
    "c-msca": _HAM,
}


class TestGoldenRegistry:
    @pytest.mark.parametrize("size", sorted(GOLDEN))
    def test_matches_golden_digest(self, size):
        for variant, kw in VARIANTS.items():
            model = build_model(replace(preset(f"mscan-{size}"), **kw), seed=0)
            assert registry_digest(model) == GOLDEN[size][variant], (size, variant)

    @pytest.mark.parametrize("size,num_classes", sorted(GOLDEN_CLASSIFIER))
    def test_classifier_matches_golden_digest(self, size, num_classes):
        model = build_classifier(preset(f"mscan-{size}"), seed=0, num_classes=num_classes)
        assert registry_digest(model) == GOLDEN_CLASSIFIER[(size, num_classes)]

    def test_micro_block_entries(self):
        model = build_model(preset("mscan-micro"), seed=0)
        assert registry_lines(model, "encoder.stage1.block0.") == MICRO_BLOCK

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_micro_decoder_entries(self, variant):
        model = build_model(replace(preset("mscan-micro"), **VARIANTS[variant]), seed=0)
        assert registry_lines(model, "decoder.") == MICRO_DECODER[variant]

    def test_classifier_head_entries(self):
        model = build_classifier(preset("mscan-micro"), seed=0, num_classes=10)
        assert registry_lines(model, "head.") == [
            "P weight (10, 64, 1, 1) True",
            "P bias (1, 10, 1, 1) False",
        ]


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        missing = [name for name in segnext.__all__ if not hasattr(segnext, name)]
        assert missing == []
