"""Out-of-program tracing of the segnext layers.

The tracer replaces the names that callers look up (``segnext.ops.conv2d``,
``segnext.train.backward``, ``SegModel.forward``, ...) with wrappers that
record a span around each call, and puts the original objects back when it
is removed. Per-op backward time comes from wrapping the adjoint closure an
op hands to ``segnext.ops.record``. Nothing under ``src/`` is modified.

A span is ``[name, start, end, parent, flops, nbytes]``; ``parent`` is the
index of the enclosing span or -1. Spans are kept in memory and written out
by the caller at the end of a run.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name). A dotted attribute names a class member.
LAYER_TARGETS = (
    ("segnext.model", "SegModel.forward", "model.fwd"),
    ("segnext.encoder", "encoder_forward", "encoder.fwd"),
    ("segnext.blocks", "block_forward", "blocks.block.fwd"),
    ("segnext.blocks", "large_kernel_block_forward", "blocks.block.fwd"),
    ("segnext.blocks", "msca_forward", "blocks.msca.fwd"),
    ("segnext.decoder", "decoder_forward", "decoder.fwd"),
    ("segnext.decoder", "_nmf_reconstruct_tensor", "decoder.nmf.fwd"),
    ("segnext.data", "augment", "data.augment"),
    ("segnext.data", "synth_dataset", "data.synth"),
    ("segnext.tensor", "backward", "tensor.backward"),
    ("segnext.train", "adamw_step", "train.adamw"),
    ("segnext.train", "evaluate", "train.evaluate"),
    ("segnext.train", "predict", "train.predict"),
    ("segnext.train", "miou", "train.miou"),
    ("segnext.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("segnext.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("segnext.config", "parse_config", "config.parse"),
    ("segnext.imagefile", "read_ppm", "imagefile.read_ppm"),
    ("segnext.imagefile", "write_pgm", "imagefile.write_pgm"),
    ("segnext.cli", "main", "cli.main"),
)


def conv_kind(spec) -> str:
    """``conv_dw`` for depthwise, ``conv_pw`` for stride-1 ungrouped 1x1,
    ``conv_dense`` for everything else (the split ``segnext.ops`` makes)."""
    if spec.groups == spec.in_channels == spec.out_channels:
        return "conv_dw"
    if tuple(spec.kernel) == (1, 1) and spec.groups == 1 and tuple(spec.stride) == (1, 1):
        return "conv_pw"
    return "conv_dense"


def _conv_flops(args, out):
    spec = args[3]
    kh, kw = spec.kernel
    n, o, oh, ow = out.shape
    return n * oh * ow * o * (spec.in_channels // spec.groups) * kh * kw


def _out_elems(args, out):
    return out.data.size


def _free(args, out):
    return 0


def _resize_flops(args, out):
    x = args[0]
    return 0 if tuple(x.shape[2:]) == tuple(out.shape[2:]) else 8 * out.data.size


def _matmul_flops(args, out):
    a, b = args[0], args[1]
    return a.data.size * b.shape[3]


def _input_elems(args, out):
    return args[0].data.size


# op name -> (kind, or None to classify from the ConvSpec; flop counter).
# FLOPs follow the README convention: one multiply-accumulate is one unit,
# bias folded in; norm, activation and elementwise ops one unit per output
# element; resize eight units per output element, zero when the size is
# unchanged; concat, reshape and transpose free. The loss, which the
# convention leaves out, is counted as one unit per logit.
OP_TABLE = {
    "conv2d": (None, _conv_flops),
    "batchnorm2d": ("bn", _out_elems),
    "gelu": ("act", _out_elems),
    "relu": ("act", _out_elems),
    "bilinear_resize": ("resize", _resize_flops),
    "add": ("eltwise", _out_elems),
    "mul": ("eltwise", _out_elems),
    "div": ("eltwise", _out_elems),
    "add_scalar": ("eltwise", _out_elems),
    "scale": ("eltwise", _out_elems),
    "concat_channels": ("eltwise", _free),
    "reshape": ("eltwise", _free),
    "mat_transpose": ("eltwise", _free),
    "sum_all": ("eltwise", _input_elems),
    "mean_all": ("eltwise", _input_elems),
    "matmul": ("matmul", _matmul_flops),
    "softmax_cross_entropy": ("xent", _input_elems),
}


def _nbytes(value) -> int:
    """Bytes of the arrays in an argument: tensors, arrays, lists of them."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def segnext_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "segnext" or name.startswith("segnext."))]


class Tracer:
    """Installs span-recording wrappers on the segnext layers.

    Use ``install()`` / ``remove()`` between units of work; ``remove()``
    restores every patched name to the original object.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.first_forward = None  # (model, input shape, span index)
        self.tape_steps: list[tuple[int, int]] = []  # (len(tape), bytes) per backward
        self._stack: list[int] = []
        self._kinds: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tape_buffers: dict[int, int] = {}

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, 0, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    def _op_wrapper(self, fn, kind, flops_fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args, kwargs = bound.args, {}
            k = kind or conv_kind(args[3])
            idx = tracer._open(f"ops.{k}.fwd")
            tracer._kinds.append(k)
            try:
                out = fn(*args)
            finally:
                tracer._kinds.pop()
                tracer._close(idx)
            span = tracer.spans[idx]
            span[4] = flops_fn(args, out)
            span[5] = sum(_nbytes(a) for a in args) + out.data.nbytes
            return out

        wrapper._perfbench_wrapper = True
        return wrapper

    def _record_wrapper(self, fn, tensor_mod):
        tracer = self
        recording = tensor_mod.recording
        grad_relevant = tensor_mod.grad_relevant

        @functools.wraps(fn)
        def record(out, inputs, backward_fn):
            kind = tracer._kinds[-1] if tracer._kinds else "eltwise"
            if recording() and any(grad_relevant(t) for t in inputs):
                tracer._retain(out, inputs, backward_fn)

            def adjoint(g):
                idx = tracer._open(f"ops.{kind}.bwd")
                try:
                    return backward_fn(g)
                finally:
                    tracer._close(idx)

            adjoint.__wrapped__ = backward_fn
            return fn(out, inputs, adjoint)

        record._perfbench_wrapper = True
        return record

    def _retain(self, out, inputs, backward_fn) -> None:
        """Count the activation buffers a recorded node keeps alive: its
        output, non-parameter inputs and arrays captured by its adjoint."""
        held = [out.data]
        held += [t.data for t in inputs if not t.requires_grad]
        for cell in backward_fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if isinstance(value, np.ndarray):
                held.append(value)
            elif isinstance(getattr(value, "data", None), np.ndarray) and not getattr(
                    value, "requires_grad", True):
                held.append(value.data)
        for arr in held:
            root = _root(arr)
            self._tape_buffers[id(root)] = root.nbytes

    def _note_backward(self, idx, args, kwargs, result) -> None:
        tape = args[0] if args else kwargs["tape"]
        self.tape_steps.append((len(tape), sum(self._tape_buffers.values())))
        self._tape_buffers.clear()

    def _note_forward(self, idx, args, kwargs, result) -> None:
        if self.first_forward is None:
            x = args[1] if len(args) > 1 else kwargs["x"]
            self.first_forward = (args[0], tuple(x.shape), idx)

    def _note_save(self, idx, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.spans[idx][5] = os.path.getsize(path)

    # -- install / remove ----------------------------------------------------
    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every segnext module attribute that is ``original``."""
        for mod in segnext_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import segnext.ops as ops_mod
        import segnext.tensor as tensor_mod

        for opname, (kind, flops_fn) in OP_TABLE.items():
            fn = getattr(ops_mod, opname, None)
            if fn is None:
                self.missing.append(f"segnext.ops.{opname}")
                continue
            self._patch_everywhere(fn, self._op_wrapper(fn, kind, flops_fn))
        record = ops_mod.record
        setattr(ops_mod, "record", self._record_wrapper(record, tensor_mod))
        self._patches.append((ops_mod, "record", record))

        after_hooks = {"model.fwd": self._note_forward, "tensor.backward": self._note_backward,
                       "checkpoint.save": self._note_save}
        for modname, attr, name in LAYER_TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(member) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._span_wrapper(fn, name, after_hooks.get(name))
            if owner_name:
                setattr(owner, member, wrapper)
                self._patches.append((owner, member, fn))
            else:
                self._patch_everywhere(fn, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def first_forward_flops(self) -> int:
        """Sum of op FLOPs recorded under the first traced model forward."""
        _, _, idx = self.first_forward
        end = self.spans[idx][2]
        inside = {idx}
        total = 0
        for i in range(idx + 1, len(self.spans)):
            name, start, _, parent, flops, _ = self.spans[i]
            if start >= end:
                break
            if parent in inside:
                inside.add(i)
                if name.startswith("ops."):
                    total += flops
        return total


def leftover_wrappers() -> list[str]:
    """Names in segnext modules (and their classes) still bound to a wrapper."""
    found = []
    for mod in segnext_modules():
        for attr, value in vars(mod).items():
            if getattr(value, "_perfbench_wrapper", False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, inner in vars(value).items():
                    if getattr(inner, "_perfbench_wrapper", False):
                        found.append(f"{mod.__name__}.{attr}.{member}")
    return found
