"""4-D tensor value type and the reverse-mode gradient tape."""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """An operand's shape violates an operation's contract."""


class GraphError(RuntimeError):
    """A gradient computation was requested on an invalid graph."""


_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """Dense NCHW array of float32, or float64 in verification mode.

    Tensors are treated as immutable once created: operations return new
    tensors and never write into their operands. The one sanctioned
    exception is an optimizer updating a parameter's ``data`` in place,
    which must not race with a concurrent forward pass.

    Vector-like learnable values (biases, norm scales, layer scales) are
    carried as shape (1, C, 1, 1) so that every value in the system is
    the same 4-D type.

    An op output recorded on a tape carries that tape's key for it in
    ``_key``; any other tensor has None there.
    """

    __slots__ = ("data", "requires_grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise ShapeError(f"tensor must be 4-D (N, C, H, W), got {arr.ndim}-D shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self._key: _Key | None = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = " grad" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype}{grad})"


# A node holds keys, not tensors: the output's key, one key per input (None
# for a constant) and a closure that maps the output adjoint to one adjoint
# per input (None where an input needs none). An output's key is its tape's
# serial number and its node index; a leaf's key is its id. So a tensor stays
# alive only while forward code or an adjoint closure holds it.
_BackwardFn = Callable[[np.ndarray], Sequence["np.ndarray | None"]]
_Key = tuple[int, int] | int
_SERIALS = count()

# Context variables, so that a forward pass in another thread (or task) is
# neither recorded on this tape nor charged to this cost sink.
_ACTIVE_TAPE: ContextVar["GradTape | None"] = ContextVar("segnext_tape", default=None)
_COST_SINK: ContextVar["CostSink | None"] = ContextVar("segnext_cost_sink", default=None)
_SCOPE: ContextVar[str] = ContextVar("segnext_scope", default="model")


class GradTape:
    """Ordered record of executed operations, replayed in reverse for adjoints.

    Use as a context manager around the forward computation::

        with GradTape() as tape:
            loss = ...
        grads = backward(tape, loss)

    Only one tape may record at a time in a thread; ops run in other
    threads are not recorded on it.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[_Key, tuple[_Key | None, ...], _BackwardFn]] = []
        self._serial = next(_SERIALS)
        # The leaves read so far, held so that their ids, which key their
        # adjoints, stay unique while the tape lives. They are parameters or
        # caller-held inputs, so this keeps no activation alive.
        self._leaves: dict[int, Tensor] = {}
        self._recorded = 0  # nodes ever recorded; backward empties _nodes
        self._released = False

    def __enter__(self) -> "GradTape":
        if _ACTIVE_TAPE.get() is not None:
            raise GraphError("a gradient tape is already recording; tapes cannot nest")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.reset(self._token)

    def __len__(self) -> int:
        return self._recorded

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: _BackwardFn) -> None:
        keys = []
        for t in inputs:
            if t.requires_grad:
                self._leaves[id(t)] = t
                keys.append(id(t))
            else:
                keys.append(t._key if self._relevant(t) else None)
        out._key = (self._serial, self._recorded)
        self._nodes.append((out._key, tuple(keys), backward_fn))
        self._recorded += 1

    def _relevant(self, t: Tensor) -> bool:
        """Whether ``t`` is a leaf or an output recorded on this tape."""
        return t.requires_grad or (t._key is not None and t._key[0] == self._serial)

    def _wants(self, inputs: Iterable[Tensor]) -> bool:
        """Whether an op over these inputs can influence any gradient."""
        return any(self._relevant(t) for t in inputs)


def record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: _BackwardFn) -> Tensor:
    """Register an executed op on the active tape, if one is recording.

    No-op (and no overhead beyond the check) outside a tape or when none of
    the inputs can affect a gradient.
    """
    tape = _ACTIVE_TAPE.get()
    if tape is not None and tape._wants(inputs):
        tape._record(out, inputs, backward_fn)
    return out


def recording() -> bool:
    return _ACTIVE_TAPE.get() is not None


def grad_relevant(t: Tensor) -> bool:
    """Whether ``t`` can receive a gradient on the currently recording tape.

    True for parameters and tape-produced intermediates; False for constants,
    letting ops skip computing adjoints no one will read.
    """
    if t.requires_grad:
        return True
    tape = _ACTIVE_TAPE.get()
    return tape is not None and tape._relevant(t)


class CostSink:
    """Per-row parameter and FLOP totals that ops charge while it is active.

    An op that reads tensors named in ``layer_of`` (by ``id``) is charged to
    the first one's layer, and each such tensor's size is counted once; any
    other op is charged to the innermost :func:`scope`. Rows keep
    first-charge order.
    """

    def __init__(self, layer_of: dict[int, str]) -> None:
        self.layer_of = layer_of
        self.rows: dict[str, list[int]] = {}
        self._counted: set[int] = set()

    def __enter__(self) -> "CostSink":
        self._token = _COST_SINK.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _COST_SINK.reset(self._token)

    def _charge(self, inputs: Iterable[Tensor], flops: int) -> None:
        named = [t for t in inputs if id(t) in self.layer_of]
        row = self.layer_of[id(named[0])] if named else _SCOPE.get()
        totals = self.rows.setdefault(row, [0, 0])
        totals[0] += sum(t.size for t in named if id(t) not in self._counted)
        totals[1] += flops
        self._counted.update(id(t) for t in named)


def charge(inputs: Iterable[Tensor], flops: int) -> None:
    """Charge an op's per-image FLOPs and the tensors it reads to the active
    cost sink; a single context-variable read when none is active."""
    sink = _COST_SINK.get()
    if sink is not None:
        sink._charge(inputs, flops)


@contextmanager
def scope(name: str) -> Iterator[None]:
    """Name the cost row of parameter-free ops run inside the block (or the
    decorated function)."""
    token = _SCOPE.set(name)
    try:
        yield
    finally:
        _SCOPE.reset(token)


class Gradients:
    """Gradient lookup produced by :func:`backward`.

    ``of(t)`` returns the accumulated adjoint of ``t``; parameters that never
    influenced the loss get exact zeros.
    """

    def __init__(self, adjoints: dict[int, np.ndarray]) -> None:
        self._adjoints = adjoints

    def of(self, t: Tensor) -> np.ndarray:
        g = self._adjoints.get(id(t))
        if g is None:
            return np.zeros(t.shape, dtype=t.dtype)
        return g

    def has(self, t: Tensor) -> bool:
        return id(t) in self._adjoints


def backward(tape: GradTape, loss: Tensor) -> Gradients:
    """Replay the tape in exact reverse order, accumulating adjoints.

    A tensor consumed k times receives the sum of its k adjoint
    contributions. Each node is taken off the tape as its adjoint runs, and
    an intermediate's adjoint is dropped once its producer has read it, so
    memory falls as the replay goes, and the tape cannot serve a second call.
    Only the leaves' adjoints are returned.
    """
    if tape._released:
        raise GraphError("the tape was released by an earlier backward")
    if not isinstance(loss, Tensor):
        raise GraphError("loss must be a Tensor")
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {tuple(loss.shape)}")
    if loss._key is None or loss._key[0] != tape._serial:
        raise GraphError("loss was not produced by an operation recorded on this tape")

    adjoints: dict[_Key, np.ndarray] = {loss._key: np.ones(loss.shape, dtype=loss.dtype)}
    tape._released = True
    nodes = tape._nodes
    while nodes:
        out_key, in_keys, backward_fn = nodes.pop()
        # An output's adjoint is complete once its producer runs.
        out_adj = adjoints.pop(out_key, None)
        if out_adj is None:
            continue  # not on the path from loss
        for key, grad in zip(in_keys, backward_fn(out_adj)):
            if grad is None or key is None:
                continue
            prior = adjoints.get(key)
            adjoints[key] = grad if prior is None else prior + grad
    return Gradients(adjoints)
