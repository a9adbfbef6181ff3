import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from segnext import ops
from segnext.encoder import preset
from segnext.model import build_model
from segnext.tensor import (CostSink, GradTape, GraphError, ShapeError, Tensor,
                            backward, recording)


DECODER_VARIANTS = {
    "a": {"decoder_variant": "a"},
    "b": {"decoder_variant": "b"},
    "c": {},
    "c+stage1": {"include_stage1_in_decoder": True},
    "c-msca": {"use_msca": False},
}


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestTensorConstruction:
    def test_requires_4d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 4), dtype=np.float32))

    def test_plain_numeric_input_becomes_float32(self):
        assert Tensor(np.zeros((1, 1, 2, 2), dtype=np.int32)).dtype == np.float32
        assert Tensor([[[[1, 2]]]]).dtype == np.float32

    def test_accepts_both_float_widths(self):
        assert Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32)).dtype == np.float32
        assert Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64)).dtype == np.float64

    def test_makes_data_contiguous(self):
        base = np.zeros((1, 2, 3, 4), dtype=np.float32).transpose(0, 1, 3, 2)
        assert Tensor(base).data.flags["C_CONTIGUOUS"]

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            t([[[[1.0, 2.0]]]]).item()
        assert t([[[[3.5]]]]).item() == 3.5


class TestTapeLifecycle:
    def test_nested_tapes_rejected(self):
        with GradTape():
            with pytest.raises(GraphError):
                with GradTape():
                    pass

    def test_recording_flag(self):
        assert not recording()
        with GradTape():
            assert recording()
        assert not recording()

    def test_tape_usable_after_exception_inside(self):
        try:
            with GradTape():
                raise KeyError("boom")
        except KeyError:
            pass
        # the active-tape slot must be released
        with GradTape():
            assert recording()


class TestThreads:
    def test_forward_in_another_thread_is_neither_recorded_nor_charged(self):
        model = build_model(preset("mscan-micro"), seed=0)
        x = Tensor(np.random.default_rng(0).random((1, 3, 32, 32), dtype=np.float32))
        layer_of = {id(e.tensor): e.name for e in model.parameters()}
        outputs = []
        worker = threading.Thread(target=lambda: outputs.append(model.forward(x)))
        with GradTape() as tape, CostSink(layer_of) as sink:
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive() and len(outputs) == 1
            assert len(tape) == 0 and sink.rows == {}
            model.forward(x)  # the same forward in this thread is both
            assert len(tape) > 0 and sink.rows


class TestBackward:
    def test_loss_must_be_tensor(self):
        with GradTape() as tape:
            pass
        with pytest.raises(GraphError):
            backward(tape, 3.0)

    def test_loss_must_be_scalar(self):
        x = t([[[[1.0, 2.0]]]], grad=True)
        with GradTape() as tape:
            y = ops.add(x, x)
        with pytest.raises(GraphError):
            backward(tape, y)

    def test_loss_must_come_from_tape(self):
        x = t([[[[1.0]]]], grad=True)
        with GradTape() as tape:
            ops.add(x, x)
        stray = t([[[[5.0]]]])
        with pytest.raises(GraphError):
            backward(tape, stray)

    def test_unused_parameter_gets_zeros(self):
        x = t([[[[2.0]]]], grad=True)
        unused = t([[[[7.0, 8.0]]]], grad=True)
        with GradTape() as tape:
            loss = ops.mul(x, x)
        grads = backward(tape, loss)
        assert not grads.has(unused)
        np.testing.assert_array_equal(grads.of(unused), np.zeros((1, 1, 1, 2)))
        assert grads.of(unused).dtype == np.float64

    def test_fanout_accumulates(self):
        # y = x*x + x*x -> dy/dx = 4x
        x = t([[[[3.0]]]], grad=True)
        with GradTape() as tape:
            loss = ops.add(ops.mul(x, x), ops.mul(x, x))
        g = backward(tape, loss)
        np.testing.assert_allclose(g.of(x), [[[[12.0]]]])

    def test_chain_rule_through_three_ops(self):
        # loss = sum(relu(2x^2)); the relu input is never negative, so
        # d/dx = 4x everywhere
        x = t([[[[-1.0, 2.0]]]], grad=True)
        with GradTape() as tape:
            doubled = ops.add(x, x)
            prod = ops.mul(x, doubled)
            loss = ops.sum_all(ops.relu(prod))
        g = backward(tape, loss)
        np.testing.assert_allclose(g.of(x), [[[[-4.0, 8.0]]]])

    def test_backward_twice_is_bitwise_identical(self):
        # The tape cannot be replayed, so record the same computation twice.
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        x_bytes = x.data.tobytes()

        def grad():
            with GradTape() as tape:
                loss = ops.mean_all(ops.gelu(ops.mul(x, x)))
            return backward(tape, loss).of(x)

        g1 = grad()
        g2 = grad()
        np.testing.assert_array_equal(g1, g2)
        assert x.data.tobytes() == x_bytes

    def test_released_backward_frees_nodes_and_keeps_len(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 4)), requires_grad=True)
        with GradTape() as tape:
            loss = ops.mean_all(ops.gelu(ops.mul(x, x)))
        square = weakref.ref(tape._nodes[0][0].data)
        backward(tape, loss)
        assert len(tape) == 3 and tape._nodes == []
        assert square() is None

    @pytest.mark.parametrize("from_loss", [False, True])
    def test_backward_over_a_released_tape_raises(self, from_loss):
        # From an intermediate the emptied tape would yield zero gradients
        # if the released check did not come first.
        x = t([[[[1.0, 2.0]]]], grad=True)
        with GradTape() as tape:
            total = ops.sum_all(x)
            loss = ops.mul(total, total)
        backward(tape, loss)
        with pytest.raises(GraphError, match="released"):
            backward(tape, loss if from_loss else total)

    @pytest.mark.parametrize("variant", sorted(DECODER_VARIANTS))
    def test_release_gives_bitwise_equal_gradients(self, variant):
        cfg = replace(preset("mscan-micro"), drop_path=0.3, **DECODER_VARIANTS[variant])
        model = build_model(cfg, seed=0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 64, 64)).astype(np.float32))
        labels = rng.integers(0, cfg.num_classes, size=(2, 64, 64))

        def grads():
            with GradTape() as tape:
                logits = model.forward(x, training=True, rng=np.random.default_rng(2))
                loss = ops.softmax_cross_entropy(logits, labels)
            recorded = len(tape._nodes)
            g = backward(tape, loss)
            assert tape._nodes == [] and len(tape) == recorded > 0
            return [g.of(e.tensor).tobytes() for e in model.parameters()]

        assert grads() == grads()

    def test_no_recording_outside_tape(self):
        x = t([[[[1.0]]]], grad=True)
        y = ops.add(x, x)  # runs eagerly, records nothing
        with GradTape() as tape:
            loss = ops.sum_all(ops.mul(x, x))
        g = backward(tape, loss)
        np.testing.assert_allclose(g.of(x), [[[[2.0]]]])
        assert not g.has(y)

    def test_gradient_dtype_follows_input(self):
        x32 = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        with GradTape() as tape:
            loss = ops.sum_all(ops.mul(x32, x32))
        assert backward(tape, loss).of(x32).dtype == np.float32
