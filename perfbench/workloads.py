"""The benchmark workloads: train-micro, infer-t512 and eval-msflip.

Each workload is closed loop with one client in one process: the next unit
of work starts when the previous one has finished. A unit is one training
step, one CLI inference of a 512x512 image, or one ``evaluate()`` pass.
Inputs come from the workload seed only; ``seed % POOL`` picks one of POOL
input sets, for each of which ``references.json`` holds recorded outputs.
The workloads reach segnext through its public functions, looked up at call
time so that the tracer's wrappers are seen.
"""
from __future__ import annotations

import base64
import contextlib
import io
import json
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

import segnext
from segnext import cli as segnext_cli
from segnext.config import RunConfig, serialize_config
from segnext.encoder import preset

from stats import median

POOL = 16
REFERENCES = Path(__file__).resolve().parent / "references.json"


def pool_seeds(name: str, seed: int, count: int) -> list[int]:
    """``count`` derived seeds for input set ``seed % POOL`` of a workload."""
    tag = int.from_bytes(name.encode(), "little") % (2**31)
    ss = np.random.SeedSequence([tag, seed % POOL])
    return [int(s) for s in ss.generate_state(count)]


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def encode_map(labels: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(labels.astype(np.uint8).tobytes(), 9)).decode()


def decode_map(text: str, shape: tuple[int, int]) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(text))
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape).astype(np.int64)


class Clock:
    """Times the units of a run and decides when it ends.

    A unit runs from the previous ``start()`` or ``done()`` to the next
    ``done()``. Another unit starts only if the elapsed time plus the median
    unit so far fits in ``seconds``. Given a tracer, the first half of the
    run is untraced and the tracer is installed between units once that
    half is spent; each phase gets at least one unit.
    """

    def __init__(self, seconds: float, tracer=None) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.untraced: list[tuple[float, float, int]] = []
        self.traced: list[tuple[float, float, int]] = []
        self._begin: float | None = None
        self._last = 0.0

    def start(self) -> None:
        self._last = perf_counter()
        if self._begin is None:
            self._begin = self._last

    def done(self, items: int) -> None:
        now = perf_counter()
        tracing = self.tracer is not None and self.tracer.installed
        (self.traced if tracing else self.untraced).append((self._last, now, items))
        self._last = now
        if self.tracer is not None and not tracing and not self._fits(self.seconds / 2):
            self.tracer.install()

    def _fits(self, limit: float) -> bool:
        durations = [e - s for s, e, _ in self.untraced + self.traced]
        return perf_counter() - self._begin + median(durations) <= limit

    def more(self) -> bool:
        if not self.untraced:
            return True
        if self.tracer is not None and not self.traced:
            return True
        return self._fits(self.seconds)


class _ChunkEnd(Exception):
    """Raised from ``log_fn`` to end a training chunk between steps."""


class TrainMicro:
    """``train()`` on mscan-micro: batch 8, crop 128, 64 scenes at 192x192
    and 8 validation scenes (the criterion-08 set-up), a checkpoint every 10
    iterations. Training restarts every ``CHUNK`` steps, so each step's loss
    has a recorded reference; the last step of a chunk also evaluates."""

    name = "train-micro"
    unit_name = "step"
    CHUNK = 50
    BATCH = 8
    CROP = 128
    SCENES = 64
    VAL_SCENES = 8
    SIZE = 192
    ITERS = 2000  # the schedule of criterion 08
    LR = 6e-5
    CHECKPOINT_EVERY = 10
    LOSS_TOL = 2e-4  # absolute, per step
    MIOU_TOL = 1e-3  # absolute

    def prepare(self, seed: int, workdir: Path) -> dict:
        data_seed, self.train_seed, val_seed = pool_seeds(self.name, seed, 3)
        self.workdir = workdir
        self.cfg = preset("mscan-micro")
        t = perf_counter()
        k = self.cfg.num_classes
        self.data = segnext.synth_dataset(data_seed, self.SCENES, self.SIZE, k)
        self.val = segnext.synth_dataset(val_seed, self.VAL_SCENES, self.SIZE, k)
        return {"synth_s": perf_counter() - t}

    def warm_up(self) -> None:
        self.chunk(1, lambda: None, lambda: True)

    def chunk(self, steps: int, on_start, on_step) -> tuple[list[float], float | None]:
        """Train up to ``steps`` iterations; ``on_step()`` returning False
        ends the chunk early. Returns the logged losses and the mIoU logged
        at step ``CHUNK``, if the chunk got there."""
        losses: list[float] = []
        mious: list[float] = []
        ckpt = self.workdir / "train.ckpt"

        def checkpoint_fn(model, optim, tag):
            segnext.save_checkpoint(model, ckpt, optim=optim)
            if tag == "init":
                on_start()

        def log_fn(line):
            fields = line.split("\t")
            losses.append(float(fields[1]))
            mious.extend(float(f) for f in fields[3:])
            if not on_step() or len(losses) == steps:
                raise _ChunkEnd

        try:
            segnext.train(self.cfg, self.data, self.ITERS, self.BATCH, self.train_seed,
                          lr=self.LR, crop=self.CROP, val_set=self.val,
                          eval_interval=self.CHUNK,
                          checkpoint_interval=self.CHECKPOINT_EVERY,
                          checkpoint_fn=checkpoint_fn, log_fn=log_fn)
        except _ChunkEnd:
            pass
        return losses, (mious[0] if mious else None)

    def measure(self, clock: Clock, ref, failures: list[str]) -> None:
        def on_step():
            clock.done(self.BATCH)
            return clock.more()

        while clock.more():
            losses, miou = self.chunk(self.CHUNK, clock.start, on_step)
            for i, (got, exp) in enumerate(zip(losses, ref["losses"])):
                if not np.isfinite(got) or abs(got - exp) > self.LOSS_TOL:
                    failures.append(f"step {i}: loss {got} vs reference {exp} "
                                    f"(tolerance {self.LOSS_TOL})")
            if miou is not None and not abs(miou - ref["miou"]) <= self.MIOU_TOL:
                failures.append(f"step {self.CHUNK - 1}: mIoU {miou} vs reference "
                                f"{ref['miou']} (tolerance {self.MIOU_TOL})")

    def reference(self) -> dict:
        losses, miou = self.chunk(self.CHUNK, lambda: None, lambda: True)
        return {"losses": losses, "miou": miou}


class InferT512:
    """``segnext infer`` through ``cli.main`` on a random-init segnext-t
    (150 classes, decoder c) saved once in set-up, one 512x512 PPM per
    unit: load_checkpoint, read_ppm, predict, write_pgm."""

    name = "infer-t512"
    unit_name = "image"
    SIZE = 512
    IMAGES = 3
    SCENE_CLASSES = 5
    REF_STRIDE = 8  # the reference keeps every 8th row and column
    MIN_AGREEMENT = 0.99

    def prepare(self, seed: int, workdir: Path) -> dict:
        model_seed, image_seed = pool_seeds(self.name, seed, 2)
        cfg = preset("segnext-t")
        self.workdir = workdir
        self.config = workdir / "segnext-t.cfg"
        self.ckpt = workdir / "segnext-t.ckpt"
        t = perf_counter()
        model = segnext.build_model(cfg, model_seed)
        segnext.save_checkpoint(model, self.ckpt)
        self.config.write_text(serialize_config(RunConfig(model=cfg, seed=model_seed)))
        t1 = perf_counter()
        scenes = segnext.synth_dataset(image_seed, self.IMAGES, self.SIZE, self.SCENE_CLASSES)
        synth_s = perf_counter() - t1
        self.images = []
        for i, s in enumerate(scenes):
            path = workdir / f"image{i}.ppm"
            segnext.write_ppm(path, s.image)
            self.images.append(path)
        return {"synth_s": synth_s, "build_save_s": t1 - t}

    def warm_up(self) -> None:
        # A full-size image: the first large allocations are slower than
        # the later ones, which reuse memory the allocator already holds.
        self.infer(self.images[0])

    def infer(self, image: Path) -> Path:
        """One ``segnext infer`` call; returns the written PGM's path."""
        out = self.workdir / "pred.pgm"
        out.unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = segnext_cli.main(["infer", str(self.config), "--checkpoint", str(self.ckpt),
                                     "--image", str(image), "--out", str(out)])
        if code != 0 or not buf.getvalue().startswith("wrote "):
            raise RuntimeError(f"infer exited {code}: {buf.getvalue().strip()!r}")
        return out

    def measure(self, clock: Clock, ref, failures: list[str]) -> None:
        side = self.SIZE // self.REF_STRIDE
        maps = [decode_map(m, (side, side)) for m in ref]
        i = 0
        while clock.more():
            clock.start()
            out = self.infer(self.images[i % self.IMAGES])
            clock.done(1)
            pred = segnext.read_pgm(out)
            if pred.shape != (self.SIZE, self.SIZE):
                failures.append(f"image {i}: prediction shape {pred.shape}")
            else:
                s = self.REF_STRIDE
                agree = float(np.mean(pred[::s, ::s] == maps[i % self.IMAGES]))
                if agree < self.MIN_AGREEMENT:
                    failures.append(f"image {i}: {agree:.4f} pixel agreement with the "
                                    f"reference, below {self.MIN_AGREEMENT}")
            i += 1

    def reference(self) -> list[str]:
        s = self.REF_STRIDE
        return [encode_map(segnext.read_pgm(self.infer(p))[::s, ::s]) for p in self.images]


class EvalMsFlip:
    """``evaluate()`` of a random-init mscan-micro on 8 synthetic 192x192
    validation scenes with flip and scales 0.75/1.0/1.25: six small
    forwards per image."""

    name = "eval-msflip"
    unit_name = "pass"
    IMAGES = 8
    SIZE = 192
    SCALES = (0.75, 1.0, 1.25)
    MIOU_TOL = 1e-3  # absolute

    def prepare(self, seed: int, workdir: Path) -> dict:
        model_seed, val_seed = pool_seeds(self.name, seed, 2)
        self.cfg = preset("mscan-micro")
        self.model = segnext.build_model(self.cfg, model_seed)
        t = perf_counter()
        self.val = segnext.synth_dataset(val_seed, self.IMAGES, self.SIZE, self.cfg.num_classes)
        return {"synth_s": perf_counter() - t}

    def warm_up(self) -> None:
        self.evaluate(self.val[:1])

    def evaluate(self, samples) -> float:
        return segnext.evaluate(self.model, samples, self.cfg.num_classes,
                                scales=self.SCALES, flip=True).mean

    def measure(self, clock: Clock, ref, failures: list[str]) -> None:
        while clock.more():
            clock.start()
            got = self.evaluate(self.val)
            clock.done(self.IMAGES)
            if not abs(got - ref) <= self.MIOU_TOL:
                failures.append(f"pass {len(clock.untraced) + len(clock.traced)}: mIoU {got} "
                                f"vs reference {ref} (tolerance {self.MIOU_TOL})")

    def reference(self) -> float:
        return self.evaluate(self.val)


WORKLOADS = {w.name: w for w in (TrainMicro, InferT512, EvalMsFlip)}
