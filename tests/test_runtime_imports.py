"""segnext runs on numpy alone: a fresh interpreter that imports every
entry point, builds with init, trains a step, runs the float64 GELU and
segments an image through the CLI has loaded no scipy module."""
import json
import os
import subprocess
import sys
from pathlib import Path

import segnext

_SCRIPT = """
import json, sys
import numpy as np
import segnext, segnext.analysis, segnext.cli
from segnext import ops
from segnext.checkpoint import save_checkpoint
from segnext.encoder import preset
from segnext.imagefile import write_ppm
from segnext.model import build_model
from segnext.tensor import GradTape, Tensor, backward

tmp = sys.argv[1]
model = build_model(preset("mscan-micro"), 0)
x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32))
with GradTape() as tape:
    loss = ops.sum_all(model.forward(x, training=True))
backward(tape, loss)
ops.gelu(Tensor(np.linspace(-3.0, 3.0, 8).reshape(1, 2, 2, 2)))
save_checkpoint(model, tmp + "/micro.ckpt")
write_ppm(tmp + "/scene.ppm", np.zeros((32, 32, 3), np.uint8))
code = segnext.cli.main(["infer", tmp + "/run.cfg", "--checkpoint", tmp + "/micro.ckpt",
                         "--image", tmp + "/scene.ppm", "--out", tmp + "/pred.pgm"])
print(json.dumps({"code": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_no_scipy_module_is_loaded(tmp_path):
    src = str(Path(segnext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "scipy": []}
    assert (tmp_path / "pred.pgm").exists()
