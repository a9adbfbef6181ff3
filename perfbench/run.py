#!/usr/bin/env python3
"""Benchmark of the segnext reproduction: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train-micro --seed 1 --seconds 30 --trace 0

``--workload`` is train-micro, infer-t512, eval-msflip, or ``all`` (each in
its own process, one after another). With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. The exit code
is 0 when every output check passed, 1 when one failed, and 2 when the
benchmark could not run (for example, no segnext sources next to it).
See README.md in this directory.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOAD_NAMES = ("train-micro", "infer-t512", "eval-msflip")
SETUP_REPEATS = 3

# name, unit
END_TO_END = (
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("images_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# The names the workloads' own vocabulary gives the generic metrics.
ALIASES = {
    "train-micro": {"op_s_p50": "step_s_p50", "op_s_tail": "step_s_tail",
                    "images_per_s": "train_images_per_s"},
    "infer-t512": {"op_s_p50": "latency_s_p50", "op_s_tail": "latency_s_tail"},
    "eval-msflip": {"op_s_p50": "eval_pass_s_p50", "op_s_tail": "eval_pass_s_tail"},
}

OP_KINDS = ("conv_pw", "conv_dw", "conv_dense", "resize", "bn", "act",
            "eltwise", "matmul", "xent")
OP_FIELDS = (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"), ("flops", "flop"),
             ("bytes", "B"), ("gflops", "GFLOP/s"))
# Spans that stand for a whole unit of work; coverage counts their children.
ENTRY_POINTS = ("cli.main", "train.evaluate")
STEP_PARTS = (("data_s", "data.augment"), ("fwd_s", "model.fwd"), ("loss_s", "ops.xent.fwd"),
              ("bwd_s", "tensor.backward"), ("optim_s", "train.adamw"))
# per-layer metric -> (span name, field of stats.per_unit_sums) for plain means
SPAN_MEANS = {
    "tensor.backward_s": ("tensor.backward", 0),
    "tensor.backward_self_s": ("tensor.backward", 1),
    "model.fwd_s": ("model.fwd", 0),
    "encoder.fwd_s": ("encoder.fwd", 0),
    "blocks.block.fwd_s": ("blocks.block.fwd", 0),
    "blocks.msca.fwd_s": ("blocks.msca.fwd", 0),
    "decoder.fwd_s": ("decoder.fwd", 0),
    "decoder.nmf.fwd_s": ("decoder.nmf.fwd", 0),
    "data.augment.calls": ("data.augment", 2),
    "data.augment_s": ("data.augment", 0),
    "train.evaluate_s": ("train.evaluate", 0),
    "train.forward_passes": ("model.fwd", 2),
    "train.miou_s": ("train.miou", 0),
    "checkpoint.save_s": ("checkpoint.save", 0),
    "checkpoint.save_bytes": ("checkpoint.save", 4),
    "checkpoint.load_s": ("checkpoint.load", 0),
    "imagefile.read_ppm_s": ("imagefile.read_ppm", 0),
    "imagefile.write_pgm_s": ("imagefile.write_pgm", 0),
}


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    spec = [(f"ops.{k}.{f}", u) for k in OP_KINDS for f, u in OP_FIELDS]
    spec += [("tensor.tape_nodes", "count"), ("tensor.tape_bytes", "B"),
             ("tensor.backward_s", "s"), ("tensor.backward_self_s", "s")]
    spec += [(m, "s") for m in ("model.fwd_s", "encoder.fwd_s", "blocks.block.fwd_s",
                                "blocks.msca.fwd_s", "decoder.fwd_s", "decoder.nmf.fwd_s")]
    spec += [("data.augment.calls", "count"), ("data.augment_s", "s"), ("data.synth_s", "s")]
    spec += [(f"train.step.{p}", "s") for p, _ in STEP_PARTS] + [("train.step.other_s", "s")]
    spec += [("train.evaluate_s", "s"), ("train.forward_passes", "count"), ("train.miou_s", "s")]
    spec += [("checkpoint.save_s", "s"), ("checkpoint.save_bytes", "B"),
             ("checkpoint.load_s", "s"), ("imagefile.read_ppm_s", "s"),
             ("imagefile.write_pgm_s", "s")]
    spec += [("analysis.flops_per_image", "flop"), ("analysis.cost_report_s", "s")]
    spec += [("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio")]
    return spec


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(name, tracer, clock, setups, flop_check) -> dict[str, float]:
    """Per-layer metrics of the traced units, each a mean per unit."""
    units = [(s, e) for s, e, _ in clock.traced]
    sums = stats.per_unit_sums(tracer.spans, units, ENTRY_POINTS)

    def field(span, idx):
        return [u.get(span, (0.0, 0.0, 0, 0, 0, 0.0))[idx] for u in sums]

    out: dict[str, float] = {}
    for k in OP_KINDS:
        fwd = f"ops.{k}.fwd"
        out[f"ops.{k}.calls"] = _mean(field(fwd, 2))
        out[f"ops.{k}.fwd_s"] = _mean(field(fwd, 0))
        out[f"ops.{k}.bwd_s"] = _mean(field(f"ops.{k}.bwd", 0))
        out[f"ops.{k}.flops"] = _mean(field(fwd, 3))
        out[f"ops.{k}.bytes"] = _mean(field(fwd, 4))
        busy = sum(field(fwd, 0))
        out[f"ops.{k}.gflops"] = sum(field(fwd, 3)) / busy / 1e9 if busy > 0 else 0.0
    steps = tracer.tape_steps
    out["tensor.tape_nodes"] = stats.median([n for n, _ in steps]) if steps else 0.0
    out["tensor.tape_bytes"] = stats.median([b for _, b in steps]) if steps else 0.0
    for metric, (span, idx) in SPAN_MEANS.items():
        out[metric] = _mean(field(span, idx))
    out["data.synth_s"] = stats.median([s["synth_s"] for s in setups])
    walls = [e - s for s, e in units]
    is_train = name == "train-micro"
    parts_total = [0.0] * len(units)
    for part, span in STEP_PARTS:
        top = field(span, 5) if is_train else [0.0] * len(units)
        out[f"train.step.{part}"] = _mean(top)
        parts_total = [a + b for a, b in zip(parts_total, top)]
    out["train.step.other_s"] = (_mean(w - p for w, p in zip(walls, parts_total))
                                 if is_train else 0.0)
    out["analysis.flops_per_image"] = flop_check["per_image"]
    out["analysis.cost_report_s"] = flop_check["cost_report_s"]
    covered = sum(v[5] for u in sums for v in u.values())
    out["trace.coverage"] = covered / sum(walls)
    out["trace.overhead_ratio"] = _mean(walls) / _mean(e - s for s, e, _ in clock.untraced)
    return out


def flop_cross_check(tracer, analysis) -> dict:
    """Sum of op FLOPs under the first traced forward against
    ``count_flops(model, h, w) * batch``; must be exactly equal."""
    model, (n, _, h, w), _ = tracer.first_forward
    traced = tracer.first_forward_flops()
    t = perf_counter()
    per_image = analysis.count_flops(model, h, w)
    cost_report_s = perf_counter() - t
    return {"input": [n, 3, h, w], "traced": traced, "expected": per_image * n,
            "per_image": per_image, "cost_report_s": cost_report_s,
            "ok": traced == per_image * n}


def time_imports(src: Path) -> list[float]:
    """Wall time of a fresh interpreter importing segnext, once per set-up."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import segnext.analysis, segnext.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=120)
        times.append(perf_counter() - t)
    return times


def run_workload(args, threads: dict[str, str]) -> int:
    src = ROOT / "src"
    if not (src / "segnext" / "__init__.py").is_file():
        print(f"error: no segnext sources at {src}", file=sys.stderr)
        return 2
    imports = time_imports(src)
    sys.path.insert(0, str(src))
    import segnext.analysis as analysis

    import tracer as tracing
    import workloads

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    references = workloads.load_references()[args.workload][args.seed % workloads.POOL]
    workload = workloads.WORKLOADS[args.workload]()
    machine = stats.machine_record(ROOT, args.seed, threads)
    print(f"# {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("# machine " + json.dumps(machine, sort_keys=True))

    failures: list[str] = []
    checks: dict[str, bool] = {}
    tracer = tracing.Tracer() if args.trace else None
    clock = workloads.Clock(args.seconds, tracer)
    setups = []
    crashed = False
    warm_up_s = 0.0
    try:
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            phases = workload.prepare(args.seed, workdir)
            phases["total_s"] = perf_counter() - t
            setups.append(phases)
        t = perf_counter()
        workload.warm_up()
        warm_up_s = perf_counter() - t
        workload.measure(clock, references, failures)
    except Exception:  # a failing unit ends the run; it is reported, not raised
        failures.append(traceback.format_exc())
        crashed = True
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    durations = [e - s for s, e, _ in clock.untraced]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setups": setups,
              "imports_s": imports, "warm_up_s": warm_up_s, "unit": workload.unit_name,
              "untraced_units_s": durations,
              "traced_units_s": [e - s for s, e, _ in clock.traced]}
    end_to_end = {}
    if durations:
        end_to_end = {
            "setup_s": (stats.median(imports) + stats.median([s["total_s"] for s in setups])
                        + warm_up_s),
            "op_s_p50": stats.median(durations),
            "images_per_s": sum(i for _, _, i in clock.untraced) / sum(durations),
            "peak_rss_mb": stats.peak_rss_mb(),
        }
        value, pct, beyond = stats.tail(durations)
        result["tail"] = {"value": value, "percentile": pct, "samples_beyond": beyond}
    result["end_to_end"] = end_to_end

    per_layer = {}
    if tracer is not None and clock.traced and tracer.first_forward is not None:
        flops = flop_cross_check(tracer, analysis)
        checks["flop_cross_check"] = flops["ok"]
        per_layer = layer_metrics(args.workload, tracer, clock, setups, flops)
        checks["trace_coverage_at_least_0.9"] = per_layer["trace.coverage"] >= 0.9
        leftover = tracing.leftover_wrappers()
        checks["wrapped_names_restored"] = not leftover
        result.update(flop_check=flops, leftover_wrappers=leftover,
                      trace_targets_missing=tracer.missing)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        origin = clock.traced[0][0]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([[s[0], s[1] - origin, s[2] - origin, *s[3:]] for s in tracer.spans],
                      fh, separators=(",", ":"))
    elif tracer is not None:
        checks["traced_phase_ran_a_forward"] = False
    result["per_layer"] = per_layer
    result["checks"] = checks

    units = len(clock.untraced) + len(clock.traced)
    failed = len(failures) + sum(not ok for ok in checks.values())
    attempted = max(1, units + len(checks) + crashed)
    result.update(failures=failures, attempted=attempted, failed=failed)
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    report(args, workload, result, per_layer, end_to_end, clock)
    correct = failed == 0 and (bool(per_layer) if args.trace else bool(end_to_end))
    if args.trace:
        metrics = {n: {"value": per_layer.get(n, 0.0), "unit": u} for n, u in per_layer_spec()}
    else:
        metrics = {n: {"value": end_to_end.get(n, 0.0), "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def report(args, workload, result, per_layer, end_to_end, clock) -> None:
    """Human-readable lines: every metric by name, unit and sample count."""
    name = args.workload
    n = len(result["untraced_units_s"])
    counts = {"setup_s": f"n={SETUP_REPEATS} imports and set-ups, medians, plus a warm-up",
              "op_s_p50": f"n={n}, unit: {workload.unit_name}",
              "images_per_s": f"n={sum(i for _, _, i in clock.untraced)} images",
              "peak_rss_mb": "n=1 process"}
    rows = [(metric, end_to_end[metric], unit, counts[metric])
            for metric, unit in END_TO_END if metric in end_to_end]
    if "tail" in result:
        t = result["tail"]
        rows.append(("op_s_tail", t["value"], "s",
                     f"n={n}, p{t['percentile']}, "
                     f"{t['samples_beyond']} beyond; not gated"))
    if name == "train-micro" and "op_s_p50" in end_to_end:
        rows.append(("criterion08_train_s", 2000 * end_to_end["op_s_p50"], "s",
                     "2000 x step_s_p50, a prediction; evaluations excluded; not gated"))
    rows.append(("error_rate", result["failed"] / result["attempted"], "ratio",
                 f"{result['failed']} failed of {result['attempted']} attempted"))
    for metric, value, unit, note in rows:
        alias = ALIASES[name].get(metric)
        label = f"{metric} ({alias})" if alias else metric
        print(f"{name:<12} {label:<36} {value:>14.6g} {unit:<8} [{note}]")
    traced_units = len(clock.traced)
    for metric, unit in per_layer_spec():
        if metric in per_layer:
            print(f"{name:<12} {metric:<36} {per_layer[metric]:>14.6g} {unit:<8} "
                  f"[mean per {workload.unit_name}, n={traced_units}]")
    for check, ok in result["checks"].items():
        print(f"{name:<12} check {check}: {'ok' if ok else 'FAILED'}")
    for failure in result["failures"]:
        print(f"{name:<12} FAILED: {failure.strip()}", file=sys.stderr)


def run_all(args) -> int:
    """Run each workload in its own process; combine the result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return max(worst, 2)
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.workload == "all":
        return run_all(args)
    threads = stats.limit_blas_threads()  # before numpy is imported
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
