"""recint benchmark: three exact-arithmetic workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, then the traced pass
    python3 perfbench/run.py --write-manifest # rewrite BENCHMARK.json

Run from the root of a checkout; the benchmark imports recint from src/.
Every repetition of a workload runs in a fresh interpreter (worker.py), so
module-level caches start cold, as they do for a CLI user.  Each is a closed
loop of fixed work on one thread: an operation starts when the previous one
has finished.

--trace 0 repeats the workload until the next repetition would overrun
--seconds (at least once) and reports the end-to-end metrics as medians:
wall_s, the batch with every output checked; setup_s, interpreter start plus
`import recint, recint.cli`, over the repetitions and two set-up-only probes
before each; peak_rss_mb, the worker's peak resident set.

Times are in reference seconds (see worker.py): every 0.1 s of work is
rescaled by how fast the core ran a fixed reference chunk at its two ends,
which takes out most of the 2x drift in core speed of a shared machine.  The
plain wall-clock medians are printed too.

--trace 1 runs each of the three workloads once under the span tracer, so
every layer is exercised whichever workload is named, and reports the
per-layer metrics of that pass, summed over the three workloads; their times
are rescaled by each workload's median reference chunk time.  It then runs the
named workload once with tracing off; trace_overhead_s is the traced wall_s
minus that one.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines above it are for people: environment, per-metric quartiles,
fail_frac, and the per-workload breakdown of the traced pass.  The exit code
is 0 when a result is printed, even an incorrect one, and 2 when the
benchmark could not run; then no result is printed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

from worker import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = {
    "crosscheck": "large dense products of integer-scaled w/u polynomials: the MultiPoly kernel and sequences",
    "identities": "recint verify on seven series identities: mid-size products with n!-denominator rationals",
    "cli-corpus": "about 40 recint CLI calls on specs, brackets and verify: many tiny products, parsing, formatting",
}

#: name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name -> unit.  "self_s" is a span's time minus its child spans' time.
PER_LAYER = {
    "scalars.calls": "count",
    "scalars.self_s": "s",
    "multipoly.self_s": "s",
    "multipoly.mul.calls": "count",
    "multipoly.mul.term_pairs": "count",
    "multipoly.mul.self_s": "s",
    "multipoly.add.calls": "count",
    "multipoly.add.self_s": "s",
    "multipoly.mul_300x314_s": "s",
    "multipoly.max_coef_bits": "bits",
    "multipoly.exact_div_linear.calls": "count",
    "multipoly.exact_div_linear.self_s": "s",
    "multipoly.denom_profile.calls": "count",
    "multipoly.denom_profile.self_s": "s",
    "multipoly.text.calls": "count",
    "multipoly.text.bytes": "bytes",
    "multipoly.text.self_s": "s",
    "sequences.self_s": "s",
    "sequences.gen_w_s": "s",
    "sequences.gen_u_s": "s",
    "sequences.u_conv_s": "s",
    "sequences.u_bin_s": "s",
    "sequences.w_inv_s": "s",
    "series.self_s": "s",
    "series.truncseries_mul.calls": "count",
    "series.truncseries_mul.self_s": "s",
    "series.inv_sqrt.self_s": "s",
    "series.verify_id3_s": "s",
    "series.verify_r2_s": "s",
    "series.verify_hg_c0_s": "s",
    "series.verify_clausen_s": "s",
    "series.verify_ode_g_s": "s",
    "series.verify_ode_product_s": "s",
    "series.verify_derivation_s": "s",
    "brackets.self_s": "s",
    "brackets.certify_table.self_s": "s",
    "brackets.entries": "count",
    "brackets.export.self_s": "s",
    "brackets.expand_terms.self_s": "s",
    "reclang.self_s": "s",
    "reclang.parse_spec.self_s": "s",
    "reclang.parse_poly_list.self_s": "s",
    "reclang.run_spec.self_s": "s",
    "reclang.to_odd_form.self_s": "s",
    "certify.certify.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace_overhead_s": "s",
}

#: Pinned calls: metric -> (workload, operation, spans whose inclusive time it is).
PINNED = {
    "sequences.gen_w_s": ("crosscheck", "gen_w", ("sequences.gen_w",)),
    "sequences.gen_u_s": ("crosscheck", "gen_u", ("sequences.gen_u",)),
    "sequences.u_conv_s": ("crosscheck", "u_conv", ("sequences.u_conv",)),
    "sequences.u_bin_s": ("crosscheck", "u_bin", ("sequences.u_bin",)),
    "sequences.w_inv_s": ("crosscheck", "w_inv", ("sequences.w_inv",)),
    "series.verify_id3_s": ("identities", "verify id3 --order 40", ("series.verify_id3",)),
    "series.verify_r2_s": ("identities", "verify r2 --order 40", ("series.verify_r2",)),
    "series.verify_hg_c0_s": ("identities", "verify hg-c0 --order 40", ("series.verify_hg_c0",)),
    "series.verify_clausen_s": ("identities", "verify clausen --order 30", ("series.verify_clausen",)),
    "series.verify_ode_g_s": ("identities", "verify ode-g --order 40", ("series.verify_ode_g",)),
    "series.verify_ode_product_s": (
        "identities", "verify ode-G --order 40", ("series.verify_ode_product",)
    ),
    "series.verify_derivation_s": (
        "identities",
        "verify derivation --order 20",
        ("series.base_series", "series.derivation_identity_check"),
    ),
}

SETUP_PROBES = 2  # per repetition, besides the repetition's own set-up
RUN_LIMIT_S = 170.0  # a run ends within 180 s


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts workers one at a time, each within what is left of the run limit."""

    def __init__(self):
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, *args: str) -> dict:
        """Run one worker to completion; its result, with set-up time added."""
        left = RUN_LIMIT_S - self.elapsed()
        if left <= 1:
            raise HarnessError("run limit reached")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"worker {' '.join(args)} did not finish in {left:.0f} s") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError(
                f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except json.JSONDecodeError as exc:
            raise HarnessError(f"worker {' '.join(args)} printed no result") from exc
        result["plain_setup_s"] = result["ready"] - spawned
        result["setup_s"] = result["plain_setup_s"] * REFERENCE_S / result["ref_ready"]
        return result

    def rep(self, workload: str, seed: int, trace: bool = False) -> dict:
        return self.worker(workload, "--seed", str(seed), *(["--trace"] if trace else []))


# -- statistics ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def count_failures(reps: list[dict]) -> tuple[int, int]:
    ops = [op for rep in reps for op in rep["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def report_failures(reps: list[dict]):
    for rep in reps:
        for op in rep["ops"]:
            if not op["ok"]:
                print(f"FAILED {op['op']}" + (f": {op['error']}" if "error" in op else ""))


# -- end to end ------------------------------------------------------------------------------


def measure(runner: Runner, workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    """Untraced repetitions for `seconds`; medians of the end-to-end metrics."""
    started = time.monotonic()
    setups, reps = [], []
    while True:
        rep_start = time.monotonic()
        # set-up probes between repetitions sample the same machine state as the reps
        setups += [runner.worker("--probe") for _ in range(SETUP_PROBES)]
        reps.append(runner.rep(workload, seed))
        now = time.monotonic()
        if now - started + (now - rep_start) > seconds:
            break
    setups += reps
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "plain_wall_s": [r["plain_wall_s"] for r in reps],
        "plain_setup_s": [r["plain_setup_s"] for r in setups],
    }
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        unit = END_TO_END[name][0] if name in END_TO_END else "s"
        if name in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
        print(f"{workload:<11} {name:<13} {med:12.6f} {unit:<3} q1 {q1:.6f} q3 {q3:.6f} n={len(values)}")
    attempted, failed = count_failures(reps)
    print(f"{workload:<11} fail_frac    {failed / attempted:12.6f}     ({failed}/{attempted} ops)")
    return metrics, reps


# -- per layer ---------------------------------------------------------------------------------


def reference_scale(rep: dict) -> float:
    """Factor from a repetition's plain seconds to reference seconds."""
    return REFERENCE_S / statistics.median(rep["refs"])


def layer_metrics(traced: dict[str, dict]) -> dict[str, float]:
    """Per-layer values of one traced rep of each workload, summed over the suite."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    notes: dict[str, float] = {}
    scale = {w: reference_scale(rep) for w, rep in traced.items()}
    for workload, rep in traced.items():
        for name, (calls, total, self_s) in rep["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total * scale[workload]
            s[2] += self_s * scale[workload]
        for name, value in rep["counters"].items():
            if name == "multipoly.max_coef_bits":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        for name, value in rep["notes"].items():
            notes[name] = notes.get(name, 0) + value * (scale[workload] if name.endswith("_s") else 1)

    def spans(prefix: str) -> list[list]:
        return [s for name, s in stats.items() if name == prefix or name.startswith(prefix + ".")]

    values: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric in PINNED:
            workload, op_name, names = PINNED[metric]
            op = next(o for o in traced[workload]["ops"] if o["op"] == op_name)
            values[metric] = sum(op["spans"].get(n, 0.0) for n in names) * scale[workload]
        elif metric in counters:
            values[metric] = counters[metric]
        elif metric in notes:
            values[metric] = notes[metric]
        elif metric.endswith(".calls"):
            values[metric] = sum(s[0] for s in spans(metric[: -len(".calls")]))
        elif metric.endswith(".self_s"):
            values[metric] = sum(s[2] for s in spans(metric[: -len(".self_s")]))
    return values


def print_breakdown(traced: dict[str, dict]):
    """Self seconds per layer and workload of the traced pass."""
    from tracing import LAYERS

    print(f"{'self_s':<11} " + " ".join(f"{layer:>9}" for layer in LAYERS))
    for workload, rep in traced.items():
        row = []
        for layer in LAYERS:
            own = sum(s[2] for n, s in rep["stats"].items() if n.startswith(layer + "."))
            row.append(own * reference_scale(rep))
        print(f"{workload:<11} " + " ".join(f"{v:9.4f}" for v in row))
    for workload, rep in traced.items():
        print(f"{workload:<11} counters {json.dumps(rep['counters'], sort_keys=True)}")


def measure_traced(runner: Runner, workload: str, seed: int) -> tuple[dict, list[dict]]:
    traced = {w: runner.rep(w, seed, trace=True) for w in WORKLOADS}
    plain = runner.rep(workload, seed)
    reps = [*traced.values(), plain]
    values = layer_metrics(traced)
    values["trace_overhead_s"] = traced[workload]["wall_s"] - plain["wall_s"]
    print_breakdown(traced)
    metrics = {}
    for name, unit in PER_LAYER.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:<36} {values[name]:>16} {unit}")
    return metrics, reps


# -- environment and manifest -----------------------------------------------------------------


def environment() -> dict:
    head = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            head = proc.stdout.strip() or head
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "recint", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_head": head,
        "src_lines": lines,
    }


def manifest(seconds: int) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": unit, "better": "lower"} for n, unit in PER_LAYER.items()],
    }


# -- main --------------------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner()
    if trace:
        metrics, reps = measure_traced(runner, workload, seed)
    else:
        metrics, reps = measure(runner, workload, seed, seconds)
    report_failures(reps)
    attempted, failed = count_failures(reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="recint benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest(args.seconds), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "recint")):
        print(f"benchmark: no recint sources under {ROOT}/src", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    try:
        if args.workload != "all":
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = [run(w, args.seed, args.seconds, False) for w in WORKLOADS]
            results.append(run("crosscheck", args.seed, args.seconds, True))
            result = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {},
            }
            for w, r in zip([*WORKLOADS, "traced"], results):
                prefix = "" if w == "traced" else f"{w}."
                result["metrics"].update({prefix + k: v for k, v in r["metrics"].items()})
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
