"""End-to-end benchmark of the freeboson CLI, with a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; freeboson is imported from ``src/``.
Every op writes one seeded config file and calls ``freeboson.cli.main`` in
process, exact mode, with ``--out``: a closed loop with one client, one
process and no threads.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs whole schedule cycles of ops back to back until their
summed latency reaches S seconds, and reports the end-to-end metrics (see
``BENCHMARK.json``).  Op times are scaled to a reference CPU speed by
calibration units timed around each op (see ``calibrate.py``).  Set-up time
and the cold op are measured in several fresh interpreters per run.  Medians
and the 90th percentile are Harrell-Davis estimates (``quantile``).

``--trace 1`` processes one schedule cycle of the workload (a fixed op
count, so counts repeat exactly) twice: untraced, then with span wrappers
around each layer's public functions.  It reports per-layer calls, self
times and counters, and writes the spans to ``bench/.work``.

Outputs are checked outside the timed region; an op fails if it raises,
exits non-zero, prints an error document, breaks an invariant of
``checks.py`` or differs from the recorded reference.  Runs on a seed other
than the reference seed also replay a few reference ops.
"""
from __future__ import annotations

import os

# Pin the environment before numpy is imported: the default single-threaded
# engine path, and single-threaded BLAS and OpenMP.
os.environ.pop("FREEBOSON_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# Fresh interpreters per run for setup_s and cold_op_s; the median is reported.
PROBES = 7
PROBE_TIMEOUT_S = 60

# Reference ops replayed after the timed phase when the run's seed is not the
# reference seed: cheap ops that between them reach every command of the
# workload.
REPLAY = {
    "pairing-heavy": (0, 1, 3),
    "gram-reflection": (0,),
    "hs-sweep": (0,),
    "verify-suites": (1, 5, 6),
}

# (target, span name) of each traced function; a target is module:attr or
# module:Class.attr.  Suites of verify are added from verify.SUITES.
TRACE_TARGETS = (
    ("freeboson.cli:main", "cli.main"),
    ("freeboson.cli:run", "cli.run"),
    ("freeboson.scalars:Exact.__mul__", "scalars.mul"),
    ("freeboson.scalars:Exact.__add__", "scalars.add"),
    ("freeboson.scalars:Exact.__sub__", "scalars.add"),
    ("freeboson.scalars:Exact.inverse", "scalars.inverse"),
    ("freeboson.scalars:Exact.__pow__", "scalars.pow"),
    ("freeboson.scalars:root", "scalars.root"),
    ("freeboson.correlator:kernel", "correlator.kernel"),
    ("freeboson.correlator:expect_plain", "correlator.expect_plain"),
    ("freeboson.correlator:expect_wick", "correlator.expect_wick"),
    ("freeboson.correlator:expect_combo", "correlator.expect_combo"),
    ("freeboson.algebra:theta", "algebra.theta"),
    ("freeboson.algebra:wick_expand", "algebra.wick_expand"),
    ("freeboson.algebra:rescale", "algebra.rescale"),
    ("freeboson.hilbert:inner", "hilbert.inner"),
    ("freeboson.hilbert:gram", "hilbert.gram"),
    ("freeboson.hilbert:disc_series_inner", "hilbert.disc_series_inner"),
    ("freeboson.hilbert:psd_check", "hilbert.psd_check"),
    ("freeboson.amplitude:amplitude_entry", "amplitude.amplitude_entry"),
    ("freeboson.amplitude:hs_truncated", "amplitude.hs_truncated"),
    ("freeboson.amplitude:hs_bound", "amplitude.hs_bound"),
    ("freeboson.fock:ladder", "fock.ladder"),
    ("freeboson.fock:fock_inner", "fock.fock_inner"),
    ("freeboson.fock:wick_origin_to_fock", "fock.wick_origin_to_fock"),
)

# Per-layer metrics read from span totals: (metric, span name, field).
LAYER_METRICS = (
    ("scalars.mul.calls", "scalars.mul", "calls"),
    ("scalars.mul.self_s", "scalars.mul", "self_s"),
    ("scalars.add.calls", "scalars.add", "calls"),
    ("scalars.add.self_s", "scalars.add", "self_s"),
    ("scalars.inverse.calls", "scalars.inverse", "calls"),
    ("scalars.inverse.self_s", "scalars.inverse", "self_s"),
    ("scalars.pow.calls", "scalars.pow", "calls"),
    ("scalars.root.calls", "scalars.root", "calls"),
    ("correlator.kernel.calls", "correlator.kernel", "calls"),
    ("correlator.kernel.self_s", "correlator.kernel", "self_s"),
    ("correlator.expect_plain.calls", "correlator.expect_plain", "calls"),
    ("correlator.expect_plain.self_s", "correlator.expect_plain", "self_s"),
    ("correlator.expect_wick.calls", "correlator.expect_wick", "calls"),
    ("correlator.expect_wick.self_s", "correlator.expect_wick", "self_s"),
    ("correlator.expect_combo.calls", "correlator.expect_combo", "calls"),
    ("correlator.expect_combo.self_s", "correlator.expect_combo", "self_s"),
    ("amplitude.amplitude_entry.calls", "amplitude.amplitude_entry", "calls"),
    ("amplitude.amplitude_entry.self_s", "amplitude.amplitude_entry", "self_s"),
    ("amplitude.hs_truncated.self_s", "amplitude.hs_truncated", "self_s"),
    ("algebra.theta.calls", "algebra.theta", "calls"),
    ("algebra.theta.self_s", "algebra.theta", "self_s"),
    ("hilbert.inner.calls", "hilbert.inner", "calls"),
    ("hilbert.inner.self_s", "hilbert.inner", "self_s"),
    ("hilbert.gram.self_s", "hilbert.gram", "self_s"),
    ("hilbert.disc_series_inner.calls", "hilbert.disc_series_inner", "calls"),
    ("hilbert.disc_series_inner.self_s", "hilbert.disc_series_inner", "self_s"),
    ("hilbert.psd_check.self_s", "hilbert.psd_check", "self_s"),
    ("fock.ladder.calls", "fock.ladder", "calls"),
    ("fock.ladder.self_s", "fock.ladder", "self_s"),
    ("fock.fock_inner.self_s", "fock.fock_inner", "self_s"),
    ("fock.wick_origin_to_fock.self_s", "fock.wick_origin_to_fock", "self_s"),
    ("algebra.wick_expand.self_s", "algebra.wick_expand", "self_s"),
    ("algebra.rescale.self_s", "algebra.rescale", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.run.self_s", "cli.run", "self_s"),
) + tuple((f"verify.{s}.s", f"verify.{s}", "total_s") for s in workloads.SUITES)

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "cold_op_s": "s",
    "peak_rss_mb": "MB",
}


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- ops

class Op:
    """One CLI invocation and what came back."""

    def __init__(self, index: int, command: str, config: dict, tag: str):
        self.index = index
        self.command = command
        self.config = config
        self.config_path = WORK / f"{tag}-{index:05d}.json"
        self.out_path = WORK / f"{tag}-{index:05d}.out.json"
        self.config_path.write_bytes(workloads.config_bytes(config))
        self.code: int | None = None
        self.error = ""
        self.stdout = ""
        self.seconds = 0.0
        self.scale = 1.0
        self.first_span = self.end_span = 0
        self.doc: dict | None = None
        self.problem: str | None = None

    def scaled(self) -> float:
        """Latency in reference seconds (see calibrate.py)."""
        return self.seconds * self.scale

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config_path), "--out", str(self.out_path)]

    def load(self) -> None:
        if self.code == 0 and self.out_path.is_file():
            with open(self.out_path, encoding="utf-8") as fh:
                self.doc = json.load(fh)


def _run_ops(cli, ops: list[Op], budget_s: float | None = None, make_next=None,
             cycle: int = 1, log: spans.SpanLog | None = None) -> None:
    """Run ops in process, timing each call of ``cli.main``.

    Each op is bracketed by calibration units and gets the scale that turns
    its seconds into reference seconds.  With ``budget_s`` the loop keeps
    drawing ops from ``make_next`` until the summed scaled latency reaches
    the budget at the end of a whole ``cycle`` of ops, so every run covers
    the same ops whatever the host's speed.  With ``log`` each op records
    the range of spans it produced.
    """
    buf = io.StringIO()
    elapsed = 0.0
    i = 0
    before = calibrate.unit_seconds()
    with contextlib.redirect_stdout(buf):
        while True:
            if i == len(ops):
                if budget_s is None or (elapsed >= budget_s and i % cycle == 0):
                    break
                ops.append(make_next(i))
            op = ops[i]
            argv = op.argv()
            op.first_span = len(log) if log is not None else 0
            started = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op
                code = None
                op.error = f"{type(exc).__name__}: {exc}"
            op.seconds = time.perf_counter() - started
            op.end_span = len(log) if log is not None else 0
            op.code = code
            op.stdout = buf.getvalue()
            buf.seek(0)
            buf.truncate()
            after = calibrate.unit_seconds()
            op.scale = calibrate.factor(before, after)
            before = after
            elapsed += op.scaled()
            i += 1


def _verdict(op: Op, reference: dict) -> str | None:
    """None when the op is correct, else why it failed."""
    if op.error:
        return f"raised {op.error}"
    if op.code != 0:
        return f"exit code {op.code}: {op.stdout.strip()[:200]}"
    try:
        op.load()
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if op.doc is None:
        return "no output written"
    problem = checks.check_output(op.command, op.config, op.doc)
    if problem is None:
        problem = checks.compare_reference(reference, op.index, op.command, op.config, op.doc)
    return problem


def _probe(workload: str, seed: int, k: int) -> tuple[float, Op]:
    """Set-up seconds, and the cold op, from one fresh interpreter.

    Probe ``k`` runs the first op of schedule cycle ``k``: every probe has
    the same shape of input, with values of its own.  Set-up is wall time
    from the start of the interpreter to the decoded config; the caller
    scales it by reference interpreter starts around the probe.
    """
    index = k * workloads.CYCLE[workload]
    op = Op(index, *workloads.op(workload, seed, index), "probe")
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "cold.py"), str(SRC), op.command,
         str(op.config_path), str(op.out_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        try:
            rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            rest, err = proc.communicate()
    fields = rest.strip().splitlines()[-1:]
    fields = fields[0].split() if fields else []
    if first.strip() != "ready" or len(fields) != 4:
        op.error = f"probe failed: {first.strip()!r} {err.strip()[-300:]!r}"
        return ready - started, op
    seconds, code, cal_ready, cal_done = fields
    op.code = int(code)
    op.seconds = float(seconds)
    op.scale = calibrate.factor(float(cal_ready), float(cal_done))
    op.stdout = "\n".join(rest.strip().splitlines()[:-1])
    return ready - started, op


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A weighted mean of all order statistics, with weights from the
    Beta(p (n+1), (1-p) (n+1)) distribution.  Op costs come in classes (one
    per input shape), and a sample quantile that falls between two classes
    jumps from one op to the next between runs; this estimate moves
    smoothly, so run-to-run spread stays small.
    """
    xs = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 20000
    mid = (numpy.arange(steps) + 0.5) / steps
    log_pdf = (a - 1) * numpy.log(mid) + (b - 1) * numpy.log1p(-mid)
    cdf = numpy.concatenate(([0.0], numpy.cumsum(numpy.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = numpy.interp(numpy.arange(n + 1) / n, numpy.linspace(0, 1, steps + 1), cdf)
    return float(numpy.dot(numpy.diff(edges), xs))


# ---------------------------------------------------------------- tracing

def _count_radical(log: spans.SpanLog, result) -> None:
    is_gaussian = getattr(result, "is_gaussian", None)
    if is_gaussian is not None and not is_gaussian():
        log.count("scalars.mul.radical")


def _count_terms(log: spans.SpanLog, result) -> None:
    log.count("algebra.theta.terms_out", len(result))


_OBSERVERS = {"scalars.mul": _count_radical, "algebra.theta": _count_terms}


def _install(tracer: spans.Tracer) -> None:
    from freeboson import verify

    for target, name in TRACE_TARGETS:
        tracer.wrap(target, name, _OBSERVERS.get(name))
    for suite, fn in list(verify.SUITES.items()):
        tracer.wrap_object(fn, f"verify.{suite}")


def _layer_metrics(log: spans.SpanLog, ops: list[Op], untraced_s: float, traced_s: float) -> dict:
    scale = [1.0] * len(log)
    for op in ops:
        scale[op.first_span:op.end_span] = [op.scale] * (op.end_span - op.first_span)
    totals = spans.layer_totals(log, scale)
    values: dict[str, float] = {}
    for metric, name, field in LAYER_METRICS:
        values[metric] = totals.get(name, {}).get(field, 0)
    muls = values["scalars.mul.calls"]
    values["scalars.radical_result_ratio"] = (
        log.counters.get("scalars.mul.radical", 0) / muls if muls else 0.0
    )
    values["algebra.theta.terms_out"] = log.counters.get("algebra.theta.terms_out", 0)
    docs = [op.doc for op in ops if op.doc is not None]
    values["correlator.pairings"] = sum(d.get("pairings", 0) for d in docs if d.get("command") == "correlator")
    values["amplitude.tuples"] = sum(
        d["rows"][-1]["tuple_count"] for d in docs if d.get("command") == "hsnorm" and d["rows"]
    )
    values["trace.overhead_ratio"] = untraced_s / traced_s
    values["trace.spans"] = len(log)
    return values


# ---------------------------------------------------------------- main

def _environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _import_cli():
    if not (SRC / "freeboson" / "__init__.py").is_file():
        raise SystemExit(f"bench: no freeboson sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from freeboson import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: freeboson was imported from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()
    reference = checks.load_reference(args.workload)
    seed = reference["seed"] if args.seed is None else args.seed
    workload = args.workload
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    checked: list[Op] = []
    metrics: dict[str, float] = {}
    if args.trace:
        ops = [Op(i, *workloads.op(workload, seed, i), "op") for i in range(workloads.CYCLE[workload])]
        gc.collect()
        _run_ops(cli, ops)
        untraced_s = sum(op.scaled() for op in ops)
        traced = [Op(i, op.command, op.config, "traced") for i, op in enumerate(ops)]
        log = spans.SpanLog()
        tracer = spans.Tracer(log, "freeboson")
        _install(tracer)
        gc.collect()
        try:
            _run_ops(cli, traced, log=log)
        finally:
            tracer.remove()
        traced_s = sum(op.scaled() for op in traced)
        checked = ops + traced
        for op in checked:
            op.problem = _verdict(op, reference)
        metrics = _layer_metrics(log, traced, untraced_s, traced_s)
        log.write(WORK / f"spans-{workload}-{seed}.tsv")
        if tracer.missing:
            print(f"untraced (not found): {', '.join(tracer.missing)}")
    else:
        probes = []
        before = calibrate.start_seconds()
        for k in range(PROBES):
            setup, op = _probe(workload, seed, k)
            after = calibrate.start_seconds()
            probes.append((setup * calibrate.factor(before, after, calibrate.START_REFERENCE_S), op))
            before = after
        ops = []
        gc.collect()
        _run_ops(cli, ops, args.seconds, lambda i: Op(i, *workloads.op(workload, seed, i), "op"),
                 cycle=workloads.CYCLE[workload])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies = [op.scaled() for op in ops]
        checked = ops + [op for _, op in probes]
        for op in checked:
            op.problem = _verdict(op, reference)
        # a failed probe says nothing about set-up time unless all failed
        good = [(setup, op) for setup, op in probes if not op.problem] or probes
        metrics = {
            "ops_per_s": len(ops) / sum(latencies),
            "op_p50_s": quantile(latencies, 0.5),
            "op_p90_s": quantile(latencies, 0.9),
            "setup_s": quantile([setup for setup, _ in good], 0.5),
            "cold_op_s": quantile([op.scaled() for _, op in good], 0.5),
            "peak_rss_mb": peak_rss_mb,
        }
        raw_s = sum(op.seconds for op in ops)
        print(f"timed ops: {len(ops)} in {raw_s:.3f} s measured, {sum(latencies):.3f} s scaled "
              f"(mean scale {sum(latencies) / raw_s:.4f}); probes: {PROBES}")

    if seed != reference["seed"]:
        replay = [Op(i, *workloads.op(workload, reference["seed"], i), "replay")
                  for i in REPLAY[workload]]
        _run_ops(cli, replay)
        for op in replay:
            op.problem = _verdict(op, reference)
        checked += replay

    failures = [op for op in checked if op.problem]
    env = _environment()
    units = E2E_UNITS if not args.trace else {m: _unit(m) for m in metrics}
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    with open(WORK / f"result-{workload}-{seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "environment": env, **result,
                   "ops": [[op.config_path.name, op.seconds, op.scale, op.problem] for op in checked]},
                  fh, indent=1)

    print(f"workload {workload} seed {seed} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op in failures[:10]:
        print(f"FAILED {op.config_path.name}: {op.problem[:300]}")
    print(f"fail_ratio {len(failures) / len(checked):.6g} ({len(failures)}/{len(checked)}) ratio")
    for m, v in metrics.items():
        print(f"{m} {v:.6g} {units[m]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
