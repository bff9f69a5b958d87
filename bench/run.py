"""Benchmark of the qss command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {scan,threshold,enumerate,oracle} \
        --seed N --seconds S --trace {0,1}

One client drives the public entry point `qss.cli.main(argv)` in this
process, closed loop, with stdout captured, so every op pays for argument
parsing, file reading and the JSON report but not for a process start.
Searches run with `--workers 1` and the BLAS thread count is capped at the
number of usable cores.

`--trace 0` runs as many whole input cycles as take S seconds at the
workload's nominal cycle time (`cycle_s`, measured on the reference
machine), so a run does the same work on every seed and on every commit,
and prints the end-to-end metrics. Slot j of every cycle does the same
work, and the metrics take each slot's median over the cycles, so a slow
spell of the host that covers fewer than half of the cycles does not count.
Op latencies are rescaled to a reference host speed by a probe timed just
before and after each op (see calibrate()); the info line keeps them as
measured. `--trace 1` runs the workload's fixed number of trace cycles
twice, untraced and then traced, and prints the per-layer metrics; the
difference between the two passes is `trace.overhead_ratio`. Either way
the outputs are checked after the timed region and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it records the machine and the details behind the metrics.

Without the program's sources (`src/qss`) beside this directory the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "qss-bench"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5  # this process plus four set-up-only children
# Time of the calibrate() probe at the reference speed: the 2-vCPU Xeon
# host the benchmark was defined on, in its faster state.
PROBE_REF_S = 0.3e-3
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "1"),
]


def cap_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(max(1, min(wanted, NPROC)))


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time
    when it is readable and from the first line of this script otherwise."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
        if 0 <= age < 3600:
            return age
    except (OSError, ValueError, IndexError):
        pass
    return time.monotonic() - _STARTED




def import_program():
    """Import qss from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qss" / "__init__.py").is_file():
        print(f"error: no program sources at {src / 'qss'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import qss.cli

    if Path(qss.__file__).resolve().parent != (src / "qss").resolve():
        print(f"error: imported qss from {qss.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return qss.cli


def calibrate() -> float:
    """Seconds the host takes for a fixed probe: Gauss-Jordan elimination
    of a fixed 10x10 matrix of full rank over F_5 by row operations on
    small numpy arrays, the kind of work most of the program's time goes
    to. The probe is the benchmark's own code, so no change to the program
    moves it; its time tracks the host's current speed."""
    import numpy as np  # imported here so that main() caps the BLAS threads first

    a = np.random.default_rng(0).integers(0, 5, size=(10, 10))
    t0 = time.perf_counter()
    for r in range(a.shape[0]):
        p = r + int(np.nonzero(a[r:, r])[0][0])
        a[[r, p]] = a[[p, r]]
        a[r] = a[r] * pow(int(a[r, r]), -1, 5) % 5
        for i in range(a.shape[0]):
            if i != r and a[i, r]:
                a[i] = (a[i] - a[i, r] * a[r]) % 5
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s


class Runner:
    """Calls the CLI in-process, one op at a time, timing each call and
    probing the host's speed just before and just after it."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def call(self, op) -> None:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("op") if self.tracer else contextlib.nullcontext()
        probe_before = calibrate()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                op.rc = self.cli.main(op.argv)
            except Exception:  # an op that raises is a failed op, not a failed run
                op.rc = None
                traceback.print_exc()
        op.latency = time.perf_counter() - t0
        op.probe_s = (probe_before + calibrate()) / 2
        op.out, op.err = out.getvalue(), err.getvalue()

    def run_cycles(self, workload, cycles: int, tag: str):
        """Run cycles 0..cycles-1; returns (ops, wall time of each cycle)."""
        ops, walls = [], []
        for c in range(cycles):
            t0 = time.perf_counter()
            for op in workload.cycle(c, tag):
                self.call(op)
                ops.append(op)
            walls.append(time.perf_counter() - t0)
        return ops, walls


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def child_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def per_slot(ops, reference_speed: bool) -> list[tuple[float, float]]:
    """(latency, items) of each slot, each the median over the cycles, with
    latencies at reference speed or as measured. A slot does the same work
    in every cycle, so the median ignores a slow spell of the host that
    covers fewer than half of its cycles."""
    slots: dict = {}
    for op in ops:
        slots.setdefault(op.slot, []).append(op)

    def latency(op):
        return at_reference_speed(op.latency, op.probe_s) if reference_speed else op.latency

    return [(statistics.median(map(latency, group)), statistics.median(op.items for op in group))
            for group in slots.values()]


def latency_metrics(slots) -> dict:
    latencies = [latency for latency, _ in slots]
    tail_s, tail_pct = tail(latencies)
    return {"items_per_s": sum(items for _, items in slots) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "op_tail_percentile": tail_pct}


def by_label(ops) -> dict:
    """Op count and median latency of each kind of op."""
    groups: dict[str, list] = {}
    for op in ops:
        groups.setdefault(op.label, []).append(op.latency)
    return {label: {"ops": len(group), "p50_ms": statistics.median(group) * 1e3}
            for label, group in groups.items()}


def end_to_end(args, workload, runner, cycles, setup_s) -> tuple[dict, list, dict]:
    ops, walls = runner.run_cycles(workload, cycles, "timed")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = time.perf_counter()
    workload.evaluate(ops)
    check_s = time.perf_counter() - t0
    setups = [setup_s] + [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
    slots = per_slot(ops, reference_speed=True)
    timing = latency_metrics(slots)
    failed = sum(op.error is not None for op in ops)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": timing["items_per_s"],
        "op_p50_ms": timing["op_p50_ms"],
        "op_tail_ms": timing["op_tail_ms"],
        "peak_rss_mib": rss_mib,
        "ok_ratio": (len(ops) - failed) / len(ops),
    }
    details = {
        "cycles": cycles,
        "timed_s": sum(walls),
        "ops": len(ops),
        "slots": len(slots),
        "items": sum(op.items for op in ops),
        "op_tail_percentile": timing["op_tail_percentile"],
        "op_tail_samples_beyond": TAIL_BEYOND if len(slots) > TAIL_BEYOND else 0,
        "probe_ms_median": statistics.median(op.probe_s for op in ops) * 1e3,
        "as_measured": latency_metrics(per_slot(ops, reference_speed=False)),
        "setup_samples_s": setups,
        "check_s": check_s,
        "by_label": by_label(ops),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, ops, details


def per_layer(workload, runner, cycles, cli) -> tuple[dict, list, dict]:
    from spans import Tracer

    plain_ops, plain_walls = runner.run_cycles(workload, cycles, "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced_runner = Runner(cli, tracer)
        ops, walls = traced_runner.run_cycles(workload, cycles, "traced")
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    workload.evaluate(ops)
    check_s = time.perf_counter() - t0
    extra = workload.layer_counts(ops)
    extra["cli.report_bytes"] = sum(len(op.out.encode()) for op in ops)
    extra["trace.overhead_ratio"] = sum(op.latency for op in ops) / sum(op.latency for op in plain_ops) - 1.0
    metrics = tracer.layer_metrics(extra)
    trace_file = WORK / f"trace-{workload.name}.npz"
    tracer.save(trace_file)
    details = {"cycles": cycles, "ops": len(ops), "untraced_s": sum(plain_walls),
               "traced_s": sum(walls), "check_s": check_s, "spans": len(tracer.starts),
               "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, ops, details


def machine_facts(np) -> dict:
    facts = {
        "nproc": NPROC,
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            facts["cpu_model"] = models[0]
    except OSError:
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if get_threads is not None and get_config is not None:
                        get_threads.restype = ctypes.c_int
                        get_config.restype = ctypes.c_char_p
                        facts["blas"] = get_config().decode()
                        facts["blas_threads"] = get_threads()
                        return facts
    except OSError:
        pass
    return facts


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["scan", "threshold", "enumerate", "oracle"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true", help="set up, print setup_s and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    cli = import_program()
    import numpy as np
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kind = workloads.WORKLOADS[args.workload]
        cycles = kind.trace_cycles if args.trace else max(1, round(args.seconds / kind.cycle_s))
        workload = kind(args.seed, workdir, args.smoke, cycles)
        runner = Runner(cli)
        for op in workload.warmup():
            runner.call(op)
        setup_s = process_age()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, ops, details = per_layer(workload, runner, cycles, cli)
        else:
            metrics, ops, details = end_to_end(args, workload, runner, cycles, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{' '.join(op.argv[:2])}: {op.error}" for op in ops if op.error]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "machine": machine_facts(np), **details,
            "failures": failures[:10]}
    print(json.dumps({"info": info}))
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
