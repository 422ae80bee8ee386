#!/usr/bin/env python3
"""linsuper benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload large-instance --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out bench/results/BENCH_0.json
    python3 bench/run.py --workload all --record-digests

One workload runs in one process, as a closed loop with one caller: the
fixed operation list of the workload is run pass after pass, each operation
starting when the previous one returns, until `--seconds` of passes are
spent (at least three passes).

Times are given at a fixed reference speed of the machine. On a shared
two-core virtual machine other tenants slowed all Python code by up to 2x
for stretches of seconds to minutes, which no amount of sampling within a
run removes. So every tenth of a second, between operations, the run times a
fixed reference kernel of its own (Fraction elimination, dict and string
building; see `Speed`) and scales each operation's time by
REFERENCE_S / (kernel time around the operation). Sampled back to back on one
operation for 30 s on such a machine (two vCPUs of an Intel Xeon), raw times
spread 15% (IQR / median) and scaled ones 6%. Raw wall
times are kept in the detail line. The scale is the benchmark's alone: a
change to linsuper does not move the kernel.

- wall_s      sum of the operation latencies: the time to finish the
              operation list once;
- op_p50_ms   median operation latency, where an operation's latency is the
              median of its scaled times over the passes;
- op_tail_ms  the highest percentile of operation latency with at least ten
              operations beyond it (printed with the percentile and count);
- peak_rss_mb ru_maxrss of the workload's process;
- setup_s     median of nine fresh interpreters, spread over the run, each
              timed from its start until linsuper is imported and the
              workload's inputs are built, scaled by the kernel timed in it;
- fail_ratio  operations of the list whose output failed a check in any
              pass / operations in the list; printed, and carried in the
              result as failed / attempted, which do not depend on how many
              passes fit in the run.

Every operation's output is checked on its first run (certificates
re-verified, reconstructions compared, verdicts cross-checked, golden
reports compared) and every later run must give the same semantic digest;
for CLI operations the same report bytes. For the committed seed the digests
must also equal the ones stored in bench/digests.json.

With `--trace 1` untraced passes alternate with passes under the tracer of
`tracing.py`; the per-layer metrics come from the traced passes (their
times are span times as measured, not scaled) and the tracing overhead is the
difference of the two scaled wall times.

The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
COMMITTED_SEED = 1
SETUP_RUNS = 9
MIN_PASSES = 3
END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# The reference kernel's time (median of KERNEL_REPEATS) on an idle core of a
# two-vCPU "Intel Xeon Processor" virtual machine; times are scaled to it.
REFERENCE_S = 0.0016
KERNEL_REPEATS = 3
CALIBRATE_EVERY_S = 0.1
_KERNEL_RNG = random.Random(7)
_KERNEL_MATRIX = [[Fraction(_KERNEL_RNG.randint(-9, 9), _KERNEL_RNG.randint(1, 9)) for _ in range(9)]
                  for _ in range(7)]


def _kernel() -> None:
    """Fixed work like the workloads': a Fraction elimination and a dict of strings."""
    m = [row[:] for row in _KERNEL_MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    table = {}
    for i in range(2000):
        table[str(i)] = i


def kernel_seconds() -> float:
    """Median time of the reference kernel, with the collector off so the heap does not matter."""
    times = []
    gc.disable()
    try:
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def _require_checkout() -> None:
    missing = [p for p in ("src/linsuper/__init__.py", "fixtures/expected") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"bench: {', '.join(missing)} not found under {ROOT}; run from a linsuper checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "machine": platform.machine(),
    }


class Speed:
    """Times the reference kernel between operations to track the machine's speed.

    `scale(i)` is REFERENCE_S divided by the mean kernel time of calibration
    `i` and the next one, the two around the operations timed between them:
    below 1 when the machine ran slower than the reference.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.last = -1.0

    def calibrate(self) -> int:
        self.kernel_s.append(kernel_seconds())
        self.last = time.perf_counter()
        return len(self.kernel_s) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CALIBRATE_EVERY_S

    def scale(self, i: int) -> float:
        return REFERENCE_S / ((self.kernel_s[i] + self.kernel_s[i + 1]) / 2)


class Runner:
    """Runs the op list pass after pass and judges every result."""

    def __init__(self, ops, stored: dict[str, str] | None) -> None:
        self.ops = ops
        self.stored = stored
        self.tracer = None  # a tracing.Tracer during traced passes
        self.speed = Speed()
        self.samples: list[list[float]] = [[] for _ in ops]  # scaled to the reference speed
        self.raw: list[list[float]] = [[] for _ in ops]  # wall times as measured
        self.reference: list[tuple | None] = [None] * len(ops)
        self.failures: dict[str, list[str]] = {}

    def run_pass(self) -> float:
        gc.collect()
        tracer = self.tracer
        speed = self.speed
        pass_s = 0.0
        waiting: list[int] = []  # ops timed since calibration `mark`
        mark = speed.calibrate()
        for i, op in enumerate(self.ops):
            if speed.due():
                after = speed.calibrate()
                self._scale(waiting, mark)
                waiting, mark = [], after
            error = result = None
            if tracer is not None:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising op is a failed op, not a failed run
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            pass_s += elapsed
            self.raw[i].append(elapsed)
            waiting.append(i)
            report = getattr(result, "out", None)  # a CLI report: compared byte for byte
            reasons = [error] if error else self._judge(i, op, result, report)
            if reasons:
                self.failures.setdefault(op.name, reasons)
        speed.calibrate()
        self._scale(waiting, mark)
        return pass_s

    def _scale(self, waiting, mark) -> None:
        factor = self.speed.scale(mark)
        for i in waiting:
            self.samples[i].append(self.raw[i][-1] * factor)

    def _judge(self, i, op, result, report) -> list[str]:
        from workloads import digest

        try:
            digested = digest(op.summary(result))
        except Exception as exc:
            return [f"summary raised {type(exc).__name__}: {exc}"]
        ref = self.reference[i]
        if ref is not None:
            if report is not None and report != ref[1]:
                return ["report bytes differ from the first run"]
            if digested != ref[0]:
                return ["result differs from the first run"]
            return ref[2]
        try:
            reasons = op.check(result)
        except Exception as exc:
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        if self.stored is not None and op.name in self.stored and self.stored[op.name] != digested:
            reasons = reasons + [f"digest {digested} differs from the committed {self.stored[op.name]}"]
        self.reference[i] = (digested, report, reasons)
        return reasons

    def measure(self, budget_s: float, between) -> list[float]:
        """Run passes until `budget_s` of pass time is spent; return each pass's time.

        `between(spent)` is called after every pass with the pass time spent so far.
        """
        passes: list[float] = []
        while len(passes) < MIN_PASSES or sum(passes) + statistics.median(passes) <= budget_s:
            passes.append(self.run_pass())
            between(sum(passes))
        return passes


def op_latencies(runner: Runner, passes: list[int] | None = None) -> list[float]:
    """Each op's median scaled latency in seconds, over all passes or the listed ones."""
    if passes is None:
        return [statistics.median(s) for s in runner.samples]
    return [statistics.median(s[p] for p in passes) for s in runner.samples]


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest percentile with at least ten ops beyond it: (value, percentile, ops beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    return ordered[n - 11], (100 * (n - 10)) // n, 10


class SetupTimer:
    """Times fresh interpreters that import linsuper, build the inputs and exit.

    Each child is timed from just before it is started until its inputs are
    built (the clock is system-wide), then times the reference kernel and
    prints both; its time is scaled like an operation's. The runs are spread
    over the measurement (`between_passes`) so that they see the whole run.
    """

    def __init__(self, args, budget_s: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload",
                    args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
        self.budget_s = budget_s
        self.times: list[float] = []
        self.raw: list[float] = []
        self._spawn()  # writes the bytecode caches; not counted
        self.times.clear()
        self.raw.clear()

    def _spawn(self) -> None:
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child at up to 50 ms intervals
        out = subprocess.run(self.cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        loaded, kernel_s = map(float, out.split())
        self.raw.append(loaded - start)
        self.times.append((loaded - start) * REFERENCE_S / kernel_s)

    def between_passes(self, spent_s: float) -> None:
        if len(self.times) < SETUP_RUNS and spent_s >= self.budget_s * len(self.times) / SETUP_RUNS:
            self._spawn()

    def seconds(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self._spawn()
        return statistics.median(self.times)


def work_dir(workload: str) -> Path:
    path = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def load_stored(args) -> dict[str, str] | None:
    if args.smoke or args.seed != COMMITTED_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text())["ops"].get(args.workload)


def run_workload(args) -> int:
    import workloads

    env = environment(args.seed)
    workdir = work_dir(args.workload)
    try:
        ops = workloads.build(args.workload, args.seed, ROOT, workdir, args.smoke)
        stored = load_stored(args)
        if args.trace:
            result = _traced(args, ops, stored)
        else:
            result = _untraced(args, ops, stored)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    runner, metrics, detail = result
    known = {name: r for name, r in runner.failures.items() if all(x.startswith(workloads.KNOWN_DEFECT) for x in r)}
    unexpected = {name: r for name, r in runner.failures.items() if name not in known}
    detail.update(
        workload=args.workload, env=env, ops=len(ops),
        fail_ratio=len(runner.failures) / len(ops),
        known_defect_ops=sorted(known), failures=unexpected,
    )
    print(f"workload {args.workload}: {len(ops)} ops, seed {args.seed}, python {env['python']}, "
          f"nproc {env['nproc']}, commit {env['commit']}")
    for name, value in metrics.items():
        print(f"  {name}: {value['value']:.6g} {value['unit']}")
    print(f"  fail_ratio: {detail['fail_ratio']:.4f} ratio ({len(runner.failures)} of {len(ops)} ops)")
    for name in known:
        print(f"  known defect: {name}")
    for name, reasons in unexpected.items():
        print(f"  FAILED {name}: {'; '.join(reasons)}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


def _untraced(args, ops, stored):
    runner = Runner(ops, stored)
    setup = SetupTimer(args, args.seconds)
    passes = runner.measure(args.seconds, setup.between_passes)
    latencies = op_latencies(runner)
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "wall_s": sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup.seconds(),
    }
    print(f"  op_tail_ms is p{pct}: {beyond} of {len(latencies)} ops are slower")
    print(f"  times are at the reference speed; as measured, wall_s "
          f"{sum(statistics.median(s) for s in runner.raw):.6g} s, setup_s {statistics.median(setup.raw):.6g} s")
    detail = {
        "passes": len(passes),
        "pass_s_median": statistics.median(passes),
        "tail": {"percentile": pct, "ops_beyond": beyond, "ops": len(latencies)},
        "op_ms": {op.name: lat * 1000 for op, lat in zip(ops, latencies)},
        "op_ms_raw": {op.name: statistics.median(s) * 1000 for op, s in zip(ops, runner.raw)},
        "wall_s_raw": sum(statistics.median(s) for s in runner.raw),
        "setup_s_raw": statistics.median(setup.raw),
        "kernel_ms": statistics.quantiles([k * 1000 for k in runner.speed.kernel_s], n=4),
    }
    return runner, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, detail


def _traced(args, ops, stored):
    from tracing import LAYER_METRICS, Tracer

    # Untraced and traced passes alternate, so that both see the same machine.
    runner = Runner(ops, stored)
    tracer = Tracer()
    untraced, traced, per_pass, spans = [], [], [], None
    times: list[float] = []
    while len(traced) < 1 or sum(times) + statistics.median(times) <= args.seconds:
        if len(untraced) <= len(traced):
            untraced.append(len(times))
            times.append(runner.run_pass())
            continue
        tracer.reset()
        tracer.install()
        runner.tracer = tracer
        traced.append(len(times))
        times.append(runner.run_pass())
        tracer.uninstall()
        runner.tracer = None
        per_pass.append(tracer.layer_metrics())
        spans = tracer.span_table()
    untraced_wall = sum(op_latencies(runner, untraced))
    traced_wall = sum(op_latencies(runner, traced))
    layer = {name: statistics.median(p[name] for p in per_pass) for name in LAYER_METRICS}
    print(f"  tracing overhead: {traced_wall - untraced_wall:.4f} s "
          f"(wall_s traced {traced_wall:.4f} s, untraced {untraced_wall:.4f} s)")
    print("  spans (last traced pass): calls, inclusive s, self s")
    for name, row in spans.items():
        print(f"    {name:38s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    detail = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "tracing_overhead_s": traced_wall - untraced_wall,
        "wall_s_untraced": untraced_wall,
        "wall_s_traced": traced_wall,
        "spans": spans,
    }
    return runner, {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in layer.items()}, detail


def setup_only(args) -> int:
    import workloads

    workdir = work_dir(args.workload)
    try:
        workloads.build(args.workload, args.seed, ROOT, workdir, args.smoke)
        loaded = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one calibration right after start-up is noisier than the operations' many
    print(loaded, statistics.median(kernel_seconds() for _ in range(5)))
    return 0


def record_digests(args) -> int:
    """Write bench/digests.json: one pass of every workload at the committed seed."""
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        workdir = work_dir(name)
        try:
            runner = Runner(workloads.build(name, COMMITTED_SEED, ROOT, workdir), None)
            runner.run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        # ops that fail a check (the known defect) get no digest, so fixing them is not a mismatch
        table[name] = {op.name: ref[0] for op, ref in zip(runner.ops, runner.reference) if not ref[2]}
        print(f"{name}: {len(table[name])} digests, {len(runner.ops) - len(table[name])} failing ops skipped")
    DIGESTS.write_text(json.dumps({"seed": COMMITTED_SEED, "ops": table}, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced; print one table."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
            results[name]["end_to_end" if trace == 0 else "per_layer"] = json.loads(lines[-1])
            results[name]["detail" if trace == 0 else "trace_detail"] = detail
    env = environment(args.seed)
    print(f"seed {args.seed}, python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, "
          f"{args.seconds} s per run")
    for name, res in results.items():
        e2e, detail = res["end_to_end"], res["detail"]
        print(f"{name} ({detail['ops']} ops, correct={e2e['correct']})")
        for metric, value in e2e["metrics"].items():
            extra = ""
            if metric == "op_tail_ms":
                t = detail["tail"]
                extra = f"  (p{t['percentile']}, {t['ops_beyond']} of {t['ops']} ops beyond)"
            print(f"  {metric:12s} {value['value']:12.6g} {value['unit']}{extra}")
        print(f"  {'fail_ratio':12s} {detail['fail_ratio']:12.6g} ratio  ({e2e['failed']} of {e2e['attempted']} ops"
              f"{', known defect only' if e2e['correct'] and e2e['failed'] else ''})")
        print(f"  tracing overhead {res['trace_detail']['tracing_overhead_s']:.4f} s")
        for metric, value in res["per_layer"]["metrics"].items():
            if value["value"]:
                print(f"    {metric:34s} {value['value']:12.6g} {value['unit']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"env": env, "seconds": args.seconds, "workloads": results},
                                       indent=1, sort_keys=True) + "\n")
    return 0 if all(r["end_to_end"]["correct"] and r["per_layer"]["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["large-instance", "circuit-search", "cli-corpus", "all"])
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness self-check")
    parser.add_argument("--out", type=Path, help="with --workload all: write the results as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite bench/digests.json from the committed seed")
    args = parser.parse_args(argv)
    _require_checkout()
    if args.record_digests:
        return record_digests(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
