"""Benchmark of ipl: seeded workloads, end-to-end metrics, and a traced run for per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weak-dense --seed 1 --seconds 32 --trace 0

Workloads are defined in ``workloads.py``. Set-up makes MAX_PASSES input
sets of the workload's operation mix; the run measures as many passes as fit
in --seconds, one operation at a time. The CPU speed of a shared 2-core x86
machine swings by up to 2x within seconds, and from one run to the next, so
a fixed reference kernel (no ipl code) is timed before and after every
operation, and the operation's time is rescaled to the speed at which that
kernel takes REF_NOMINAL_S. norm_wall_s is one pass at the per-operation
medians of those rescaled times over the passes; norm_op_p50_ms and
norm_op_tail_ms are Harrell-Davis estimates of percentiles over the same
medians. setup_s is not rescaled. The raw wall times are printed and
recorded beside the rescaled ones. Every output is checked after the timed
phase.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each pass
untraced and then traced, issues the CLI command set once as a probe,
times the linalg kernels on the workload's own matrices and the CLI start-up
in fresh interpreters, and reports the per-layer metrics and the tracing
overhead. Both print a summary with every metric's unit and sample count,
then the result as one JSON line, and write the environment, the work
counts, any failures and (traced) the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
# Input sets made at set-up; a run uses as many as fit in --seconds.
MAX_PASSES = 12
# A median over passes needs two; the second is skipped only past DEADLINE_S,
# so a much slower revision still exits within 180 s.
MIN_PASSES = 2
DEADLINE_S = 60.0
STARTUP_REPS = 3
KERNEL_MATRICES = 12
KERNEL_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import time; t = time.perf_counter(); import ipl; print(time.perf_counter() - t)"
TAIL_BEYOND = 10
# The reference kernel: REF_LOOPS support-partition steps on a fixed 8 x 8
# matrix, written out with the numpy and scipy calls an exact conformality
# scan makes per partition, and no ipl code, so that no change to ipl moves
# it. It tracks the machine's speed for this work better than a plain numpy
# loop does. About 3 ms on a 2-core x86 sandbox at its fastest.
REF_LOOPS = 40
REF_NOMINAL_S = 3e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_kernel():
    """A fixed call that returns how long REF_LOOPS partition steps took at the machine's current speed."""
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve, eigh

    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))
    a = (q * np.linspace(1.0, 3.0, 8)) @ q.T
    a, s, t = 0.5 * (a + a.T), np.arange(4), np.arange(4, 8)

    def seconds() -> float:
        t0 = time.perf_counter()
        for _ in range(REF_LOOPS):
            m_st = a[np.ix_(s, t)]
            inner = m_st @ cho_solve(cho_factor(a[np.ix_(t, t)]), m_st.T)
            eigh(inner, a[np.ix_(s, s)], eigvals_only=True)
        return time.perf_counter() - t0

    return seconds


def timed_ops(ops, reference) -> list:
    """Run each operation once, between two runs of the reference kernel:
    (op, seconds, output, exception, seconds at the reference speed)."""
    rows = []
    before = reference()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.root.fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, exc
        dt = time.perf_counter() - t0
        after = reference()
        rows.append((op, dt, out, err, dt * REF_NOMINAL_S / (0.5 * (before + after))))
        before = after
    return rows


def traced_op(tracer, op, op_id: str):
    t0 = time.perf_counter()
    try:
        out, sid = tracer.call(op.root.name, op.root.fn, op=op_id, **op.root.attrs)
        tracer.replay(op.replay(out), op=op_id, parent=sid)
        err = None
    except Exception as exc:
        out, err = None, exc
    return op, time.perf_counter() - t0, out, err, None


def problems(row) -> list:
    op, _, out, err, _ = row
    if err is not None:
        return [f"raised {type(err).__name__}: {err}"]
    try:
        return op.check(out)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order statistics
    weighted by a Beta(q(n+1), (1-q)(n+1)) density. A single order statistic
    jumps whenever it falls at a gap between two operation sizes."""
    import numpy as np

    x, n, grid = np.sort(values), len(values), 256
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = (np.arange(n * grid) + 0.5) / (n * grid)
    log_density = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    weights = np.exp(log_density - log_density.max()).reshape(n, grid).sum(axis=1)
    return float(weights @ x / weights.sum())


def tail(per_op: list) -> tuple[float, float]:
    """The highest percentile of the per-operation medians with at least TAIL_BEYOND
    measurements above it, counting MIN_PASSES per operation, so that the rank
    does not move with the number of passes: (percentile, value)."""
    above = -(-TAIL_BEYOND // MIN_PASSES)
    if len(per_op) <= above:
        return 100.0, max(per_op)
    pct = math.floor(100.0 * (len(per_op) - above) / len(per_op))
    return pct, quantile(per_op, pct / 100.0)


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ipl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def work_summary(ops_by_pass) -> dict:
    """Exact work per pass from input shapes, and the share on structured matrices."""
    total = {"partitions": 0, "cuts": 0, "pairs": 0, "structured_partitions": 0}
    for op in ops_by_pass[0]:
        for key, value in op.work().items():
            total[key] += value
    total["structured_partition_share"] = (
        total["structured_partitions"] / total["partitions"] if total["partitions"] else 0.0
    )
    return total


def kernel_us(matrices) -> dict:
    """linalg kernels on the workload's own matrices, each call on a fresh SpdMatrix
    so the lazily cached factors are part of the timed call: {name: [us, ...]}."""
    import numpy as np

    from ipl import SpdMatrix, gen_eig, sym_eig

    seen, picked = set(), []
    for m in matrices:
        if m.dim >= 2 and id(m) not in seen:
            seen.add(id(m))
            picked.append(m)
    picked = picked[:: max(1, len(picked) // KERNEL_MATRICES)][:KERNEL_MATRICES]
    out = {"solve": [], "gen_eig": [], "sym_eig": []}
    for m in picked:
        a = m.entries
        s, t = np.arange(m.dim // 2), np.arange(m.dim // 2, m.dim)
        # The pencil one support partition poses: M_ST M_TT^-1 M_TS against M_SS.
        pencil = a[np.ix_(s, t)] @ np.linalg.solve(a[np.ix_(t, t)], a[np.ix_(t, s)])
        pencil = 0.5 * (pencil + pencil.T)
        rhs = np.ones(m.dim)
        for _ in range(KERNEL_REPS):
            fresh, block = SpdMatrix(a), SpdMatrix(a[np.ix_(s, s)])
            t0 = time.perf_counter()
            fresh.solve(rhs)
            t1 = time.perf_counter()
            sym_eig(a)
            t2 = time.perf_counter()
            gen_eig(pencil, block)
            t3 = time.perf_counter()
            out["solve"].append(1e6 * (t1 - t0))
            out["sym_eig"].append(1e6 * (t2 - t1))
            out["gen_eig"].append(1e6 * (t3 - t2))
    return out


def startup_ms() -> tuple[list, list]:
    """``python -m ipl --version`` wall time, and ``import ipl`` timed inside a fresh interpreter."""
    from cli_ops import run_python

    version, imports = [], []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        run_python(["-m", "ipl", "--version"])
        version.append(1e3 * (time.perf_counter() - t0))
        imports.append(1e3 * float(run_python(["-c", IMPORT_PROBE]).stdout))
    return version, imports


def run_passes(ops_by_pass, seconds: float, run_pass) -> int:
    """Call run_pass(p, ops) for p = 0, 1, ... while the next pass, at the mean pass
    time so far, still ends within ``seconds``; at least MIN_PASSES passes unless
    that would go past DEADLINE_S. Returns the number of passes run."""
    start = time.perf_counter()
    done = 0
    while done < len(ops_by_pass):
        elapsed = time.perf_counter() - start
        fits = done == 0 or elapsed * (done + 1) / done <= seconds
        if not (fits or (done < MIN_PASSES and elapsed < DEADLINE_S)):
            break
        run_pass(done, ops_by_pass[done])
        done += 1
    return done


def slot_medians(rows, slots: int, column: int) -> list:
    """Each operation slot's median time over the passes, skipping failed runs;
    column 1 is the raw time, column 4 the time at the reference speed."""
    times = [[] for _ in range(slots)]
    for n, row in enumerate(rows):
        if row[3] is None:
            times[n % slots].append(row[column])
    return [statistics.median(t) for t in times if t]


def main(argv=None) -> int:
    args = parse_args(argv)
    # One client in one process: BLAS gets one thread, here and in every child.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "ipl" / "__init__.py").is_file():
        print(f"error: no ipl sources at {SRC / 'ipl'}; run from the root of an ipl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ipl

    import_s = time.perf_counter() - t0
    if Path(ipl.__file__).resolve().parent != (SRC / "ipl").resolve():
        print(f"error: imported ipl from {ipl.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # These import numpy and ipl, so they load after the timed import.
    from cli_ops import run_python
    from inputs import Build
    from spans import PROBE, Tracer, layer_metrics
    from workloads import WORKLOADS, probe

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    # Set-up, SETUP_REPS times: import ipl (here once, then in fresh interpreters)
    # plus generating, writing and building the inputs of every pass.
    workdir = OUT / f"inputs-{wl.name}-{args.seed}"
    imports = [import_s] + [float(run_python(["-c", IMPORT_PROBE]).stdout) for _ in range(SETUP_REPS - 1)]
    setups, builds = [], []
    for imported in imports:
        shutil.rmtree(workdir, ignore_errors=True)
        build = Build()
        t0 = time.perf_counter()
        ops_by_pass = [wl.build(args.seed, p, build, workdir / f"pass{p}") for p in range(MAX_PASSES)]
        setups.append(imported + time.perf_counter() - t0)
        builds.append(build)
    slots = len(ops_by_pass[0])

    rows, notes, metrics, raw = [], {}, {}, {}
    tracer = Tracer()
    reference = reference_kernel()
    reference()  # the first call pays for scipy's lazy loading
    if args.trace:
        times = {"plain": 0.0, "traced": 0.0}

        def pass_pair(p, ops):
            plain = timed_ops(ops, reference)
            traced = [traced_op(tracer, op, f"{p}.{i}") for i, op in enumerate(ops)]
            rows.extend(plain + traced)
            times["plain"] += sum(row[1] for row in plain)
            times["traced"] += sum(row[1] for row in traced)

        done = run_passes(ops_by_pass, args.seconds, pass_pair)
        rows += [traced_op(tracer, op, PROBE) for op in probe(args.seed, Build(), workdir / "probe")]
        layer, notes = layer_metrics(tracer, done)
        metrics.update(layer)
        spd_ms = statistics.median(1e3 * sum(b.spd_seconds) / MAX_PASSES for b in builds)
        metrics["linalg.spd_init_ms"] = (spd_ms, "ms")
        metrics["linalg.spd_init_calls"] = (len(builds[0].spd_seconds) / MAX_PASSES, "count")
        notes["linalg.spd_init_ms"] = notes["linalg.spd_init_calls"] = (SETUP_REPS, "set-ups, per pass")
        for name, us in kernel_us(builds[0].matrices).items():
            metrics[f"linalg.{name}_us"] = (statistics.median(us), "us")
            notes[f"linalg.{name}_us"] = (len(us), "calls")
        version, fresh_imports = startup_ms()
        metrics["cli.startup_ms"] = (statistics.median(version), "ms")
        metrics["cli.import_ms"] = (statistics.median(fresh_imports), "ms")
        notes["cli.startup_ms"] = notes["cli.import_ms"] = (STARTUP_REPS, "fresh interpreters")
        extra = times["traced"] - times["plain"]
        metrics["trace.overhead_s"] = (extra / done, "s")
        metrics["trace.overhead_pct"] = (100.0 * extra / times["plain"], "%")
        notes["trace.overhead_s"] = notes["trace.overhead_pct"] = (done, "pass pairs")
    else:
        done = run_passes(ops_by_pass, args.seconds, lambda p, ops: rows.extend(timed_ops(ops, reference)))
        scaled, wall = slot_medians(rows, slots, 4), slot_medians(rows, slots, 1)
        pct, tail_s = tail(scaled)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        metrics = {
            "norm_wall_s": (sum(scaled), "s"),
            "norm_op_p50_ms": (1e3 * quantile(scaled, 0.5), "ms"),
            "norm_op_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        per_op = f"operations, each its median of {done} passes at the reference speed; Harrell-Davis"
        notes = {
            "norm_wall_s": (len(scaled), f"operations of one pass, each its median of {done} passes at the reference speed"),
            "norm_op_p50_ms": (len(scaled), per_op),
            "norm_op_tail_ms": (len(scaled), f"{per_op}; p{pct:g}, {TAIL_BEYOND}+ measurements above"),
            "peak_rss_mb": (1, "benchmark process"),
            "setup_s": (SETUP_REPS, f"set-ups; import ipl took {', '.join(f'{t:.3f}' for t in imports)} s"),
        }
        raw = {
            "wall_s": sum(wall),
            "op_p50_ms": 1e3 * quantile(wall, 0.5),
            "op_tail_ms": 1e3 * tail(wall)[1],
            "reference_ms": 1e3 * statistics.median(row[1] * REF_NOMINAL_S / row[4] for row in rows),
        }

    failures = [(row[0].label, found) for row in rows if (found := problems(row))]
    attempted, failed = len(rows), len(failures)
    if not args.trace:
        metrics["ok_rate"] = (100.0 * (attempted - failed) / attempted, "%")
        notes["ok_rate"] = (attempted, "operations")
    shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, done)
    work = work_summary(ops_by_pass)
    print(f"ipl benchmark: workload {wl.name} ({wl.why})")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("work per pass: " + json.dumps(work, sort_keys=True))
    for name, (value, unit) in metrics.items():
        samples, what = notes[name]
        print(f"  {name:32s} {value:16.6g} {unit:6s} n={samples} {what}")
    for name, value in raw.items():
        print(f"  {'(raw, not rescaled) ' + name:32s} {value:16.6g}")
    for label, found in failures:
        print(f"FAILED {label}: {'; '.join(found)}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": env,
        "work_per_pass": work,
        "metrics": {k: {"value": v, "unit": u, "samples": notes[k][0], "note": notes[k][1]} for k, (v, u) in metrics.items()},
        "raw": raw,
        "operations": [{"label": row[0].label, "seconds": row[1], "scaled_seconds": row[4]} for row in rows],
        "failures": [{"label": label, "problems": found} for label, found in failures],
        "spans": tracer.to_list(),
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
