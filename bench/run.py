"""dx benchmark: one workload, one seed, timed passes, checked answers.

    python3 bench/run.py --workload ef_chain --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): ``ef_chain`` (fast-path scaling on the EF
chain), ``agree_random`` (fast = general = oracle on random packed triples)
and ``materialize`` (chase, core and a positive query on random sources).

Load is one closed-loop client in this process: each operation starts after
the previous one returned.  The process runs under a fixed string-hash seed
(see ``pin_hash_seed``).  A run repeats whole passes over the workload's
inputs for as long as they fit into ``--seconds``.  Every time it reports
is paced (see pace.py): measured while the machine's pace is sampled, and
scaled to the seconds it would take at a fixed reference pace, because the
shared host's own pace moves raw times by a third from run to run.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it spends
half the time untraced and half with every layer boundary wrapped, and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  Both, with pass
and operation times (and the spans of a traced run), also go to
``bench/out``.  A wrong answer makes ``correct`` false and the exit code
1.  Without ``src/dx`` next to this directory the run exits with code 2 and
prints no result.

``--smoke`` runs tiny sizes for a quick end-to-end check of the harness.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from pace import Pace
from stats import fit_exponent, percentile
from tracing import LAYER_METRICS, LAYER_UNITS, Tracer, install_dx_tracing, layer_values
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DX_MODULES = ("cli", "textio", "chase", "corelib", "minrep", "gcwa", "logic",
              "oracle", "randgen", "errors", "model")
SETUP_REPEATS = 5
HASH_SEED = "0"


def import_dx() -> SimpleNamespace:
    """Import dx afresh, dropping any earlier import, so that every set-up
    pays the import again."""
    for name in [m for m in sys.modules if m == "dx" or m.startswith("dx.")]:
        del sys.modules[name]
    importlib.import_module("dx")
    return SimpleNamespace(**{m: importlib.import_module(f"dx.{m}") for m in DX_MODULES})


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(wl, dx, state, seconds: float,
            pace: Pace) -> Tuple[List[List[Op]], List[float], List[float]]:
    """Whole passes while another pass of median length still ends within
    ``seconds`` (at least one pass).  Returns the passes, their paced
    times (the sum of their operations' paced times) and their raw times."""
    passes: List[List[Op]] = []
    walls: List[float] = []
    raw: List[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(raw) <= seconds:
        if passes:
            state = wl.fresh(dx, state)
        t0 = time.perf_counter()
        ops = wl.run_pass(dx, state)
        raw.append(time.perf_counter() - t0)
        walls.append(sum(pace.seconds(op.start, op.end) for op in ops))
        passes.append(ops)
    return passes, walls, raw


def end_to_end(passes: List[List[Op]], walls: List[float],
               setups: List[float], pace: Pace) -> Dict[str, float]:
    """The end-to-end metrics.  An operation's latency is its mean over the
    run's passes: single repetitions move by up to a factor of two with the
    load of the machine's neighbours, and a percentile over single
    repetitions flips with it."""
    ops = [op for ops in passes for op in ops]
    by_label: Dict[str, List[float]] = {}
    by_size: Dict[int, List[float]] = {}
    for op in ops:
        seconds = pace.seconds(op.start, op.end)
        by_label.setdefault(op.label, []).append(seconds)
        by_size.setdefault(op.size, []).append(seconds)
    latencies = [statistics.mean(ts) for ts in by_label.values()]
    sizes = sorted(by_size)
    return {
        "wall_s": statistics.median(walls),
        "op_s_p50": statistics.median(latencies),
        "op_s_p90": percentile(latencies, 90),
        "answered_ratio": sum(op.answered for op in ops) / len(ops),
        "size_exponent": fit_exponent(sizes, [statistics.median(by_size[s]) for s in sizes]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {"wall_s": "s", "op_s_p50": "s", "op_s_p90": "s", "answered_ratio": "ratio",
             "size_exponent": "1", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", help="comma-separated sizes (default: the workload's)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dx" / "__init__.py").is_file():
        print(f"error: no dx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]
    if args.sizes:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    else:
        sizes = wl.smoke_sizes if args.smoke else wl.sizes
    load_before = os.getloadavg()
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "work")
    pace = Pace()
    pace.start()
    try:
        repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
        setups = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            dx = import_dx()
            state = wl.setup(dx, args.seed, sizes, workdir)
            setups.append(pace.seconds(t0, time.perf_counter()))

        if args.trace:
            passes, walls, raw_walls = measure(wl, dx, state, args.seconds / 2, pace)
            tracer = Tracer()
            install_dx_tracing(tracer, vars(dx))
            try:
                state = wl.fresh(dx, state)
                traced, traced_walls, _ = measure(wl, dx, state, args.seconds / 2, pace)
            finally:
                tracer.uninstall()
            metrics = layer_values(tracer, len(traced))
            metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                               / statistics.median(walls))
            units = {name: LAYER_UNITS[kind] for name, (kind, _) in LAYER_METRICS.items()}
            units.update({"gcwa.reps_cache_hit_ratio": "ratio", "trace.overhead_ratio": "ratio"})
            passes = passes + traced
        else:
            passes, walls, raw_walls = measure(wl, dx, state, args.seconds, pace)
            metrics = end_to_end(passes, walls, setups, pace)
            units = E2E_UNITS
        errors = wl.check(dx, state, passes)
    finally:
        pace.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for pass_ops in passes for op in pass_ops]
    env = {
        "workload": args.workload, "seed": args.seed, "sizes": list(sizes),
        "seconds": args.seconds, "trace": args.trace, "passes": len(walls),
        "traced_passes": len(traced_walls) if args.trace else 0,
        "pace": pace.factor(), "pace_samples": len(pace.took),
        "raw_pass_s": statistics.median(raw_walls),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "loadavg_before": list(load_before), "loadavg_after": list(os.getloadavg()),
        "git_commit": git_commit(), "declined_ops": sum(not op.answered for op in ops),
        "errors": errors[:20],
    }
    detail = {"pass_seconds": walls + (traced_walls if args.trace else []),
              "ops": [[op.label, op.size, pace.seconds(op.start, op.end), op.end - op.start,
                       op.answered] for op in ops]}
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({"env": env, **result, **detail}) + "\n")
    if args.trace:
        (out / f"{stem}_spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    for line in errors[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if not errors else 1


def pin_hash_seed() -> None:
    """Re-execute this process, once, under a fixed string-hash seed.

    dx's searches walk sets of values, and the order of a walk follows the
    interpreter's per-process hash seed: on ef_chain the same inputs take up
    to a fifth longer or shorter from one seed to the next.  A fixed seed
    makes runs of the same inputs comparable.  ``execv`` replaces this
    process; it starts no other."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    pin_hash_seed()
    raise SystemExit(main())
