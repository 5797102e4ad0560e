"""Benchmark of the powerfree pipeline: k-free masks, root collection,
Euler products, Omega histograms and the k-th-power table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout it sits in (the package under
src/, the metric list in BENCHMARK.json). Every operation is one fresh
interpreter running perfbench/child.py, one at a time (a closed loop with a
single client), and every CLI command passes --threads 2. A run does whole
rounds of the workload's operations for about --seconds, with
SETUP_LAUNCHES timed set-up launches before each round and after the last,
then checks every operation's artifacts against references computed apart
from the program (checks.py). The last line of standard output is the
result as JSON.

With --trace 1 the first round runs untraced and the later ones under the
span tracer of spans.py; the run reports the per-layer metrics of the
traced rounds and the tracing overhead, traced wall_s minus untraced.

The process keeps to the standard library until every measured child has
exited: on Linux a child's ru_maxrss starts at its parent's RSS when it
is spawned, so a large parent would show in every peak_rss_mb.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
THREADS = "2"
SETUP_LAUNCHES = 3
# no new round starts unless this much time is left after it, for the checks
CHECK_RESERVE_S = 40.0
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Op:
    """One command of a workload, the artifacts it writes into the
    workload's output directory, and the largest N it works to."""

    name: str
    command: tuple[str, ...]
    files: tuple[str, ...]
    N: int


def _repro(exp: str, out: str, N: int) -> Op:
    return Op(exp, ("cli", "repro", exp, "--out", out, "--threads", THREADS),
              (f"{exp}.csv", f"{exp}.json"), N)


def workload(name: str, seed: int, out: str) -> tuple[list[Op], dict]:
    """The operations of a workload and the parameters its checks need.
    The seed picks the free inputs: eftail's smallest checkpoint and the
    decompose_sum N just past the 3*10^5 table-sieve cap."""
    rng = random.Random(seed)
    if name == "ergodic-wide":
        return ([_repro("cor42", out, 10 ** 7), _repro("thm31", out, 10 ** 7)],
                {"cor42_first": 10 ** 5, "thm31_N": 10 ** 7, "P": 10 ** 6})
    if name == "cubic-roots":
        first = 1000 + rng.randrange(100)
        eftail = Op("eftail",
                    ("cli", "eftail", "--poly", "5,0,0,1", "--k", "2",
                     "--N", "20000", "--checkpoints", f"{first},5000,20000",
                     "--out", f"{out}/eftail.csv", "--threads", THREADS),
                    ("eftail.csv",), 20000)
        return ([_repro("hb17", out, 10 ** 6), _repro("browning18", out, 10 ** 6),
                 eftail],
                {"count_first": 10 ** 4, "eftail_first": first, "P": 10 ** 6})
    if name == "quad-decompose":
        N = 300_001 + rng.randrange(500)
        return ([Op("decompose",
                    ("decompose", "--poly", "1,0,1", "--k", "2", "--Y", "1000",
                     "--N", str(N), "--out", f"{out}/decompose.json"),
                    ("decompose.json",), N)],
                {"N": N, "Y": 1000})
    raise SystemExit(f"unknown workload {name!r}")


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str


def spawn(args: list[str], env: dict, deadline: float, log=None) -> Proc:
    """Run one child to its end; its own rusage comes from wait4. A timer
    kills it at the run's deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=env, stdin=subprocess.DEVNULL,
                            stdout=log or subprocess.PIPE,
                            stderr=log or subprocess.DEVNULL)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode() if log is None else ""
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return Proc(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0, out)


def run_round(ops, outdir: Path, env, deadline, trace_dir=None) -> dict:
    for op in ops:
        for f in op.files:
            (outdir / f).unlink(missing_ok=True)
    procs = []
    t0 = time.perf_counter()
    for op in ops:
        extra = [] if trace_dir is None else ["--trace", str(trace_dir / f"{op.name}.json")]
        with open(outdir / f"{op.name}.log", "wb") as log:
            procs.append(spawn(extra + list(op.command), env, deadline, log))
    wall = time.perf_counter() - t0
    files = []
    for op, p in zip(ops, procs):
        got = {}
        for f in op.files:
            path = outdir / f
            if path.exists():
                got[f] = path.read_bytes()
        files.append(got)
    return {"wall_s": wall, "cpu_s": sum(p.cpu_s for p in procs),
            "peak_rss_mb": max(p.maxrss_mb for p in procs),
            "rc": [p.rc for p in procs], "files": files}


def layer_metrics(ops, trace_dir: Path) -> tuple[dict, set]:
    """Per-layer metrics of one traced round, summed over its operations,
    and the metric names the tracer can produce."""
    from spans import COUNTER_NAMES, MAX_COUNTERS

    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    import_s, wrapped = [], set()
    for op in ops:
        rec = json.loads((trace_dir / f"{op.name}.json").read_text())
        import_s.append(rec["import_s"])
        wrapped.update(rec["wrapped"])
        for fn, (calls, _, self_s) in rec["spans"].items():
            acc = spans.setdefault(fn, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key, v in rec["counters"].items():
            counters[key] = (max(counters.get(key, 0), v) if key in MAX_COUNTERS
                             else counters.get(key, 0) + v)
    out = {"setup.import_s": statistics.median(import_s)}
    for fn, (calls, self_s) in spans.items():
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = self_s
    out.update(counters)
    primes = counters.get("local_roots.batch_roots.primes", 0)
    out["local_roots.batch_roots.hit_ratio"] = (
        counters.get("local_roots.batch_roots.primes_with_roots", 0) / primes
        if primes else 0.0)
    known = ({f"{fn}.{kind}" for fn in wrapped for kind in ("calls", "self_s")}
             | COUNTER_NAMES | set(out) | {"trace.overhead_s"})
    return out, known


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    package = ROOT / "src" / "powerfree"
    if not (package / "__init__.py").is_file():
        print(f"no powerfree package at {package}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    ops, params = workload(args.workload, args.seed,
                           str(outdir.relative_to(ROOT)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    # set-up: one launch to fill the bytecode cache and confirm which
    # package the children import; the timed launches are spread over the
    # run, SETUP_LAUNCHES before each round and after the last one
    setup_args = ["setup", json.dumps([list(op.command) for op in ops])]
    first = spawn(setup_args, env, deadline)
    imported = Path(first.stdout.strip()).resolve()
    if first.rc != 0 or imported.parent != package.resolve():
        print(f"set-up launch failed (rc {first.rc}, imported {imported})",
              file=sys.stderr)
        return 2
    setup: list[float] = []

    def time_setup() -> None:
        if not args.trace:
            setup.extend(spawn(setup_args, env, deadline).wall_s
                         for _ in range(SETUP_LAUNCHES))

    rounds, layers = [], []
    trace_dir = outdir / "trace"
    trace_dir.mkdir()
    t_measure = time.monotonic()
    while True:
        time_setup()
        traced = bool(args.trace and rounds)
        rounds.append(run_round(ops, outdir, env, deadline,
                                trace_dir if traced else None))
        if traced:
            layers.append(layer_metrics(ops, trace_dir))
        print(f"[{args.workload}] round {len(rounds)}: "
              f"{rounds[-1]['wall_s']:.2f} s", file=sys.stderr)
        now = time.monotonic()
        last = rounds[-1]["wall_s"]
        # a round that would end more than half a round past --seconds is
        # not started, so a run measures --seconds give or take half a round;
        # a traced run needs its untraced round and one traced round
        enough = (now - t_measure + last / 2 >= args.seconds
                  and len(rounds) > args.trace)
        if (any(rounds[-1]["rc"]) or enough
                or deadline - now < 1.5 * last + CHECK_RESERVE_S):
            break
    time_setup()
    if args.trace and not layers:
        print("no time left for a traced round", file=sys.stderr)
        return 2

    # every measured child has exited; the checks may now use memory
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    refs = checks.references(args.workload, params, args.seed)
    attempted = failed = 0
    correct = True
    for i, rnd in enumerate(rounds):
        for j, op in enumerate(ops):
            attempted += 1
            files = rnd["files"][j]
            if rnd["rc"][j] != 0 or set(files) != set(op.files):
                failed += 1
                print(f"round {i + 1} {op.name}: rc {rnd['rc'][j]}, "
                      f"artifacts {sorted(files)}", file=sys.stderr)
                continue
            try:
                errors = checks.check(op.name, files, refs, params)
            except Exception as e:  # a malformed artifact is a wrong output
                errors = [f"{type(e).__name__}: {e}"]
            if i and files != rounds[0]["files"][j]:
                errors.append("artifacts differ from round 1")
            if errors:
                failed += 1
                correct = False
                print(f"round {i + 1} {op.name}: " + "; ".join(errors),
                      file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        base = rounds[0]["wall_s"]
        traced_wall = statistics.median(r["wall_s"] for r in rounds[1:])
        values = {k: statistics.median(d.get(k, 0) for d, _ in layers)
                  for k in set().union(*(d for d, _ in layers))}
        values["trace.overhead_s"] = traced_wall - base
        known = set().union(*(k for _, k in layers))
        names = [m["name"] for m in spec["per_layer"]]
        unknown = [n for n in names if n not in known]
        if unknown:
            print(f"the tracer cannot produce {unknown}", file=sys.stderr)
            return 2
        with open(trace_dir / "layers.json", "w") as fh:
            json.dump(values, fh, sort_keys=True, indent=1)
    else:
        wall = statistics.median(r["wall_s"] for r in rounds)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "n_per_s": sum(op.N for op in ops) / wall,
            "setup_s": statistics.median(setup),
        }
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {n: {"value": values.get(n, 0), "unit": units[n]} for n in names}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
