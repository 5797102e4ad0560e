"""Sets of benchmark runs, and the spread and drift of their metrics.

    python3 perfbench/sets.py run --seeds 1-10 --out perfbench/out/set-a.jsonl
    python3 perfbench/sets.py summary perfbench/out/set-a.jsonl [set-b.jsonl]
    python3 perfbench/sets.py layers perfbench/out/traced.jsonl
    python3 perfbench/sets.py loop --times 10

`run` makes one run of run.py per seed and workload, interleaving the
workloads (seed 1 of every workload, then seed 2, ...) so that a slow spell
of the host spreads over all of them, and appends each result line to the
output file. `summary` prints, per workload and metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median of
one set, and with a second set the drift of its median against the first.
`layers` prints the median of every per-layer metric of a set of traced
runs (`run --trace 1`), one column per workload.
`loop` times a fixed pure-Python loop in fresh interpreters, a reference
for how much this host's speed varies on its own; `run --loop` times it
once before every run, so that a set's drift can be set against the host's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOP = ("import time\nt = time.perf_counter()\ns = 0\n"
        "for i in range(10_000_000):\n    s += i * i % 7\n"
        "print(time.perf_counter() - t)")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def loop_s() -> float:
    return float(subprocess.run([sys.executable, "-c", LOOP],
                                capture_output=True, text=True).stdout)


def cmd_run(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as fh:
        for seed in args.seeds:
            for name in names:
                loop = loop_s() if args.loop else None
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "run.py"),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                record = {"workload": name, "seed": seed, "trace": args.trace,
                          "rc": proc.returncode,
                          "run_s": time.perf_counter() - t0, "loop_s": loop,
                          "result": json.loads(lines[-1]) if lines else None}
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                print(f"{name} seed {seed}: rc {proc.returncode}, "
                      f"{record['run_s']:.1f} s", file=sys.stderr)


def load(path: str) -> dict:
    """{workload: {metric: [values]}} plus per-workload failure shares."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        res = rec["result"]
        w = out.setdefault(rec["workload"],
                           {"_runs": [], "_failed": set(), "_loop": []})
        w["_runs"].append(rec["run_s"])
        if rec.get("loop_s") is not None:
            w["_loop"].append(rec["loop_s"])
        w["_failed"].add((res["failed"], res["attempted"], res["correct"]))
        for name, m in res["metrics"].items():
            w.setdefault(name, []).append(m["value"])
    return out


def stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def cmd_summary(args) -> None:
    sets = [load(p) for p in args.sets]
    two = len(sets) > 1
    print("| workload | metric | runs | median | q1 | q3 | spread |"
          + (" median B | q1 B | q3 B | spread B | drift |" if two else ""))
    print("| --- " * (7 + 5 * two) + "|")
    for wname, w in sets[0].items():
        for metric, values in w.items():
            if metric.startswith("_"):
                continue
            med, q1, q3, spread = stats(values)
            row = (f"| {wname} | {metric} | {len(values)} | {med:.5g} | "
                   f"{q1:.5g} | {q3:.5g} | {spread:.3f} |")
            if two:
                med2, q12, q32, spread2 = stats(sets[1][wname][metric])
                row += (f" {med2:.5g} | {q12:.5g} | {q32:.5g} | "
                        f"{spread2:.3f} | {(med2 - med) / med:+.3f} |")
            print(row)
    for i, s in enumerate(sets):
        for wname, w in s.items():
            print(f"set {'AB'[i]} {wname}: run time median "
                  f"{statistics.median(w['_runs']):.1f} s, "
                  f"max {max(w['_runs']):.1f} s; (failed, attempted, correct) "
                  f"{sorted(w['_failed'])}")
            if len(w["_loop"]) > 1:
                med, q1, q3, spread = stats(w["_loop"])
                print(f"  reference loop before these runs: median {med:.3f}"
                      f" s, q1 {q1:.3f}, q3 {q3:.3f}, spread {spread:.3f}")


def cmd_layers(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load(args.set)
    names = [w["name"] for w in spec["workloads"] if w["name"] in runs]
    print("| per-layer metric | unit | " + " | ".join(names) + " |")
    print("| --- " * (2 + len(names)) + "|")
    for m in spec["per_layer"]:
        meds = [statistics.median(runs[w][m["name"]]) for w in names]
        cells = [f"{v:,.0f}" if v == int(v) else f"{v:.4g}" for v in meds]
        print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")


def cmd_loop(args) -> None:
    times = [loop_s() for _ in range(args.times)]
    med, q1, q3, spread = stats(times)
    print(f"reference loop, {args.times} runs: min {min(times):.3f} s, "
          f"median {med:.3f} s, max {max(times):.3f} s, q1 {q1:.3f}, "
          f"q3 {q3:.3f}, spread {spread:.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", type=seeds_arg, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--loop", action="store_true",
                   help="time the reference loop before every run")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("summary")
    p.add_argument("sets", nargs="+")
    p.set_defaults(fn=cmd_summary)
    p = sub.add_parser("layers")
    p.add_argument("set")
    p.set_defaults(fn=cmd_layers)
    p = sub.add_parser("loop")
    p.add_argument("--times", type=int, default=10)
    p.set_defaults(fn=cmd_loop)
    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
