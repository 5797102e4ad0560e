"""One operation of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py [--trace PATH] setup COMMANDS_JSON
    python3 perfbench/child.py [--trace PATH] cli POWERFREE_ARGS...
    python3 perfbench/child.py [--trace PATH] decompose --poly P --k K --Y Y --N N --out FILE

`setup` imports powerfree and powerfree.cli and parses every command line
of a workload (a JSON list of argument lists in the forms above), then
prints the imported package's path and exits: the set-up a user pays
before any sieve work starts. `cli` runs the powerfree command line
(`powerfree.cli.main`) and exits with its code. `decompose` calls the
public `powerfree.decompose_sum` and writes the result as JSON.

With --trace, the package is wrapped by spans.Tracer before the operation
runs, and the spans, counters and import time are written to PATH as JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

t0 = time.perf_counter()
import powerfree  # noqa: E402
import powerfree.cli  # noqa: E402
IMPORT_S = time.perf_counter() - t0


def decompose_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="decompose")
    ap.add_argument("--poly", required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--Y", type=int, required=True)
    ap.add_argument("--N", type=int, required=True)
    ap.add_argument("--out", required=True)
    return ap


def parse(command: list[str]):
    """-> a no-argument callable that runs the command and returns its code.

    A `cli` command is parsed here only to check it; main() parses it again,
    as the installed `powerfree` script would.
    """
    kind, rest = command[0], command[1:]
    if kind == "cli":
        powerfree.cli.build_parser().parse_args(rest)
        return lambda: powerfree.cli.main(rest)
    if kind == "decompose":
        a = decompose_parser().parse_args(rest)
        f = powerfree.IntPolynomial.parse(a.poly)

        def run() -> int:
            d = powerfree.decompose_sum(f, a.k, a.Y, a.N)
            with open(a.out, "w") as fh:
                json.dump(dataclasses.asdict(d), fh, sort_keys=True)
                fh.write("\n")
            return 0
        return run
    raise SystemExit(f"unknown command kind {kind!r}")


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[0] == "setup":
        for command in json.loads(argv[1]):
            parse(command)
        print(powerfree.__file__)
        return 0
    run = parse(argv)
    if trace_path is None:
        return run()
    from spans import Tracer

    tracer = Tracer()
    wrapped = tracer.install()
    try:
        return run()
    finally:
        record = tracer.snapshot()
        record["import_s"] = IMPORT_S
        record["wrapped"] = wrapped
        with open(trace_path, "w") as fh:
            json.dump(record, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
