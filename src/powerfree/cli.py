"""Command-line front end for the sieves, densities, and ergodic averages.

Descriptor grammars:

  polynomial   ascending coefficients "c0,c1,...": "1,0,1" is 1 + x^2;
               a '*' joins factors for product sieves: "1,0,1*2,0,1"
  system       "twopoint:g0,g1,x"
               "cyclic:m,x,v0;v1;...;v_{m-1}"
               "circle:alpha,x,trig" with alpha a float or "golden", and
               trig a '+'-joined list of terms: "1.0", "0.5cos3", "2sin1"
  condition    "all" | "kfree:POLY:k" | "twinsqfree" | "product:POLY:k"
  argmap       "identity" | "prog:m,r" | "beatty:alpha,beta"
               (alpha, beta accept "13/8" style exact rationals)

Every artifact goes through emit, as CSV rows or a JSON document. `count`
and the count experiments share count_rows, `ergodic` and the ergodic ones
report_rows. REPRO holds the `repro` experiments as Experiment specs; only
thm31's progression grid is a function.

Exit codes: 0 success, 2 usage error (including a checkpoint above --N, an
--out path that cannot be written and a descriptor with the wrong number of
fields), 3 capacity exceeded (rho --primes above kfree.ROOT_LIMIT among
others, or an allocation the machine refuses), 4 hypothesis violation (the
message names the violated hypothesis).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction

import numpy as np

from .density import DensityResult, density
from .dynamics import (GOLDEN_ROTATION, CyclicRotation, IrrationalRotation,
                       PairObservable, TrigObservable, TwoPointSwap,
                       VectorObservable, orbit_table)
from .ergodic import (AllIntegers, BeattyMap, ProductKfree, ProgressionMap,
                      TwinSquarefree, convergence_report, default_j_max,
                      ergodic_average, exponent_fit, omega_histograms)
from .errors import CapacityError, HypothesisViolation
from .kfree import (ROOT_LIMIT, KfreeSieve, checkpoint_counts, count_kfree,
                    kfree_range, tail_pair_counts, twin_squarefree_range)
from .local_roots import batch_root_counts, local_root_count
from .poly import (IntPolynomial, has_fixed_kth_power,
                   parse_poly_or_product, profile)
from .sieve import build_tables, primes_up_to


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ------------------------------------------------------------ descriptors

def parse_rational(text: str):
    """Exact Fraction for a/b strings, float otherwise (kept as given)."""
    if "/" in text:
        return Fraction(text)
    return float(text)


def parse_number(text: str) -> float:
    return GOLDEN_ROTATION if text == "golden" else float(parse_rational(text))


_TRIG_TERM = re.compile(r"^([+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)(?:(cos|sin)(\d+))?$")


def parse_trig(text: str) -> TrigObservable:
    const = 0.0
    cos_terms: list[tuple[int, float]] = []
    sin_terms: list[tuple[int, float]] = []
    for raw in text.replace("-", "+-").split("+"):
        term = raw.strip()
        if not term:
            continue
        m = _TRIG_TERM.match(term)
        if not m:
            raise ValueError(f"bad trig term {term!r} in {text!r}")
        ampl = float(m.group(1))
        if m.group(2) is None:
            const += ampl
        elif m.group(2) == "cos":
            cos_terms.append((int(m.group(3)), ampl))
        else:
            sin_terms.append((int(m.group(3)), ampl))
    return TrigObservable(const, tuple(cos_terms), tuple(sin_terms))


def parse_system(text: str):
    """-> (system, observable, starting point x)."""
    kind = text.partition(":")[0]
    if kind == "twopoint":
        g0, g1, x = _fields("system", text, ",", "twopoint:<g0>,<g1>,<x>")
        return TwoPointSwap(), PairObservable(float(g0), float(g1)), int(x)
    if kind == "cyclic":
        m, x, vals = _fields("system", text, ",",
                             "cyclic:<m>,<x>,<v0>;<v1>;...")
        vv = tuple(float(v) for v in vals.split(";"))
        return CyclicRotation(int(m)), VectorObservable(vv), int(x)
    if kind == "circle":
        alpha, x, trig = _fields("system", text, ",",
                                 "circle:<alpha>,<x>,<trig>")
        return (IrrationalRotation(parse_number(alpha)), parse_trig(trig),
                float(x))
    raise ValueError(f"unknown system descriptor {text!r}")


def _fields(kind: str, text: str, sep: str, grammar: str) -> list[str]:
    """The fields of text after its "name:" prefix, split at sep. Their
    number must match grammar, else a ValueError names the grammar."""
    parts = text.partition(":")[2].split(sep)
    if len(parts) != grammar.partition(":")[2].count(sep) + 1 or not all(parts):
        raise ValueError(f"{kind} descriptor {text!r}: expected {grammar}")
    return parts


def parse_condition(text: str):
    if text == "all":
        return AllIntegers()
    if text == "twinsqfree":
        return TwinSquarefree()
    if text.startswith("kfree:"):
        poly, k = _fields("condition", text, ":", "kfree:<coeffs>:<k>")
        return ProductKfree((IntPolynomial.parse(poly),), int(k))
    if text.startswith("product:"):
        polys, k = _fields("condition", text, ":",
                           "product:<coeffs>*<coeffs>...:<k>")
        return ProductKfree(parse_poly_or_product(polys), int(k))
    raise ValueError(f"unknown condition descriptor {text!r}")


def parse_argmap(text: str):
    if text == "identity":
        return ProgressionMap(1, 0)
    if text.startswith("prog:"):
        m, r = _fields("argmap", text, ",", "prog:<m>,<r>")
        return ProgressionMap(int(m), int(r))
    if text.startswith("beatty:"):
        a, b = _fields("argmap", text, ",", "beatty:<alpha>,<beta>")
        return BeattyMap(parse_rational(a), parse_rational(b))
    raise ValueError(f"unknown argmap descriptor {text!r}")


# ------------------------------------------------------------- artifacts

@dataclass
class ExperimentConfig:
    """The inputs of one run, echoed as "config" in its JSON artifact."""

    name: str
    coeffs: list[int] = field(default_factory=list)
    k: int = 0
    N: int = 0
    checkpoints: list[int] = field(default_factory=list)
    system: str = ""
    condition: str = ""
    argmap: str = ""
    P: int = 0
    out: str = ""


def _config(**kw) -> dict:
    return asdict(ExperimentConfig(**kw))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        # normalizes numpy float subclasses so repr is plain
        return repr(float(v))
    return str(v)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def emit(path: str | None, fmt: str, header, rows, doc: dict) -> None:
    """Write one artifact to path (None or '-' for stdout): the rows under
    header as CSV, or doc as JSON. In JSON the rows, unless None, are
    {column: value} records under "rows", inside doc["results"] when doc
    has one."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write(path, "\n".join(lines) + "\n")
        return
    if rows is not None:
        doc.get("results", doc)["rows"] = [dict(zip(header, row))
                                           for row in rows]
    _write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _density_dict(d: DensityResult) -> dict:
    return {"value": d.value, "lower": d.lower, "upper": d.upper, "P": d.P,
            "k": d.k, "degree": d.degree, "bad_primes": list(d.bad_primes)}


def _hypothesis_report(f: IntPolynomial, k: int) -> dict:
    prof = profile(f)
    return {
        "poly": f.text(),
        "squarefree_poly": prof.is_squarefree_poly,
        "fixed_divisor": prof.fixed_divisor,
        "no_fixed_kth_power": has_fixed_kth_power(f, k) is None,
        "bad_primes": list(prof.bad_primes or ()),
        "irreducibility": prof.irreducibility,
    }


# -------------------------------------------------------------- pipelines

COUNT_HEADER = ["N", "count", "target", "abs_error", "rel_error"]
REPORT_HEADER = ["N", "selected", "average", "target", "residual"]


def count_rows(condition: str, k: int, N: int, checkpoints, P: int):
    """Count the n <= each checkpoint with f(n) k-free, f a polynomial or a
    '*'-product, or with n and n + 1 squarefree ("twinsqfree"), against the
    density to P. The flags stream through checkpoint_counts, one run of
    kfree_range or twin_squarefree_range at a time, so memory is O(run)
    for any N; density reuses the KfreeSieve's roots.
    -> (factors, zero_hits, doc, rows): doc holds "density" and
    "exponent_fit" (None below two rows)."""
    if condition == "twinsqfree":
        # n and n + 1 are both squarefree exactly when n(n + 1) is
        factors = ()
        primes = primes_up_to(math.isqrt(N + 1))
        dens = density(IntPolynomial((0, 1, 1)), 2, P)

        def flags(s: int, e: int):
            return twin_squarefree_range(s, e, primes), []
    else:
        factors = parse_poly_or_product(condition)
        sv = KfreeSieve(factors, k, N)
        dens = density(sv.poly, k, P,
                       sv.setups[0][1] if len(factors) == 1 else None)

        def flags(s: int, e: int):
            out = np.empty(e - s, dtype=bool)
            return out, kfree_range(sv, s, e, out)
    counts, zeros = checkpoint_counts(flags, N, checkpoints)
    rows = [astuple(r) for r in count_kfree(checkpoints, counts, dens)]
    fit = (exponent_fit([(r[0], abs(r[3])) for r in rows])
           if len(rows) >= 2 else None)
    return factors, zeros, {"density": _density_dict(dens),
                            "exponent_fit": fit}, rows


def report_rows(system: str, condition: str, argmap: str, checkpoints,
                P: int) -> list[tuple]:
    """The REPORT_HEADER rows of convergence_report for the descriptors."""
    system_, observable, x = parse_system(system)
    rows = convergence_report(system_, observable, x, N_values=checkpoints,
                              condition=parse_condition(condition),
                              argmap=parse_argmap(argmap), P=P)
    return [astuple(r) for r in rows]


# --------------------------------------------------------- subcommands

def _checkpoints(args) -> list[int]:
    """--checkpoints, or [--N] without them; none may lie above --N."""
    checkpoints = args.checkpoints or [args.N]
    if checkpoints[-1] > args.N:
        raise ValueError(f"checkpoint {checkpoints[-1]} above --N {args.N}")
    return checkpoints


def cmd_sieve(args) -> int:
    tables = build_tables(args.lo, args.N + 1)
    rows = []
    for n in range(args.lo, args.N + 1):
        i = tables.index(n)
        omega = int(tables.omega[i])
        rows.append((n, omega, int(tables.mobius[i]),
                     bool(tables.squarefree[i]), 1 - 2 * (omega & 1)))
    emit(args.out, args.format,
         ["n", "omega", "mobius", "squarefree", "liouville"], rows,
         {"config": _config(name="sieve", N=args.N)})
    return 0


def cmd_rho(args) -> int:
    f = IntPolynomial.parse(args.poly)
    if args.k < 1:  # the good primes below never reach local_root_count
        raise ValueError("k >= 1 required")
    if args.primes > ROOT_LIMIT:
        raise CapacityError(f"--primes {args.primes} is above the root "
                            f"limit {ROOT_LIMIT}")
    prof = profile(f)
    primes = primes_up_to(args.primes)
    # a repeated factor makes every prime singular
    badset = set(prof.bad_primes if prof.is_squarefree_poly
                 else primes.tolist())
    rho_p = batch_root_counts(f, primes).tolist()
    # at a good prime every root lifts uniquely, so rho(p^k) = rho(p)
    rows = [(p, p in badset, r,
             local_root_count(f, p, args.k) if p in badset else r)
            for p, r in zip(primes.tolist(), rho_p)]
    emit(args.out, args.format, ["p", "is_bad", "rho_p", "rho_pk"], rows,
         {"config": _config(name="rho", coeffs=list(f.coeffs), k=args.k,
                            P=args.primes)})
    return 0


def cmd_density(args) -> int:
    f = IntPolynomial.parse(args.poly)
    d = density(f, args.k, args.P)
    emit(args.out, "json", None, None, {
        "config": _config(name="density", coeffs=list(f.coeffs), k=args.k,
                          P=args.P),
        "density": _density_dict(d),
        "hypothesis_checks": _hypothesis_report(f, args.k),
    })
    return 0


def cmd_count(args) -> int:
    checkpoints = _checkpoints(args)
    factors, zeros, doc, rows = count_rows(args.poly, args.k, args.N,
                                           checkpoints, args.P)
    doc["config"] = _config(
        name="count", k=args.k, N=args.N, checkpoints=checkpoints,
        coeffs=list(factors[0].coeffs) if len(factors) == 1 else [],
        condition=args.poly, P=args.P)
    doc["zero_hits"] = zeros
    emit(args.out, args.format, COUNT_HEADER, rows, doc)
    return 0


def cmd_eftail(args) -> int:
    f = IntPolynomial.parse(args.poly)
    checkpoints = _checkpoints(args)
    ny = [(n, int(n ** 0.9) if args.Y is None else args.Y)
          for n in checkpoints]
    rows = [(n, y, pairs)
            for (n, y), pairs in zip(ny, tail_pair_counts(f, args.k, ny))]
    emit(args.out, args.format, ["N", "Y", "pairs"], rows,
         {"config": _config(name="eftail", coeffs=list(f.coeffs), k=args.k,
                            N=args.N, checkpoints=checkpoints)})
    return 0


def cmd_ergodic(args) -> int:
    checkpoints = _checkpoints(args)
    rows = report_rows(args.system, args.condition, args.argmap, checkpoints,
                       args.P)
    emit(args.out, args.format, REPORT_HEADER, rows,
         {"config": _config(name="ergodic", N=checkpoints[-1],
                            checkpoints=checkpoints, system=args.system,
                            condition=args.condition, argmap=args.argmap,
                            P=args.P)})
    return 0


# ------------------------------------------------------------- repro

@dataclass(frozen=True)
class Experiment:
    """One `repro` experiment, run to the last checkpoint with P = 10^6.
    Without a system it is a count_rows count with k, checked against the
    tolerances; with one, a report_rows average whose hypothesis checks,
    if any, come from checks."""

    condition: str
    checkpoints: tuple[int, ...]
    tolerances: dict
    k: int = 0
    system: str = ""
    checks: Callable[[], dict] | None = None


def _within_tolerance(tolerances: dict, rows, fit) -> bool:
    """exponent_max bounds the fitted error exponent; any other count
    tolerance (rel_error_at_<N>) bounds |rel_error| of the last row."""
    return all(fit < tol if key == "exponent_max" else abs(rows[-1][4]) <= tol
               for key, tol in tolerances.items())


def _artifacts(name: str, outdir: str, header, rows, doc: dict) -> int:
    """<name>.csv and <name>.json in outdir, the JSON under "experiment"."""
    doc["experiment"] = name
    for fmt in ("csv", "json"):
        emit(os.path.join(outdir, f"{name}.{fmt}"), fmt, header, rows, doc)
    return 0


def run_experiment(name: str, exp: Experiment, outdir: str) -> int:
    N, P = exp.checkpoints[-1], 10 ** 6
    if exp.system:
        _log(f"[{name}] averaging {exp.system} over {exp.condition}")
        rows = report_rows(exp.system, exp.condition, "identity",
                           exp.checkpoints, P)
        doc = {"hypothesis_checks": exp.checks() if exp.checks else {},
               "results": {}}
    else:
        _log(f"[{name}] counting {exp.condition} k={exp.k} to N={N}")
        factors, _, doc, rows = count_rows(exp.condition, exp.k, N,
                                           exp.checkpoints, P)
        doc["hypothesis_checks"] = {g.text(): _hypothesis_report(g, exp.k)
                                    for g in factors}
        doc["results"] = {"within_tolerance": _within_tolerance(
            exp.tolerances, rows, doc["exponent_fit"])}
    doc["tolerances"] = exp.tolerances
    doc["config"] = _config(name=name, k=exp.k, N=N,
                            checkpoints=list(exp.checkpoints),
                            system=exp.system, condition=exp.condition,
                            argmap="identity" if exp.system else "", P=P,
                            out=outdir)
    header = REPORT_HEADER if exp.system else COUNT_HEADER
    return _artifacts(name, outdir, header, rows, doc)


def repro_thm31(outdir: str) -> int:
    """Indicator averages of the m-cycle rotation along every progression
    mn + r, m = 2, 3, 4, at N = 10^7, from one sieve pass."""
    name, N = "thm31", 10 ** 7
    _log(f"[{name}] progression grid at N={N}")
    grid = [(m, r) for m in (2, 3, 4) for r in range(m)]
    hists = dict(zip(grid, omega_histograms(
        N, [ProgressionMap(m, r) for m, r in grid])))
    rows, checks = [], {}
    for m in (2, 3, 4):
        observable = VectorObservable((1.0,) + (0.0,) * (m - 1))
        orb = orbit_table(CyclicRotation(m), observable, 0,
                          default_j_max(m * N + m - 1))
        for r in range(m):
            avg = ergodic_average(hists[m, r], orb)
            rows.append((m, r, N, hists[m, r].selected, avg, 1.0 / m,
                         avg - 1.0 / m))
        checks[f"m{m}_within_1e-2"] = all(abs(row[-1]) <= 1e-2
                                          for row in rows[-m:])
    return _artifacts(name, outdir, ["m", "r", *REPORT_HEADER], rows, {
        "config": _config(name=name, N=N, checkpoints=[N],
                          system="cyclic:m,0,indicator", argmap="prog:m,r",
                          out=outdir),
        "tolerances": {"abs_residual": 1e-2},
        "hypothesis_checks": checks,
        "results": {},
    })


def _cor12_checks() -> dict:
    f = IntPolynomial.parse("1,0,1")
    checks = _hypothesis_report(f, 2)
    checks["rho_p2_pattern_p_below_100"] = all(
        local_root_count(f, p, 2) == (2 if p % 4 == 1 else 0)
        for p in primes_up_to(100).tolist())
    return checks


LIOUVILLE = "twopoint:1.0,-1.0,0"
_TO_1E6 = (10 ** 4, 10 ** 5, 10 ** 6)
_TO_1E7 = (10 ** 5, 10 ** 6, 10 ** 7)

REPRO = {
    "pnt": Experiment("all", (10, 10 ** 6, 10 ** 7),
                      {"abs_average_at_1e6": 5e-3, "abs_average_at_1e7": 2e-3,
                       "exact_zero_at_10": True}, system=LIOUVILLE),
    "carlitz": Experiment("twinsqfree", _TO_1E7,
                          {"rel_error_at_1e7": 5e-3, "exponent_max": 0.8}),
    "estermann": Experiment("1,0,1", _TO_1E7, {"rel_error_at_max_N": 5e-3},
                            k=2),
    "hb17": Experiment("5,0,0,1", _TO_1E6, {"rel_error_at_max_N": 1e-2}, k=2),
    "browning18": Experiment("2,0,0,1", _TO_1E6, {"rel_error_at_max_N": 1e-2},
                             k=3),
    "thm11": Experiment(
        "kfree:1,0,1:2", _TO_1E7,
        {"abs_residual_at_1e7": 1e-2, "monotone_or_both_below": 5e-3},
        system="circle:golden,0.3,1.0+1.0cos1",
        checks=lambda: _hypothesis_report(IntPolynomial.parse("1,0,1"), 2)),
    "cor12": Experiment("kfree:1,0,1:2", _TO_1E7, {"abs_average_at_1e7": 1e-2},
                        system=LIOUVILLE, checks=_cor12_checks),
    "thm31": repro_thm31,
    "thm41": Experiment("1,0,1*2,0,1", _TO_1E7, {"rel_error_at_max_N": 1e-2},
                        k=2),
    "cor42": Experiment("product:1,0,1*2,0,1:2", _TO_1E7,
                        {"abs_average_at_1e7": 1e-2}, system=LIOUVILLE),
    "thm51": Experiment("4,1,0,1", _TO_1E6, {"rel_error_at_max_N": 1e-2}, k=2),
}


def cmd_repro(args) -> int:
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    exp = REPRO[args.experiment]
    if callable(exp):
        return exp(outdir)
    return run_experiment(args.experiment, exp, outdir)


# --------------------------------------------------------------- main

def _int_arg(text: str) -> int:
    v = float(text)
    if v != int(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(v)


def _checkpoints_arg(text: str) -> list[int]:
    vals = [_int_arg(t) for t in text.split(",")]
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise argparse.ArgumentTypeError("checkpoints must be ascending")
    return vals


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="powerfree",
        description="sieves, local root counts, and densities for "
                    "power-free polynomial values; ergodic averages "
                    "along Omega")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--threads", type=int,
                        help="accepted and ignored: every pass runs on "
                             "one thread")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[shared], **kw))

    def common(p, poly=True, k=True, fmt=True):
        if poly:
            p.add_argument("--poly", required=True,
                           help="ascending coefficients, e.g. 1,0,1")
        if k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", default=None,
                       help="output file ('-' or omit for stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sieve", help="dump omega/mobius/squarefree tables")
    p.add_argument("--N", type=_int_arg, required=True)
    p.add_argument("--lo", type=_int_arg, default=1)
    common(p, poly=False, k=False)
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("rho", help="local root counts per prime")
    common(p)
    p.add_argument("--primes", type=_int_arg, default=100,
                   help="list primes up to this bound")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("density", help="Euler product and enclosure as JSON")
    common(p, fmt=False)
    p.add_argument("--P", type=_int_arg, default=10 ** 6)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("count", help="k-free counts vs density targets")
    common(p)
    p.add_argument("--N", type=_int_arg, required=True)
    p.add_argument("--P", type=_int_arg, default=10 ** 6)
    p.add_argument("--checkpoints", type=_checkpoints_arg, default=None)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("eftail", help="tail pair counts E(Y, N)")
    common(p)
    p.add_argument("--N", type=_int_arg, required=True)
    p.add_argument("--Y", type=_int_arg, default=None,
                   help="fixed threshold; default floor(N^0.9) per row")
    p.add_argument("--checkpoints", type=_checkpoints_arg, default=None)
    p.set_defaults(fn=cmd_eftail)

    p = sub.add_parser("ergodic", help="convergence report for an average")
    common(p, poly=False, k=False)
    p.add_argument("--system", required=True)
    p.add_argument("--condition", default="all")
    p.add_argument("--argmap", default="identity")
    p.add_argument("--N", type=_int_arg, required=True)
    p.add_argument("--P", type=_int_arg, default=10 ** 6)
    p.add_argument("--checkpoints", type=_checkpoints_arg, default=None)
    p.set_defaults(fn=cmd_ergodic)

    p = sub.add_parser("repro", help="run a named experiment end to end")
    p.add_argument("experiment", choices=sorted(REPRO))
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_repro)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse has already written its usage message
        return int(e.code or 0)
    try:
        return args.fn(args)
    except HypothesisViolation as e:
        _log(f"hypothesis violation: {e}")
        return 4
    except (CapacityError, MemoryError) as e:
        _log(f"capacity: {str(e) or 'out of memory'}")
        return 3
    except (ValueError, TypeError, OSError) as e:
        _log(f"usage: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
