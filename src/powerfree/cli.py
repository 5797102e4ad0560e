"""Command-line front end for the sieves, densities, and ergodic averages.

Descriptor grammars (documented, parse/print round-trip is identity):

  polynomial   ascending coefficients "c0,c1,...": "1,0,1" is 1 + x^2;
               a '*' joins factors for product sieves: "1,0,1*2,0,1"
  system       "twopoint:g0,g1,x"
               "cyclic:m,x,v0;v1;...;v_{m-1}"
               "circle:alpha,x,trig" with alpha a float or "golden", and
               trig a '+'-joined list of terms: "1.0", "0.5cos3", "2sin1"
  condition    "all" | "kfree:POLY:k" | "twinsqfree" | "product:POLY:k"
  argmap       "identity" | "prog:m,r" | "beatty:alpha,beta"
               (alpha, beta accept "13/8" style exact rationals)

Exit codes: 0 success, 2 usage error (including an --out path that cannot
be written and a descriptor with the wrong number of fields), 3 capacity
exceeded (rho --primes above kfree.ROOT_LIMIT among others), 4 hypothesis
violation (the message names the violated hypothesis).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .density import DensityResult, density, twin_constant
from .dynamics import (GOLDEN_ROTATION, CyclicRotation, IrrationalRotation,
                       PairObservable, TrigObservable, TwoPointSwap,
                       VectorObservable, orbit_table)
from .ergodic import (AllIntegers, BeattyMap, IdentityMap, KfreeValues,
                      ProductKfree, ProgressionMap, TwinSquarefree,
                      convergence_report, default_j_max, ergodic_average,
                      exponent_fit, omega_histograms)
from .errors import CapacityError, HypothesisViolation
from .kfree import (ROOT_LIMIT, count_kfree, kfree_mask, product_kfree_mask,
                    tail_pair_counts, twin_squarefree_mask)
from .local_roots import batch_root_counts, local_root_count
from .poly import (IntPolynomial, has_fixed_kth_power,
                   parse_poly_or_product, profile)
from .sieve import DEFAULT_SEGMENT, build_tables, primes_up_to


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ------------------------------------------------------------ descriptors

def parse_number(text: str) -> float:
    if text == "golden":
        return GOLDEN_ROTATION
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def parse_rational(text: str):
    """Exact Fraction for a/b strings, float otherwise (kept as given)."""
    if "/" in text:
        return Fraction(text)
    return float(text)


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


def trig_text(obs: TrigObservable) -> str:
    parts = [repr(obs.constant)]
    parts += [f"{a!r}cos{h}" for h, a in obs.cos_terms]
    parts += [f"{b!r}sin{h}" for h, b in obs.sin_terms]
    return "+".join(parts)


def parse_system(text: str):
    """-> (system, observable, starting point x)."""
    kind, _, rest = text.partition(":")
    if kind == "twopoint":
        g0, g1, x = rest.split(",")
        return TwoPointSwap(), PairObservable(float(g0), float(g1)), int(x)
    if kind == "cyclic":
        m, x, vals = rest.split(",", 2)
        vv = tuple(float(v) for v in vals.split(";"))
        return CyclicRotation(int(m)), VectorObservable(vv), int(x)
    if kind == "circle":
        alpha, x, trig = rest.split(",", 2)
        return (IrrationalRotation(parse_number(alpha)), parse_trig(trig),
                float(x))
    raise ValueError(f"unknown system descriptor {text!r}")


def system_text(system, observable, x) -> str:
    if isinstance(system, TwoPointSwap):
        return f"twopoint:{observable.g0!r},{observable.g1!r},{x}"
    if isinstance(system, CyclicRotation):
        vals = ";".join(repr(v) for v in observable.values)
        return f"cyclic:{system.m},{x},{vals}"
    if isinstance(system, IrrationalRotation):
        return f"circle:{system.alpha!r},{x!r},{trig_text(observable)}"
    raise TypeError(f"unknown system {system!r}")


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
        return KfreeValues(IntPolynomial.parse(poly), int(k))
    if text.startswith("product:"):
        polys, k = _fields("condition", text, ":",
                           "product:<coeffs>*<coeffs>...:<k>")
        return ProductKfree(parse_poly_or_product(polys), int(k))
    raise ValueError(f"unknown condition descriptor {text!r}")


def parse_argmap(text: str):
    if text == "identity":
        return IdentityMap()
    if text.startswith("prog:"):
        m, r = _fields("argmap", text, ",", "prog:<m>,<r>")
        return ProgressionMap(int(m), int(r))
    if text.startswith("beatty:"):
        a, b = _fields("argmap", text, ",", "beatty:<alpha>,<beta>")
        return BeattyMap(parse_rational(a), parse_rational(b))
    raise ValueError(f"unknown argmap descriptor {text!r}")


# ------------------------------------------------------------- config

@dataclass
class ExperimentConfig:
    """The JSON-serializable record of one experiment's inputs."""

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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))


# ------------------------------------------------------------- writers

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        # normalizes numpy float subclasses so repr is plain
        return repr(float(v))
    return str(v)


def write_csv(path: str | None, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_json(path: str | None, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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


# --------------------------------------------------------- subcommands

def cmd_sieve(args) -> int:
    lo = args.lo
    tables = build_tables(lo, args.N + 1, segment_size=args.segment,
                          threads=args.threads)
    rows = []
    for n in range(lo, args.N + 1):
        i = tables.index(n)
        rows.append((n, int(tables.omega[i]), int(tables.mobius[i]),
                     bool(tables.squarefree[i]),
                     1 - 2 * (int(tables.omega[i]) & 1)))
    if args.format == "json":
        write_json(args.out, {
            "config": asdict(ExperimentConfig(name="sieve", N=args.N)),
            "rows": [{"n": r[0], "omega": r[1], "mobius": r[2],
                      "squarefree": r[3], "liouville": r[4]} for r in rows],
        })
    else:
        write_csv(args.out, ["n", "omega", "mobius", "squarefree", "liouville"],
                  rows)
    return 0


def cmd_rho(args) -> int:
    f = IntPolynomial.parse(args.poly)
    if args.primes > ROOT_LIMIT:
        raise CapacityError(f"--primes {args.primes} is above the root "
                            f"limit {ROOT_LIMIT}")
    prof = profile(f)
    primes = primes_up_to(args.primes)
    if prof.is_squarefree_poly:
        badset = set(prof.bad_primes)
        rho_p = batch_root_counts(f, primes).tolist()
    else:  # every prime is singular
        badset = set(primes.tolist())
        rho_p = [local_root_count(f, p, 1) for p in primes.tolist()]
    # at a good prime every root lifts uniquely, so rho(p^k) = rho(p)
    rows = [(p, p in badset, r,
             local_root_count(f, p, args.k) if p in badset else r)
            for p, r in zip(primes.tolist(), rho_p)]
    if args.format == "json":
        write_json(args.out, {
            "config": asdict(ExperimentConfig(name="rho",
                                              coeffs=list(f.coeffs),
                                              k=args.k, P=args.primes)),
            "rows": [{"p": r[0], "is_bad": r[1], "rho_p": r[2],
                      "rho_pk": r[3]} for r in rows],
        })
    else:
        write_csv(args.out, ["p", "is_bad", "rho_p", "rho_pk"], rows)
    return 0


def cmd_density(args) -> int:
    f = IntPolynomial.parse(args.poly)
    d = density(f, args.k, args.P)
    write_json(args.out, {
        "config": asdict(ExperimentConfig(name="density",
                                          coeffs=list(f.coeffs), k=args.k,
                                          P=args.P)),
        "density": _density_dict(d),
        "hypothesis_checks": _hypothesis_report(f, args.k),
    })
    return 0


def _build_mask(polytext: str, k: int, N: int, threads: int, segment: int):
    factors = parse_poly_or_product(polytext)
    if len(factors) == 1:
        return kfree_mask(factors[0], k, N, segment_size=segment,
                          threads=threads)
    return product_kfree_mask(factors, k, N, segment_size=segment,
                              threads=threads)


def cmd_count(args) -> int:
    checkpoints = args.checkpoints or [args.N]
    factors = parse_poly_or_product(args.poly)
    mask = _build_mask(args.poly, args.k, args.N, args.threads, args.segment)
    dens = density(mask.poly, args.k, args.P, mask.roots)
    rows = count_kfree(mask, checkpoints, dens)
    fit = (exponent_fit([(r.N, abs(r.abs_error)) for r in rows])
           if len(rows) >= 2 else None)
    coeffs = list(factors[0].coeffs) if len(factors) == 1 else []
    if args.format == "json":
        write_json(args.out, {
            "config": asdict(ExperimentConfig(name="count", coeffs=coeffs,
                                              k=args.k, N=args.N,
                                              checkpoints=checkpoints,
                                              condition=args.poly,
                                              P=args.P)),
            "density": _density_dict(dens),
            "exponent_fit": fit,
            "rows": [asdict(r) for r in rows],
            "zero_hits": list(mask.zero_hits),
        })
    else:
        write_csv(args.out, ["N", "count", "target", "abs_error", "rel_error"],
                  [(r.N, r.count, r.target, r.abs_error, r.rel_error)
                   for r in rows])
    return 0


def cmd_eftail(args) -> int:
    f = IntPolynomial.parse(args.poly)
    checkpoints = args.checkpoints or [args.N]
    if checkpoints[-1] > args.N:
        raise ValueError(f"checkpoint {checkpoints[-1]} above --N {args.N}")
    ny = [(n, args.Y if args.Y else int(n ** 0.9)) for n in checkpoints]
    rows = [(n, y, pairs)
            for (n, y), pairs in zip(ny, tail_pair_counts(f, args.k, ny))]
    if args.format == "json":
        write_json(args.out, {
            "config": asdict(ExperimentConfig(name="eftail",
                                              coeffs=list(f.coeffs),
                                              k=args.k, N=args.N,
                                              checkpoints=checkpoints)),
            "rows": [{"N": r[0], "Y": r[1], "pairs": r[2]} for r in rows],
        })
    else:
        write_csv(args.out, ["N", "Y", "pairs"], rows)
    return 0


def cmd_ergodic(args) -> int:
    system, observable, x = parse_system(args.system)
    condition = parse_condition(args.condition)
    argmap = parse_argmap(args.argmap)
    checkpoints = args.checkpoints or [args.N]
    rows = convergence_report(system, observable, x, N_values=checkpoints,
                              condition=condition, argmap=argmap, P=args.P,
                              threads=args.threads,
                              segment_size=args.segment)
    if args.format == "json":
        write_json(args.out, {
            "config": asdict(ExperimentConfig(
                name="ergodic", N=max(checkpoints),
                checkpoints=checkpoints, system=args.system,
                condition=args.condition, argmap=args.argmap, P=args.P)),
            "rows": [asdict(r) for r in rows],
        })
    else:
        write_csv(args.out, ["N", "selected", "average", "target", "residual"],
                  [(r.N, r.selected, r.average, r.target, r.residual)
                   for r in rows])
    return 0


# ------------------------------------------------------------- repro

REPORT_HEADER = ["N", "selected", "average", "target", "residual"]
COUNT_HEADER = ["N", "count", "target", "abs_error", "rel_error"]


def _report_rows(rows):
    return [(r.N, r.selected, r.average, r.target, r.residual) for r in rows]


def _count_experiment(name, polytext, k, checkpoints, P, rel_tol, threads,
                      outdir):
    factors = parse_poly_or_product(polytext)
    N = max(checkpoints)
    _log(f"[{name}] sieving {polytext} k={k} to N={N}")
    if len(factors) == 1:
        mask = kfree_mask(factors[0], k, N, threads=threads)
    else:
        mask = product_kfree_mask(factors, k, N, threads=threads)
    dens = density(mask.poly, k, P, mask.roots)
    rows = count_kfree(mask, checkpoints, dens)
    fit = exponent_fit([(r.N, abs(r.abs_error)) for r in rows])
    meta = {
        "experiment": name,
        "config": asdict(ExperimentConfig(name=name, coeffs=[], k=k, N=N,
                                          checkpoints=list(checkpoints),
                                          condition=polytext, P=P,
                                          out=outdir)),
        "density": _density_dict(dens),
        "exponent_fit": fit,
        "tolerances": {"rel_error_at_max_N": rel_tol},
        "hypothesis_checks": {g.text(): _hypothesis_report(g, k)
                              for g in factors},
        "results": {"rows": [asdict(r) for r in rows],
                    "within_tolerance": abs(rows[-1].rel_error) <= rel_tol},
    }
    write_csv(os.path.join(outdir, f"{name}.csv"), COUNT_HEADER,
              [(r.N, r.count, r.target, r.abs_error, r.rel_error)
               for r in rows])
    write_json(os.path.join(outdir, f"{name}.json"), meta)
    return 0


def _ergodic_experiment(name, systext, condtext, checkpoints, tolerances,
                        threads, outdir, P=10 ** 6, extra_checks=None,
                        argtext="identity"):
    system, observable, x = parse_system(systext)
    condition = parse_condition(condtext)
    argmap = parse_argmap(argtext)
    _log(f"[{name}] averaging {systext} over {condtext}")
    rows = convergence_report(system, observable, x, N_values=checkpoints,
                              condition=condition, argmap=argmap, P=P,
                              threads=threads)
    meta = {
        "experiment": name,
        "config": asdict(ExperimentConfig(name=name, N=max(checkpoints),
                                          checkpoints=list(checkpoints),
                                          system=systext, condition=condtext,
                                          argmap=argtext, P=P, out=outdir)),
        "tolerances": tolerances,
        "hypothesis_checks": extra_checks or {},
        "results": {"rows": [asdict(r) for r in rows]},
    }
    write_csv(os.path.join(outdir, f"{name}.csv"), REPORT_HEADER,
              _report_rows(rows))
    write_json(os.path.join(outdir, f"{name}.json"), meta)
    return 0


def repro_pnt(outdir, threads):
    return _ergodic_experiment(
        "pnt", "twopoint:1.0,-1.0,0", "all", [10, 10 ** 6, 10 ** 7],
        {"abs_average_at_1e6": 5e-3, "abs_average_at_1e7": 2e-3,
         "exact_zero_at_10": True},
        threads, outdir)


def repro_carlitz(outdir, threads):
    name = "carlitz"
    checkpoints = [10 ** 5, 10 ** 6, 10 ** 7]
    N = checkpoints[-1]
    _log(f"[{name}] twin squarefree to N={N}")
    bits = twin_squarefree_mask(N)
    c = twin_constant(10 ** 6)
    rows = []
    for n in checkpoints:
        cnt = int(bits[:n].sum())
        target = c.value * n
        rows.append((n, cnt, target, cnt - target,
                     abs(cnt - target) / target))
    fit = exponent_fit([(r[0], abs(r[3])) for r in rows])
    meta = {
        "experiment": name,
        "config": asdict(ExperimentConfig(name=name, N=N,
                                          checkpoints=checkpoints,
                                          condition="twinsqfree",
                                          P=10 ** 6, out=outdir)),
        "density": _density_dict(c),
        "exponent_fit": fit,
        "tolerances": {"rel_error_at_1e7": 5e-3, "exponent_max": 0.8},
        "hypothesis_checks": {},
        "results": {"rows": [{"N": r[0], "count": r[1], "target": r[2],
                              "abs_error": r[3], "rel_error": r[4]}
                             for r in rows],
                    "within_tolerance": rows[-1][4] <= 5e-3 and fit < 0.8},
    }
    write_csv(os.path.join(outdir, f"{name}.csv"), COUNT_HEADER, rows)
    write_json(os.path.join(outdir, f"{name}.json"), meta)
    return 0


def repro_estermann(outdir, threads):
    return _count_experiment("estermann", "1,0,1", 2,
                             [10 ** 5, 10 ** 6, 10 ** 7], 10 ** 6, 5e-3,
                             threads, outdir)


def repro_hb17(outdir, threads):
    return _count_experiment("hb17", "5,0,0,1", 2,
                             [10 ** 4, 10 ** 5, 10 ** 6], 10 ** 6, 1e-2,
                             threads, outdir)


def repro_browning18(outdir, threads):
    return _count_experiment("browning18", "2,0,0,1", 3,
                             [10 ** 4, 10 ** 5, 10 ** 6], 10 ** 6, 1e-2,
                             threads, outdir)


def repro_thm11(outdir, threads):
    return _ergodic_experiment(
        "thm11", "circle:golden,0.3,1.0+1.0cos1", "kfree:1,0,1:2",
        [10 ** 5, 10 ** 6, 10 ** 7],
        {"abs_residual_at_1e7": 1e-2,
         "monotone_or_both_below": 5e-3},
        threads, outdir,
        extra_checks=_hypothesis_report(IntPolynomial.parse("1,0,1"), 2))


def repro_cor12(outdir, threads):
    f = IntPolynomial.parse("1,0,1")
    pattern_ok = all(
        local_root_count(f, p, 2) == (2 if p % 4 == 1 else 0)
        for p in primes_up_to(100).tolist())
    checks = _hypothesis_report(f, 2)
    checks["rho_p2_pattern_p_below_100"] = pattern_ok
    return _ergodic_experiment(
        "cor12", "twopoint:1.0,-1.0,0", "kfree:1,0,1:2",
        [10 ** 5, 10 ** 6, 10 ** 7],
        {"abs_average_at_1e7": 1e-2},
        threads, outdir, extra_checks=checks)


def repro_thm31(outdir, threads):
    name = "thm31"
    N = 10 ** 7
    _log(f"[{name}] progression grid at N={N}")
    header = ["m", "r", "N", "selected", "average", "target", "residual"]
    grid = [(m, r) for m in (2, 3, 4) for r in range(m)]
    hists = dict(zip(grid, omega_histograms(
        N, [ProgressionMap(m, r) for m, r in grid], threads=threads)))
    out_rows = []
    within = {}
    for m in (2, 3, 4):
        system = CyclicRotation(m)
        observable = VectorObservable(tuple([1.0] + [0.0] * (m - 1)))
        orb = orbit_table(system, observable, 0, default_j_max(m * N + m - 1))
        ok = True
        for r in range(m):
            hist = hists[m, r]
            avg = ergodic_average(hist, orb)
            resid = avg - 1.0 / m
            ok = ok and abs(resid) <= 1e-2
            out_rows.append((m, r, N, hist.selected, avg, 1.0 / m, resid))
        within[f"m{m}_within_1e-2"] = ok
    meta = {
        "experiment": name,
        "config": asdict(ExperimentConfig(name=name, N=N,
                                          checkpoints=[N],
                                          system="cyclic:m,0,indicator",
                                          argmap="prog:m,r", out=outdir)),
        "tolerances": {"abs_residual": 1e-2},
        "hypothesis_checks": within,
        "results": {"rows": [dict(zip(header, r)) for r in out_rows]},
    }
    write_csv(os.path.join(outdir, f"{name}.csv"), header, out_rows)
    write_json(os.path.join(outdir, f"{name}.json"), meta)
    return 0


def repro_thm41(outdir, threads):
    return _count_experiment("thm41", "1,0,1*2,0,1", 2,
                             [10 ** 5, 10 ** 6, 10 ** 7], 10 ** 6, 1e-2,
                             threads, outdir)


def repro_cor42(outdir, threads):
    return _ergodic_experiment(
        "cor42", "twopoint:1.0,-1.0,0", "product:1,0,1*2,0,1:2",
        [10 ** 5, 10 ** 6, 10 ** 7],
        {"abs_average_at_1e7": 1e-2},
        threads, outdir)


def repro_thm51(outdir, threads):
    return _count_experiment("thm51", "4,1,0,1", 2,
                             [10 ** 4, 10 ** 5, 10 ** 6], 10 ** 6, 1e-2,
                             threads, outdir)


REPRO = {
    "pnt": repro_pnt,
    "carlitz": repro_carlitz,
    "estermann": repro_estermann,
    "hb17": repro_hb17,
    "browning18": repro_browning18,
    "thm11": repro_thm11,
    "cor12": repro_cor12,
    "thm31": repro_thm31,
    "thm41": repro_thm41,
    "cor42": repro_cor42,
    "thm51": repro_thm51,
}


def cmd_repro(args) -> int:
    outdir = args.out or "."
    if outdir != "." and not os.path.isdir(outdir):
        os.makedirs(outdir, exist_ok=True)
    return REPRO[args.experiment](outdir, args.threads)


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
                        default=max(1, os.cpu_count() or 1),
                        help="worker threads (outputs are identical for "
                             "any value)")
    shared.add_argument("--segment", type=_int_arg, default=DEFAULT_SEGMENT,
                        help="sieve segment size")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[shared], **kw))

    def common(p, poly=True, k=True):
        if poly:
            p.add_argument("--poly", required=True,
                           help="ascending coefficients, e.g. 1,0,1")
        if k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--out", default=None,
                       help="output file ('-' or omit for stdout)")
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

    p = sub.add_parser("density", help="Euler product with tail enclosure")
    common(p)
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
    except CapacityError as e:
        _log(f"capacity: {e}")
        return 3
    except (ValueError, TypeError, OSError) as e:
        _log(f"usage: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
