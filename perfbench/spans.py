"""In-memory span tracer for the powerfree package, installed from outside it.

install() wraps every public function defined in the package's modules and
rebinds the wrapper at every powerfree module attribute that held the
original, so calls made through `from .x import f` bindings and through
`module.f` lookups both go through it. No file of the package changes.

Each call is a span. Spans nest on a per-thread stack; a span's self time is
its duration minus the time of the spans it directly encloses on the same
thread. Spans opened on pool threads (kfree_mask and build_tables run
segments on a thread pool) are roots of their thread, so with --threads 2
the self times of one command can add up to more than its wall time.
Spans are aggregated as they close: per function, the call count, total and
self time, plus the work counters of COUNTERS.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
import types

MODULES = ("sieve", "factorint", "poly", "modpoly", "local_roots", "kfree",
           "density", "dynamics", "ergodic", "cli")

# Scalar and coefficient-list primitives called up to millions of times per
# command, each for less time than the wrapper itself costs. Left unwrapped,
# their time stays in the self time of their caller (split_linear_roots,
# batch_split_part, factorize, ...), which is where a change would show.
UNWRAPPED = frozenset({
    "modpoly.poly_trim", "modpoly.poly_mod_p", "modpoly.poly_deg",
    "modpoly.poly_monic", "modpoly.poly_rem", "modpoly.poly_gcd",
    "modpoly.poly_mulmod", "modpoly.poly_powmod", "modpoly.sqrt_mod_p",
    "factorint.is_prime", "factorint.integer_nth_root",
    "factorint.is_perfect_kth_power", "factorint.prime_factors",
    "poly.coefficient_bound",
})


@functools.lru_cache(maxsize=None)
def _prime_count(limit: int) -> int:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return sum(flags)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counters read from a call's arguments and result once its span has
# closed: {function: (counter names, hook(args, kwargs, result) -> values)}.
COUNTERS = {
    "sieve.build_tables": (("n",), lambda a, kw, r: (r.hi - r.lo,)),
    "ergodic.convergence_report": (("n",), lambda a, kw, r: (r[-1].N,)),
    "ergodic.omega_histogram": (("n",), lambda a, kw, r: (r.N,)),
    "kfree.kfree_mask": (("prime_bound",), lambda a, kw, r: (r.prime_bound,)),
    "kfree.decompose_sum": (("n",), lambda a, kw, r: (r.N,)),
    "local_roots.batch_roots": (
        ("primes", "primes_with_roots", "roots"),
        lambda a, kw, r: (len(_arg(a, kw, 1, "primes")), len(r),
                          sum(len(v) for v in r.values()))),
    "local_roots.batch_root_counts": (("primes",), lambda a, kw, r: (len(r),)),
    "modpoly.batch_split_part": (("primes",), lambda a, kw, r: (len(r[0]),)),
    "density.density": (("primes",), lambda a, kw, r: (_prime_count(r.P),)),
}
COUNTER_NAMES = frozenset(f"{fn}.{key}" for fn, (keys, _) in COUNTERS.items()
                          for key in keys)
# counters that keep the largest value seen rather than a sum
MAX_COUNTERS = frozenset({"kfree.kfree_mask.prime_bound"})


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        # name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def wrap(self, name: str, fn):
        keys, hook = COUNTERS.get(name, ((), None))
        local = self.local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            inner = [0.0]
            stack.append(inner)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self.lock:
                    rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - inner[0]
            if hook is not None:
                values = hook(args, kwargs, result)
                with self.lock:
                    for key, v in zip(keys, values):
                        full = f"{name}.{key}"
                        if full in MAX_COUNTERS:
                            self.counters[full] = max(
                                self.counters.get(full, 0), v)
                        else:
                            self.counters[full] = self.counters.get(full, 0) + v
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap and rebind; returns the names of the wrapped functions."""
        wrappers = {}  # id(original) -> (original, wrapper, name)
        for short in MODULES:
            mod = sys.modules[f"powerfree.{short}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (not attr.startswith("_") and name not in UNWRAPPED
                        and isinstance(obj, (types.FunctionType,
                                             functools._lru_cache_wrapper))
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(name, obj), name)
        for modname, mod in list(sys.modules.items()):
            if modname == "powerfree" or modname.startswith("powerfree."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)][1])
        return sorted(name for _, _, name in wrappers.values())

    def snapshot(self) -> dict:
        with self.lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()},
                    "counters": dict(self.counters)}
