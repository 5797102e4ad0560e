"""Power-free polynomial values: sieves, local densities, ergodic averages.

The package computes three reinforcing views of the same phenomenon: exact
segmented sieves for Omega/mu/Liouville and for k-free values of integer
polynomials, local root counts modulo prime powers with certified Hensel
lifting, and Euler-product densities with rigorous truncation enclosures;
on top sits an engine for averages of observables along uniquely ergodic
systems sampled at Omega of sieved arguments.
"""
from .density import DensityResult, density
from .dynamics import (GOLDEN_ROTATION, CyclicRotation, IrrationalRotation,
                       OrbitTable, PairObservable, TrigObservable,
                       TwoPointSwap, VectorObservable, orbit_table)
from .ergodic import (AllIntegers, BeattyMap, OmegaHistogram, ProductKfree,
                      ProgressionMap, ReportRow, TwinSquarefree,
                      convergence_report, default_j_max, ergodic_average,
                      exponent_fit, omega_histogram, omega_histograms)
from .errors import CapacityError, HypothesisViolation
from .factorint import factorize, integer_nth_root, is_perfect_kth_power, is_prime
from .kfree import (CountRow, KfreeMask, KfreeSieve, SumDecomposition,
                    checkpoint_counts, count_kfree, decompose_sum,
                    kfree_mask, kfree_range, product_kfree_mask,
                    sieve_prime_bound, tail_pair_count,
                    twin_squarefree_range)
from .local_roots import (RootTable, batch_root_counts, batch_roots,
                          count_roots_mod_p, is_bad_prime, lift_levels,
                          lift_roots, local_root_count, root_table,
                          roots_mod_p)
from .poly import (IntPolynomial, PolyProfile, fixed_divisor,
                   has_fixed_kth_power, irreducibility_check, max_abs_value,
                   profile, rational_roots, resultant,
                   resultant_with_derivative)
from .sieve import ArithTables, build_tables, primes_up_to

__version__ = "0.1.0"

__all__ = [
    "ArithTables", "AllIntegers", "BeattyMap", "CapacityError",
    "CountRow", "CyclicRotation", "DensityResult", "GOLDEN_ROTATION",
    "HypothesisViolation", "IntPolynomial",
    "IrrationalRotation", "KfreeMask", "KfreeSieve",
    "OmegaHistogram", "OrbitTable", "PairObservable",
    "PolyProfile", "ProductKfree", "ProgressionMap", "ReportRow", "RootTable",
    "SumDecomposition", "TrigObservable", "TwinSquarefree", "TwoPointSwap",
    "VectorObservable", "batch_root_counts", "batch_roots",
    "build_tables", "checkpoint_counts", "convergence_report", "count_kfree",
    "count_roots_mod_p",
    "decompose_sum", "default_j_max", "density", "ergodic_average",
    "exponent_fit", "factorize", "fixed_divisor", "has_fixed_kth_power",
    "integer_nth_root", "irreducibility_check", "is_bad_prime",
    "is_perfect_kth_power", "is_prime", "kfree_mask", "kfree_range",
    "lift_levels", "lift_roots", "local_root_count", "max_abs_value",
    "omega_histogram", "omega_histograms",
    "orbit_table", "primes_up_to", "product_kfree_mask", "profile",
    "rational_roots", "resultant", "resultant_with_derivative",
    "root_table", "roots_mod_p",
    "sieve_prime_bound", "tail_pair_count", "twin_squarefree_range",
]
