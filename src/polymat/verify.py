"""Named identity checks backing the command-line ``verify`` command.

A run passes when every check does.  The polymatroid suite covers the
polynomial identities (duality swap, the slice recursion on every
element, the closed-form first coefficients), the threshold and family
correspondences under dualization, the coefficient formulas over their
guaranteed ranges, relabeling invariance, and unimodality of the
guaranteed prefixes.  Frontend suites add their own independent oracles.

Each check is one ``(name, passed, detail)`` triple, written once.  A
suite first computes what it compares, then lists its triples in order,
a bridge report's ``checks()`` (which its ``passed`` also reads) at its
place, and turns the list into ``CheckResult``s in one place.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .activity import check_duality, exterior_by_slices, polynomial_pair
from .core import Polymatroid
from .graphs import Graph, cut_formula_check
from .hypergraphs import Hypergraph, structure_report
from .matroids import Matroid, check_matroid_polynomials
from .polynomials import Polynomial
from .structure import (
    circuit_sets,
    deficiency_thresholds,
    exterior_coefficient_formula,
    exterior_formula_range,
    first_exterior_coefficients,
    full_deficiency,
    hyperplane_sets,
    interior_coefficient_formula,
    interior_formula_range,
    is_unimodal,
    rank_drop_thresholds,
)
from .subsets import complement


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, passed, "" if passed else detail)


def _deterministic_permutations(n: int) -> list[tuple[int, ...]]:
    identity = tuple(range(1, n + 1))
    reverse = tuple(range(n, 0, -1))
    rotate = tuple(list(range(2, n + 1)) + [1])
    return [p for p in {reverse, rotate} if p != identity]


def _formula_misses(P: Polymatroid, formula: Callable, bound: int, poly: Polynomial) -> list[int]:
    return [i for i in range(min(bound, P.n)) if formula(P, i) != poly.coefficient(i)]


def verify_polymatroid(P: Polymatroid) -> list[CheckResult]:
    interior, exterior = polynomial_pair(P)
    # The slice recursion reads the rank table, not the basis DAG behind the
    # pair and ``basis_count``, so its value at 1 is an independent count: the
    # two walks share only ``core._slices``, a pure function of two halves,
    # and no table, memo or DAG.
    by_slices = [exterior_by_slices(P, t) for t in range(1, P.n + 1)]
    count = by_slices[-1](1)
    c0, c1 = first_exterior_coefficients(P)
    bad_t = [t for t, poly in enumerate(by_slices, 1) if poly != exterior]
    dual = P.dual()
    r = rank_drop_thresholds(P)
    r_def = deficiency_thresholds(P)
    r1 = r.get(1)
    r1_def = r_def.get(1)
    circuits = circuit_sets(P)
    hyperplanes = hyperplane_sets(P)
    dual_hyperplanes = hyperplane_sets(dual)
    swapped = {j: frozenset(complement(h, P.n) for h in dual_hyperplanes[j]) for j in dual_hyperplanes}
    ext_bad = _formula_misses(P, exterior_coefficient_formula, exterior_formula_range(P), exterior)
    int_bad = _formula_misses(P, interior_coefficient_formula, interior_formula_range(P), interior)
    perm_bad = [
        sigma
        for sigma in _deterministic_permutations(P.n)
        if polynomial_pair(P.relabel(sigma)) != (interior, exterior)
    ]
    checks = [
        (
            "basis-count-consistency",
            interior(1) == exterior(1) == count,
            f"interior(1)={interior(1)} exterior(1)={exterior(1)} bases={count}",
        ),
        (
            "exterior-constant-term",
            exterior.coefficient(0) == c0,
            f"got {exterior.coefficient(0)}, closed form {c0}",
        ),
        (
            "exterior-linear-term",
            exterior.coefficient(1) == c1,
            f"got {exterior.coefficient(1)}, closed form {c1}",
        ),
        ("slice-recursion-all-elements", not bad_t, f"mismatch at elements {bad_t}"),
        *check_duality(P).checks(),
        (
            "threshold-existence-and-monotonicity",
            r.get(0) == 0
            and r_def.get(0) == 0
            and sorted(r) == list(range(P.full_rank + 1))
            and sorted(r_def) == list(range(full_deficiency(P) + 1))
            and all(r[k] <= r[k + 1] for k in range(P.full_rank))
            and all(r_def[k] <= r_def[k + 1] for k in range(full_deficiency(P)))
            and all(v <= P.n for v in r.values())
            and all(v <= P.n for v in r_def.values()),
            f"rank-drop {dict(r)}, deficiency {dict(r_def)}",
        ),
        # Rank drops in the dual equal deficiencies here outright; the
        # reverse reading needs the coordinate minima at zero first, since
        # the dual's deficiency of J is this rank drop of J minus the
        # singleton drops inside J.
        (
            "thresholds-swap-under-duality",
            r_def == rank_drop_thresholds(dual)
            and rank_drop_thresholds(P.grounded()) == deficiency_thresholds(dual),
            "threshold maps do not swap",
        ),
        (
            "circuits-are-dual-hyperplane-complements",
            circuits == swapped,
            f"{dict(circuits)} vs {swapped}",
        ),
        (
            "families-empty-below-first-threshold",
            all(not hyperplanes[j] for j in range(min(r1, P.n + 1) if r1 is not None else P.n + 1))
            and all(not circuits[j] for j in range(min(r1_def, P.n + 1) if r1_def is not None else P.n + 1)),
            "nonempty family below its first threshold",
        ),
        ("exterior-formula-in-range", not ext_bad, f"mismatch at indices {ext_bad}"),
        ("interior-formula-in-range", not int_bad, f"mismatch at indices {int_bad}"),
        ("relabeling-invariance", not perm_bad, f"changed under {perm_bad}"),
        (
            "unimodal-guaranteed-prefixes",
            is_unimodal(exterior.coeffs[: exterior_formula_range(P)])
            and is_unimodal(interior.coeffs[: interior_formula_range(P)]),
            f"exterior {exterior.coeffs} interior {interior.coeffs}",
        ),
    ]
    return [_result(*c) for c in checks]


def verify_matroid(M: Matroid) -> list[CheckResult]:
    checks = check_matroid_polynomials(M).checks()
    return verify_polymatroid(M.to_polymatroid()) + [_result(*c) for c in checks]


def verify_graph(G: Graph) -> list[CheckResult]:
    M = G.cycle_matroid()
    P = M.to_polymatroid()
    bonds = set(G.bonds())
    hyperplane_complements = {
        complement(h, G.edge_count)
        for group in hyperplane_sets(P).values()
        for h in group
    }
    ec = G.edge_connectivity()
    checks = [
        (
            "bonds-are-hyperplane-complements",
            bonds == hyperplane_complements,
            f"{sorted(bonds)} vs {sorted(hyperplane_complements)}",
        ),
        *(cut_formula_check(G, ec - 1).checks() if ec is not None else ()),
    ]
    return verify_matroid(M) + [_result(*c) for c in checks]


def verify_hypergraph(H: Hypergraph) -> list[CheckResult]:
    P = H.to_polymatroid()
    trees = H.tree_degree_vectors()
    bases = frozenset(P.bases())
    checks = [
        (
            "tree-degree-vectors-match-bases",
            trees == bases,
            f"trees only {sorted(trees - bases)}, bases only {sorted(bases - trees)}",
        ),
        *structure_report(H).checks(),
    ]
    return verify_polymatroid(P) + [_result(*c) for c in checks]
