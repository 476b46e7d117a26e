"""Independent answer checker for the benchmark.

Nothing here imports sparsedioph: determinants, lattice indices, primality
and factorization are re-implemented with different algorithms, so a
defect in the package cannot hide behind the same defect in its checker.
The generator in `workloads.py` uses the same functions to store the
answers that are mathematically unique (verdicts, delta, bounds reports)
with each instance; `check_answer` then compares the program's JSON
document against them and recomputes everything else (A x = b, signs,
support, lattice equality) from the instance itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


class WrongAnswer(Exception):
    """The program printed an answer that is not correct."""


# ---------------------------------------------------------------- arithmetic


def det(rows) -> int:
    """Exact determinant by Gaussian elimination over the rationals (the
    package uses fraction-free Bareiss elimination instead)."""
    a = [[Fraction(v) for v in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(out)


def columns(rows, idx):
    return [[row[j] for j in idx] for row in rows]


def lattice_index(rows, D: int) -> int:
    """Index in Z^m of the lattice spanned by the columns of `rows`, given
    a nonzero D with D*Z^m inside that lattice (|det| of any nonsingular
    column basis will do).

    Column echelon form with every entry kept modulo D; the vectors D*e_k
    are valid generators throughout, so the product of the pivots is the
    index (the gcd of the maximal minors).
    """
    m = len(rows)
    cols = [[rows[i][j] % D for i in range(m)] for j in range(len(rows[0]))]
    index = 1
    for i in range(m):
        piv = [0] * m
        piv[i] = D
        for c in cols:
            b = c[i]
            if b == 0:
                continue
            a = piv[i]
            g, s, t = _xgcd(a, b)
            new = [s * x + t * y for x, y in zip(piv, c)]
            c[:] = [((a // g) * y - (b // g) * x) % D for x, y in zip(piv, c)]
            new[i] = g
            piv = [new[k] % D if k > i else new[k] for k in range(m)]
        index *= piv[i]
        cols = [c for c in cols if any(c[i + 1 :])]
    return index


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a base set that is a proof below 3.3e24; larger
    inputs are only tested by the generator, where a pseudoprime would
    merely make a hard instance easier."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    # Pollard rho with Floyd cycle detection; n odd composite.
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; meant for inputs below about 2^70."""
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
        else:
            d = _rho(v)
            stack += [d, v // d]
    return out


def omega_truncated(z: int, m: int) -> int:
    return sum(min(s, m) for s in factor(z).values())


# ------------------------------------------------------- expected answers


def lattice_facts(rows, tau):
    """(gcd of maximal minors, delta) for a full-row-rank matrix and a
    nonsingular basis tau."""
    d_tau = abs(det(columns(rows, [j - 1 for j in tau])))
    g = lattice_index(rows, d_tau)
    return g, d_tau // g


def floor_log2_sqrt(v: int) -> int:
    return (v.bit_length() - 1) // 2


def gram_det(rows) -> int:
    return det([[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows])


def bounds_report(rows, tau, designated: int) -> dict:
    """The `bounds` subcommand's result, for an all-positive matrix whose
    column `designated` (1-based) is known to span an extreme ray and to be
    the first column that does. The pointed-cone sum of squared minors
    through that column is taken by Cauchy-Binet,
    det(A A^T) - det(A' A'^T) with A' = A without the column."""
    m = len(rows)
    g, delta = lattice_facts(rows, tau)
    full = gram_det(rows)
    rest = [[v for j, v in enumerate(r) if j != designated - 1] for r in rows]
    through = full - gram_det(rest)
    knapsack = None
    if m == 1:
        knapsack = 1 + ((min(rows[0]) // g).bit_length() - 1)
    return {
        "adno_bound": str(m + floor_log2_sqrt(full // (g * g))),
        "thm1_semigroup_bound": str(2 * m + omega_truncated(delta, m)),
        "pointed_cone_bound": str(m + floor_log2_sqrt(through // (g * g))) if through else None,
        "pointed_cone_note": "bound only, non-constructive",
        "knapsack_bound": None if knapsack is None else str(knapsack),
        "gcd": str(g),
    }


# ----------------------------------------------------------------- checker


@dataclass(frozen=True)
class Outcome:
    """What one correct answer contributes to the end-to-end metrics."""

    support: int
    x_bits: Optional[int]  # None when the instance has no solution vector


def mat_vec(rows, x):
    return [sum(a * v for a, v in zip(r, x)) for r in rows]


def _require(cond: bool, what: str):
    if not cond:
        raise WrongAnswer(what)


def _check_bound(result: dict, expected: Optional[int]):
    bound = int(result["bound"])
    if expected is None:
        return bound
    if result.get("bound_exact") is False:
        _require(bound >= expected, f"bound {bound} below the exact bound {expected}")
    else:
        _require(bound == expected, f"bound {bound} != {expected}")
    return bound


def check_answer(expect: dict, code: int, doc: dict) -> Outcome:
    """Check one successful run (exit 0 or 2) against the instance.

    Raises WrongAnswer on any discrepancy.
    """
    kind = expect["kind"]
    rows = expect["A"]
    m, n = len(rows), len(rows[0])
    if "tau" in doc.get("instance", {}):
        tau = tuple(int(v) for v in doc["instance"]["tau"])
        _require(tau == expect["tau"], f"default tau {tau} != {expect['tau']}")
    if kind == "bounds":
        _require(code == 0, f"bounds exited {code}")
        _require(doc["result"] == expect["report"], f"bounds report {doc['result']}")
        return Outcome(support=0, x_bits=None)
    if kind == "sparsify":
        _require(code == 0, f"sparsify exited {code}")
        res = doc["result"]
        gamma = [int(v) for v in res["gamma"]]
        _require(gamma == sorted(set(gamma)), "gamma not strictly increasing")
        _require(all(1 <= j <= n for j in gamma), "gamma out of range")
        _require(set(expect["tau"]) <= set(gamma), "gamma does not contain tau")
        _require(int(res["size"]) == len(gamma), "size differs from |gamma|")
        _require(int(res["delta"]) == expect["delta"], f"delta {res['delta']} != {expect['delta']}")
        bound = _check_bound(res, expect["bound"])
        _require(len(gamma) <= bound, "|gamma| exceeds the bound")
        # A_gamma spans the lattice of A iff its maximal minors have the
        # same gcd; every one is a multiple of g, so stop once g is reached.
        g = expect["g"]
        acc = 0
        for combo in itertools.combinations([j - 1 for j in gamma], m):
            acc = math.gcd(acc, det(columns(rows, combo)))
            if acc == g:
                break
        _require(acc == g, f"gcd of minors of A_gamma is {acc}, lattice index is {g}")
        return Outcome(support=len(gamma), x_bits=None)

    feasible = expect["feasible"]
    if not feasible:
        _require(code == 2 and doc["status"] == "infeasible",
                 f"infeasible instance answered with exit {code}")
        return Outcome(support=0, x_bits=None)
    _require(code == 0 and doc["status"] == "solved",
             f"feasible instance answered with exit {code}")
    res = doc["result"]
    x = [int(v) for v in res["x"]]
    _require(len(x) == n, "x has the wrong length")
    _require(mat_vec(rows, x) == list(expect["b"]), "A x != b")
    if kind != "solve-dioph":
        _require(all(v >= 0 for v in x), "x has negative entries")
    support = sum(1 for v in x if v)
    _require(int(res["support"]) == support, "reported support differs from nnz(x)")
    bound = _check_bound(res, expect["bound"])
    _require(support <= bound, "support exceeds the bound")
    return Outcome(support=support, x_bits=max(abs(v) for v in x).bit_length())
