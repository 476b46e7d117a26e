"""Seeded instance sets for the benchmark's three workloads.

Each workload is a fixed list of instance classes and sizes (a ladder);
the seed only draws the entries. Every instance stores the facts that its
answer is checked against (`Instance.expect`), computed here with the
checker's own arithmetic, so the program under test sees nothing but the
generated matrix/rhs files and CLI arguments.

Sizes are chosen so that every instance either finishes far below its
workload's per-instance limit or fails far above it; that keeps the set of
failing instances, and so the failed share, the same on every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import check

# Per-instance wall limit in seconds. On the parent commit successes stay
# at least 3x below it and the failing classes need at least 4x more.
LIMIT_S = {"lattice": 0.4, "nonneg": 4.0, "knapsack": 5.0}


@dataclass
class Instance:
    label: str  # class and size, e.g. "small-delta m4 n20 b6 solve"
    argv: list  # CLI arguments without --json; file arguments are keys of `files`
    files: dict  # file name -> text
    expect: dict  # facts for check.check_answer; expect["A"] is the matrix

    @property
    def cols(self) -> int:
        return len(self.expect["A"][0])


def digest(instances) -> str:
    """Stable digest of an instance list (arguments, files and facts)."""
    blob = json.dumps(
        [[i.label, i.argv, sorted(i.files.items()), i.expect] for i in instances],
        sort_keys=True,
        default=list,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------------ helpers


def _rand_rows(rng, m, n, bits):
    hi = 1 << bits
    return [[rng.randint(-hi, hi) for _ in range(n)] for _ in range(m)]


def _matrix_text(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in rows
    )


def _geom(lo, hi, count):
    """`count` integers spaced geometrically from lo to hi."""
    return tuple(round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count))


def _bits_for(m, log2_bound):
    """Largest entry bit length b with (sqrt(m) * 2^b)^m <= 2^log2_bound,
    the Hadamard bound on any m x m minor."""
    return int(log2_bound / m - math.log2(m) / 2)


def greedy_basis(rows):
    """Lexicographically first nonsingular column basis (1-based), by the
    matroid greedy scan with exact rational elimination; None if A lacks
    full row rank."""
    basis, picked = [], []  # reduced columns with their pivot rows
    for j in range(len(rows[0])):
        v = [Fraction(r[j]) for r in rows]
        for p, b in basis:
            if v[p]:
                f = v[p] / b[p]
                v = [x - f * y for x, y in zip(v, b)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is not None:
            basis.append((p, v))
            picked.append(j + 1)
            if len(picked) == len(rows):
                return tuple(picked)
    return None


class _Builder:
    def __init__(self, rng):
        self.rng = rng
        self.instances: list[Instance] = []

    def _file(self, suffix, text, files):
        name = f"i{len(self.instances):03d}.{suffix}"
        files[name] = text
        return name

    def matrix_cmd(self, label, command, rows, feasible=True, tau=None, delta_factors=None):
        """A sparsify, solve-dioph or solve-semigroup instance on matrix and
        rhs files.

        A solve gets b = A x0, or, when infeasible, b = A x0 + e_r after row
        r was multiplied by k in {2, 3}: every lattice vector then has that
        coordinate divisible by k. The expected bound needs omega of delta,
        which is computed when delta is small or its prime factors
        `delta_factors` are known by construction.
        """
        rng = self.rng
        rows = [list(r) for r in rows]
        m, n = len(rows), len(rows[0])
        semigroup = command == "solve-semigroup"
        b = None
        if command != "sparsify":
            x0 = [rng.randint(0 if semigroup else -3, 3) if rng.random() < 0.7 else 0
                  for _ in range(n)]
            x0[rng.randrange(n)] = 3
            r = rng.randrange(m)
            if not feasible:
                k = rng.choice((2, 3))
                rows[r] = [k * v for v in rows[r]]
            b = check.mat_vec(rows, x0)
            b[r] += 0 if feasible else 1
        tau = tau or greedy_basis(rows)
        g, delta = check.lattice_facts(rows, tau)
        if delta_factors is not None and g == 1:
            omega = sum(min(s, m) for s in delta_factors.values())
        elif delta.bit_length() <= 64:
            omega = check.omega_truncated(delta, m)
        else:
            omega = None
        files = {}
        argv = [command, "--matrix-file", self._file("A", _matrix_text(rows), files)]
        if b is not None:
            argv += ["--rhs-file", self._file("b", " ".join(map(str, b)) + "\n", files)]
        expect = {"kind": command, "A": rows, "b": b, "feasible": feasible, "tau": tau,
                  "g": g, "delta": delta,
                  "bound": None if omega is None else (2 * m if semigroup else m) + omega}
        self.instances.append(Instance(label, argv, files, expect))

    def bounds(self, label, rows):
        """A `bounds` instance on an all-positive matrix whose first column
        is its first extreme ray."""
        tau = greedy_basis(rows)
        files = {}
        argv = ["bounds", "--matrix-file", self._file("A", _matrix_text(rows), files)]
        expect = {"kind": "bounds", "A": rows, "tau": tau,
                  "report": check.bounds_report(rows, tau, 1)}
        self.instances.append(Instance(label, argv, files, expect))

    def knapsack(self, label, mode, a, b, feasible):
        """A `knapsack --positive` (weights in increasing order) or
        `knapsack --mixed` instance with inline arguments."""
        if mode == "positive":
            a = sorted(a)
        g = math.gcd(*a)
        if mode == "positive":
            bound = 1 + ((a[0] // g).bit_length() - 1)
        else:
            bound = 2 + min(len(check.factor(abs(v) // g)) for v in a)
        argv = ["knapsack", f"--{mode}", "--a", " ".join(map(str, a)), "--b", str(b)]
        expect = {"kind": f"knapsack-{mode}", "A": [a], "b": [b], "feasible": feasible,
                  "bound": bound}
        self.instances.append(Instance(label, argv, {}, expect))


# ------------------------------------------------------------------ lattice

# Generic ladders (m, n). The seed draws only the entries, and the entry
# size is set per m so that the cost of factoring delta is fixed by the
# stratum rather than by chance:
# - small: |det| <= 2^30, so trial division stops below 2^15 at once and
#   HNF/membership does the work;
# - prime: |det| <= 2^62 and delta is redrawn until its largest prime
#   factor exceeds 2^40, so trial division runs its whole 10^6 range and
#   rho only meets factors below 2^24. Rho-hard deltas are their own class.
SMALL_DELTA = tuple((m, n) for m, ns in (
    (2, (8, 14, 20, 28, 40, 56)), (3, (8, 14, 20, 28, 40, 56)), (4, (8, 14, 20, 28, 40)),
    (5, (10, 14, 20, 28, 36)), (6, (10, 14, 20, 28, 36)), (7, (10, 14, 20, 28)),
    (8, (12, 16, 20, 28)), (9, (12, 16, 20, 26)), (10, (12, 16, 20, 24))) for n in ns)
PRIME_DELTA = tuple((m, n) for m in range(3, 11) for n in (m + 3, 2 * m + 4))

# Two parallel leading columns (m, n, bits): the default-tau scan tries
# C(n-2, m-2) singular subsets first. Small ones finish in milliseconds,
# large ones need seconds to minutes today and hit the limit.
DEPENDENT_SMALL = ((3, 10, 6), (3, 14, 6), (4, 12, 6), (4, 16, 5), (5, 12, 5), (5, 14, 4),
                   (6, 12, 3), (6, 14, 3))
DEPENDENT_LARGE = ((7, 30, 2), (8, 28, 2))


def _generic_rows(rng, m, n, bits, prime):
    lead = tuple(range(1, m + 1))
    while True:
        rows = _rand_rows(rng, m, n, bits)
        if check.det(check.columns(rows, range(m))) == 0:
            continue
        if not prime or max(check.factor(check.lattice_facts(rows, lead)[1])) > 1 << 40:
            return rows, lead


def _hard_delta_rows(rng, m, n):
    """m x n matrix with entries of about 20 bits whose leading m x m block
    has determinant p1 * p2 * s: p1, p2 primes above 2^55 (a cofactor that
    Pollard rho cannot split within its iteration cap) and s a product of
    (m - 6) 20-bit numbers. Returns the rows and the factors of the det."""
    hi = 1 << 20
    blocks, factors = [], {}
    for _ in range(2):
        while True:
            blk = [[rng.randint(-hi, hi) for _ in range(3)] for _ in range(3)]
            d = abs(check.det(blk))
            if d >= 1 << 55 and check.is_prime(d):
                break
        blocks.append(blk)
        factors[d] = factors.get(d, 0) + 1
    for _ in range(m - 6):
        v = rng.randint(2, hi)
        blocks.append([[v]])
        for p, s in check.factor(v).items():
            factors[p] = factors.get(p, 0) + s
    M = [[0] * m for _ in range(m)]
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            M[at + i][at:at + len(row)] = row
        at += len(blk)
    # Unit lower-triangular row mixing keeps det and hides the blocks.
    U = [[rng.choice((-1, 0, 1)) if j < i else int(i == j) for j in range(m)] for i in range(m)]
    M = [[sum(U[i][k] * M[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    rest = _rand_rows(rng, m, n - m, 20)
    return [M[i] + rest[i] for i in range(m)], factors


def lattice(seed: int) -> list[Instance]:
    rng = random.Random(f"lattice:{seed}")
    bld = _Builder(rng)
    ladder = [(m, n, _bits_for(m, 30), False) for m, n in SMALL_DELTA * 2]
    ladder += [(m, n, _bits_for(m, 62), True) for m, n in PRIME_DELTA]
    for k, (m, n, bits, prime) in enumerate(ladder):
        rows, tau = _generic_rows(rng, m, n, bits, prime)
        name = f"{'prime' if prime else 'small'}-delta m{m} n{n} b{bits}"
        bld.matrix_cmd(f"{name} sparsify", "sparsify", rows, tau=tau)
        bld.matrix_cmd(f"{name} solve", "solve-dioph", rows, tau=tau)
        if k % 2:
            bld.matrix_cmd(f"{name} solve-infeasible", "solve-dioph", rows, False, tau=tau)
    for k, (m, n, bits) in enumerate(DEPENDENT_SMALL + DEPENDENT_LARGE):
        rows = _rand_rows(rng, m, n, bits)
        c = rng.choice((-2, -1, 2, 3))
        for r in rows:
            r[1] = c * r[0]
        command = ("sparsify", "solve-dioph")[k % 2]
        bld.matrix_cmd(f"dependent m{m} n{n} b{bits} {command}", command, rows)
    for m, n, command in ((6, 12, "sparsify"), (7, 16, "solve-dioph")):
        rows, factors = _hard_delta_rows(rng, m, n)
        bld.matrix_cmd(f"hard-delta m{m} n{n} {command}", command, rows, delta_factors=factors)
    # The ROADMAP probe: 10 x 100 with |a| <= 10^6.
    for command in ("sparsify", "solve-dioph"):
        rows = [[rng.randint(-10**6, 10**6) for _ in range(100)] for _ in range(10)]
        bld.matrix_cmd(f"probe m10 n100 {command}", command, rows)
    return bld.instances


# ------------------------------------------------------------------- nonneg

# solve-semigroup ladder (m, n, bits): n - 1 random columns plus one that
# makes a strictly positive kernel vector, so the columns positively span.
SEMIGROUP_LADDER = ((2, 5, 6), (2, 8, 5), (2, 12, 4), (2, 16, 3), (3, 6, 5), (3, 10, 4),
                    (3, 14, 3), (3, 18, 2), (4, 7, 4), (4, 10, 3), (4, 14, 3), (4, 18, 2),
                    (5, 8, 3), (5, 12, 2), (5, 16, 2), (5, 20, 2))
# knapsack --mixed sizes; |a_i| <= 10^6. Infeasible ones stop at the gcd test.
MIXED_SIZES = tuple(range(4, 30, 2)) + (32, 36, 40)
MIXED_INFEASIBLE_SIZES = (4, 8, 12, 16, 20)
# bounds ladder (m, n, bits) on pointed, all-positive matrices; the
# pointed-cone bound enumerates C(n-1, m-1) minors today.
BOUNDS_LADDER = ((1, 8, 20), (1, 16, 16), (1, 32, 12), (2, 8, 10), (2, 16, 9), (2, 32, 8),
                 (3, 8, 8), (3, 16, 7), (3, 28, 6), (4, 8, 6), (4, 14, 6), (4, 20, 5),
                 (5, 8, 5), (5, 12, 5), (5, 16, 4), (6, 9, 4), (6, 12, 4), (6, 14, 3))


def _posspan_rows(rng, m, n, bits):
    while True:
        rows = _rand_rows(rng, m, n - 1, bits)
        y = [rng.randint(1, 3) for _ in range(n - 1)]
        for r in rows:
            r.append(-sum(a * c for a, c in zip(r, y)))
        if greedy_basis(rows) is not None:
            return rows


def _pointed_rows(rng, m, n, bits):
    """All-positive m x n matrix whose first column spans an extreme ray:
    f = (-1, B, ..., B) is >= 0 on every other column and -1 on it."""
    B = 1 << bits
    rows = [[rng.randint(1, B) for _ in range(n)] for _ in range(m)]
    if m > 1:
        rows[0][0] = B * sum(rows[i][0] for i in range(1, m)) + 1
    return rows


def nonneg(seed: int) -> list[Instance]:
    rng = random.Random(f"nonneg:{seed}")
    bld = _Builder(rng)
    for m, n, bits in SEMIGROUP_LADDER * 4:
        rows = _posspan_rows(rng, m, n, bits)
        for feasible in (True, False):
            label = f"semigroup m{m} n{n} b{bits}{'' if feasible else ' infeasible'}"
            bld.matrix_cmd(label, "solve-semigroup", rows, feasible)
    for n, feasible in [(n, True) for n in MIXED_SIZES * 2] + [
            (n, False) for n in MIXED_INFEASIBLE_SIZES * 2]:
        # Infeasible by construction: gcd(a) > 1 does not divide b.
        k = rng.choice((1, 1, 2)) if feasible else rng.choice((2, 3))
        a = [rng.choice((-1, 1)) * rng.randint(1, 10**6 // k) * k for _ in range(n)]
        a[0], a[1] = abs(a[0]), -abs(a[1])
        g = math.gcd(*a)
        b = rng.randint(-10**6, 10**6) // g * g + (0 if feasible else 1)
        bld.knapsack(f"mixed n{n}", "mixed", a, b, feasible)
    for m, n, bits in BOUNDS_LADDER * 5:
        bld.bounds(f"bounds m{m} n{n} b{bits}", _pointed_rows(rng, m, n, bits))
    return bld.instances


# ----------------------------------------------------------------- knapsack

# knapsack --positive regimes. A pass takes about 3.5 s, so a 30 s run
# makes about eight: the DP loop is the most drift-prone code on a shared
# host, and its percentiles need many samples spread over the run.
# (a) a_min <= 60, the DP runs to b/g.
# Targets and a_min are paired deterministically, so the size of the
# answer, about b/a_min, is set by the ladder and not by chance.
KNAP_SMALL = tuple(zip(_geom(10**4, 10**6, 24), (3 + 7 * k % 58 for k in range(24))))
# (b) a_min from 10^4 to 10^5, b a few multiples of a_max:
KNAP_LARGE_AMIN = _geom(10**4, 10**5, 16)
# (c) b/g beyond the default DP cap of 10^7:
KNAP_CAP_TARGETS = _geom(2 * 10**7, 10**9, 3)


def _coprime(rng, amin, n, amax):
    """amin and n - 1 weights from (amin, amax] with gcd 1, so that the DP
    runs over all of b and not b/g for a g left to chance."""
    while True:
        a = [amin] + [rng.randint(amin + 1, amax) for _ in range(n - 1)]
        if math.gcd(*a) == 1:
            return a


def knapsack(seed: int) -> list[Instance]:
    rng = random.Random(f"knapsack:{seed}")
    bld = _Builder(rng)
    # Weight counts cycle with the ladder index, so the support of the
    # answers (and of the failures, counted as n) does not depend on the seed.
    for k, (target, amin) in enumerate(KNAP_SMALL):
        n = 2 + k % 5
        a = _coprime(rng, amin, n, 10 * amin)
        x = [target // amin] + [rng.randint(0, 1) for _ in range(n - 1)]
        b = check.mat_vec([a], x)[0]
        bld.knapsack(f"small-amin n{n} a{amin} b{target}", "positive", a, b, True)
    for k, amin in enumerate(KNAP_LARGE_AMIN):
        n = 2 + k % 4
        a = _coprime(rng, amin, n, amin * 3 // 2)
        bld.knapsack(f"large-amin n{n} a{amin}", "positive", a, sum(a), True)
    for _ in range(6):
        c = rng.choice((2, 3))
        a = [c * rng.randint(2, 500) for _ in range(rng.randint(2, 5))]
        bld.knapsack("infeasible gcd", "positive", a, c * rng.randint(10, 10**5) + 1, False)
        a = [rng.randint(100, 10**5) for _ in range(rng.randint(2, 5))]
        bld.knapsack("infeasible below-a_min", "positive", a, rng.randint(1, min(a) - 1), False)
    for k, target in enumerate(KNAP_CAP_TARGETS):
        n = 2 + k % 4
        a = [0]
        while math.gcd(*a) != 1:
            a = [rng.randint(3, 1000) for _ in range(n)]
        x = [target // a[0]] + [rng.randint(0, 3) for _ in range(n - 1)]
        b = check.mat_vec([a], x)[0]
        bld.knapsack(f"over-cap n{n} b{target}", "positive", a, b, True)
    return bld.instances


WORKLOADS = {"lattice": lattice, "nonneg": nonneg, "knapsack": knapsack}


def build(workload: str, seed: int) -> list[Instance]:
    """The instance list of one workload, shuffled by the seed."""
    instances = WORKLOADS[workload](seed)
    random.Random(f"order:{workload}:{seed}").shuffle(instances)
    return instances
