import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedioph.exactlp import basic_feasible_point
from oracles import basic_feasible_point_fraction

ENTRY = st.integers(-6, 6)


def as_fractions(point):
    """The point x / d of a (x, d) answer, checking the integer contract."""
    if point is None:
        return None
    x, d = point
    assert type(d) is int and d > 0
    assert all(type(v) is int for v in x)
    return [Fraction(v, d) for v in x]


@st.composite
def lp_systems(draw):
    """A x = b with m <= 6, n <= 9, integer entries, some rows duplicated
    (possibly scaled) or zero, and b either A w for an integer w >= 0 or
    drawn freely (often infeasible, signs mixed)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 9))
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(["new", "new", "copy", "zero"]))
        if kind == "copy" and rows:
            source = rows[draw(st.integers(0, len(rows) - 1))]
            factor = draw(st.sampled_from([1, -1, 2, -3]))
            rows.append([factor * v for v in source])
        elif kind == "zero":
            rows.append([0] * n)
        else:
            rows.append(draw(st.lists(ENTRY, min_size=n, max_size=n)))
    if draw(st.booleans()):
        weight = st.sampled_from([0, 0, 1, 2, 3])
        w = draw(st.lists(weight, min_size=n, max_size=n))
        rhs = [sum(a * v for a, v in zip(row, w)) for row in rows]
    else:
        rhs = draw(st.lists(ENTRY, min_size=m, max_size=m))
    return rows, rhs


def test_trivial_zero_system():
    assert as_fractions(basic_feasible_point([[1, 0], [0, 1]], [0, 0])) == [0, 0]


def test_simple_feasible():
    point = as_fractions(basic_feasible_point([[1, 1]], [3]))
    assert point is not None
    assert sum(point) == 3
    assert all(v >= 0 for v in point)


def test_infeasible():
    assert basic_feasible_point([[1, 1]], [-1]) is None
    # Feasible over the rationals only: x = (3/2, 0).
    assert as_fractions(basic_feasible_point([[2, 4]], [3])) == [Fraction(3, 2), 0]
    assert basic_feasible_point([[1, 1], [1, 1]], [1, 2]) is None


def test_redundant_rows_are_dropped():
    point = as_fractions(basic_feasible_point([[1, 2], [2, 4]], [3, 6]))
    assert point is not None
    assert point[0] + 2 * point[1] == 3


def test_exact_fractions():
    # x = 1/3 comes back as a numerator over the tableau denominator.
    x, d = basic_feasible_point([[3]], [1])
    assert d > 0
    assert x[0] > 0 and 3 * x[0] == d


def test_random_instances_are_basic():
    rng = random.Random(99)
    feasible_seen = 0
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            # Force feasibility with a random nonnegative witness.
            witness = [rng.randint(0, 4) for _ in range(n)]
            rhs = [sum(r * w for r, w in zip(row, witness)) for row in rows]
        else:
            rhs = [rng.randint(-10, 10) for _ in range(m)]
        point = basic_feasible_point(rows, rhs)
        if point is None:
            continue
        feasible_seen += 1
        x, d = point
        assert d > 0
        assert all(v >= 0 for v in x)
        for row, target in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, x)) == target * d
        assert sum(1 for v in x if v != 0) <= m
    assert feasible_seen > 40


def test_the_artificial_of_a_redundant_row_stays_basic():
    # The second row is twice the first: phase I ends with its artificial
    # basic at level zero, and x is read off the structural columns.
    rows = [[1, 1, 0], [2, 2, 0], [0, 0, 3]]
    point = as_fractions(basic_feasible_point(rows, [0, 0, 5]))
    assert point == [0, 0, Fraction(5, 3)]
    assert point == basic_feasible_point_fraction(rows, [0, 0, 5])


@settings(max_examples=400, deadline=None)
@given(lp_systems())
def test_matches_the_fraction_simplex(system):
    # Same pivots, so the same point; an inexact integer division anywhere
    # in the tableau would change it.
    rows, rhs = system
    point = as_fractions(basic_feasible_point(rows, rhs))
    assert point == basic_feasible_point_fraction(rows, rhs)
