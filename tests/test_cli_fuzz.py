"""Whole-CLI fuzz test: random argvs for every subcommand, valid or not,
must end cleanly.

Each run must exit with 0, 1, 2 or 3 and print no traceback, every
`undetermined` JSON document must give its reason, and every `solved` or
`infeasible` JSON document must pass a check from `oracles.py` that does
not run the code that produced it. The arguments stay at desk scale; the
package's own counted caps bound the rest of the work, so the test needs
no alarm. Matrix and rhs files with a byte outside ASCII must end as one
input error that names the file, line and column of that byte, and an
integer with an underscore or a digit outside ASCII, in any argument, as
one input or usage error.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedioph import IntMatrix, cli, oracle
from oracles import (
    icr_scan_from_scratch,
    identity,
    lattice_equal,
    lattice_member_transform,
    min_support_bounded,
    minors_gcd,
    perm_det,
    solve_knapsack_positive_dp,
    trial_factorize,
)

COMMANDS = ("sparsify", "solve-dioph", "solve-semigroup", "knapsack", "bounds",
            "worst-case", "oracle", "icr-scan", "factor")
ENTRY = st.one_of(st.integers(-9, 9), st.integers(-9, 9), st.integers(-2**40, 2**40))


def _ints(values) -> str:
    return " ".join(map(str, values))


@st.composite
def _matrix(draw, max_rows=3, max_cols=5, entry=ENTRY):
    m = draw(st.integers(1, max_rows))
    # Mostly at least as many columns as rows.
    n = draw(st.integers(m, max(m, max_cols)) | st.integers(1, max_cols))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


def _matrix_args(rows):
    return ["--matrix", "; ".join(map(_ints, rows))]


def _rhs_args(draw, rows):
    # Mostly of the right length, sometimes one short or one long.
    length = len(rows) + draw(st.sampled_from((0, 0, 0, -1, 1)))
    return ["--rhs", _ints(draw(st.lists(st.integers(-20, 20), min_size=length,
                                         max_size=length)))]


def _tau_args(draw, rows):
    # No --tau, m increasing columns, which may be dependent, or 1-based
    # indices that may be out of range, unsorted or of the wrong size.
    m, n = len(rows), len(rows[0])
    kind = draw(st.sampled_from(("default", "default", "columns", "any")))
    if kind == "default":
        return []
    if kind == "columns" and m <= n:
        tau = sorted(draw(st.lists(st.integers(1, n), min_size=m, max_size=m, unique=True)))
    else:
        tau = draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=4))
    return ["--tau", _ints(tau)]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command in ("sparsify", "bounds", "solve-dioph", "solve-semigroup"):
        rows = draw(_matrix())
        argv += _matrix_args(rows)
        if command.startswith("solve"):
            argv += _rhs_args(draw, rows)
        argv += _tau_args(draw, rows)
        if command == "bounds" and draw(st.booleans()):
            argv += ["--extreme-ray", str(draw(st.integers(-1, len(rows[0]) + 1)))]
    elif command == "knapsack":
        a = draw(st.lists(st.integers(-30, 30), max_size=6))
        argv += ["--a", _ints(a), "--b", str(draw(st.integers(-50, 10**4))),
                 draw(st.sampled_from(("--positive", "--mixed")))]
        if draw(st.booleans()):
            argv += ["--b-cap", str(draw(st.integers(-1, 300)))]
    elif command == "worst-case":
        m = draw(st.one_of(st.integers(-1, 6), st.integers(10**3, 10**12)))
        argv += ["--m", str(m), "--delta", str(draw(st.integers(-1, 10**4)))]
    elif command == "oracle":
        rows = draw(_matrix(max_rows=2, max_cols=4,
                            entry=st.one_of(st.integers(-6, 6), st.integers(-2**40, 2**40))))
        argv += _matrix_args(rows) + _rhs_args(draw, rows)
        if draw(st.booleans()):
            argv += ["--k-max", str(draw(st.integers(-1, 5)))]
    elif command == "icr-scan":
        argv += ["--a", _ints(draw(st.lists(st.integers(-2, 20), max_size=4))),
                 "--b-max", str(draw(st.integers(-1, 60)))]
    else:
        argv += [str(draw(st.integers(-5, 10**9)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _matrix_of(doc) -> IntMatrix:
    return IntMatrix.from_rows([[int(v) for v in row]
                                for row in doc["instance"]["matrix"]["entries"]])


def _vector(values) -> tuple:
    return tuple(int(v) for v in values)


def _row_semigroup_lacks(row, b) -> bool:
    """Whether no x >= 0 has row . x = b, by the sign cases and the
    reference dynamic program."""
    positives = [v for v in row if v > 0]
    negatives = [-v for v in row if v < 0]
    if positives and negatives:
        return b % math.gcd(*row) != 0
    if not positives and not negatives:
        return b != 0
    weights, target = (positives, b) if positives else (negatives, -b)
    return target < 0 or solve_knapsack_positive_dp(weights, target) is None


def check(doc) -> None:
    """An independent check of one solved or infeasible document."""
    command, status, result = doc["command"], doc["status"], doc.get("result")
    if command == "sparsify":
        A = _matrix_of(doc)
        gamma = _vector(result["gamma"])
        assert set(_vector(doc["instance"]["tau"])) <= set(gamma)
        assert len(gamma) <= int(result["bound"])
        assert lattice_equal(A, A.take_columns([j - 1 for j in gamma]))
    elif command in ("solve-dioph", "solve-semigroup"):
        A, b = _matrix_of(doc), _vector(doc["instance"]["rhs"])
        if status == "infeasible":
            assert lattice_member_transform(A, b) is None
            return
        x = _vector(result["x"])
        assert A.mat_vec(x) == b
        assert command == "solve-dioph" or min(x) >= 0
        assert sum(1 for v in x if v) == int(result["support"]) <= int(result["bound"])
    elif command == "knapsack":
        a, b = _vector(doc["instance"]["a"]), int(doc["instance"]["b"])
        if status == "infeasible":
            assert _row_semigroup_lacks(a, b)
            return
        x = _vector(result["x"])
        assert min(x) >= 0 and sum(v * w for v, w in zip(x, a)) == b
        assert sum(1 for v in x if v) == int(result["support"]) <= int(result["bound"])
    elif command == "bounds":
        assert int(result["gcd"]) == minors_gcd(_matrix_of(doc))
    elif command == "worst-case":
        M = IntMatrix.from_rows([[int(v) for v in row] for row in result["matrix"]["entries"]])
        m = int(doc["instance"]["m"])
        assert M.rows == m and lattice_equal(M, identity(m))
        first = [list(M.row(i))[:m] for i in range(m)]
        assert abs(perm_det(first)) == int(doc["instance"]["delta"])
    elif command == "oracle":
        A, b = _matrix_of(doc), _vector(doc["instance"]["rhs"])
        # Entries up to 4 on the support: no proof of infeasibility, but
        # an upper bound on the minimum.
        bounded = min_support_bounded(A, b, coord_cap=4)
        if status == "infeasible":
            assert bounded is None
            assert A.rows > 1 or _row_semigroup_lacks(A.row(0), b[0])
        else:
            assert (int(result["min_support"]) == 0) == (not any(b))
            assert bounded is None or int(result["min_support"]) <= bounded
    elif command == "icr-scan":
        a, b_max = _vector(doc["instance"]["a"]), int(doc["instance"]["b_max"])
        expected = icr_scan_from_scratch(a, b_max, oracle.ICR_SCAN_WORK_CAP)
        assert int(result["icr_lower_bound"]) == expected
    elif command == "factor":
        factors = [(int(p), int(s)) for p, s in result["factors"]]
        assert factors == trial_factorize(int(doc["instance"]["z"]))


@settings(max_examples=4000, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_every_run_ends_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    # argparse writes usage errors to sys.stderr itself.
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out, err=err)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and code == 3:
        # Every capped search names the cap that stopped it.
        doc = json.loads(out.getvalue())
        assert doc["status"] == "undetermined" and doc["reason"], (argv, doc)
    if "--json" in argv and code in (0, 2) and out.getvalue():
        doc = json.loads(out.getvalue())
        assert doc["status"] == ("solved" if code == 0 else "infeasible")
        check(doc)


# Zero of Arabic-Indic, Devanagari and fullwidth digits; int() reads all three.
DIGIT_ZEROS = ("\u0660", "\u0966", "\uff10")


@st.composite
def _loose_integer_argvs(draw):
    """An argv of `argvs` with one integer of one argument spelt with an
    underscore or with digits outside ASCII."""
    argv = draw(argvs())
    # Every command takes at least one integer.
    spots = [(i, m) for i, a in enumerate(argv[1:], 1) for m in re.finditer(r"[0-9]+", a)]
    i, match = draw(st.sampled_from(spots))
    digits = match.group()
    if draw(st.booleans()):
        loose = digits[0] + "_" + digits[1:] if len(digits) > 1 else digits + "_0"
    else:
        zero = ord(draw(st.sampled_from(DIGIT_ZEROS)))
        loose = "".join(chr(zero + int(d)) for d in digits)
    a = argv[i]
    return argv[:i] + [a[:match.start()] + loose + a[match.end():]] + argv[i + 1:]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_loose_integer_argvs())
def test_a_loose_integer_is_an_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out, err=err)
    assert (code, out.getvalue()) == (1, ""), argv
    assert "Traceback" not in err.getvalue()
    assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv


# Digits, signs and separators, CR, LF and NUL, and bytes outside ASCII.
FILE_BYTE = st.one_of(st.sampled_from(b"0123456789 -;\t\r\n\x00"), st.integers(0x80, 0xFF))
FILE_RUNS = (
    ["sparsify", "--matrix-file", "{f}"],
    ["bounds", "--matrix-file", "{f}"],
    ["solve-dioph", "--matrix-file", "{f}", "--rhs", "1"],
    ["solve-semigroup", "--matrix", "1 -1", "--rhs-file", "{f}"],
    ["oracle", "--matrix", "2 3", "--rhs-file", "{f}"],
)


@st.composite
def _non_ascii_files(draw):
    """Random bytes with a UTF-8 byte order mark in front or one byte
    outside ASCII somewhere."""
    data = bytes(draw(st.lists(FILE_BYTE, max_size=40)))
    if draw(st.booleans()):
        return b"\xef\xbb\xbf" + data
    at = draw(st.integers(0, len(data)))
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


def _first_non_ascii(data: bytes):
    """(line, column, byte) of the first byte outside ASCII, with CR LF, CR
    and LF each ending a line."""
    at = next(i for i, v in enumerate(data) if v > 0x7F)
    before = data[:at].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return before.count(b"\n") + 1, len(before) - before.rfind(b"\n"), data[at]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_non_ascii_files(), st.sampled_from(FILE_RUNS), st.booleans())
def test_a_non_ascii_file_is_an_input_error(data, argv, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input.txt")
        path.write_bytes(data)
        argv = [a.replace("{f}", str(path)) for a in argv] + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, out=out, err=err)
    line, column, byte = _first_non_ascii(data)
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", f"error: {path}:{line}:{column}: expected ASCII, got byte 0x{byte:02x}\n")
