"""Golden transcript of the CLI: exit code, stdout and stderr of every
subcommand in both output formats, for solved, infeasible, undetermined
and error runs, plus the README's examples.

The expected transcripts live in `cli_golden.json`, the one statement
of the CLI's behaviour. Every run is checked in-process; where the
`sparsedioph` console script is on PATH (`pip install .`), every run
that patches no module constant is also replayed through it in a fresh
process. After a deliberate change of output, rewrite the file as below,
which prints the name of every entry that changed, and review the diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sparsedioph import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
# The product of two primes above 2^45 on one diagonal entry of the basis:
# the short rho search cannot split it, and the bounds are certified only.
UNSPLIT = "1 0 -1; 0 1237940039290094980759032137 -1"
BIG_MIXED = "1329227995784916015866073631529372603 -3"
RANK_1 = "1 2 3;2 4 6"

FILES = {
    "A.txt": "2 3\n6 10 15\n4 6 9\n",
    "b.txt": "2 4\n",
    "bad.txt": "1 3\n6 ten 15\n",
    "bad-matrix.txt": "1 3\n4 x 9\n",
    # Written byte for byte: a UTF-8 byte order mark and a Latin-1 e-acute.
    "bom.txt": "\xef\xbb\xbf1 2\n3 4\n",
    "latin-1.txt": "1 2\n3 \xe9\n",
    "underscore.txt": "1 2\n1_2 +3\n",
}

# name -> (argv, module constants as {"module.NAME": value});
# every argv also runs with --json appended unless its name starts with
# "usage".
CASES = {
    # The README's CLI examples.
    "readme-sparsify": (["sparsify", "--matrix", "6 10 15", "--tau", "1"], {}),
    "readme-solve-dioph-files": (
        ["solve-dioph", "--matrix-file", "{tmp}/A.txt", "--rhs-file", "{tmp}/b.txt",
         "--tau", "1 2"], {}),
    "readme-solve-semigroup": (
        ["solve-semigroup", "--matrix", "1 0 -1; 0 1 -1", "--rhs", "-2 -2", "--tau", "1 2"], {}),
    "readme-knapsack-positive": (["knapsack", "--positive", "--a", "3 5 7", "--b", "15"], {}),
    "readme-knapsack-mixed": (["knapsack", "--mixed", "--a", "4 9 -15", "--b", "2"], {}),
    "readme-bounds": (["bounds", "--matrix", "3 5 7"], {}),
    "readme-worst-case": (["worst-case", "--m", "2", "--delta", "12"], {}),
    "readme-oracle": (["oracle", "--matrix", "6 10 15", "--rhs", "30"], {}),
    "readme-icr-scan": (["icr-scan", "--a", "2 3", "--b-max", "40"], {}),
    "readme-factor": (["factor", "360"], {}),
    # Solved.
    "sparsify-default-tau": (["sparsify", "--matrix", "2 0 4; 0 2 2"], {}),
    "sparsify-unsplit-delta": (["sparsify", "--matrix", UNSPLIT], {}),
    "sparsify-two-rows": (["sparsify", "--matrix", "6 10 15; 1 2 4"], {}),
    # delta is the product of two primes above 2^45, one on each diagonal
    # entry of tau's basis: the bound is exact, 2 + 2, with no bound_exact key.
    "sparsify-two-primes-exact-bound": (
        ["sparsify", "--matrix", "35184372088891 0 -1; 0 35184372088907 -1"], {}),
    "solve-dioph-sparse": (["solve-dioph", "--matrix", "4 6 9 15", "--rhs", "1"], {}),
    "solve-dioph-unsplit-delta": (["solve-dioph", "--matrix", UNSPLIT, "--rhs", "1 1"], {}),
    "solve-dioph-two-rows-tau": (
        ["solve-dioph", "--matrix", "4 6 9 15; 2 0 3 5", "--rhs", "3 5", "--tau", "1 3"], {}),
    "solve-semigroup-lifted": (
        ["solve-semigroup", "--matrix", "3 -2 0; 0 -2 5", "--rhs", "7 1"], {}),
    "knapsack-mixed-unsplit": (["knapsack", "--mixed", "--a", BIG_MIXED, "--b", "1"], {}),
    "knapsack-mixed-negative-b": (["knapsack", "--mixed", "--a", "6 -10 15", "--b", "-7"], {}),
    # --json writes exactly what json.dumps(doc, indent=2) writes.
    "knapsack-mixed-four-weights": (
        ["knapsack", "--mixed", "--a", "391 -221 1001 -4199", "--b", "4"], {}),
    # The walk back finds 5 x 7 + 4 + 5; two reduction passes cancel 7,
    # then 5, against the designated weight 3.
    "knapsack-positive-reduced": (["knapsack", "--positive", "--a", "7 4 3 5", "--b", "44"], {}),
    "knapsack-mixed-twelve-weights": (
        ["knapsack", "--mixed", "--a", "391 -221 1001 -4199 35 714 -95 2431 -646 187 -1105 858",
         "--b", "4"], {}),
    # One-row lifts: the kernel vector's extra column lies outside gamma,
    # gamma is the basis column alone, and a zero column sits beside the
    # basis the user chose.
    "solve-semigroup-one-row-entering-outside-gamma": (
        ["solve-semigroup", "--matrix", "8 5 -12", "--rhs", "2", "--tau", "1"], {}),
    "solve-semigroup-one-row-singleton-gamma": (
        ["solve-semigroup", "--matrix", "2 -4", "--rhs", "-2", "--tau", "1"], {}),
    "solve-semigroup-one-row-zero-column": (
        ["solve-semigroup", "--matrix", "6 0 -10 15", "--rhs", "-7", "--tau", "3"], {}),
    "bounds-two-rows": (["bounds", "--matrix", "2 0 4; 0 2 2"], {}),
    "bounds-extreme-ray": (["bounds", "--matrix", "1 2 3; 4 5 7", "--extreme-ray", "3"], {}),
    "bounds-mixed-row": (["bounds", "--matrix", "3 -5"], {}),
    "bounds-unsplit-delta": (["bounds", "--matrix", UNSPLIT], {}),
    # A row of one sign makes the cone pointed.
    "bounds-negative-row": (["bounds", "--matrix", "-3 -5 -7; 2 0 1"], {}),
    "worst-case-one-row": (["worst-case", "--m", "1", "--delta", "30"], {}),
    "oracle-two-rows": (["oracle", "--matrix", "1 0; 0 1", "--rhs", "2 3"], {}),
    "oracle-one-row-below-cap": (["oracle", "--matrix", "3 5", "--rhs", "10000000"], {}),
    "icr-scan-three": (["icr-scan", "--a", "6 10 15", "--b-max", "60"], {}),
    "factor-one": (["factor", "1"], {}),
    "factor-big": (["factor", str(2**80 * 3**5)], {}),
    # Infeasible.
    "solve-dioph-infeasible": (["solve-dioph", "--matrix", "4 6", "--rhs", "3", "--tau", "1"], {}),
    # b outside the lattice of A is proven infeasible: exit code 2.
    "solve-dioph-outside-lattice": (["solve-dioph", "--matrix", "2 4", "--rhs", "3"], {}),
    "solve-semigroup-infeasible": (
        ["solve-semigroup", "--matrix", "2 0 -2; 0 2 -2", "--rhs", "1 1"], {}),
    "solve-dioph-infeasible-two-rows": (
        ["solve-dioph", "--matrix", "2 4 6; 0 3 9", "--rhs", "1 3", "--tau", "1 2"], {}),
    "solve-semigroup-one-row-infeasible": (
        ["solve-semigroup", "--matrix", "6 -4 10", "--rhs", "3"], {}),
    "knapsack-positive-infeasible": (["knapsack", "--positive", "--a", "2 3", "--b", "1"], {}),
    "knapsack-mixed-infeasible": (["knapsack", "--mixed", "--a", "4 -6", "--b", "1"], {}),
    "oracle-infeasible": (["oracle", "--matrix", "2 4", "--rhs", "3"], {}),
    # Every column sums to 6 and 7 + 9 = 16 is no multiple of 6: b is
    # outside the lattice, which proves infeasibility with no enumeration.
    "oracle-two-rows-outside-lattice": (
        ["oracle", "--matrix", "1 2 3 4 5; 5 4 3 2 1", "--rhs", "7 9"], {}),
    # Undetermined.
    "knapsack-cap-flag": (
        ["knapsack", "--positive", "--a", "2 3", "--b", "999999", "--b-cap", "10"], {}),
    "icr-scan-cap": (["icr-scan", "--a", "2 3", "--b-max", "41"], {"oracle.ICR_SCAN_CAP": 40}),
    # The one-row oracle's bitset is capped: undetermined, exit code 3, and
    # no traceback.
    "oracle-one-row-cap": (["oracle", "--matrix", "3 5", "--rhs", "100000000000000"], {}),
    # 2 x (2 + 2 + 1) entries for delta = 2^2 * 3 fill a cap of 10 exactly;
    # delta = 2^2 * 3 * 5 needs one more column.
    "worst-case-at-cap": (["worst-case", "--m", "2", "--delta", "12"],
                          {"sparsify.WORST_CASE_ENTRY_CAP": 10}),
    "worst-case-over-cap": (["worst-case", "--m", "2", "--delta", "60"],
                            {"sparsify.WORST_CASE_ENTRY_CAP": 10}),
    "worst-case-over-default-cap": (["worst-case", "--m", "1000", "--delta", "2"], {}),
    # worst-case is capped at 10^6 entries: undetermined, exit code 3, and
    # no traceback.
    "worst-case-far-over-default-cap": (["worst-case", "--m", "100000", "--delta", "2"], {}),
    "oracle-regime": (["oracle", "--matrix", "1 0; 0 1", "--rhs", "-1 0", "--k-max", "2"], {}),
    # A bounded multi-row search that finds nothing is undetermined, exit
    # code 3, and names its caps.
    "oracle-regime-default-k-max": (["oracle", "--matrix", "1 0; 0 1", "--rhs", "-1 0"], {}),
    # 5 needs both weights; --k-max 1 cuts the one-row search short.
    "oracle-one-row-k-max-cut": (["oracle", "--matrix", "2 3", "--rhs", "5", "--k-max", "1"], {}),
    # Input errors.
    "solve-dioph-parse-error": (
        ["solve-dioph", "--matrix-file", "{tmp}/bad.txt", "--rhs", "1"], {}),
    "solve-dioph-missing-file": (
        ["solve-dioph", "--matrix-file", "{tmp}/missing.txt", "--rhs", "1"], {}),
    # A malformed matrix file is an input error: exit code 1.
    "sparsify-matrix-file-parse-error": (["sparsify", "--matrix-file", "{tmp}/bad-matrix.txt"], {}),
    # Input files are ASCII: the first other byte is an input error at its
    # line and column.
    "sparsify-matrix-file-bom": (["sparsify", "--matrix-file", "{tmp}/bom.txt"], {}),
    "sparsify-matrix-file-latin-1": (["sparsify", "--matrix-file", "{tmp}/latin-1.txt"], {}),
    "solve-dioph-rhs-file-latin-1": (
        ["solve-dioph", "--matrix", "1 2; 3 4", "--rhs-file", "{tmp}/latin-1.txt"], {}),
    "sparsify-inline-parse-error": (["sparsify", "--matrix", "1 x 3"], {}),
    # An integer is an optional sign and ASCII digits: int() alone would
    # read the row below as 12 18, and the file's row 1_2 +3 as 12 3.
    "sparsify-inline-non-ascii-digits": (["sparsify", "--matrix", "\u0661\u0662 1_8"], {}),
    "sparsify-matrix-file-underscore": (["sparsify", "--matrix-file", "{tmp}/underscore.txt"], {}),
    "sparsify-singular-tau": (["sparsify", "--matrix", "1 2 3; 2 4 5", "--tau", "1 2"], {}),
    "solve-semigroup-one-row-zero-tau": (
        ["solve-semigroup", "--matrix", "6 0 -10 15", "--rhs", "-7", "--tau", "2"], {}),
    "knapsack-negative-cap-flag": (
        ["knapsack", "--positive", "--a", "2 3", "--b", "0", "--b-cap", "-1"], {}),
    "knapsack-no-sign-mix": (["knapsack", "--mixed", "--a", "3 5", "--b", "2"], {}),
    "bounds-extreme-ray-out-of-range": (
        ["bounds", "--matrix", "1 2 3; 4 5 7", "--extreme-ray", "4"], {}),
    "worst-case-invalid-delta": (["worst-case", "--m", "2", "--delta", "1"], {}),
    "icr-scan-nonpositive": (["icr-scan", "--a", "0 3", "--b-max", "5"], {}),
    "icr-scan-no-weights": (["icr-scan", "--a", "", "--b-max", "5"], {}),
    "knapsack-positive-no-weights": (["knapsack", "--positive", "--a", "", "--b", "3"], {}),
    "oracle-rhs-length": (["oracle", "--matrix", "1 2", "--rhs", "1 2"], {}),
    "oracle-negative-k-max": (["oracle", "--matrix", "1 2", "--rhs", "5", "--k-max", "-1"], {}),
    "oracle-coord-cap-below-one": (
        ["oracle", "--matrix", "1 2; 3 4", "--rhs", "5 6", "--coord-cap", "-1"], {}),
    "solve-dioph-rhs-length": (["solve-dioph", "--matrix", "1 2; 3 4", "--rhs", "1"], {}),
    "solve-semigroup-rhs-length": (
        ["solve-semigroup", "--matrix", "1 -1 0; 0 1 -1", "--rhs", "1"], {}),
    "factor-zero": (["factor", "0"], {}),
    # A rank-deficient matrix, with the default tau and with a given one.
    "sparsify-rank-deficient": (["sparsify", "--matrix", RANK_1], {}),
    "solve-dioph-rank-deficient": (["solve-dioph", "--matrix", RANK_1, "--rhs", "1 2"], {}),
    "solve-semigroup-rank-deficient": (["solve-semigroup", "--matrix", RANK_1, "--rhs", "1 2"], {}),
    "solve-semigroup-rank-deficient-tau": (
        ["solve-semigroup", "--matrix", RANK_1, "--rhs", "1 2", "--tau", "1 3"], {}),
    "bounds-rank-deficient": (["bounds", "--matrix", RANK_1], {}),
    "bounds-rank-deficient-tau": (["bounds", "--matrix", RANK_1, "--tau", "1"], {}),
    "bounds-rank-deficient-extreme-ray": (["bounds", "--matrix", RANK_1, "--extreme-ray", "9"], {}),
    # Columns that do not positively span R^m: lattice solutions that are
    # already nonnegative, one that needs a lift (exit code 1), a short rhs,
    # a b outside the lattice (infeasible, as with spanning columns) and a
    # dependent tau.
    "solve-semigroup-identity-nonnegative": (
        ["solve-semigroup", "--matrix", "1 0; 0 1", "--rhs", "1 1"], {}),
    "solve-semigroup-identity-needs-lift": (
        ["solve-semigroup", "--matrix", "1 0; 0 1", "--rhs", "-1 1"], {}),
    "solve-semigroup-identity-rhs-length": (
        ["solve-semigroup", "--matrix", "1 0; 0 1", "--rhs", "1"], {}),
    "solve-semigroup-not-spanning-outside-lattice": (
        ["solve-semigroup", "--matrix", "2 0; 0 2", "--rhs", "1 1"], {}),
    "solve-semigroup-not-spanning": (["solve-semigroup", "--matrix", "1 2 3", "--rhs", "6"], {}),
    "solve-semigroup-not-spanning-dependent-tau": (
        ["solve-semigroup", "--matrix", "1 0 0; 0 1 0", "--rhs", "1 1", "--tau", "1 3"], {}),
    # One row with the default tau: a row of one sign whose lattice
    # solution needs a lift, a negative row, zero columns before the
    # basis, a zero row and an rhs of two entries.
    "solve-semigroup-one-row-one-signed": (
        ["solve-semigroup", "--matrix", "3 5", "--rhs", "1"], {}),
    "solve-semigroup-one-row-negative": (
        ["solve-semigroup", "--matrix", "-4 -6 -9", "--rhs", "-13"], {}),
    "solve-semigroup-one-row-leading-zeros": (
        ["solve-semigroup", "--matrix", "0 0 0 8 5 -12", "--rhs", "2"], {}),
    "solve-semigroup-zero-row": (["solve-semigroup", "--matrix", "0 0", "--rhs", "0"], {}),
    "solve-semigroup-one-row-rhs-length": (
        ["solve-semigroup", "--matrix", "8 5 -12", "--rhs", "2 3"], {}),
    # Usage errors and --version, which argparse writes to sys.stdout/sys.stderr.
    "usage-missing-mode": (["knapsack", "--a", "1 2", "--b", "3"], {}),
    "usage-unknown-command": (["no-such-command"], {}),
    "usage-two-matrices": (["sparsify", "--matrix", "1", "--matrix-file", "A.txt"], {}),
    "usage-not-an-int": (["factor", "abc"], {}),
    # Integer options take the same integers as the matrix formats.
    "usage-underscore-b": (["knapsack", "--positive", "--a", "2 3", "--b", "1_0"], {}),
    "usage-underscore-z": (["factor", "1_2"], {}),
    "usage-non-ascii-digit-extreme-ray": (
        ["bounds", "--matrix", "3 5 7", "--extreme-ray", "\u0663"], {}),
    "usage-no-command": ([], {}),
    # A leftover argument is a usage error that says why: exit code 1.
    "usage-unrecognized-argument": (["sparsify", "--matrix", "1 2", "--bogus"], {}),
    "usage-version": (["--version"], {}),
}


def _runs():
    for name, (argv, consts) in CASES.items():
        yield name, argv, consts
        if not name.startswith("usage"):
            yield f"{name} --json", argv + ["--json"], consts


def transcript(argv, consts, tmp, monkeypatch):
    """(exit code, stdout, stderr) of one run, with the tmp directory
    written as {tmp}."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    for key, value in consts.items():
        module, name = key.split(".")
        monkeypatch.setattr(importlib.import_module(f"sparsedioph.{module}"), name, value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([a.replace("{tmp}", str(tmp)) for a in argv])
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
        "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
    }


def _write_files(tmp):
    for name, text in FILES.items():
        (tmp / name).write_bytes(text.encode("latin-1"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, *_ in _runs())


@pytest.mark.parametrize("name, argv, consts", list(_runs()), ids=[r[0] for r in _runs()])
def test_transcript(name, argv, consts, golden, tmp_path, monkeypatch):
    _write_files(tmp_path)
    assert transcript(argv, consts, tmp_path, monkeypatch) == golden[name]


def test_the_environment_sets_no_knapsack_cap(golden, tmp_path, monkeypatch):
    # --b-cap is the one way to set the cap; a variable named after the
    # package changes nothing.
    monkeypatch.setenv("SPARSEDIOPH_B_CAP", "10")
    runs = [(name, argv) for name, argv, _ in _runs() if argv[:1] == ["knapsack"]
            and "--positive" in argv]
    assert len(runs) == 13
    for name, argv in runs:
        assert transcript(argv, {}, tmp_path, monkeypatch) == golden[name], name


def test_module_entry_point_matches_the_golden_run(golden):
    # The console script calls cli.main, as `python -m sparsedioph.cli` does.
    argv, _ = CASES["readme-knapsack-positive"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "sparsedioph.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    expected = golden["readme-knapsack-positive"]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        expected["code"], expected["stdout"], expected["stderr"])


SCRIPT = shutil.which("sparsedioph")
# A module constant cannot be patched in another process.
REPLAYS = [(name, argv) for name, argv, consts in _runs() if not consts]


@pytest.mark.skipif(SCRIPT is None, reason="the sparsedioph console script is not on PATH")
@pytest.mark.parametrize("name, argv", REPLAYS, ids=[r[0] for r in REPLAYS])
def test_installed_script_replays_the_transcript(name, argv, golden, tmp_path):
    _write_files(tmp_path)
    environ = dict(os.environ, COLUMNS="80", PYTHONIOENCODING="utf-8")
    proc = subprocess.run([SCRIPT, *(a.replace("{tmp}", str(tmp_path)) for a in argv)],
                          capture_output=True, env=environ, timeout=120)
    expected = golden[name]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        expected["code"],
        expected["stdout"].replace("{tmp}", str(tmp_path)).encode("utf-8"),
        expected["stderr"].replace("{tmp}", str(tmp_path)).encode("utf-8"))


@pytest.mark.parametrize("name, code", [("knapsack-positive-infeasible", 2),
                                        ("knapsack-cap-flag", 3)])
def test_main_exits_with_the_exit_code(name, code, golden, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sparsedioph", *CASES[name][0]])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code == golden[name]["code"]
    assert capsys.readouterr().out == golden[name]["stdout"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        _write_files(tmp)
        doc = {}
        for name, argv, consts in _runs():
            with pytest.MonkeyPatch.context() as mp:
                doc[name] = transcript(argv, consts, tmp, mp)
    old = json.loads(GOLDEN.read_text())
    for name in sorted(doc.keys() | old.keys()):
        if doc.get(name) != old.get(name):
            print(name)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
