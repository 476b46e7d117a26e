import ast
import dataclasses
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedioph import cli, exactlp, intlinalg, numtheory, oracle
from sparsedioph.cli import run

# Two primes just above 2^45. Their product resists the short rho search
# behind the reported bounds. In SPLIT each sits on its own diagonal entry
# of tau's canonical basis, and the bounds take one at a time; in UNSPLIT
# their product sits on one entry.
P45, Q45 = 35184372088891, 35184372088907
SPLIT = f"{P45} 0 -1; 0 {Q45} -1"
UNSPLIT = f"1 0 -1; 0 {P45 * Q45} -1"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_factor_plain():
    code, out, _ = invoke(["factor", "360"])
    assert code == 0
    assert out == "2^3 * 3^2 * 5\n"


def test_factor_one():
    code, out, _ = invoke(["factor", "1"])
    assert code == 0
    assert out == "1\n"


def test_factor_invalid():
    code, _, err = invoke(["factor", "0"])
    assert code == 1
    assert "NonPositive" in err


def test_knapsack_positive_solves():
    code, out, _ = invoke(["knapsack", "--positive", "--a", "3 5 7", "--b", "15"])
    assert code == 0
    assert "status = solved" in out
    assert "result.support = 1" in out


def test_knapsack_infeasible_exit_code():
    code, out, _ = invoke(["knapsack", "--positive", "--a", "2 3", "--b", "1"])
    assert code == 2
    assert "status = infeasible" in out


def test_knapsack_cap_exit_code():
    code, out, _ = invoke(
        ["knapsack", "--positive", "--a", "2 3", "--b", "999999", "--b-cap", "10"]
    )
    assert code == 3
    assert "status = undetermined" in out


def test_knapsack_mixed():
    code, out, _ = invoke(["knapsack", "--mixed", "--a", "4 9 -15", "--b", "2"])
    assert code == 0
    assert "verified.lhs_equals_rhs = True" in out


def test_solve_dioph_infeasible():
    code, out, _ = invoke(
        ["solve-dioph", "--matrix", "4 6", "--rhs", "3", "--tau", "1"]
    )
    assert code == 2


def test_solve_dioph_from_files(tmp_path):
    matrix = tmp_path / "A.txt"
    matrix.write_text("1 3\n6 10 15\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n")
    code, out, _ = invoke(
        ["solve-dioph", "--matrix-file", str(matrix), "--rhs-file", str(rhs)]
    )
    assert code == 0
    assert "status = solved" in out


def test_parse_error_names_position(tmp_path):
    matrix = tmp_path / "A.txt"
    matrix.write_text("1 3\n6 ten 15\n")
    code, _, err = invoke(
        ["solve-dioph", "--matrix-file", str(matrix), "--rhs", "1"]
    )
    assert code == 1
    assert f"{matrix}:2:3" in err


def test_missing_file_is_an_error(tmp_path):
    code, _, err = invoke(
        ["solve-dioph", "--matrix-file", str(tmp_path / "nope"), "--rhs", "1"]
    )
    assert code == 1


def test_usage_error_exit_code():
    code, _, _ = invoke(["knapsack", "--a", "1 2", "--b", "3"])  # missing mode
    assert code == 1
    code, _, _ = invoke(["no-such-command"])
    assert code == 1


def test_solve_semigroup():
    code, out, _ = invoke(
        [
            "solve-semigroup",
            "--matrix",
            "1 0 -1; 0 1 -1",
            "--rhs",
            "-2 -2",
            "--tau",
            "1 2",
        ]
    )
    assert code == 0
    assert "verified.lhs_equals_rhs = True" in out


def test_worst_case_pipes_into_matrix_format(tmp_path):
    code, out, _ = invoke(["worst-case", "--m", "2", "--delta", "12"])
    assert code == 0
    assert out == "2 5\n6 0 3 2 0\n0 2 0 0 1\n"
    matrix = tmp_path / "wc.txt"
    matrix.write_text(out)
    code, out2, _ = invoke(
        ["sparsify", "--matrix-file", str(matrix), "--tau", "1 2"]
    )
    assert code == 0
    assert "result.gamma = 1 2 3 4 5" in out2


def test_oracle_exit_codes():
    code, out, _ = invoke(["oracle", "--matrix", "6 10 15", "--rhs", "30"])
    assert code == 0
    assert "result.min_support = 1" in out
    code, out, _ = invoke(["oracle", "--matrix", "2 4", "--rhs", "3"])
    assert code == 2
    code, out, _ = invoke(
        ["oracle", "--matrix", "1 0; 0 1", "--rhs", "-1 0", "--k-max", "2"]
    )
    assert code == 2
    assert "status = infeasible" in out
    code, out, _ = invoke(
        ["oracle", "--matrix", "1 0; 0 1", "--rhs", "1 1", "--k-max", "1"]
    )
    assert code == 3
    assert "status = undetermined" in out
    assert "reason = no solution with support <= 1" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        # b in the lattice with nothing found under --k-max, and b outside it.
        (["oracle", "--matrix", "1 0; 0 1", "--rhs", "1 1", "--k-max", "1"], 3),
        (["oracle", "--matrix", "1 2 3 4 5; 5 4 3 2 1", "--rhs", "7 9"], 2),
        (["oracle", "--matrix", "2 3", "--rhs", "5", "--k-max", "1"], 3),
    ],
)
def test_oracle_tests_membership_once(monkeypatch, argv, code):
    # b in L(A) is one reduction on the canonical basis of all n columns;
    # lattice_member's solve on {(A y, y)} is never run.
    solves, sizes = [], []
    count_calls(monkeypatch, intlinalg, "lattice_member", lambda *args: solves.append(args))
    count_calls(monkeypatch, intlinalg, "hnf_basis", lambda cols, m: sizes.append(len(cols)))
    assert invoke(argv)[0] == code
    n = len(argv[2].split(";")[0].split())
    assert (solves, sizes.count(n)) == ([], 1)


def test_icr_scan():
    code, out, _ = invoke(["icr-scan", "--a", "2 3", "--b-max", "40"])
    assert code == 0
    assert "result.icr_lower_bound = 2" in out


def test_icr_scan_cap_exit_code(monkeypatch):
    monkeypatch.setattr(oracle, "ICR_SCAN_CAP", 40)
    code, out, _ = invoke(["icr-scan", "--a", "2 3", "--b-max", "40"])
    assert code == 0
    assert "result.icr_lower_bound = 2" in out
    code, out, err = invoke(["icr-scan", "--a", "2 3", "--b-max", "41"])
    assert (code, err) == (3, "")
    assert "status = undetermined\n" in out
    assert "reason = b_max/gcd = 41 exceeds cap 40\n" in out
    assert "result" not in out
    code, out, err = invoke(["icr-scan", "--a", "2 3", "--b-max", "41", "--json"])
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert doc["status"] == "undetermined"
    assert doc["reason"] == "b_max/gcd = 41 exceeds cap 40"


def test_work_caps_end_with_exit_3(monkeypatch):
    monkeypatch.setattr(oracle, "ICR_SCAN_WORK_CAP", 122)
    code, out, err = invoke(["icr-scan", "--a", "2 3", "--b-max", "40"])
    assert (code, err) == (3, "")
    assert out == (
        "command = icr-scan\ninstance.a = 2 3\ninstance.b_max = 40\nstatus = undetermined\n"
        "reason = subset closures x (b_max/gcd + 1) bits exceed cap 122\n"
    )
    monkeypatch.setattr(oracle, "MIN_SUPPORT_NODE_CAP", 5)
    argv = ["oracle", "--matrix", "-1 4 -3; 1 -1 4", "--rhs", "-9 17"]
    code, out, err = invoke(argv)
    assert (code, err) == (3, "")
    assert "status = undetermined\nreason = search nodes exceed cap 5\n" in out
    code, out, err = invoke(argv + ["--json"])
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert list(doc) == ["command", "instance", "regime", "status", "reason"]
    assert doc["instance"]["rhs"] == ["-9", "17"]
    assert doc["regime"] == {"k_max": "3", "complete": True}
    assert doc["reason"] == "search nodes exceed cap 5"


def test_bounds():
    code, out, _ = invoke(["bounds", "--matrix", "3 5 7"])
    assert code == 0
    assert "result.adno_bound = 4" in out
    assert "result.knapsack_bound = 2" in out


def test_json_roundtrip_and_self_verification():
    code, out, _ = invoke(
        ["solve-dioph", "--matrix", "4 6 9 15", "--rhs", "1", "--tau", "1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "solved"
    assert doc["verified"]["lhs_equals_rhs"] is True
    # Re-validate from the echoed instance alone: exact integers as strings.
    entries = [[int(v) for v in row] for row in doc["instance"]["matrix"]["entries"]]
    x = [int(v) for v in doc["result"]["x"]]
    rhs = [int(v) for v in doc["instance"]["rhs"]]
    assert [sum(r * v for r, v in zip(row, x)) for row in entries] == rhs
    assert int(doc["result"]["support"]) <= int(doc["result"]["bound"])


def test_byte_identical_reruns():
    argv = ["knapsack", "--mixed", "--a", "6 10 -15", "--b", "1", "--json"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second
    argv = ["bounds", "--matrix", "2 0 4; 0 2 2", "--json"]
    assert invoke(argv) == invoke(argv)


def test_big_integers_survive_json():
    big = str(2**80)
    code, out, _ = invoke(["factor", big, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["factors"] == [["2", "80"]]


def test_bounds_extreme_ray_out_of_range():
    for index in ("0", "-1", "4"):
        code, out, err = invoke(
            ["bounds", "--matrix", "1 2 3; 4 5 7", "--extreme-ray", index]
        )
        assert code == 1
        assert out == ""
        assert err == f"error: DimensionMismatch: extreme ray index {index} is outside 1..3\n"


def test_integers_beyond_the_default_digit_limit_round_trip():
    digits = "9" * 4999 + "7"
    # Builds that predate the limit have no getter.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = invoke(["solve-dioph", "--matrix", "1", "--rhs", digits])
    assert (code, err) == (0, "")
    assert f"result.x = {digits}\n" in out
    code, out, err = invoke(["solve-dioph", "--matrix", "1", "--rhs", digits, "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["x"] == [digits]
    assert get_limit() == limit


def test_delta_split_along_the_diagonal_gives_exact_bounds():
    # m + Omega_m(P45 * Q45) = 4, and 6 for the semigroup.
    runs = (
        (["sparsify", "--matrix", SPLIT], "4"),
        (["solve-dioph", "--matrix", SPLIT, "--rhs", "1 1"], "4"),
        (["solve-semigroup", "--matrix", SPLIT, "--rhs", "1 1"], "6"),
    )
    for argv, bound in runs:
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert f"result.bound = {bound}\n" in out
        assert "bound_exact" not in out
        code, out, err = invoke(argv + ["--json"])
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["bound"] == bound and "bound_exact" not in result
    code, out, err = invoke(["bounds", "--matrix", SPLIT, "--json"])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["thm1_semigroup_bound"] == "6" and "thm1_bound_exact" not in result


def test_unsplit_delta_gives_a_certified_bound():
    # Exact bounds: m + Omega_m(P45 * Q45) = 4, and 6 for the semigroup;
    # the certified ones count the unsplit cofactor as 4 primes.
    runs = (
        (["sparsify", "--matrix", UNSPLIT], "6"),
        (["solve-dioph", "--matrix", UNSPLIT, "--rhs", "1 1"], "6"),
        (["solve-semigroup", "--matrix", UNSPLIT, "--rhs", "1 1"], "8"),
    )
    for argv, bound in runs:
        started = time.perf_counter()
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert f"result.bound = {bound}\n" in out
        assert "result.bound_exact = False\n" in out
        code, out, err = invoke(argv + ["--json"])
        assert time.perf_counter() - started < 1.0
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["bound"] == bound and result["bound_exact"] is False
    code, out, err = invoke(["bounds", "--matrix", UNSPLIT, "--json"])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["thm1_semigroup_bound"] == "8" and result["thm1_bound_exact"] is False


def test_mixed_knapsack_with_an_unsplit_entry():
    # The first entry is a product of two primes above 2^60; the bound
    # 2 + omega(3) needs no factorization of it.
    argv = ["knapsack", "--mixed", "--a", "1329227995784916015866073631529372603 -3",
            "--b", "1"]
    started = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    assert "result.bound = 3\n" in out
    assert "result.bound_exact = False\n" in out
    started = time.perf_counter()
    code, out, err = invoke(argv + ["--json"])
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["bound"] == "3" and result["bound_exact"] is False


def test_exact_bounds_carry_no_exactness_key():
    for argv in (
        ["sparsify", "--matrix", "6 10 15", "--tau", "1"],
        ["solve-dioph", "--matrix", "4 6 9 15", "--rhs", "1"],
        ["solve-semigroup", "--matrix", "1 0 -1; 0 1 -1", "--rhs", "-2 -2"],
        ["knapsack", "--mixed", "--a", "4 9 -15", "--b", "2"],
        ["bounds", "--matrix", "2 0 4; 0 2 2"],
    ):
        for fmt in ([], ["--json"]):
            code, out, err = invoke(argv + fmt)
            assert (code, err) == (0, "")
            assert "bound_exact" not in out


def test_bounds_tau_is_validated():
    code, out, err = invoke(["bounds", "--matrix", "1 2 3;2 4 5", "--tau", "1 2"])
    assert (code, out) == (1, "")
    assert err == "error: SingularBasis: columns (1, 2) are linearly dependent\n"
    code, out, err = invoke(["bounds", "--matrix", "1 2 3;2 4 5", "--tau", "1"])
    assert (code, out) == (1, "")
    assert err == "error: DimensionMismatch: basis needs 2 indices, got 1\n"
    # A rank below m is reported before any fault of tau.
    code, out, err = invoke(["bounds", "--matrix", "1 2 3;2 4 6", "--tau", "1"])
    assert (code, out) == (1, "")
    assert err == "error: RankDeficient: bounds need a full-row-rank matrix\n"


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(None)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    argv = ["solve-dioph", "--matrix", "4 6 9 15", "--rhs", "1", "--json"]
    first = invoke(argv)
    assert first[0] == 0
    assert invoke(argv) == first
    assert invoke(["factor", "360"]) == (0, "2^3 * 3^2 * 5\n", "")
    assert len(built) == 1
    assert build() is not build()


def count_calls(monkeypatch, module, name, record):
    """Call record(*args) before each call of `module.name`, in every
    sparsedioph module that imported it by name."""
    true = getattr(module, name)

    def counting(*args):
        record(*args)
        return true(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sparsedioph") and getattr(mod, name, None) is true:
            monkeypatch.setattr(mod, name, counting)


@pytest.mark.parametrize(
    "argv, bases",
    [
        # The scan's basis of the default tau, and the recheck's of gamma.
        (["sparsify", "--matrix", "4 6 9 15 10; 2 0 3 5 7"], 2),
        (["solve-dioph", "--matrix", "4 6 9 15 10; 2 0 3 5 7", "--rhs", "3 5"], 1),
    ],
)
def test_default_tau_basis_is_built_once(monkeypatch, argv, bases):
    # A basis of A's lattice built from scratch starts with an insert of an
    # m-entry column into the empty basis (the solve's basis lives in
    # Z^(m+|gamma|)); |det A_tau| comes off the diagonal of tau's basis.
    sizes, dets = [], []
    count_calls(monkeypatch, intlinalg, "_hnf_insert",
                lambda basis, v: len(v) == 2 and sizes.append(len(basis)))
    count_calls(monkeypatch, intlinalg, "det_exact", dets.append)
    code, _, _ = invoke(argv)
    assert code == 0
    assert (sizes.count(0), dets) == (bases, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-semigroup", "--matrix", "3 -2 0; 0 -2 5", "--rhs", "7 1"],
        ["bounds", "--matrix", "3 -2 0; 0 -2 5"],
    ],
)
def test_default_tau_basis_is_handed_to_the_solver(monkeypatch, argv):
    # Only the default tau's scan builds a basis of A's lattice from
    # scratch; sparsify and the bounds report start from its basis.
    sizes = []
    count_calls(monkeypatch, intlinalg, "_hnf_insert",
                lambda basis, v: len(v) == 2 and sizes.append(len(basis)))
    code, out, _ = invoke(argv)
    assert code == 0 and "status = solved" in out
    assert sizes.count(0) == 1

def test_cli_calls_only_public_solvers():
    # The CLI reaches the solvers through their public functions, so the
    # API is tested on the path users run.
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("sparsify", "diophsolve", "semigroup")
        for alias in node.names
    ]
    assert {module for module, _ in imported} == {"sparsify", "diophsolve", "semigroup"}
    assert [name for _, name in imported if name.startswith("_")] == []


def test_every_export_resolves():
    import sparsedioph

    assert len(set(sparsedioph.__all__)) == len(sparsedioph.__all__)
    missing = [name for name in sparsedioph.__all__ if not hasattr(sparsedioph, name)]
    assert missing == []


def test_recheck_inserts_gamma_only(monkeypatch):
    # The recheck builds gamma's basis and reduces every other column on
    # it, without inserting it.
    A = intlinalg.IntMatrix.from_rows([[4, 6, 9, 15, 10], [2, 0, 3, 5, 7]])
    cert = cli.sparsify(A, (1, 2))
    monkeypatch.setattr(cli, "sparsify", lambda A, tau: cert)
    inserts, tested = [], []
    count_calls(monkeypatch, intlinalg, "_hnf_insert", lambda basis, v: inserts.append(v))
    count_calls(monkeypatch, intlinalg, "_reduce", lambda basis, v: tested.append(v))
    code, _, _ = invoke(["sparsify", "--matrix", "4 6 9 15 10; 2 0 3 5 7", "--tau", "1 2"])
    assert code == 0
    assert len(cert.gamma) < A.cols
    assert (len(inserts), len(tested)) == (len(cert.gamma), A.cols - len(cert.gamma))


@pytest.mark.parametrize("tau", [[], ["--tau", "1"]])
def test_recheck_catches_a_dropped_column(monkeypatch, tau):
    # All three columns of 6 10 15 are needed; without the last one the
    # rest span 2Z.
    def dropping(true):
        def drop(*args):
            cert = true(*args)
            return dataclasses.replace(cert, gamma=cert.gamma[:-1])

        return drop

    monkeypatch.setattr(cli, "sparsify", dropping(cli.sparsify))
    with pytest.raises(AssertionError, match="sparsify returned columns that change the lattice"):
        invoke(["sparsify", "--matrix", "6 10 15", *tau])


def test_one_row_spanning_test_needs_no_basis_and_no_lp(monkeypatch):
    # The mixed knapsack's sign check, its lifts and their solves on gamma
    # build no basis and run no LP.
    inserts, lps = [], []
    count_calls(monkeypatch, intlinalg, "_hnf_insert", lambda basis, v: inserts.append(v))
    count_calls(monkeypatch, exactlp, "basic_feasible_point", lambda rows, rhs: lps.append(rhs))
    code, out, _ = invoke(["knapsack", "--mixed", "--a", "8 5 -12", "--b", "2"])
    assert code == 0
    assert "status = solved" in out
    assert (inserts, lps) == ([], [])


_json_values = st.recursive(
    st.none() | st.booleans() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-dioph", "--matrix", "2 4 6; 0 3 9", "--rhs", "1 3"],
        ["solve-dioph", "--matrix", "2 4 6; 0 3 9", "--rhs", "1 3", "--tau", "1 2"],
        ["solve-semigroup", "--matrix", "2 0 -2; 0 2 -2", "--rhs", "1 1"],
        ["solve-semigroup", "--matrix", "6 -4 10", "--rhs", "3"],
    ],
)
def test_infeasible_solves_end_at_the_lattice_of_a(monkeypatch, argv):
    # b outside L(A) = L(A_gamma) is settled on A's canonical basis: no
    # Omega bound and no solve on gamma run for a document without gamma.
    calls = []
    for name in ("_omega_upper", "omega_truncated_upper"):
        count_calls(monkeypatch, numtheory, name, lambda *args, _n=name: calls.append(_n))
    count_calls(monkeypatch, intlinalg, "lattice_member", lambda *args: calls.append("solve"))
    code, out, _ = invoke(argv)
    assert code == 2 and "status = infeasible" in out
    assert calls == []


def test_a_valid_run_parses_once(monkeypatch):
    # An argv that starts with a subcommand goes to that subcommand's
    # parser alone; a leftover argument falls back to the top level.
    top = []
    parser = cli._parser()
    true_parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: top.append(argv) or true_parse(argv))
    assert invoke(["knapsack", "--mixed", "--a", "6 -10 15", "--b", "-7"])[0] == 0
    assert invoke(["bounds", "--matrix", "-3 -5 -7; 2 0 1", "--json"])[0] == 0
    assert invoke(["factor", "360"]) == (0, "2^3 * 3^2 * 5\n", "")
    assert top == []
    assert invoke(["sparsify", "--matrix", "1 2", "--bogus"])[0] == 1
    assert top == [["sparsify", "--matrix", "1 2", "--bogus"]]
