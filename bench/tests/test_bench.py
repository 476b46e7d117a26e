"""Tests of the benchmark's own code (generator, checker, tracer, limit).

Run from the repository root: python3 -m pytest bench/tests -q
"""

import itertools
import json
import math
import random
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sparsedioph import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_instances(name):
    first = workloads.digest(workloads.build(name, 3))
    assert workloads.digest(workloads.build(name, 3)) == first
    assert workloads.digest(workloads.build(name, 4)) != first


def test_generic_ladders_keep_delta_factorable():
    for m, _ in workloads.SMALL_DELTA:
        bits = workloads._bits_for(m, 30)
        assert m * (math.log2(m) / 2 + bits) <= 30
    for m, _ in workloads.PRIME_DELTA:
        assert m * (math.log2(m) / 2 + workloads._bits_for(m, 62)) <= 62


def _brute_minor_gcd(rows):
    m = len(rows)
    g = 0
    for combo in itertools.combinations(range(len(rows[0])), m):
        g = math.gcd(g, check.det(check.columns(rows, combo)))
    return g


def test_checker_lattice_index_matches_minor_gcd():
    rng = random.Random(0)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)]
        tau = workloads.greedy_basis(rows)
        if tau is None:
            continue
        assert check.lattice_facts(rows, tau)[0] == _brute_minor_gcd(rows)


def _run(inst):
    argv = [str(a) for a in inst.argv]
    for k, a in enumerate(argv):
        if a in inst.files:
            path = Path(run.OUT) / "test-inputs" / a
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(inst.files[a], encoding="ascii")
            argv[k] = str(path)
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        call = run.timed_call(cli.run, argv + ["--json"], 10.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    code, out, _, _ = call.result
    return code, json.loads(out)


def _lattice(command, rows, feasible=True):
    bld = workloads._Builder(random.Random(1))
    bld.matrix_cmd("t", command, rows, feasible)
    return bld.instances[0]


def test_checker_accepts_program_answers_and_rejects_a_corrupted_x():
    inst = _lattice("solve-dioph", [[6, 10, 15, 4], [1, -2, 3, 7]])
    code, doc = _run(inst)
    assert check.check_answer(inst.expect, code, doc).x_bits >= 1
    doc["result"]["x"][0] = str(int(doc["result"]["x"][0]) + 1)
    with pytest.raises(check.WrongAnswer):
        check.check_answer(inst.expect, code, doc)


def test_checker_rejects_a_gamma_that_changes_the_lattice():
    inst = _lattice("sparsify", [[6, 10, 15]])
    code, doc = _run(inst)
    assert doc["result"]["gamma"] == ["1", "2", "3"]
    check.check_answer(inst.expect, code, doc)
    doc["result"]["gamma"], doc["result"]["size"] = ["1", "2"], "2"  # spans 2Z, not Z
    with pytest.raises(check.WrongAnswer):
        check.check_answer(inst.expect, code, doc)


def test_checker_rejects_wrong_verdicts():
    feasible = _lattice("solve-dioph", [[2, 4, 7]])
    with pytest.raises(check.WrongAnswer):
        check.check_answer(feasible.expect, 2, {"instance": {}, "status": "infeasible"})
    infeasible = _lattice("solve-dioph", [[2, 4, 7]], feasible=False)
    code, doc = _run(infeasible)
    assert code == 2
    check.check_answer(infeasible.expect, code, doc)
    with pytest.raises(check.WrongAnswer):
        check.check_answer(feasible.expect, code, doc)


def test_checker_rejects_a_wrong_bounds_report():
    inst = next(i for i in workloads.build("nonneg", 1) if i.expect["kind"] == "bounds")
    code, doc = _run(inst)
    check.check_answer(inst.expect, code, doc)
    doc["result"]["adno_bound"] = str(int(doc["result"]["adno_bound"]) + 1)
    with pytest.raises(check.WrongAnswer):
        check.check_answer(inst.expect, code, doc)


def _public_functions(mod):
    return {name for name, fn in vars(mod).items()
            if not name.startswith("_") and callable(fn)
            and getattr(fn, "__module__", None) == mod.__name__
            and type(fn).__name__ == "function"}


def test_tracer_wraps_every_public_function_where_it_is_used():
    layers = {name: sys.modules[f"sparsedioph.{name}"] for name in tracer.LAYERS}
    expected = {f"{name}.{fn}" for name, mod in layers.items() for fn in _public_functions(mod)}
    tr = tracer.Tracer()
    try:
        assert set(tr.install()) == expected
        for name, mod in layers.items():
            for fn in _public_functions(mod):
                assert hasattr(getattr(mod, fn), "__wrapped__"), f"{name}.{fn}"
        # Imported by name into other modules, and shadowing the submodule
        # on the package.
        assert hasattr(sys.modules["sparsedioph.sparsify"].lattice_member, "__wrapped__")
        assert hasattr(sys.modules["sparsedioph.cli"].sparsify, "__wrapped__")
        assert hasattr(sys.modules["sparsedioph"].sparsify, "__wrapped__")
    finally:
        tr.uninstall()
    for mod in layers.values():
        for fn in _public_functions(mod):
            assert not hasattr(getattr(mod, fn), "__wrapped__")


def test_tracer_spans_nest_and_self_times_add_up():
    inst = _lattice("solve-dioph", [[6, 10, 15, 4], [1, -2, 3, 7]])
    tr = tracer.Tracer()
    tr.install()
    try:
        _run(inst)
    finally:
        tr.uninstall()
    names = {s[0]: s[2] for s in tr.spans}
    roots = [s for s in tr.spans if s[1] is None]
    assert [s[2] for s in roots] == ["cli.run"]
    sparsify = next(s for s in tr.spans if s[2] == "sparsify.sparsify")
    assert names[sparsify[1]] == "diophsolve.solve_sparse_lattice"
    wall = roots[0][4] - roots[0][3]
    metrics = tracer.layer_metrics(tr.spans, 1, wall, wall)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + metrics["trace.gauge_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["sparsify.sparsify.drop_ratio"] > 0
    assert set(metrics) == {name for name, _ in tracer.PER_LAYER}


def test_limit_is_not_swallowed_by_the_cli():
    inst = next(i for i in workloads.build("lattice", 1) if i.label.startswith("dependent m7"))
    argv = run.materialize([inst], Path(run.OUT) / "test-inputs")[0]
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        call = run.timed_call(cli.run, argv, 0.05)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert call.result[3] is run.InstanceTimeout
    assert call.seconds < 1.0
    assert run.judge(inst, call, {}) == ("timeout", None)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
