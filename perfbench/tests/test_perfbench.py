"""Tests of the benchmark itself: tracer, isolation, inputs and checks.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Commands run in forked children, as in the benchmark, so no test leaves
warm caches behind for another.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import json
import os
import tempfile
import types

import pytest

from perfbench import checks, inputs, run
from perfbench.runner import fork_call, run_command
from perfbench.tracer import PACKAGE, Tracer
from perfbench.workloads import WORKLOADS, label, seeded

HELD_OUT_SEED = 41
SMALL = ["verify", "catalog:quaternion_paper", "--suite", "lemmas"]

# Public functions that no workload command reaches.
UNREACHED = {
    "cli.emit_csv",
    "cli.main",
    "exactalg.kernel",
    "exactalg.minpoly",
    "exactalg.snf",
    "lattice.contains",
    "rfgrowth.chebyshev_psi",
    "rfgrowth.exponent_fit",
    "rfgrowth.smallest_valid_prime",
}
# Call sites that only code no workload reaches calls through.
UNREACHED_SITES = {
    "rfva.cli:emit_csv",  # rf --csv
    "rfva.exactalg:det",  # snf
    "rfva.exactalg:kernel_fp",  # kernel
}
# Binding sites the layer modules call through, which the tracer must wrap.
REQUIRED_SITES = (
    "rfva.grouprep:det",
    "rfva.repdecomp:det",
    "rfva.lattice:det",
    "rfva.rfgrowth:det",
    "rfva.grouprep:conjugacy_classes",
    "rfva.repdecomp:conjugacy_classes",
    "rfva.cli:conjugacy_classes",
    "rfva.repdecomp:factor_over_prime_field",
    "rfva.repdecomp:factor_over_integers",
)


def _bindings():
    import sys

    out = {}
    for modname, mod in sys.modules.items():
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for attr, obj in vars(mod).items():
                out[(modname, attr)] = obj
    from rfva.exactalg import Lattice
    from rfva.grouprep import Rep

    out["Rep.inverse"] = Rep.inverse
    out["Lattice.contains"] = Lattice.contains
    return out


def _in_child(fn, *args):
    result, _ = fork_call(fn, *args)
    assert result is not None, "child process failed"
    return result


def _trace_plan(workload, seed):
    with tempfile.TemporaryDirectory() as workdir:
        plan = _in_child(run._setup, workload, seed, workdir)["plan"]
        return [run_command(argv, traced=True) for _, _, argv in plan]


def _counts(results):
    return run.counts_only(run.layer_counts([r.trace for r in results]))


def _restores_bindings():
    import rfva.cli  # noqa: F401

    before = _bindings()
    with Tracer() as tracer:
        wrapped = _bindings()
        import rfva.repdecomp as rd

        has_cache_api = hasattr(rd.exponent_report, "cache_clear")
        import rfva.lattice as lat

        gen = lat.enumerate_sublattices(2, 4)
        first_two = [next(gen), next(gen)]
        gen.close()
        stack_empty = not tracer._stack
    after = _bindings()
    changed = sorted(str(k) for k in before if before[k] is not wrapped[k])
    return {
        "restored": all(before[k] is after[k] for k in before),
        "changed": changed,
        "cache_api": has_cache_api,
        "yielded": tracer.stats["lattice.enumerate_sublattices"].yielded,
        "items": len(first_two),
        "stack_empty": stack_empty,
    }


def test_tracer_wraps_every_site_and_restores_them():
    res = _in_child(_restores_bindings)
    assert res["restored"]
    changed = set(res["changed"])
    for site in REQUIRED_SITES:
        modname, attr = site.split(":")
        assert str((modname, attr)) in changed, site
    assert "Rep.inverse" in changed and "Lattice.contains" in changed
    assert res["cache_api"]
    assert res["yielded"] == res["items"] == 2
    assert res["stack_empty"]


def test_traced_and_untraced_outputs_are_identical_and_counts_repeat():
    plain = run_command(SMALL)
    first = run_command(SMALL, traced=True)
    second = run_command(SMALL, traced=True)
    assert plain.exit_code == first.exit_code == second.exit_code == 0
    assert plain.stdout == first.stdout == second.stdout
    assert _counts([first]) == _counts([second])


def test_cold_caches_between_commands():
    argv = ["k", "catalog:d4_paper"]
    first = run_command(argv, traced=True)
    second = run_command(argv, traced=True)
    assert first.stdout == second.stdout
    assert _counts([first]) == _counts([second])
    # a warm exponent_report cache would answer without splitting
    for res in (first, second):
        stats = res.trace["stats"]
        assert stats["repdecomp.exponent_report"]["calls"] == 1
        assert stats["repdecomp.exponent_report"]["leaf_calls"] == 0
        assert stats["repdecomp.split_mod_p"]["calls"] == 3


def _globals_loaded_by_functions(module) -> set[str]:
    code = compile(inspect.getsource(module), module.__file__, "exec")
    names, stack = set(), [c for c in code.co_consts if isinstance(c, types.CodeType)]
    while stack:
        c = stack.pop()
        names.update(i.argval for i in dis.get_instructions(c) if i.opname == "LOAD_GLOBAL")
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return names


def test_every_traced_function_and_call_site_is_reached():
    """A site a module's code calls through that counts no call was missed."""
    calls, sites = {}, {}
    for seed in (0, HELD_OUT_SEED):
        for name in WORKLOADS:
            results = _trace_plan(name, seed)
            assert all(r.exit_code == 0 for r in results)
            totals = run.layer_counts([r.trace for r in results])
            for fn, st in totals["stats"].items():
                calls[fn] = calls.get(fn, 0) + st["calls"]
            for site, n in totals["sites"].items():
                sites[site] = sites.get(site, 0) + n
    assert {fn for fn, n in calls.items() if n == 0} == UNREACHED
    for site in REQUIRED_SITES:
        assert sites[site] > 0, site
    missed = []
    for site, n in sites.items():
        modname, attr = site.split(":")
        if modname == PACKAGE or n or site in UNREACHED_SITES:
            continue  # the CLI never calls through the package namespace
        if attr.split(".")[-1] in _globals_loaded_by_functions(importlib.import_module(modname)):
            missed.append(site)
    assert missed == []


def test_conjugated_quaternion_passes_the_lemmas():
    with tempfile.TemporaryDirectory() as workdir:
        path = _in_child(lambda: inputs.Inputs(3, 0, workdir).rep("quaternion_paper"))
        with open(path) as fh:
            doc = json.load(fh)
        res = run_command(["verify", path, "--suite", "lemmas"])
    original = _in_child(inputs.dump_catalog_doc, "quaternion_paper")
    assert doc["generators"] != original["generators"]
    assert doc["commutant_examples"] != original["commutant_examples"]
    assert doc["character_table"] == original["character_table"]
    assert res.exit_code == 0
    lines = res.stdout.splitlines()[1:]
    assert lines and all(line.startswith("PASS: ") for line in lines)
    assert any("commutant certificate" in line for line in lines)


def test_unimodular_pair_and_seed_zero():
    import random

    for m in (2, 3, 5):
        q, q_inv = inputs.unimodular_pair(m, random.Random(m))
        assert inputs._matmul(q, q_inv) == [[int(i == j) for j in range(m)] for i in range(m)]
    assert inputs.Inputs(0, 0, "unused").rep("d4_paper") == "catalog:d4_paper"
    assert inputs.witness_vector(5, 0, 5) == inputs.witness_vector(5, 0, 5)
    assert all(-3 <= x <= 3 for x in inputs.witness_vector(5, 0, 5))


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
def test_records_pass_their_own_checks(seed):
    record, reference = checks.load_expected(seed), checks.load_expected(0)
    assert record is not None
    for name, workload in WORKLOADS.items():
        for variant in range(workload.variants):
            for template in workload.commands:
                if variant and not seeded(template):
                    continue
                rec = record[label(template, variant)]
                vector = inputs.witness_vector(seed, variant, 5)
                argv = list(template[:-1]) + ["--vector=" + ",".join(map(str, vector))]
                code, out = rec["exit_code"], rec["stdout"]
                problems = checks.check(
                    template, variant, argv, code, out, seed, record, reference
                )
                assert problems == [], (name, template, problems)


def test_checks_catch_wrong_outputs():
    reference = checks.load_expected(0)
    k_tmpl = ("k", "@d4_paper")
    wrong_k = reference[label(k_tmpl, 0)]["stdout"].replace("k = 2", "k = 3")
    assert checks.check(k_tmpl, 0, [], 0, wrong_k, 0, reference, reference)
    rf_tmpl = ("rf", "@d4_paper", "--family", "inv", "--rmax", "12")
    rf_out = reference[label(rf_tmpl, 0)]["stdout"].replace("RF(12) = 25", "RF(12) = 7")
    assert checks.check(rf_tmpl, 0, [], 0, rf_out, 5, None, reference)
    v_tmpl = ("verify", "@d4_paper", "--suite", "lemmas")
    v_out = reference[label(v_tmpl, 0)]["stdout"].replace("PASS: abelian", "FAIL: abelian")
    assert checks.check(v_tmpl, 0, [], 0, v_out, 5, None, reference)
    assert checks.check(v_tmpl, 0, [], 1, reference[label(v_tmpl, 0)]["stdout"], 5, None, reference)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
