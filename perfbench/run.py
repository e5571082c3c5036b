"""rfva benchmark: times the CLI commands users run, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exponent --seed 0 --seconds 20 --trace 0

Set-up imports rfva and writes the seeded inputs; it runs several times in
forked children and ``setup_s`` is the median. Then the workload's command
list runs again and again, one command at a time (closed loop, one client),
each command in a forked child that calls ``rfva.cli.run(argv)`` with stdout
captured, until ``--seconds`` have passed. Every output is checked. With
``--trace 0`` the last stdout line holds the end-to-end metrics, medians over
passes; with ``--trace 1`` untraced and traced passes alternate and it holds
the per-layer metrics of the traced passes. The line before it is a summary
for people: time per command kind, pass count, and any failed checks.

``--record`` writes the outputs of this seed to ``expected/seed<N>.json``
instead of measuring, and at seed 0 the workload's per-layer counts to
``expected/traffic_seed0.json``; review both before committing them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slowest_op_s": "s",
}

# Functions whose call count and self time are reported, by layer.
TIMED = (
    "grouprep.close_group",
    "grouprep.conjugacy_classes",
    "grouprep.Rep.inverse",
    "grouprep.character_of_rep",
    "repdecomp.split_mod_p",
    "repdecomp.q_split",
    "repdecomp.exponent_report",
    "repdecomp.commutant_basis",
    "repdecomp.commutant_certificate",
    "repdecomp.k_from_character_table",
    "repdecomp.conjugate_rep",
    "lattice.enumerate_sublattices",
    "lattice.is_invariant_lattice",
    "lattice.commutant_image_lattices",
    "lattice.upper_bound_witness",
    "exactalg.Lattice.contains",
    "rfgrowth.divisibility",
    "rfgrowth.rf_profile",
    "rfgrowth.lower_bound_certificate",
    "exactalg.hnf",
    "exactalg.det",
    "exactalg.adjugate",
    "exactalg.charpoly",
    "exactalg.kernel_q",
    "exactalg.kernel_fp",
    "exactalg.factor_over_prime_field",
    "exactalg.factor_over_integers",
    "catalog.catalog_rep",
    "cli.run",
)


def per_layer_units() -> dict[str, str]:
    from perfbench.tracer import LAYERS

    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["lattice.enumerate_sublattices.yielded"] = "count"
    units["lattice.enumerate_family.calls"] = "count"
    units["lattice.enumerate_family.yielded"] = "count"
    units["grouprep.elements"] = "count"
    units["repdecomp.split_candidates"] = "count"
    units["repdecomp.cache_hit_ratio"] = "ratio"
    units["lattice.invariant_pass_ratio"] = "ratio"
    units["rfgrowth.lattices_per_vector"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def layer_counts(commands: list[dict]) -> dict:
    """Sums the traces of one pass's commands into per-name and per-site totals."""
    stats, sites = {}, {}
    for trace in commands:
        for name, st in trace["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(st, 0))
            for key, value in st.items():
                acc[key] += value
        for site, calls in trace["sites"].items():
            sites[site] = sites.get(site, 0) + calls
    return {"stats": stats, "sites": sites}


def counts_only(totals: dict) -> dict:
    """The parts of a pass trace that must repeat exactly: everything but time."""
    return {
        "stats": {
            name: {k: v for k, v in st.items() if k != "self_s"}
            for name, st in totals["stats"].items()
        },
        "sites": totals["sites"],
    }


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metric values from one pass's summed trace."""
    from perfbench.tracer import LAYERS

    stats = totals["stats"]
    zero = {"calls": 0, "self_s": 0.0, "yielded": 0, "leaf_calls": 0, "result_sum": 0}

    def st(name):
        return stats.get(name, zero)

    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = st(name)["calls"]
        out[f"{name}.self_s"] = st(name)["self_s"]
    out["lattice.enumerate_sublattices.yielded"] = st("lattice.enumerate_sublattices")["yielded"]
    out["lattice.enumerate_family.calls"] = st("lattice.enumerate_family")["calls"]
    out["lattice.enumerate_family.yielded"] = st("lattice.enumerate_family")["yielded"]
    out["grouprep.elements"] = st("grouprep.close_group")["result_sum"]
    out["repdecomp.split_candidates"] = sum(
        totals["sites"].get(f"rfva.repdecomp:{f}", 0)
        for f in ("factor_over_prime_field", "factor_over_integers")
    )
    cached = ("repdecomp.exponent_report", "repdecomp.q_split")
    out["repdecomp.cache_hit_ratio"] = _ratio(
        sum(st(n)["leaf_calls"] for n in cached), sum(st(n)["calls"] for n in cached)
    )
    out["lattice.invariant_pass_ratio"] = _ratio(
        st("lattice.is_invariant_lattice")["result_sum"],
        st("lattice.is_invariant_lattice")["calls"],
    )
    out["rfgrowth.lattices_per_vector"] = _ratio(
        st("lattice.enumerate_family")["yielded"], st("rfgrowth.divisibility")["calls"]
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer
        )
    return out


# ---------------------------------------------------------------------------


def _setup(workload_name: str, seed: int, workdir: str) -> dict:
    """Imports rfva and writes the seeded inputs; returns the resolved argv lists."""
    import rfva.cli  # noqa: F401  (the import is part of set-up)

    from perfbench.workloads import WORKLOADS

    return {"plan": WORKLOADS[workload_name].plan(seed, workdir)}


def _run_pass(plan, traced: bool, seed, expected, reference, failures):
    """Runs every command of the plan once; appends failed checks to failures."""
    from perfbench.checks import check
    from perfbench.runner import run_command

    results = []
    for template, variant, argv in plan:
        res = run_command(argv, traced=traced)
        problems = check(
            template, variant, argv, res.exit_code, res.stdout, seed, expected, reference
        )
        if problems:
            failures.append({"command": " ".join(argv), "traced": traced, "problems": problems})
        results.append((template, variant, res))
    return results


def _summary(passes) -> tuple[dict, dict]:
    """Mean seconds per pass of each command kind, and of each command."""
    from perfbench.workloads import label

    kinds, commands = {}, {}
    for results in passes:
        for template, variant, res in results:
            kinds[f"{template[0]}_s"] = kinds.get(f"{template[0]}_s", 0.0) + res.wall_s
            key = label(template, variant)
            commands[key] = commands.get(key, 0.0) + res.wall_s
    n = len(passes)
    return {k: v / n for k, v in kinds.items()}, {k: v / n for k, v in commands.items()}


def _pass_wall(results) -> float:
    return sum(res.wall_s for *_, res in results)


def _end_to_end(passes, setup_times) -> dict[str, float]:
    """Medians over passes. slowest_op_s and peak_rss_mb take, for each
    command, the mean over its conjugates, then the largest: the extreme of
    a handful of draws would spread far more between seeds."""
    cpus = [sum(res.cpu_s for *_, res in results) for results in passes]
    by_template = {}
    for column in zip(*passes):
        runs = [res for *_, res in column]
        by_template.setdefault(tuple(column[0][0]), []).append(
            (
                statistics.median([r.wall_s for r in runs]),
                statistics.median([r.peak_rss_mb for r in runs]),
            )
        )
    means = [tuple(map(statistics.mean, zip(*rows))) for rows in by_template.values()]
    return {
        "wall_s": statistics.median([_pass_wall(results) for results in passes]),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(rss for _, rss in means),
        "slowest_op_s": max(wall for wall, _ in means),
    }


def _per_layer(untraced, traced, failures) -> dict[str, float]:
    totals = [layer_counts([res.trace for *_, res in results]) for results in traced]
    first = counts_only(totals[0])
    for other in totals[1:]:
        if counts_only(other) != first:
            failures.append(
                {"command": "traced pass", "problems": ["counts differ between traced passes"]}
            )
    per_pass = [layer_metrics(t) for t in totals]
    out = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    traced_wall = statistics.median([_pass_wall(results) for results in traced])
    untraced_wall = statistics.median([_pass_wall(results) for results in untraced])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def _counts_of(trace: dict) -> dict[str, float]:
    """The non-zero count and ratio metrics of a trace (no times)."""
    units = per_layer_units()
    return {
        name: value
        for name, value in layer_metrics(trace).items()
        if units[name] != "s" and value
    }


def _record(workload: str, plan, seed: int) -> None:
    """Writes each command's output for this seed and, at seed 0, its traffic.

    Commands run traced; the tests show traced output is byte-identical.
    """
    from perfbench.checks import EXPECTED_DIR, expected_path
    from perfbench.runner import run_command
    from perfbench.workloads import label

    results = [(t, v, run_command(argv, traced=True)) for t, v, argv in plan]
    updates = {
        expected_path(seed): {
            label(template, variant): {"exit_code": res.exit_code, "stdout": res.stdout}
            for template, variant, res in results
        }
    }
    if seed == 0:
        updates[os.path.join(EXPECTED_DIR, "traffic_seed0.json")] = {
            workload: {
                "pass": _counts_of(layer_counts([res.trace for *_, res in results])),
                "commands": {
                    label(template, variant): _counts_of(layer_counts([res.trace]))
                    for template, variant, res in results
                },
            }
        }
    for path, update in updates.items():
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {}
        doc.update(update)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"recorded {len(plan)} commands of {workload} at seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rfva", "cli.py")):
        print(f"error: no rfva sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    # The benchmark forks; keep numerical libraries from starting thread pools.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, ROOT]

    from perfbench.checks import load_expected
    from perfbench.runner import fork_call
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times, plan = [], None
        for _ in range(SETUP_SAMPLES):
            result, elapsed = fork_call(_setup, args.workload, args.seed, workdir)
            if result is None:
                print("error: set-up failed", file=sys.stderr)
                return 1
            setup_times.append(elapsed)
            plan = result["plan"]
        import rfva.cli  # noqa: F401  (children start from an imported rfva)

        if args.record:
            _record(args.workload, plan, args.seed)
            return 0

        expected, reference = load_expected(args.seed), load_expected(0)
        if reference is None:
            print("error: no seed-0 record under perfbench/expected", file=sys.stderr)
            return 2
        failures, untraced, traced = [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(_run_pass(plan, False, args.seed, expected, reference, failures))
            if args.trace:
                traced.append(_run_pass(plan, True, args.seed, expected, reference, failures))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it

    if args.trace:
        metrics = _per_layer(untraced, traced, failures)
        units = per_layer_units()
    else:
        metrics = _end_to_end(untraced, setup_times)
        units = END_TO_END_UNITS
    passes = untraced + traced
    kind_s, command_s = _summary(untraced)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "kind_s": kind_s,
        "command_s": command_s,
        "failures": failures,
    }
    print(json.dumps(summary, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(len(results) for results in passes),
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
