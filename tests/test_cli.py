import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rfva import errors, grouprep, repdecomp, rfgrowth
from rfva.catalog import catalog_matrix, catalog_rep
from rfva.cli import (
    EXIT_COMPUTE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    _parse,
    emit_csv,
    load_rep_file,
    run,
)
from rfva.errors import (
    BudgetExceeded,
    CertificateFailed,
    InconclusiveSplit,
    InconsistentSplit,
    InexactDivision,
    IoFailure,
    NotAClassFunction,
    NotAPartition,
    NotFinite,
    UnsoundCommutant,
    UnsoundLattice,
    UnsoundMinpoly,
    UnsoundProfile,
    UnsoundSplit,
    UnsoundWitness,
)
from rfva.lattice import FamilySpec
from rfva.rfgrowth import RFProfile, rf_profile
from test_grouprep import _unimodular_pair

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _one_error_line(capsys):
    """The one `error:` line on stderr; stdout must be empty."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert captured.out == ""
    return err[0]


def test_k_d4(capsys):
    assert run(["k", "catalog:d4_paper"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k = 2" in out
    assert "17 41 73" in out


def test_k_perm_sym_8_takes_its_primes_however_large(capsys):
    # |H| = 40,320: the least three primes = 1 mod |H| lie beyond 160,000
    assert run(["--element-bound", "50000", "k", "catalog:perm_sym(8)"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "k = 7" in lines
    assert "primes: 161281 241921 282241" in lines


def test_route_one_commands_run_without_conjugacy_classes(monkeypatch, capsys):
    """k, decompose --field fp:P and witness read only the generators and |H|."""

    def refuse(rep):
        raise AssertionError("conjugacy classes were read")

    monkeypatch.setattr(grouprep, "conjugacy_classes", refuse)
    monkeypatch.setattr(repdecomp, "conjugacy_classes", refuse)
    repdecomp.split_mod_p.cache_clear()
    repdecomp.exponent_report.cache_clear()
    for argv in (
        ["k", "catalog:product(d4_paper,quaternion_paper)"],
        ["decompose", "catalog:product(d4_paper,d4_paper)", "--field", "fp:193"],
        ["witness", "catalog:quaternion_paper", "--vector", "1,2,3,4"],
    ):
        assert run(argv) == EXIT_OK, argv
    out = capsys.readouterr().out
    assert "k = 2" in out and "dimension 2 x 1" in out


def test_char_with_table(capsys):
    assert run(["char", "catalog:d4_paper", "--table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(1, 0, 0, 0, 1)" in out
    assert "(3, 1, -1, 1, 1)" in out
    assert "k = 2" in out


def test_decompose_fields(capsys):
    assert run(["decompose", "catalog:quaternion_paper"]) == EXIT_OK
    assert "(4,)" in capsys.readouterr().out
    assert run(["decompose", "catalog:quaternion_paper", "--field", "fp:17"]) == EXIT_OK
    assert "(2, 2)" in capsys.readouterr().out


# The printed basis of an isotypic Q split depends on the exact candidate
# stream: these are the outputs of the Fraction splitter, byte for byte.
ISOTYPIC_Q_SPLITS = {
    "product(std_sym(4),std_sym(4))": (
        'Q-constituent degrees: (3, 3)\n'
        'component 0: dim 3, denominator 1, image order 24\n'
        '  basis (1, 0, 0, 0, 0, 0)\n'
        '  basis (0, 1, 0, 0, 0, 0)\n'
        '  basis (0, 0, 1, 0, 0, 0)\n'
        'component 1: dim 3, denominator 1, image order 24\n'
        '  basis (0, 0, 0, 1, 0, 0)\n'
        '  basis (0, 0, 0, 0, 1, 0)\n'
        '  basis (0, 0, 0, 0, 0, 1)\n'
    ),
    "product(quaternion_paper,quaternion_paper)": (
        'Q-constituent degrees: (4, 4)\n'
        'component 0: dim 4, denominator 1, image order 8\n'
        '  basis (0, 0, 0, 0, 1, 0, 0, 0)\n'
        '  basis (0, 0, 0, 0, 0, 1, 0, 0)\n'
        '  basis (0, 0, 0, 0, 0, 0, 1, 0)\n'
        '  basis (0, 0, 0, 0, 0, 0, 0, 1)\n'
        'component 1: dim 4, denominator 1, image order 8\n'
        '  basis (1, 0, 0, 0, 0, 0, 0, 0)\n'
        '  basis (0, 1, 0, 0, 0, 0, 0, 0)\n'
        '  basis (0, 0, 1, 0, 0, 0, 0, 0)\n'
        '  basis (0, 0, 0, 1, 0, 0, 0, 0)\n'
    ),
}


@pytest.mark.parametrize("name", sorted(ISOTYPIC_Q_SPLITS))
def test_isotypic_q_splits_print_the_pinned_bases(name, capsys):
    assert run(["decompose", f"catalog:{name}", "--field", "q"]) == EXIT_OK
    assert capsys.readouterr().out == ISOTYPIC_Q_SPLITS[name]


# The Q split's stdout depends on every candidate it tries and on what it
# decides about each, so a change to the minimal polynomial or the factoring
# that altered either would show here.
PINNED_Q_SPLITS = {
    "product(d4_paper,quaternion_paper)": (
        "Q-constituent degrees: (1, 2, 4)\n"
        "component 0: dim 4, denominator 1, image order 8\n"
        "  basis (0, 0, 0, 1, 0, 0, 0)\n"
        "  basis (0, 0, 0, 0, 1, 0, 0)\n"
        "  basis (0, 0, 0, 0, 0, 1, 0)\n"
        "  basis (0, 0, 0, 0, 0, 0, 1)\n"
        "component 1: dim 1, denominator 1, image order 1\n"
        "  basis (1, 0, -2, 0, 0, 0, 0)\n"
        "component 2: dim 2, denominator 1, image order 8\n"
        "  basis (1, 0, -1, 0, 0, 0, 0)\n"
        "  basis (0, 1, 0, 0, 0, 0, 0)\n"
    ),
    "perm_sym(5)": (
        "Q-constituent degrees: (1, 4)\n"
        "component 0: dim 1, denominator 5, image order 1\n"
        "  basis (1, 1, 1, 1, 1)\n"
        "component 1: dim 4, denominator 5, image order 120\n"
        "  basis (1, -4, 1, 1, 1)\n"
        "  basis (0, 5, -5, 0, 0)\n"
        "  basis (0, 0, 5, -5, 0)\n"
        "  basis (0, 0, 0, 5, -5)\n"
    ),
    # a Q^-1 g Q conjugate of product(d4_paper,rot(4)), from a rep file
    "conjugate": (
        "Q-constituent degrees: (1, 2, 2)\n"
        "component 0: dim 1, denominator 1, image order 1\n"
        "  basis (3, 3, -2, 0, 0)\n"
        "component 1: dim 2, denominator 1, image order 8\n"
        "  basis (1, 0, 0, 1, 0)\n"
        "  basis (0, 2, -1, -2, 0)\n"
        "component 2: dim 2, denominator 1, image order 4\n"
        "  basis (1, 1, -1, 0, 1)\n"
        "  basis (0, 0, 0, 1, 0)\n"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_Q_SPLITS))
def test_q_splits_print_the_pinned_stdout(name, tmp_path, capsys):
    target = f"catalog:{name}"
    if name == "conjugate":
        rng = random.Random("decompose:product(d4_paper,rot(4))")
        rep = catalog_rep("product(d4_paper,rot(4))")
        q, q_inv = _unimodular_pair(rep.degree, rng, ops=6)
        gens = [[list(r) for r in (q_inv * g * q).entries] for g in rep.generators]
        doc = {"name": name, "degree": rep.degree, "generators": gens}
        target = str(tmp_path / "conjugate.json")
        Path(target).write_text(json.dumps(doc))
    assert run(["decompose", target, "--field", "q"]) == EXIT_OK
    assert capsys.readouterr().out == PINNED_Q_SPLITS[name]


def test_rf_csv_stdout(capsys):
    assert run(["rf", "z:1", "--rmax", "6", "--csv", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "r,rf,witness_vector,witness_index"
    assert lines[-1].startswith("6,4,")


def test_rf_csv_deterministic(tmp_path):
    argv = ["rf", "catalog:rot(4)", "--family", "inv", "--rmax", "3", "--csv"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + [str(p1)]) == EXIT_OK
    assert run(argv + [str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_witness_command(capsys):
    assert run(["witness", "catalog:d4_paper", "--vector", "1,0,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "prime: 17" in out


def test_verify_lemmas(capsys):
    assert run(["verify", "catalog:quaternion_paper"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "commutant certificate" in out


def test_verify_lemmas_compares_dimensions_over_primes(monkeypatch, capsys):
    real = repdecomp.exponent_report

    def unstable(rep, **kwargs):
        report = real(rep, **kwargs)
        dims = report.dimensions_by_prime
        return dataclasses.replace(
            report, dimensions_by_prime=dims[:-1] + ((1,) * rep.degree,)
        )

    monkeypatch.setattr(repdecomp, "exponent_report", unstable)
    assert run(["verify", "catalog:quaternion_paper"]) == EXIT_COMPUTE
    out = capsys.readouterr().out
    assert "FAIL: constituent dimensions stable over primes (17, 41, 73)" in out


def _refuse(certificate=None):
    def stub(*_, **__):
        raise CertificateFailed("stub refusal", certificate)

    return stub


def test_verify_lemmas_prints_fail_for_a_failed_certificate(monkeypatch, capsys):
    assert run(["verify", "catalog:quaternion_paper"]) == EXIT_OK
    passing = capsys.readouterr().out.splitlines()
    cert = repdecomp.commutant_certificate(
        catalog_rep("quaternion_paper"), catalog_matrix("quaternion_commutant")
    )
    failed = dataclasses.replace(cert, checks=cert.checks + (("stub", False),))
    monkeypatch.setattr(repdecomp, "commutant_certificate", _refuse(certificate=failed))
    assert run(["verify", "catalog:quaternion_paper"]) == EXIT_COMPUTE
    lines = capsys.readouterr().out.splitlines()
    label = f"commutant certificate (det {cert.det} = {cert.x}^{cert.k})"
    assert lines == [line.replace(f"PASS: {label}", f"FAIL: {label}") for line in passing]
    assert f"PASS: {label}" in passing
    # a certificate that was not built names the failure
    monkeypatch.setattr(repdecomp, "commutant_certificate", _refuse())
    assert run(["verify", "catalog:quaternion_paper"]) == EXIT_COMPUTE
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "FAIL: commutant certificate (stub refusal)" if label in line else line
        for line in passing
    ]


def test_verify_lowerbound_prints_fail_for_a_failed_certificate(monkeypatch, capsys):
    argv = [
        "verify", "catalog:quaternion_paper",
        "--suite", "lowerbound", "--smax", "2", "--samples", "10",
    ]
    assert run(argv) == EXIT_OK
    passing = capsys.readouterr().out.splitlines()
    assert passing[-1] == "PASS: commutant certificates (10 samples)"
    monkeypatch.setattr(rfgrowth, "commutant_certificate", _refuse())
    assert run(argv) == EXIT_COMPUTE
    assert capsys.readouterr().out.splitlines() == passing[:-1] + [
        "FAIL: commutant certificates (10 samples)"
    ]


# one error class per line; each indicates a bug in the tool
INTERNAL_ERRORS = (
    CertificateFailed,
    InconsistentSplit,
    InexactDivision,
    NotAClassFunction,
    NotAPartition,
    UnsoundCommutant,
    UnsoundLattice,
    UnsoundMinpoly,
    UnsoundProfile,
    UnsoundSplit,
    UnsoundWitness,
)


@pytest.mark.parametrize("error", INTERNAL_ERRORS, ids=lambda e: e.__name__)
def test_an_internal_failure_exits_with_its_own_code(monkeypatch, capsys, error):
    def fail(*_, **__):
        raise error("stub failure")

    monkeypatch.setattr(repdecomp, "exponent_report", fail)
    assert run(["k", "catalog:d4_paper"]) == EXIT_INTERNAL == 3
    assert _one_error_line(capsys) == "error: stub failure"
    assert capsys.readouterr().out == ""


# one error class per line; each is an exhausted budget or bound
COMPUTE_ERRORS = (
    BudgetExceeded("stub failure"),
    InconclusiveSplit("Q", 2, 200, 0),
    NotFinite("stub failure"),
)


@pytest.mark.parametrize("error", COMPUTE_ERRORS, ids=lambda e: type(e).__name__)
def test_an_exhausted_budget_or_bound_exits_with_the_compute_code(monkeypatch, capsys, error):
    def fail(*_, **__):
        raise error

    monkeypatch.setattr(repdecomp, "exponent_report", fail)
    assert run(["k", "catalog:d4_paper"]) == EXIT_COMPUTE == 1
    assert _one_error_line(capsys) == f"error: {error}"


def test_the_internal_errors_are_those_that_indicate_a_bug():
    classes = [
        cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)
    ]
    bugs = {cls for cls in classes if "indicates a bug" in (cls.__doc__ or "")}
    assert set(INTERNAL_ERRORS) == bugs | {CertificateFailed}
    internal = {cls for cls in classes if issubclass(cls, errors.InternalFailure)}
    assert internal == set(INTERNAL_ERRORS) | {errors.InternalFailure}
    compute = {cls for cls in classes if issubclass(cls, errors.LimitReached)}
    assert compute == {type(e) for e in COMPUTE_ERRORS} | {errors.LimitReached}


def test_verify_lowerbound(capsys):
    argv = [
        "verify", "catalog:quaternion_paper",
        "--suite", "lowerbound", "--smax", "2", "--samples", "10",
    ]
    assert run(argv) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_catalog_list(capsys):
    assert run(["catalog", "list"]) == EXIT_OK
    assert "d4_paper" in capsys.readouterr().out


def test_catalog_dump_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "d4.json"
    assert run(["catalog", "dump", "d4_paper", "--output", str(out_path)]) == EXIT_OK
    rf = load_rep_file(str(out_path))
    from rfva.grouprep import close_group

    original = catalog_rep("d4_paper")
    reloaded = close_group(rf.generators)
    assert reloaded.elements == original.elements
    assert rf.character_table is not None
    # and the reloaded file drives the same answers through the CLI
    assert run(["k", str(out_path)]) == EXIT_OK
    assert "k = 2" in capsys.readouterr().out


def test_catalog_dump_carries_commutant_examples(capsys):
    assert run(["catalog", "dump", "quaternion_paper"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["commutant_examples"] == [
        [[1, -1, -2, 0], [1, 1, 0, 2], [2, 0, 1, -1], [0, -2, 1, 1]]
    ]
    assert list(doc)[-1] == "commutant_examples"
    assert run(["catalog", "dump", "d4_paper"]) == EXIT_OK
    assert "commutant_examples" not in json.loads(capsys.readouterr().out)


def test_catalog_dump_keeps_the_element_bound(capsys):
    # |perm_sym(6)| = 720; the dump closes the group as k does
    for argv in (["k", "catalog:perm_sym(6)"], ["catalog", "dump", "perm_sym(6)"]):
        assert run(["--element-bound", "10", *argv]) == EXIT_COMPUTE
        assert _one_error_line(capsys) == "error: closure exceeded element bound 10"


@pytest.mark.parametrize(("argv", "message"), (
    (["catalog", "list", "d4_paper"], "catalog list takes neither a NAME nor --output"),
    (["catalog", "list", "--output", "x"], "catalog list takes neither a NAME nor --output"),
    (["catalog", "dump"], "catalog dump needs a name"),
))
def test_catalog_actions_check_their_name(argv, message, capsys):
    assert run(argv) == EXIT_USAGE
    assert _one_error_line(capsys) == f"error: {message}"


def test_output_is_an_option_of_catalog_not_a_global_one(tmp_path, capsys):
    out_path = tmp_path / "d4.json"
    assert run(["--output", str(out_path), "catalog", "dump", "d4_paper"]) == EXIT_USAGE
    assert _one_error_line(capsys) == "error: option --output not recognized"
    assert not out_path.exists()


@pytest.mark.parametrize("suite", ([], ["--suite", "lemmas"]), ids=("default", "lemmas"))
@pytest.mark.parametrize(("option", "prefix"), (("--smax", "--sm"), ("--samples", "--sa")))
def test_the_lemmas_suite_refuses_the_lower_bound_options(suite, option, prefix, capsys):
    """Both options used to be ignored there, with exit 0."""
    for tokens in ([f"{option}=3"], [option, "3"], [prefix, "3"]):
        assert run(["verify", "catalog:quaternion_paper", *suite, *tokens]) == EXIT_USAGE
        assert _one_error_line(capsys) == f"error: {option} applies only to --suite lowerbound"


def test_exit_codes():
    assert run(["k", "catalog:not_a_thing"]) == EXIT_USAGE
    # the com family of trivial(1) in the default box holds Z and 2Z only
    assert run(["rf", "z:1", "--family", "com", "--rmax", "2"]) == EXIT_COMPUTE
    assert run(["nonsense"]) == EXIT_USAGE
    assert run(["--index-budget", "-1", "k", "catalog:d4_paper"]) == EXIT_USAGE


@pytest.mark.parametrize(("argv", "warning"), (
    (
        ["--index-budget", "100000", "rf", "z:1", "--family", "com", "--rmax", "2"],
        "profile truncated: the com family (coefficient box 2) has no further lattice"
        " of index <= 100000",
    ),
    (
        ["--index-budget", "5", "rf", "catalog:d4_paper", "--family", "inv", "--rmax", "2"],
        "profile truncated by index budget",
    ),
))
def test_a_truncated_profile_names_the_limit_that_ended_it(argv, warning, capsys):
    assert run(argv) == EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.out == "RF(1) = 2\n"
    assert captured.err == f"warning: {warning}\n"


def test_a_com_box_beyond_its_limit_is_refused_before_the_walk(capsys):
    # z:3 has a rank-9 commutant: (5^9 - 1)/2 = 976,562 coefficient vectors
    assert run(["rf", "z:3", "--family", "com", "--rmax", "1"]) == EXIT_COMPUTE
    assert _one_error_line(capsys) == (
        "error: the com box of a rank-9 commutant holds 976562 coefficient vectors, "
        "more than 200000"
    )


@pytest.mark.parametrize("family", ("nu", "inv", "com"))
def test_rf_needs_a_positive_radius(family, capsys):
    assert run(["rf", "z:2", "--family", family, "--rmax", "0"]) == EXIT_USAGE
    assert _one_error_line(capsys) == "error: r_max must be at least 1"


def test_compute_failure_exit(tmp_path):
    doc = {
        "name": "shear",
        "degree": 2,
        "generators": [[[1, 1], [0, 1]]],
    }
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(doc))
    assert run(["k", str(path)]) == EXIT_COMPUTE


def test_malformed_rep_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"degree\": 2}")
    assert run(["k", str(path)]) == EXIT_USAGE
    path.write_text("not json")
    assert run(["k", str(path)]) == EXIT_USAGE
    capsys.readouterr()
    valid = {"degree": 2, "generators": [[[0, -1], [1, 0]]]}
    for extra in ({"character_table": {}}, {"commutant_examples": [5]}):
        path.write_text(json.dumps(dict(valid, **extra)))
        assert run(["k", str(path)]) == EXIT_USAGE
        assert "malformed representation file" in _one_error_line(capsys)


@pytest.mark.parametrize(("example", "reason"), (
    ([[1, 0], [0, 2]], "does not commute"),
    ([[0, 0], [0, 0]], "nonsingular"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "degree does not match"),
), ids=("noncommuting", "singular", "3x3"))
def test_a_bad_commutant_example_fails_before_any_output(example, reason, tmp_path, capsys):
    path = tmp_path / "rot4.json"
    path.write_text(json.dumps({
        "degree": 2, "generators": [[[0, -1], [1, 0]]], "commutant_examples": [example],
    }))
    for command in ("k", "verify"):
        assert run([command, str(path)]) == EXIT_USAGE
        line = _one_error_line(capsys)
        assert line.startswith(f"error: bad commutant example in {path}: ") and reason in line


# where each integer field of a rep file sits: (field, path to one entry)
REP_FILE_FIELDS = (
    ("degree", ("degree",)),
    ("generators", ("generators", 0, 0, 0)),
    ("class_reps", ("character_table", "class_reps", 1, 0)),
    ("class_sizes", ("character_table", "class_sizes", 0)),
    ("characters", ("character_table", "characters", 0, 0)),
    ("commutant_examples", ("commutant_examples", 0, 0, 0)),
)


@pytest.mark.parametrize("bad", (float, bool, str), ids=lambda t: t.__name__)
@pytest.mark.parametrize(("field", "where"), REP_FILE_FIELDS, ids=[f for f, _ in REP_FILE_FIELDS])
def test_rep_file_values_must_be_integers(field, where, bad, tmp_path, capsys):
    # int() would read 1.0, True and "1" as 1, and -1.9 as -1
    assert run(["catalog", "dump", "quaternion_paper"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    *parents, last = where
    entry = doc
    for key in parents:
        entry = entry[key]
    entry[last] = bad(entry[last])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["k", str(path)]) == EXIT_USAGE
    line = _one_error_line(capsys)
    assert line.startswith(f"error: malformed representation file {path}: {field} needs integers")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", (
    ["rf", "z:0", "--rmax", "1"],
    ["rf", "z:-2", "--rmax", "3"],
    ["rf", "z:x", "--rmax", "1"],
    ["k", "z:0"],
    ["char", "z:-1"],
))
def test_z_rank_must_be_positive(argv, capsys):
    assert run(argv) == EXIT_USAGE
    assert "trivial(m) needs an integer m >= 1" in _one_error_line(capsys)


def _outcome(argv, capsys):
    code = run(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("m", (1, 2, 3))
def test_z_m_is_the_catalog_trivial_m(m, capsys):
    e_1 = ",".join(["1"] + ["0"] * (m - 1))
    for command, *options in (
        ["k"],
        ["decompose", "--field", "q"],
        ["decompose", "--field", "fp:5"],
        ["char", "--table"],
        ["witness", "--vector", e_1],
        ["verify", "--suite", "lemmas"],
    ):
        z = _outcome([command, f"z:{m}", *options], capsys)
        assert z == _outcome([command, f"catalog:trivial({m})", *options], capsys)
        assert z[0] == EXIT_OK, (command, options)
    assert "PASS: character-table k agrees" in z[1].splitlines()
    # nu, inv and com all give the trivial action's profile; the commutant
    # of trivial(3) has rank 9, so com stays at m <= 2
    families, rmax = {
        1: (("nu", "inv"), 6), 2: (("nu", "inv", "com"), 6), 3: (("nu", "inv"), 12)
    }[m]
    profiles = {_outcome(["rf", f"z:{m}", "--family", f, "--rmax", str(rmax)], capsys)
                for f in families}
    assert len(profiles) == 1
    assert profiles.pop()[0] == EXIT_OK


@pytest.mark.parametrize(("name", "message"), (
    ("std_sym(1)", "std_sym(n) needs an integer n >= 2, got '1'"),
    ("trivial(0)", "trivial(m) needs an integer m >= 1, got '0'"),
    ("perm_sym(abc)", "perm_sym(n) needs an integer n >= 2, got 'abc'"),
    ("perm_sym(2,3)", "perm_sym(n) needs an integer n >= 2, got '2,3'"),
))
def test_catalog_parameter_errors_name_the_family(name, message, capsys):
    assert run(["k", f"catalog:{name}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_catalog_dump_to_an_unwritable_path(tmp_path, capsys):
    out_path = tmp_path / "missing" / "d4.json"
    assert run(["catalog", "dump", "d4_paper", "--output", str(out_path)]) == EXIT_USAGE
    assert "cannot write" in _one_error_line(capsys)
    assert not out_path.exists()


def test_emit_csv_fails_closed(tmp_path):
    profile = rf_profile(FamilySpec("nu", catalog_rep("trivial(1)")), 3)
    with pytest.raises(IoFailure, match="cannot write"):
        emit_csv(profile, str(tmp_path / "missing" / "rf.csv"))
    empty = RFProfile(spec=profile.spec, radii=(), values=(), witnesses=())
    with pytest.raises(IoFailure, match="empty profile"):
        emit_csv(empty, "-")


def test_exhausted_split_budget_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(repdecomp, "SPLIT_TRY_BUDGET", 0)
    repdecomp.q_split.cache_clear()  # so the splits below run
    quaternion = catalog_rep("quaternion_paper")
    with pytest.raises(InconclusiveSplit) as info:
        repdecomp.q_split(quaternion)
    assert (info.value.field, info.value.dimension, info.value.tries, info.value.streak) == (
        "Q", 4, 0, 0
    )
    with pytest.raises(InconclusiveSplit) as info:
        repdecomp.split_mod_p.__wrapped__(quaternion, 17)
    assert (info.value.field, info.value.dimension, info.value.tries) == ("F_17", 4, 0)
    assert run(["decompose", "catalog:quaternion_paper"]) == EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: could not split or certify irreducibility within the retry budget "
        "(field Q, subspace dimension 4, 0 tries, longest irreducible streak 0)\n"
    )
    # the 16 deterministic candidates of the 4-dimensional commutant come
    # first; every random draw after them has an irreducible minimal polynomial
    monkeypatch.setattr(repdecomp, "SPLIT_TRY_BUDGET", 30)
    monkeypatch.setattr(repdecomp, "CONSECUTIVE_IRREDUCIBLE", 10**9)
    repdecomp.q_split.cache_clear()
    assert run(["decompose", "catalog:quaternion_paper"]) == EXIT_COMPUTE
    assert _one_error_line(capsys).endswith(
        "(field Q, subspace dimension 4, 30 tries, longest irreducible streak 14)"
    )


@pytest.mark.parametrize(
    "bounds", (["--samples", "0"], ["--samples", "-3"], ["--smax", "0"], ["--smax", "-1"])
)
def test_lowerbound_suite_rejects_empty_checks(bounds, capsys):
    # each of these printed PASS lines that checked nothing, and exited 0
    argv = ["verify", "catalog:quaternion_paper", "--suite", "lowerbound", "--smax", "1"]
    assert run(argv + bounds) == EXIT_USAGE
    assert _one_error_line(capsys) == "error: all bounds must be positive"
    assert capsys.readouterr().out == ""


def test_prime_beyond_the_exact_primality_range(capsys):
    argv = ["decompose", "catalog:d4_paper", "--field", f"fp:{2**89 - 1}"]
    assert run(argv) == EXIT_USAGE
    assert "beyond the deterministic primality range" in _one_error_line(capsys)


def test_importing_the_cli_leaves_sympy_unloaded():
    code = "import sys, rfva.cli; print(sorted(m for m in sys.modules if m.startswith('sympy')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


def test_python_dash_m_rfva_runs_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "rfva", "k", "catalog:d4_paper"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert out.returncode == EXIT_OK, out.stderr
    assert "k = 2" in out.stdout.splitlines()


def test_a_reader_that_closes_early_ends_the_command_quietly():
    """rf z:1 --rmax 20000 writes about 280 kB, more than a pipe holds: after
    its reader takes one line and closes, the next write fails.  The command
    exits with EXIT_PIPE and writes nothing to stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "rfva", "rf", "z:1", "--rmax", "20000"],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"RF(1) = 2\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (EXIT_PIPE, b"")
    assert EXIT_PIPE not in (EXIT_OK, EXIT_COMPUTE, EXIT_USAGE, EXIT_INTERNAL)


def _private_stream_call(case):
    rep = catalog_rep("product(rot(4),rot(4))")
    if case == "lower bound":
        return lambda: rfgrowth.lower_bound_certificate(catalog_rep("quaternion_paper"), 4)
    if case == "conjugate":
        q, q_inv = _unimodular_pair(rep.degree, random.Random("private:product(rot(4),rot(4))"))
        rep = grouprep.close_group([q_inv * g * q for g in rep.generators])
    return lambda: repdecomp.q_split.__wrapped__(rep)


@pytest.mark.parametrize("case", ("product", "conjugate", "lower bound"))
def test_random_streams_are_private(case, monkeypatch):
    """The Q split and the lower bound draw from fixed streams of their own:
    reseeding and drawing from the global random module between two calls
    changes neither their draws nor their results, and each call leaves the
    global state as it found it.  The Q split runs on product(rot(4),rot(4))
    and on a seeded Q^-1 g Q conjugate of it."""
    draws = []
    real_stream = repdecomp._ModuleSplitter.candidate_stream

    def recording_stream(self, commutant, scale):
        for z, is_random in real_stream(self, commutant, scale):
            draws.append((tuple(map(tuple, z)), is_random))
            yield z, is_random

    def recording_certificate(rep, b):
        draws.append((b, True))
        return real_certificate(rep, b)

    real_certificate = rfgrowth.commutant_certificate
    monkeypatch.setattr(repdecomp._ModuleSplitter, "candidate_stream", recording_stream)
    monkeypatch.setattr(rfgrowth, "commutant_certificate", recording_certificate)
    call = _private_stream_call(case)
    runs = []
    for state in (0, 9):
        random.seed(state)
        random.random()
        before = random.getstate()
        for cached in (repdecomp.q_split, repdecomp.split_mod_p, repdecomp.exponent_report):
            cached.cache_clear()
        draws.clear()
        runs.append((call(), list(draws)))
        assert random.getstate() == before
    assert runs[0] == runs[1]
    assert any(is_random for _, is_random in runs[0][1])


def test_verify_shares_one_exponent_report_per_rep(capsys):
    # the report line, the Q-constituent's k and the commutant certificate
    # all ask for the same rep
    argv = ["verify", "catalog:quaternion_paper", "--suite", "lemmas"]
    repdecomp.exponent_report.cache_clear()
    for _ in range(2):
        assert run(argv) == EXIT_OK
        assert repdecomp.exponent_report.cache_info().misses == 1
    capsys.readouterr()


REP = "catalog:d4_paper"
GLOBAL_OPTIONS = ("--element-bound", "--index-budget")
COMMAND_OPTIONS = {
    "k": (),
    "decompose": ("--field",),
    "char": ("--table",),
    "rf": ("--family", "--rmax", "--csv"),
    "witness": ("--vector",),
    "verify": ("--suite", "--smax", "--samples"),
    "catalog": ("--output",),
}
# (argv with OPT where the option goes, option, value, a unique prefix of the
# option, attribute, parsed value); global options go before the command
OPTION_FORMS = (
    (["OPT", "k", REP], "--element-bound", "9", "--el", "element_bound", 9),
    (["OPT", "k", REP], "--index-budget", "-4", "--in", "index_budget", -4),
    (["decompose", REP, "OPT"], "--field", "fp:17", "--fi", "field", "fp:17"),
    (["rf", REP, "OPT", "--rmax", "2"], "--family", "inv", "--fa", "family", "inv"),
    (["rf", "OPT", REP], "--rmax", "3", "--rm", "rmax", 3),
    (["rf", REP, "--rmax", "2", "OPT"], "--csv", "-", "--cs", "csv", "-"),
    (["witness", REP, "OPT"], "--vector", "-1,0,0", "--ve", "vector", "-1,0,0"),
    (["verify", REP, "OPT"], "--suite", "lowerbound", "--su", "suite", "lowerbound"),
    (["verify", REP, "OPT"], "--smax", "2", "--sm", "smax", 2),
    (["verify", REP, "OPT"], "--samples", "9", "--sa", "samples", 9),
    (["catalog", "dump", "d4_paper", "OPT"], "--output", "o.json", "--ou", "output", "o.json"),
)


@pytest.mark.parametrize(
    ("template", "option", "value", "prefix", "attr", "parsed"),
    OPTION_FORMS,
    ids=[form[1] for form in OPTION_FORMS],
)
def test_options_parse_in_the_equals_space_and_abbreviated_forms(
    template, option, value, prefix, attr, parsed
):
    i = template.index("OPT")
    for tokens in ([f"{option}={value}"], [option, value], [prefix, value]):
        args = _parse(template[:i] + tokens + template[i + 1 :])
        assert getattr(args, attr) == parsed, tokens
        assert vars(args).get("rep", REP) == REP


def test_flags_positionals_and_defaults_parse():
    assert _parse(["char", REP]).table is False
    assert _parse(["char", REP, "--table"]).table is True
    assert _parse(["char", "--ta", REP]).table is True
    args = _parse(["catalog", "dump", "d4_paper"])
    assert (args.action, args.name) == ("dump", "d4_paper")
    assert _parse(["catalog", "list"]).name is None
    args = _parse(["rf", "z:1", "--rmax", "2"])
    assert (args.rep, args.family, args.csv) == ("z:1", "nu", None)
    assert (args.element_bound, args.index_budget) == (
        grouprep.DEFAULT_ELEMENT_BOUND, rfgrowth.DEFAULT_INDEX_BUDGET
    )
    args = _parse(["verify", REP])
    assert (args.suite, args.smax, args.samples) == ("lemmas", 4, rfgrowth.DEFAULT_SAMPLES)
    assert args.given == set()
    assert _parse(["verify", REP, "--sm", "2", "--suite=lowerbound"]).given == {"smax", "suite"}


@pytest.mark.parametrize("argv", (
    ["k", REP, "--element-bound", "3"],  # global options go before the command
    ["--seed", "0", "k", REP],  # nothing takes a seed
    ["rf", "z:1", "--rmax", "2", "--output", "x"],
    ["nonsense", REP],
    [],
    ["k", REP, "--bogus"],
    ["--bogus", "k", REP],
    ["--prime-search-bound", "5", "k", REP],  # the prime search has no bound to set
    ["-x", "k", REP],
    ["verify", REP, "--s", "2"],  # not a unique prefix
    ["char", REP, "--table=yes"],
    ["rf", "z:1", "--rmax"],
    ["rf", "z:1", "--family", "xyz", "--rmax", "2"],
    ["verify", REP, "--suite", "nope"],
    ["catalog", "frob"],
    ["k"],
    ["rf", "--rmax", "2"],
    ["k", REP, "extra"],
    ["rf", "z:1"],
    ["witness", REP],
    ["catalog"],
    ["rf", "z:1", "--rmax", "x"],
    ["--index-budget", "1.5", "k", REP],
    ["--element-bound=", "k", REP],
    ["verify", REP, "--smax", "two"],
), ids=" ".join)
def test_a_usage_error_is_one_error_line_and_exit_2(argv, capsys):
    assert run(argv) == EXIT_USAGE
    _one_error_line(capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ("-h", "--help"))
def test_help_lists_every_command_and_option(flag, capsys):
    assert run([flag]) == EXIT_OK
    captured = capsys.readouterr()
    words = set(captured.out.replace("[", " ").replace("]", " ").split())
    assert set(COMMAND_OPTIONS) <= words
    assert set(GLOBAL_OPTIONS).union(*COMMAND_OPTIONS.values()) <= words
    assert captured.err == ""
    for command, options in COMMAND_OPTIONS.items():
        # after a command, help comes before its own checks
        assert run([command, flag]) == EXIT_OK
        words = set(capsys.readouterr().out.replace("[", " ").replace("]", " ").split())
        assert {command, *GLOBAL_OPTIONS, *options} <= words


def test_witness_vector_in_the_space_and_equals_forms(capsys):
    outs = []
    for tokens in (["--vector", "-1,0,0"], ["--vector=-1,0,0"]):
        assert run(["witness", REP, *tokens]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "vector: (-1, 0, 0)" in outs[0].splitlines()


@pytest.mark.parametrize(("argv", "message"), (
    (["decompose", REP, "--field", "fp:x"], "unknown field 'fp:x' (use q or fp:P)"),
    (["witness", REP, "--vector", "1,x,0"], "--vector needs comma-separated integers, got '1,x,0'"),
))
def test_a_bad_field_or_vector_is_named(argv, message, capsys):
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_command_loads_neither_argparse_nor_locale():
    code = (
        "import sys; from rfva.cli import run; code = run(['k', 'catalog:d4_paper']); "
        "print(sorted({'argparse', 'locale'} & set(sys.modules)), file=sys.stderr); "
        "sys.exit(code)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stderr) == (EXIT_OK, "[]\n")
