import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rfva import cli, errors, repdecomp, rfgrowth
from rfva.catalog import catalog_matrix, catalog_rep
from rfva.cli import (
    EXIT_COMPUTE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    emit_csv,
    load_rep_file,
    run,
)
from rfva.errors import (
    CertificateFailed,
    InconclusiveSplit,
    InconsistentSplit,
    InexactDivision,
    IoFailure,
    NotAClassFunction,
    NotAPartition,
    UnsoundCommutant,
    UnsoundLattice,
    UnsoundMinpoly,
    UnsoundProfile,
    UnsoundSplit,
    UnsoundWitness,
)
from rfva.lattice import FamilySpec
from rfva.rfgrowth import RFProfile, rf_profile

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_k_d4(capsys):
    assert run(["k", "catalog:d4_paper"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k = 2" in out
    assert "17 41 73" in out


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


def test_witness_prime_search_bound(capsys):
    argv = ["witness", "catalog:d4_paper", "--vector", "1,0,0"]
    assert run(["--prime-search-bound", "16"] + argv) == EXIT_COMPUTE
    assert "no prime = 1 mod 8 coprime to 1 below 16" in capsys.readouterr().err
    assert run(["--prime-search-bound", "17"] + argv) == EXIT_OK
    assert "prime: 17" in capsys.readouterr().out


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


def test_the_internal_errors_are_those_that_indicate_a_bug():
    bugs = {
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and "indicates a bug" in (cls.__doc__ or "")
    }
    assert set(INTERNAL_ERRORS) == bugs | {CertificateFailed} == set(cli._INTERNAL_ERRORS)
    assert not set(INTERNAL_ERRORS) & set(cli._COMPUTE_ERRORS)


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
    assert run(["--output", str(out_path), "catalog", "dump", "d4_paper"]) == EXIT_OK
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


def test_exit_codes():
    assert run(["k", "catalog:not_a_thing"]) == EXIT_USAGE
    assert run(["rf", "z:1", "--family", "com", "--rmax", "2"]) == EXIT_USAGE
    assert run(["nonsense"]) == EXIT_USAGE
    assert run(["--index-budget", "-1", "k", "catalog:d4_paper"]) == EXIT_USAGE


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


@pytest.mark.parametrize("argv", (
    ["rf", "z:0", "--rmax", "1"],
    ["rf", "z:-2", "--rmax", "3"],
    ["rf", "z:x", "--rmax", "1"],
    ["k", "z:0"],
    ["char", "z:-1"],
))
def test_z_rank_must_be_positive(argv, capsys):
    assert run(argv) == EXIT_USAGE
    assert "z:m needs an integer rank m >= 1" in _one_error_line(capsys)


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
    assert run(["--output", str(out_path), "catalog", "dump", "d4_paper"]) == EXIT_USAGE
    assert "cannot write" in _one_error_line(capsys)
    assert not out_path.exists()


def test_emit_csv_fails_closed(tmp_path):
    profile = rf_profile(FamilySpec("nu"), 1, 3)
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


def test_verify_shares_one_exponent_report_per_rep_seed_and_bound(capsys):
    # the report line, the Q-constituent's k and the commutant certificate
    # all ask for the same (rep, seed, bound)
    argv = ["verify", "catalog:quaternion_paper", "--suite", "lemmas"]
    for bound, misses in ((200_000, 1), (100_000, 2), (200_000, 2)):
        if misses == 1:
            repdecomp.exponent_report.cache_clear()
        assert run(["--prime-search-bound", str(bound)] + argv) == EXIT_OK
        assert repdecomp.exponent_report.cache_info().misses == misses
    capsys.readouterr()


def test_lowerbound_suite_keeps_the_prime_search_bound(capsys):
    # 17 is the only prime = 1 mod 8 below 41; the report needs three
    argv = ["verify", "catalog:quaternion_paper", "--suite", "lowerbound", "--smax", "2"]
    assert run(["--prime-search-bound", "40"] + argv + ["--samples", "2"]) == EXIT_COMPUTE
    assert "fewer than 3 primes" in capsys.readouterr().err
    assert run(["--prime-search-bound", "73"] + argv + ["--samples", "2"]) == EXIT_OK
