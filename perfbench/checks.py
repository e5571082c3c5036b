"""Output checks for every command.

At a seed with a recorded file under ``expected/`` each command's exit code
and stdout must match byte for byte. At every seed the outputs must also
keep what conjugation cannot change, measured against the seed-0 record:
k, primes and constituent dimensions; Q-degrees and image orders; the
character table decomposition; every ``verify`` line PASS with exit code 0;
a witness of index p^d with d <= k that omits the vector; RF non-decreasing
in r. At seed 0 the paper's worked values must appear.
"""

from __future__ import annotations

import json
import os
import re

from .workloads import label

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

# (command template, line its seed-0 stdout must contain)
PAPER_VALUES = (
    (("k", "@d4_paper"), "k = 2"),
    (("k", "@quaternion_paper"), "k = 2"),
    (("k", "@perm_sym(6)"), "k = 5"),
    (("rf", "@d4_paper", "--family", "inv", "--rmax", "12"), "RF(12) = 25"),
)


def expected_path(seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"seed{seed}.json")


def load_expected(seed: int) -> dict | None:
    try:
        with open(expected_path(seed)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def _rep_name(template) -> str | None:
    return next((t[1:] for t in template if t.startswith("@")), None)


def _k_of(reference: dict, name: str) -> int:
    """k for a catalog rep, from the seed-0 record of ``k @NAME``."""
    out = reference[f"v0 k @{name}"]["stdout"]
    return int(re.search(r"^k = (\d+)$", out, re.M).group(1))


COMPONENT = re.compile(r"^component \d+: dim (\d+), denominator \d+, image order (\d+)$", re.M)


def _decompose_q_summary(out: str):
    lines = out.splitlines()
    comps = sorted((int(m.group(1)), int(m.group(2))) for m in COMPONENT.finditer(out))
    bases = sum(1 for line in lines if line.startswith("  basis "))
    return lines[0], comps, bases


def _check_rf(template, out: str) -> list[str]:
    rmax = int(template[template.index("--rmax") + 1])
    values = []
    for r, line in enumerate(out.splitlines(), start=1):
        m = re.fullmatch(r"RF\((\d+)\) = (\d+)", line)
        if not m or int(m.group(1)) != r:
            return [f"unexpected RF line {line!r}"]
        values.append(int(m.group(2)))
    problems = []
    if len(values) != rmax:
        problems.append(f"{len(values)} RF lines, expected {rmax}")
    if any(b < a for a, b in zip(values, values[1:])) or (values and values[0] < 1):
        problems.append(f"RF not positive and non-decreasing: {values}")
    return problems


def _omits(basis, v) -> bool:
    """v outside the lattice spanned by the rows of an upper-triangular basis."""
    v = list(v)
    for i, row in enumerate(basis):
        if row[i] <= 0 or v[i] % row[i]:
            return True
        c = v[i] // row[i]
        v = [a - c * b for a, b in zip(v, row)]
    return any(v)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _check_witness(argv, out: str, k: int) -> list[str]:
    token = next(t for t in argv if t.startswith("--vector="))
    vector = tuple(int(x) for x in token[len("--vector=") :].split(","))
    fields = dict(line.split(": ", 1) for line in out.splitlines() if not line.startswith("basis "))
    basis = [
        [int(x) for x in line[len("basis (") : -1].split(",")]
        for line in out.splitlines()
        if line.startswith("basis (")
    ]
    p, d, index = int(fields["prime"]), int(fields["constituent dimension"]), int(fields["index"])
    problems = []
    if fields["vector"] != str(vector):
        problems.append(f"witness vector {fields['vector']} is not {vector}")
    if not _is_prime(p) or index != p**d or d > k:
        problems.append(f"index {index} is not p^d with p = {p} prime and d = {d} <= k = {k}")
    diag = 1
    for i, row in enumerate(basis):
        diag *= row[i]
        if any(row[:i]):
            problems.append("witness basis is not upper triangular")
    if len(basis) != len(vector) or diag != index:
        problems.append(f"witness basis of {len(basis)} rows has determinant {diag}, not {index}")
    elif not _omits(basis, vector):
        problems.append("witness lattice contains the vector")
    return problems


def _invariant_problems(template, argv, code, out, reference) -> list[str]:
    kind = template[0]
    ref = reference.get(f"v0 {' '.join(template)}")
    if ref is None:
        return ["no seed-0 record for this command"]
    if code != 0:
        return [f"exit code {code}"]
    name = _rep_name(template)
    if kind in ("k", "char") or (kind == "rf" and name is None):
        return [] if out == ref["stdout"] else ["output differs from the seed-0 record"]
    if kind == "decompose" and template[-1] == "q":
        return [] if _decompose_q_summary(out) == _decompose_q_summary(ref["stdout"]) else [
            "Q-degrees, image orders or basis sizes differ from the seed-0 record"
        ]
    if kind == "decompose":
        lines, ref_lines = out.splitlines(), ref["stdout"].splitlines()
        same = lines[:1] == ref_lines[:1] and sorted(lines[1:]) == sorted(ref_lines[1:])
        return [] if same else ["mod-p constituents differ from the seed-0 record"]
    if kind == "rf":
        return _check_rf(template, out)
    if kind == "verify":
        lines, ref_lines = out.splitlines(), ref["stdout"].splitlines()
        problems = []
        if "lemmas" in template and lines[:1] != ref_lines[:1]:
            problems.append("rep summary differs from the seed-0 record")
        checks = lines[1:] if "lemmas" in template else lines
        if not all(line.startswith("PASS: ") for line in checks):
            problems.append("a verify line is not PASS")
        if len(lines) != len(ref_lines):
            problems.append(f"{len(lines)} verify lines, seed 0 has {len(ref_lines)}")
        return problems
    if kind == "witness":
        return _check_witness(argv, out, _k_of(reference, name))
    return [f"no check for command kind {kind!r}"]


def check(template, variant, argv, code, out, seed, expected, reference) -> list[str]:
    """Problems found in one command's result; empty when it is correct.

    expected is the record for this seed (or None), reference the seed-0
    record.
    """
    key = label(template, variant)
    problems = []
    if expected is not None:
        rec = expected.get(key)
        if rec is None:
            problems.append("no recorded output for this seed")
        elif rec["exit_code"] != code or rec["stdout"] != out:
            problems.append("output differs from the recorded output")
    try:
        problems += _invariant_problems(template, argv, code, out, reference)
    except (AttributeError, IndexError, KeyError, ValueError) as exc:
        problems.append(f"output does not parse: {exc!r}")
    if seed == 0:
        for tmpl, line in PAPER_VALUES:
            if tuple(template) == tmpl and line not in out.splitlines():
                problems.append(f"paper value {line!r} missing")
    return problems
