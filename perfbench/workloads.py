"""The benchmark's workloads: CLI command lists with the reason for each.

A token ``@NAME`` is a catalog representation that the seed conjugates (see
``inputs``); ``$vector:M`` at the end of a token is the seeded witness vector of length
M, given as ``--vector=...`` because it may start with a minus sign. Tokens
written as ``catalog:NAME`` or ``z:M`` are the same at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inputs import Inputs, witness_vector


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    # Independent conjugates per run. Their work differs, so more of them
    # narrows the spread between seeds; commands without seeded tokens run
    # once.
    variants: int = 1

    def plan(self, seed: int, workdir: str) -> list[tuple[tuple[str, ...], int, list[str]]]:
        """(template, variant, argv) for every command of one pass."""
        out = []
        for variant in range(self.variants):
            inputs = Inputs(seed, variant, workdir)
            for template in self.commands:
                if variant == 0 or seeded(template):
                    out.append((template, variant, resolve(template, inputs)))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exponent",
            why=(
                "group closure, conjugacy classes and the per-prime splits take "
                "nearly all the time and no sublattice is enumerated"
            ),
            commands=(
                ("k", "@perm_sym(6)"),
                ("k", "@perm_sym(5)"),
                ("decompose", "@perm_sym(5)", "--field", "q"),
                ("k", "@product(d4_paper,quaternion_paper)"),
                ("decompose", "@product(d4_paper,quaternion_paper)", "--field", "q"),
                ("decompose", "@std_sym(5)", "--field", "fp:241"),
                ("char", "@perm_sym(4)", "--table"),
                ("k", "@d4_paper"),
                ("k", "@quaternion_paper"),
            ),
        ),
        Workload(
            name="rf_scan",
            why=(
                "|H| = 8, so sublattice enumeration, the invariance filter and "
                "membership tests take the time and the group layer almost none"
            ),
            commands=(
                ("rf", "@d4_paper", "--family", "inv", "--rmax", "12"),
                ("rf", "@quaternion_paper", "--family", "inv", "--rmax", "4"),
                # The com family enumerates commutant combinations in a box
                # over a computed basis, so a conjugate can leave short
                # vectors unomitted within the index budget: keep the
                # catalog rep.
                ("rf", "catalog:d4_paper", "--family", "com", "--rmax", "6"),
                ("rf", "z:3", "--family", "nu", "--rmax", "12"),
            ),
            variants=5,
        ),
        Workload(
            name="verify",
            why=(
                "the group and split layers are called many times on one rep, "
                "so cache hits and per-call set-up count, plus the certificate algebra"
            ),
            commands=(
                ("verify", "@d4_paper", "--suite", "lemmas"),
                ("verify", "@quaternion_paper", "--suite", "lemmas"),
                ("verify", "@perm_sym(5)", "--suite", "lemmas"),
                ("verify", "@quaternion_paper", "--suite", "lowerbound", "--smax", "4"),
                ("verify", "@std_sym(4)", "--suite", "lowerbound", "--smax", "4"),
                ("witness", "@perm_sym(5)", "--vector=$vector:5"),
            ),
            variants=3,
        ),
    )
}


def seeded(template: tuple[str, ...]) -> bool:
    return any(tok.startswith("@") or "$vector:" in tok for tok in template)


def resolve(template: tuple[str, ...], inputs: Inputs) -> list[str]:
    argv = []
    for tok in template:
        if tok.startswith("@"):
            argv.append(inputs.rep(tok[1:]))
        elif "$vector:" in tok:
            head, size = tok.split("$vector:")
            v = witness_vector(inputs.seed, inputs.variant, int(size))
            argv.append(head + ",".join(str(x) for x in v))
        else:
            argv.append(tok)
    return argv


def label(template: tuple[str, ...], variant: int) -> str:
    return f"v{variant} " + " ".join(template)
