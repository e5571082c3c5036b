"""Seeded inputs: unimodular conjugates of catalog representations.

Seed 0 uses the catalog representations unchanged (``catalog:NAME``), so the
paper's worked values appear as they are. A seed s > 0 conjugates every
catalog representation a workload names by a seeded unimodular Q, a product
of a few elementary +-1 row operations, and writes the result as a rep file
in the ``rfva catalog dump`` schema: generators become Q^-1 g Q, the
character table is carried over (its class words name generators, which
conjugation keeps), and commutant examples become Q^-1 B Q. Conjugation
keeps k, the Q-degrees and the group order, and changes the integer entries
and with them the RF profiles. The seed also draws the ``witness`` vector.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

ELEMENTARY_OPS = 3
VECTOR_RANGE = 3


def _rng(seed: int, variant: int, what: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{variant}:{what}")


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def unimodular_pair(m: int, rng: random.Random):
    """(Q, Q^-1) for Q a product of ELEMENTARY_OPS row additions of +-1."""
    q = [[int(i == j) for j in range(m)] for i in range(m)]
    q_inv = [row[:] for row in q]
    if m < 2:
        return q, q_inv
    for _ in range(ELEMENTARY_OPS):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        # Q <- E Q with E = I + s e_ij, and Q^-1 <- Q^-1 E^-1
        q[i] = [a + s * b for a, b in zip(q[i], q[j])]
        for row in q_inv:
            row[j] -= s * row[i]
    return q, q_inv


def conjugate_doc(doc: dict, q, q_inv) -> dict:
    out = dict(doc)
    out["generators"] = [_matmul(_matmul(q_inv, g), q) for g in doc["generators"]]
    if "commutant_examples" in doc:
        out["commutant_examples"] = [
            _matmul(_matmul(q_inv, b), q) for b in doc["commutant_examples"]
        ]
    return out


def dump_catalog_doc(name: str) -> dict:
    """The ``rfva catalog dump NAME`` document, through the CLI."""
    from rfva import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["catalog", "dump", name])
    if code != 0:
        raise RuntimeError(f"catalog dump {name} exited with {code}")
    return json.loads(buf.getvalue())


def witness_vector(seed: int, variant: int, degree: int) -> tuple[int, ...]:
    rng = _rng(seed, variant, "witness")
    while True:
        v = tuple(rng.randint(-VECTOR_RANGE, VECTOR_RANGE) for _ in range(degree))
        if any(v):
            return v


class Inputs:
    """Resolves ``@NAME`` rep placeholders for one seed and variant."""

    def __init__(self, seed: int, variant: int, workdir: str):
        self.seed = seed
        self.variant = variant
        self.workdir = workdir
        self._paths: dict[str, str] = {}

    def rep(self, name: str) -> str:
        if self.seed == 0:
            return f"catalog:{name}"
        path = self._paths.get(name)
        if path is None:
            doc = dump_catalog_doc(name)
            q, q_inv = unimodular_pair(doc["degree"], _rng(self.seed, self.variant, name))
            path = os.path.join(self.workdir, f"v{self.variant}_{len(self._paths)}.json")
            with open(path, "w") as fh:
                json.dump(conjugate_doc(doc, q, q_inv), fh)
            self._paths[name] = path
        return path
