"""Command-line front end.

Representations are named as `catalog:NAME`, `z:m` (free abelian of rank m,
i.e. the trivial action), or a path to a JSON representation file.  All
randomness flows from --seed (default 0); identical argv plus seed gives
byte-identical CSV output.  Exit codes: 0 success, 1 computational failure
(budget or bound exceeded, inconclusive split, or a verify line that prints
FAIL), 2 invalid input, 3 internal failure (one of the tool's own soundness
checks failed, which indicates a bug; _INTERNAL_ERRORS).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import catalog, lattice, repdecomp, rfgrowth
from .errors import (
    BudgetExceeded,
    CertificateFailed,
    InconclusiveSplit,
    InconsistentSplit,
    InexactDivision,
    IoFailure,
    NotAClassFunction,
    NotAPartition,
    NotFinite,
    PrimeSearchFailed,
    RfvaError,
    SearchBoundExceeded,
    UnknownName,
    UnsoundCommutant,
    UnsoundLattice,
    UnsoundMinpoly,
    UnsoundProfile,
    UnsoundSplit,
    UnsoundWitness,
)
from .exactalg import IntMatrix
from .grouprep import (
    Rep,
    character_of_rep,
    close_group,
    conjugacy_classes,
    is_abelian_image,
    validate_rep,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_COMPUTE_ERRORS = (
    BudgetExceeded,
    InconclusiveSplit,
    NotFinite,
    PrimeSearchFailed,
    SearchBoundExceeded,
)
# a check inside the tool failed: a bug, not a mistake in the command line
_INTERNAL_ERRORS = (
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


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    element_bound: int = 20_000
    index_budget: int = 10_000
    prime_search_bound: int = 200_000
    output: str | None = None

    def __post_init__(self):
        if min(self.element_bound, self.index_budget, self.prime_search_bound) <= 0:
            raise ValueError("all bounds must be positive")


@dataclass(frozen=True)
class RepFile:
    """Parsed representation file (JSON, integers only)."""

    name: str
    degree: int
    generators: tuple[IntMatrix, ...]
    character_table: repdecomp.CharacterTable | None = None
    commutant_examples: tuple[IntMatrix, ...] = ()


def load_rep_file(path: str) -> RepFile:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RfvaError(f"bad JSON in {path}: {exc}") from exc
    try:
        degree = int(doc["degree"])
        gens = tuple(IntMatrix.from_rows(g) for g in doc["generators"])
        table = None
        if "character_table" in doc:
            t = doc["character_table"]
            table = repdecomp.CharacterTable(
                class_words=tuple(tuple(int(i) for i in w) for w in t["class_reps"]),
                class_sizes=tuple(int(s) for s in t["class_sizes"]),
                rows=tuple(tuple(int(x) for x in row) for row in t["characters"]),
            )
        examples = tuple(
            IntMatrix.from_rows(m) for m in doc.get("commutant_examples", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RfvaError(f"malformed representation file {path}: {exc}") from exc
    for g in gens:
        if not g.is_square() or g.rows != degree:
            raise RfvaError(f"generator shape does not match degree in {path}")
    return RepFile(
        name=str(doc.get("name", path)),
        degree=degree,
        generators=gens,
        character_table=table,
        commutant_examples=examples,
    )


def _z_rank(specifier: str) -> int:
    """The rank m of a `z:m` specifier; RfvaError unless m is an integer >= 1."""
    try:
        m = int(specifier[2:])
    except ValueError:
        m = 0
    if m < 1:
        raise RfvaError(f"{specifier!r}: z:m needs an integer rank m >= 1")
    return m


def _resolve_rep(specifier: str, cfg: RunConfig):
    """Returns (Rep, optional CharacterTable, commutant example matrices)."""
    if specifier.startswith("catalog:"):
        name = specifier[len("catalog:") :]
        rep = catalog.catalog_rep(name, element_bound=cfg.element_bound)
        try:
            table = catalog.catalog_character_table(name)
        except UnknownName:
            table = None
        examples = tuple(
            catalog.catalog_matrix(b) for b in catalog.COMMUTANT_EXAMPLES.get(name, ())
        )
        return rep, table, examples
    if specifier.startswith("z:"):
        m = _z_rank(specifier)
        rep = close_group([IntMatrix.identity(m)], cfg.element_bound)
        return rep, None, ()
    rf = load_rep_file(specifier)
    rep = close_group(rf.generators, cfg.element_bound)
    if rf.character_table is not None:
        # fail early on a bad table
        repdecomp.k_from_character_table(rep, rf.character_table)
    return rep, rf.character_table, rf.commutant_examples


def _family_spec(kind: str, rep: Rep | None) -> lattice.FamilySpec:
    if kind == "nu":
        return lattice.FamilySpec("nu")
    return lattice.FamilySpec(kind, rep=rep)


def emit_csv(profile: rfgrowth.RFProfile, destination) -> None:
    """r,rf,witness_vector,witness_index rows; LF endings; integers only."""
    if not profile.radii:
        raise IoFailure("refusing to emit an empty profile")
    lines = ["r,rf,witness_vector,witness_index"]
    for r, v, (vec, d) in zip(profile.radii, profile.values, profile.witnesses):
        row = f"{r},{v},{' '.join(str(x) for x in vec)},{d}"
        if profile.partial:
            row += ",partial=1"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if destination == "-":
        sys.stdout.write(text)
        return
    try:
        with open(destination, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {destination}: {exc}") from exc


def _cmd_k(args, cfg):
    rep, _, _ = _resolve_rep(args.rep, cfg)
    report = repdecomp.exponent_report(
        rep, seed=cfg.seed, prime_bound=cfg.prime_search_bound
    )
    print(f"k = {report.k}")
    print(f"primes: {' '.join(str(p) for p in report.primes)}")
    print(f"constituent dimensions: {report.dimensions}")
    return EXIT_OK


def _cmd_decompose(args, cfg):
    rep, _, _ = _resolve_rep(args.rep, cfg)
    field = args.field
    if field == "q":
        split = repdecomp.q_split(rep, seed=cfg.seed)
        print(f"Q-constituent degrees: {split.degrees}")
        for i, comp in enumerate(split.components):
            print(
                f"component {i}: dim {comp.dimension}, "
                f"denominator {comp.denominator}, image order {comp.rep.order}"
            )
            for t in range(comp.dimension):
                print(f"  basis {comp.basis_numerator.row(t)}")
        return EXIT_OK
    if not field.startswith("fp:"):
        raise RfvaError(f"unknown field {field!r} (use q or fp:P)")
    p = int(field[3:])
    cons = repdecomp.split_mod_p(rep, p, seed=cfg.seed)
    print(f"mod-{p} constituent dimensions: {cons.dimensions}")
    for g in cons.groups:
        print(f"dimension {g.dimension} x {g.multiplicity}")
    return EXIT_OK


def _cmd_char(args, cfg):
    rep, table, _ = _resolve_rep(args.rep, cfg)
    classes = conjugacy_classes(rep)
    chi = character_of_rep(rep, classes)
    print(f"classes (BFS order): sizes {classes.sizes}")
    print(f"chi_phi (BFS order): {chi.values}")
    if args.table:
        if table is None:
            raise RfvaError("no character table available for this representation")
        dec = repdecomp.k_from_character_table(rep, table)
        print(f"chi_phi (table order): {dec.chi}")
        print(f"multiplicities: {dec.multiplicities}")
        print(f"k = {dec.k}")
    return EXIT_OK


def _cmd_rf(args, cfg):
    if args.rep.startswith("z:"):
        m = _z_rank(args.rep)
        if args.family != "nu":
            raise RfvaError("z:m supports only the nu family")
        spec = lattice.FamilySpec("nu")
    else:
        rep, _, _ = _resolve_rep(args.rep, cfg)
        m = rep.degree
        spec = _family_spec(args.family, rep)
    profile = rfgrowth.rf_profile(spec, m, args.rmax, index_budget=cfg.index_budget)
    if args.csv:
        emit_csv(profile, args.csv)
    else:
        for r, v in zip(profile.radii, profile.values):
            print(f"RF({r}) = {v}")
    if profile.partial:
        print("warning: profile truncated by index budget", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def _cmd_witness(args, cfg):
    rep, _, _ = _resolve_rep(args.rep, cfg)
    v = tuple(int(x) for x in args.vector.split(","))
    w = lattice.upper_bound_witness(
        rep, v, seed=cfg.seed, prime_bound=cfg.prime_search_bound
    )
    print(f"vector: {w.vector}")
    print(f"prime: {w.prime}")
    print(f"constituent dimension: {w.dimension}")
    print(f"index: {w.index}")
    for i in range(w.lattice.dimension):
        print(f"basis {w.lattice.basis.row(i)}")
    return EXIT_OK


def _check(label: str, ok: bool, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    if not ok:
        failures.append(label)


def _certificate_check(rep, b, cfg) -> tuple[str, bool]:
    """The label and verdict of the commutant-certificate line for b; a
    failed certificate fails its line, which names the failure when the
    certificate was not built."""
    try:
        cert = repdecomp.commutant_certificate(
            rep, b, seed=cfg.seed, prime_bound=cfg.prime_search_bound
        )
    except CertificateFailed as exc:
        if exc.certificate is None:
            return f"commutant certificate ({exc})", False
        cert = exc.certificate
    return f"commutant certificate (det {cert.det} = {cert.x}^{cert.k})", cert.passed


def _cmd_verify(args, cfg):
    rep, table, examples = _resolve_rep(args.rep, cfg)
    failures = []
    if args.suite == "lowerbound":
        report = rfgrowth.lower_bound_certificate(
            rep, args.smax, samples=args.samples, seed=cfg.seed,
            index_budget=cfg.index_budget, prime_bound=cfg.prime_search_bound,
        )
        for s, a_ok, e_ok in zip(
            report.s_values, report.arithmetic_ok, report.enumeration_ok
        ):
            _check(f"s={s} lcm arithmetic", a_ok, failures)
            _check(f"s={s} enumerated Com indices >= s^{report.k}", e_ok, failures)
        _check(
            f"commutant certificates ({report.certificates_total} samples)",
            report.certificates_passed == report.certificates_total,
            failures,
        )
        return EXIT_COMPUTE if failures else EXIT_OK
    if args.suite != "lemmas":
        raise RfvaError(f"unknown suite {args.suite!r}")
    info = validate_rep(rep)
    print(
        f"degree {info.degree}, order {info.order}, "
        f"{info.class_count} classes, abelian: {info.abelian}"
    )
    report = repdecomp.exponent_report(
        rep, seed=cfg.seed, prime_bound=cfg.prime_search_bound
    )
    _check(
        f"constituent dimensions stable over primes {report.primes}",
        report.stable,
        failures,
    )
    _check(
        "abelian image iff k = 1",
        is_abelian_image(rep) == (report.k == 1),
        failures,
    )
    split = repdecomp.q_split(rep, seed=cfg.seed)
    sub_k = max(
        repdecomp.exponent_k(c.rep, seed=cfg.seed, prime_bound=cfg.prime_search_bound)
        for c in split.components
    )
    _check("k equals max over Q-constituents", sub_k == report.k, failures)
    if table is not None:
        dec = repdecomp.k_from_character_table(rep, table)
        _check("character-table k agrees", dec.k == report.k, failures)
    for b in examples:
        _check(*_certificate_check(rep, b, cfg), failures)
        conj = repdecomp.conjugate_rep(rep, b)
        _check("conjugated rep preserves order", conj.order == rep.order, failures)
    for j in range(rep.degree):
        v = tuple(1 if i == j else 0 for i in range(rep.degree))
        w = lattice.upper_bound_witness(
            rep, v, seed=cfg.seed, prime_bound=cfg.prime_search_bound
        )
        _check(
            f"witness for e_{j}: index {w.index} = {w.prime}^{w.dimension}, d <= k",
            w.dimension <= report.k and not w.lattice.contains(v),
            failures,
        )
    return EXIT_COMPUTE if failures else EXIT_OK


def _dump_rep_file(name: str) -> dict:
    rep = catalog.catalog_rep(name)
    doc = {
        "name": name,
        "degree": rep.degree,
        "generators": [[list(r) for r in g.entries] for g in rep.generators],
    }
    try:
        t = catalog.catalog_character_table(name)
        doc["character_table"] = {
            "class_reps": [list(w) for w in t.class_words],
            "class_sizes": list(t.class_sizes),
            "characters": [list(r) for r in t.rows],
        }
    except UnknownName:
        pass
    examples = catalog.COMMUTANT_EXAMPLES.get(name)
    if examples:
        doc["commutant_examples"] = [
            [list(r) for r in catalog.catalog_matrix(b).entries] for b in examples
        ]
    return doc


def _cmd_catalog(args, cfg):
    if args.action == "list":
        for name in catalog.CATALOG_NAMES:
            print(name)
        return EXIT_OK
    if args.action == "dump":
        if not args.name:
            raise RfvaError("catalog dump needs a name")
        doc = _dump_rep_file(args.name)
        out = json.dumps(doc, indent=2) + "\n"
        if cfg.output:
            try:
                with open(cfg.output, "w") as fh:
                    fh.write(out)
            except OSError as exc:
                raise IoFailure(f"cannot write {cfg.output}: {exc}") from exc
        else:
            sys.stdout.write(out)
        return EXIT_OK
    raise RfvaError(f"unknown catalog action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfva",
        description="Residual finiteness growth exponents of virtually abelian groups",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--element-bound", type=int, default=20_000)
    parser.add_argument("--index-budget", type=int, default=10_000)
    parser.add_argument("--prime-search-bound", type=int, default=200_000)
    parser.add_argument("--output", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("k", help="growth exponent via mod-p splitting")
    p.add_argument("rep")
    p.set_defaults(func=_cmd_k)

    p = sub.add_parser("decompose", help="split over Q or F_p")
    p.add_argument("rep")
    p.add_argument("--field", default="q")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("char", help="character and table decomposition")
    p.add_argument("rep")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("rf", help="brute-force RF profile")
    p.add_argument("rep")
    p.add_argument("--family", choices=("nu", "inv", "com"), default="nu")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_rf)

    p = sub.add_parser("witness", help="invariant lattice omitting a vector")
    p.add_argument("rep")
    p.add_argument("--vector", required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("rep")
    p.add_argument("--suite", choices=("lemmas", "lowerbound"), default="lemmas")
    p.add_argument("--smax", type=int, default=4)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="list or dump catalog entries")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = RunConfig(
            seed=args.seed,
            element_bound=args.element_bound,
            index_budget=args.index_budget,
            prime_search_bound=args.prime_search_bound,
            output=args.output,
        )
        return args.func(args, cfg)
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except _INTERNAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RfvaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())
