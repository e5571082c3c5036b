"""Command-line front end: rfva [GLOBAL OPTIONS] COMMAND [ARGUMENTS AND OPTIONS].

getopt reads argv by one table of the commands and options, which -h prints.
Representations are named as `catalog:NAME`, `z:m` (another name for
`catalog:trivial(m)`, the trivial action on Z^m), or a path to a JSON
representation file of integers, as `catalog dump NAME [--output F]` writes.
All randomness flows from --seed (default 0); identical argv plus seed gives
byte-identical CSV output. Exit codes: 0 success, 1 computational failure (a
budget or bound exceeded, errors.LimitReached, or a verify line that prints
FAIL), 2 invalid input, 3 internal failure (one of the tool's own soundness
checks failed, which indicates a bug; errors.InternalFailure).
"""

from __future__ import annotations

import getopt
import json
import sys
from dataclasses import dataclass
from types import SimpleNamespace

from . import catalog, grouprep, lattice, repdecomp, rfgrowth
from .errors import (
    CertificateFailed,
    InternalFailure,
    IoFailure,
    LimitReached,
    RfvaError,
    UnknownName,
)
from .exactalg import IntMatrix
from .grouprep import (
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

    def ints(values, field: str) -> tuple[int, ...]:  # refuses what int() would convert
        if any(type(x) is not int for x in values):
            raise TypeError(f"{field} needs integers, got {values!r}")
        return tuple(values)
    try:
        degree = ints([doc["degree"]], "degree")[0]
        gens = tuple(IntMatrix.from_rows(ints(r, "generators") for r in g)
                     for g in doc["generators"])
        table = None
        if "character_table" in doc:
            t = doc["character_table"]
            table = repdecomp.CharacterTable(
                class_words=tuple(ints(w, "class_reps") for w in t["class_reps"]),
                class_sizes=ints(t["class_sizes"], "class_sizes"),
                rows=tuple(ints(row, "characters") for row in t["characters"]),
            )
        examples = tuple(IntMatrix.from_rows(ints(r, "commutant_examples") for r in m)
                         for m in doc.get("commutant_examples", []))
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


def _resolve_rep(specifier: str, element_bound: int):
    """The (Rep, optional CharacterTable, commutant example matrices) that a
    REP argument names; `z:m` is another name for `catalog:trivial(m)`."""
    if specifier.startswith("z:"):
        specifier = f"catalog:trivial({specifier[2:]})"
    if specifier.startswith("catalog:"):
        name = specifier[len("catalog:") :]
        rep = catalog.catalog_rep(name, element_bound=element_bound)
        try:
            table = catalog.catalog_character_table(name)
        except UnknownName:
            table = None
        examples = tuple(
            catalog.catalog_matrix(b) for b in catalog.COMMUTANT_EXAMPLES.get(name, ())
        )
        return rep, table, examples
    rf = load_rep_file(specifier)
    rep = close_group(rf.generators, element_bound)
    if rf.character_table is not None:
        # fail early on a bad table
        repdecomp.k_from_character_table(rep, rf.character_table)
    return rep, rf.character_table, rf.commutant_examples


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


def _cmd_k(args):
    rep, _, _ = _resolve_rep(args.rep, args.element_bound)
    report = repdecomp.exponent_report(
        rep, seed=args.seed, prime_bound=args.prime_search_bound
    )
    print(f"k = {report.k}")
    print(f"primes: {' '.join(str(p) for p in report.primes)}")
    print(f"constituent dimensions: {report.dimensions}")
    return EXIT_OK


def _cmd_decompose(args):
    rep, _, _ = _resolve_rep(args.rep, args.element_bound)
    field = args.field
    if field == "q":
        split = repdecomp.q_split(rep, seed=args.seed)
        print(f"Q-constituent degrees: {split.degrees}")
        for i, comp in enumerate(split.components):
            print(
                f"component {i}: dim {comp.dimension}, "
                f"denominator {comp.denominator}, image order {comp.rep.order}"
            )
            for t in range(comp.dimension):
                print(f"  basis {comp.basis_numerator.row(t)}")
        return EXIT_OK
    if not (field.startswith("fp:") and field[3:].isdecimal()):
        raise RfvaError(f"unknown field {field!r} (use q or fp:P)")
    p = int(field[3:])
    cons = repdecomp.split_mod_p(rep, p, seed=args.seed)
    print(f"mod-{p} constituent dimensions: {cons.dimensions}")
    for g in cons.groups:
        print(f"dimension {g.dimension} x {g.multiplicity}")
    return EXIT_OK


def _cmd_char(args):
    rep, table, _ = _resolve_rep(args.rep, args.element_bound)
    classes = conjugacy_classes(rep)
    chi = character_of_rep(rep)
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


def _cmd_rf(args):
    rep, _, _ = _resolve_rep(args.rep, args.element_bound)
    spec = lattice.FamilySpec(args.family, rep)
    profile = rfgrowth.rf_profile(spec, args.rmax, index_budget=args.index_budget)
    if args.csv:
        emit_csv(profile, args.csv)
    else:
        for r, v in zip(profile.radii, profile.values):
            print(f"RF({r}) = {v}")
    if profile.partial:
        reason = " by index budget"
        if args.family == "com":
            reason = (
                f": the com family (coefficient box {lattice.COEFFICIENT_BOX}) has no "
                f"further lattice of index <= {args.index_budget}"
            )
        print(f"warning: profile truncated{reason}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def _cmd_witness(args):
    if not all(x.removeprefix("-").isdecimal() for x in args.vector.split(",")):
        raise RfvaError(f"--vector needs comma-separated integers, got {args.vector!r}")
    rep, _, _ = _resolve_rep(args.rep, args.element_bound)
    v = tuple(int(x) for x in args.vector.split(","))
    w = lattice.upper_bound_witness(
        rep, v, seed=args.seed, prime_bound=args.prime_search_bound
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


def _certificate_check(rep, b, args) -> tuple[str, bool]:
    """The label and verdict of the commutant-certificate line for b; a
    failed certificate fails its line, which names the failure when the
    certificate was not built."""
    try:
        cert = repdecomp.commutant_certificate(
            rep, b, seed=args.seed, prime_bound=args.prime_search_bound
        )
    except CertificateFailed as exc:
        if exc.certificate is None:
            return f"commutant certificate ({exc})", False
        cert = exc.certificate
    return f"commutant certificate (det {cert.det} = {cert.x}^{cert.k})", cert.passed


def _cmd_verify(args):
    rep, table, examples = _resolve_rep(args.rep, args.element_bound)
    failures = []
    if args.suite == "lowerbound":
        report = rfgrowth.lower_bound_certificate(
            rep, args.smax, samples=args.samples, seed=args.seed,
            index_budget=args.index_budget, prime_bound=args.prime_search_bound,
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
    info = validate_rep(rep)
    print(
        f"degree {info.degree}, order {info.order}, "
        f"{info.class_count} classes, abelian: {info.abelian}"
    )
    report = repdecomp.exponent_report(
        rep, seed=args.seed, prime_bound=args.prime_search_bound
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
    split = repdecomp.q_split(rep, seed=args.seed)
    sub_k = max(
        repdecomp.exponent_k(c.rep, seed=args.seed, prime_bound=args.prime_search_bound)
        for c in split.components
    )
    _check("k equals max over Q-constituents", sub_k == report.k, failures)
    if table is not None:
        dec = repdecomp.k_from_character_table(rep, table)
        _check("character-table k agrees", dec.k == report.k, failures)
    for b in examples:
        _check(*_certificate_check(rep, b, args), failures)
        conj = repdecomp.conjugate_rep(rep, b)
        _check("conjugated rep preserves order", conj.order == rep.order, failures)
    for j in range(rep.degree):
        v = tuple(1 if i == j else 0 for i in range(rep.degree))
        w = lattice.upper_bound_witness(
            rep, v, seed=args.seed, prime_bound=args.prime_search_bound
        )
        _check(
            f"witness for e_{j}: index {w.index} = {w.prime}^{w.dimension}, d <= k",
            w.dimension <= report.k and not w.lattice.contains(v),
            failures,
        )
    return EXIT_COMPUTE if failures else EXIT_OK


def _dump_rep_file(name: str, element_bound: int) -> dict:
    rep, table, examples = _resolve_rep(f"catalog:{name}", element_bound)
    doc = {
        "name": name,
        "degree": rep.degree,
        "generators": [[list(r) for r in g.entries] for g in rep.generators],
    }
    if table is not None:
        doc["character_table"] = {
            "class_reps": [list(w) for w in table.class_words],
            "class_sizes": list(table.class_sizes),
            "characters": [list(r) for r in table.rows],
        }
    if examples:
        doc["commutant_examples"] = [[list(r) for r in b.entries] for b in examples]
    return doc


def _cmd_catalog(args):
    if args.action == "list":
        if args.name or args.output:
            raise RfvaError("catalog list takes neither a NAME nor --output")
        for name in catalog.CATALOG_NAMES:
            print(name)
        return EXIT_OK
    if args.action == "dump":
        if not args.name:
            raise RfvaError("catalog dump needs a name")
        doc = _dump_rep_file(args.name, args.element_bound)
        out = json.dumps(doc, indent=2) + "\n"
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(out)
            except OSError as exc:
                raise IoFailure(f"cannot write {args.output}: {exc}") from exc
        else:
            sys.stdout.write(out)
        return EXIT_OK
    raise RfvaError(f"unknown catalog action {args.action!r}")


# An option maps its name to (kind, default): int and str take a value, bool is
# a flag, a tuple lists the choices, and a default of ... marks it required. A
# command maps to (handler, summary, positionals, options); "[name]" may be left out.
_GLOBAL_OPTIONS = {
    "seed": (int, repdecomp.DEFAULT_SEED),
    "element-bound": (int, grouprep.DEFAULT_ELEMENT_BOUND),
    "index-budget": (int, rfgrowth.DEFAULT_INDEX_BUDGET),
    "prime-search-bound": (int, repdecomp.DEFAULT_PRIME_BOUND),
}
_COMMANDS = {
    "k": (_cmd_k, "growth exponent via mod-p splitting", ("rep",), {}),
    "decompose": (_cmd_decompose, "split over Q or F_p", ("rep",), {"field": (str, "q")}),
    "char": (_cmd_char, "character and table decomposition", ("rep",), {"table": (bool, False)}),
    "rf": (_cmd_rf, "brute-force RF profile", ("rep",), {
        "family": (lattice.FAMILY_KINDS, "nu"), "rmax": (int, ...), "csv": (str, None)}),
    "witness": (_cmd_witness, "invariant lattice omitting a vector", ("rep",), {
        "vector": (str, ...)}),
    "verify": (_cmd_verify, "run a verification suite", ("rep",), {
        "suite": (("lemmas", "lowerbound"), "lemmas"), "smax": (int, 4),
        "samples": (int, rfgrowth.DEFAULT_SAMPLES)}),
    "catalog": (_cmd_catalog, "list names, or dump NAME as a rep file", ("action", "[name]"), {
        "output": (str, None)}),
}


def _usage(commands) -> str:
    def words(options):
        for name, (kind, default) in options.items():
            value = "|".join(kind) if type(kind) is tuple else kind.__name__.upper()
            text = f"--{name}" if kind is bool else f"--{name} {value}"
            yield text if default is ... else f"[{text}]"
    lines = [" ".join(["usage: rfva [-h]", *words(_GLOBAL_OPTIONS), "COMMAND"])]
    for name in commands:
        _, summary, positionals, options = _COMMANDS[name]
        line = " ".join(["rfva", name, *map(str.upper, positionals), *words(options)])
        lines += [f"  {line}", f"      {summary}"]
    return "\n".join(lines)


def _read_options(pairs, table, args) -> bool:
    """Sets table's defaults on args, then getopt's (flag, value) pairs
    checked and converted by table; whether -h or --help was among them."""
    for name, (_, default) in table.items():
        setattr(args, name.replace("-", "_"), default)
    for flag, value in pairs:
        if flag in ("-h", "--help"):
            return True
        kind, _ = table[flag[2:]]
        if kind is int and not value.removeprefix("-").isdecimal():
            raise RfvaError(f"{flag} needs an integer, got {value!r}")
        if type(kind) is tuple and value not in kind:
            raise RfvaError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        value = True if kind is bool else int(value) if kind is int else value
        setattr(args, flag[2:].replace("-", "_"), value)
    return False


def _parse(argv):
    """The namespace argv asks for, with its handler as `func`, or the usage
    text when it asks for -h or --help. Global options precede the command."""
    def longopts(table):
        return ["help", *(n if kind is bool else n + "=" for n, (kind, _) in table.items())]
    pairs, rest = getopt.getopt(argv, "h", longopts(_GLOBAL_OPTIONS))
    args = SimpleNamespace()
    if _read_options(pairs, _GLOBAL_OPTIONS, args):
        return _usage(_COMMANDS)
    if not rest or rest[0] not in _COMMANDS:
        got = f"unknown command {rest[0]!r}" if rest else "missing command"
        raise RfvaError(f"{got} (choose from {', '.join(_COMMANDS)})")
    command, *rest = rest
    args.func, _, positionals, options = _COMMANDS[command]
    pairs, words = getopt.gnu_getopt(rest, "h", longopts(options))
    if _read_options(pairs, options, args):
        return _usage([command])
    for name in options:
        if getattr(args, name) is ...:
            raise RfvaError(f"{command} needs --{name}")
    if not sum(not p.startswith("[") for p in positionals) <= len(words) <= len(positionals):
        raise RfvaError(f"{command} takes {' '.join(positionals).upper()}, got {words}")
    vars(args).update(zip((p.strip("[]") for p in positionals), words + [None] * len(positionals)))
    return args


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args)
            return EXIT_OK
        if min(args.element_bound, args.index_budget, args.prime_search_bound) <= 0:
            raise ValueError("all bounds must be positive")
        return args.func(args)
    except LimitReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except InternalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RfvaError, ValueError, getopt.GetoptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())
