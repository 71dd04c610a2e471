"""Command line surface: analyze, stabilizer, condition-r, polarize, orbit,
invariants, closure-test, regularity-report, catalog.

Algebras come from --catalog <name> or --file <path>; functionals use the
syntax --f "e3=1,e0=2/3".  --json switches to the machine-readable report
format.  ORBITKIT_SEED sets the default seed.

Each _cmd_* returns (payload, lines): the result that --json wraps in the
report envelope, and the text-mode lines, yielded lazily so that a --json run
formats none.  main alone writes stdout, once the whole output is formatted.
Each command imports the layers it runs, so a structural command on a --file
algebra never loads the catalog, the orbit maps or the invariant search.

Exit codes: 0 completed (verdicts are in the payload), 1 usage error, 2
computation error.  Every failure is exit 1 or exit 2: bad arguments, bad
numbers, an unreadable or malformed file, or a bad ORBITKIT_SEED end in a
message on stderr, never in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import report
from .algfile import parse_algebra, parse_functional
from .coadjoint import (
    check_polarization,
    condition_R_at,
    regularity_report,
    stabilizer,
    stabilizer_ideal,
    vergne_polarization,
)
from .errors import OrbitkitError, ParseError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low):
    """argparse type: an integer no smaller than low."""
    def convert(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    convert.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return convert


def _add_seed_argument(sub, seed_default):
    # argparse converts a string default with type=int, so a bad ORBITKIT_SEED
    # is a usage error, reported only by the commands that use the seed
    sub.add_argument("--seed", type=int, default=seed_default,
                     help="search seed (default: ORBITKIT_SEED, else 0)")


def _add_source_arguments(sub):
    sub.add_argument("--catalog", help="built-in algebra name (see 'catalog')")
    sub.add_argument("--file", help="algebra definition file")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _load(args):
    """(algebra, catalog entry or None) from --catalog/--file."""
    if bool(args.catalog) == bool(args.file):
        raise SystemExit(_usage_error("exactly one of --catalog or --file is required"))
    if args.catalog:
        from .catalog import get_entry
        try:
            entry = get_entry(args.catalog)
        except KeyError as exc:
            # str() of a KeyError is the repr of its message
            raise SystemExit(_usage_error(exc.args[0]))
        return entry.algebra, entry
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read {args.file}: {exc}"))
    return parse_algebra(text), None


def _usage_error(message: str) -> int:
    print(f"orbitkit: error: {message}", file=sys.stderr)
    return 1


def _parse_functional_arg(text, names):
    try:
        return parse_functional(text, names)
    except ParseError as exc:
        raise SystemExit(_usage_error(str(exc)))


def _require_functional(args, g, entry):
    if getattr(args, "f", None) is not None:
        return _parse_functional_arg(args.f, g.basis_names)
    if entry is not None and entry.reference_functional is not None:
        return entry.reference_functional
    raise SystemExit(_usage_error("--f is required for this algebra"))


def _orbit_steps(g, entry):
    if entry is not None and entry.orbit_steps is not None:
        return entry.orbit_steps
    return [(g.basis_vector(name), f"s{i+1}") for i, name in enumerate(g.basis_names)]


def _subspace_line(label, s, names):
    rows = [" + ".join(f"{x}*{n}" for x, n in zip(row, names) if x != 0) or "0"
            for row in s.basis]
    return f"{label}: dim {s.dim}" + (" span{" + "; ".join(rows) + "}" if rows else "")


def _certificate_lines(cert, names, m_label, stable_label, values_label):
    """Text lines of a condition (R) certificate: m, its stable term, f there."""
    yield _subspace_line(m_label, cert.m, names)
    yield _subspace_line(stable_label, cert.m_infinity, names)
    yield f"{values_label}: " + ", ".join(str(x) for x in cert.values_on_m_infinity)


# -- commands ----------------------------------------------------------------

def _cmd_catalog(args):
    from .catalog import catalog_names, get_entry
    entries = []
    for name in catalog_names():
        if name == "abelian<n>":
            dim, description = None, "abelian algebra of any dimension"
        else:
            entry = get_entry(name)
            dim, description = entry.algebra.dim, entry.description
        entries.append({"name": name, "dim": dim, "description": description})
    return {"entries": entries}, (
        f"{item['name']:12s} dim {'?' if item['dim'] is None else item['dim']:>2}  "
        f"{item['description']}" for item in entries)


def _cmd_analyze(args):
    g, entry = _load(args)
    names = g.basis_names
    exp = g.is_exponential()
    comm, center = g.commutator_ideal(), g.center()
    payload = {
        "dim": g.dim,
        "basis": list(names),
        "solvable": g.is_solvable(),
        "nilpotent": g.is_nilpotent(),
        "commutator_ideal": report.subspace_json(comm, names),
        "center": report.subspace_json(center, names),
        "exponential": report.exponential_json(exp),
    }
    try:
        payload["roots"] = [report.root_json(r) for r in g.adjoint_weights()]
        nilrad = g.nilradical()
        payload["nilradical"] = report.subspace_json(nilrad, names)
    except OrbitkitError as exc:
        payload["roots_error"] = str(exc)
    def lines():
        yield f"dimension: {g.dim}  basis: {' '.join(names)}"
        yield f"solvable: {payload['solvable']}  nilpotent: {payload['nilpotent']}"
        yield _subspace_line("commutator ideal", comm, names)
        yield _subspace_line("center", center, names)
        if "nilradical" in payload:
            yield _subspace_line("nilradical", nilrad, names)
            yield "roots (re; im as covectors):"
            for r in payload["roots"]:
                yield f"  re={tuple(r['re'])} im={tuple(r['im'])} x{r['multiplicity']}"
        yield f"exponential: {exp.kind}" + (f" ({exp.detail})" if exp.detail else "")
    return payload, lines()


def _cmd_stabilizer(args):
    g, entry = _load(args)
    f = _require_functional(args, g, entry)
    names = g.basis_names
    gf = stabilizer(g, f)
    m = stabilizer_ideal(g, f)
    sub, _ = g.subalgebra(m)
    payload = {
        "functional": report.functional_json(f, names),
        "form_rank": g.dim - gf.dim,  # rank-nullity on B_f
        "stabilizer": report.subspace_json(gf, names),
        "stabilizer_ideal": report.subspace_json(m, names),
        "stabilizer_ideal_basis_names": list(sub.basis_names),
    }
    def lines():
        yield f"form rank: {payload['form_rank']} (orbit dimension)"
        yield _subspace_line("stabilizer g_f", gf, names)
        yield _subspace_line("stabilizer ideal m = g_f + n", m, names)
        yield "bracket table of m:"
        for (i, j), cell in sub.brackets:
            text = " + ".join(f"{c}*{sub.basis_names[k]}" for k, c in cell)
            yield f"  [{sub.basis_names[i]},{sub.basis_names[j]}] = {text}"
    return payload, lines()


def _cmd_condition_r(args):
    g, entry = _load(args)
    f = _require_functional(args, g, entry)
    holds, cert = condition_R_at(g, f)
    def lines():
        yield f"condition (R) at f: {'holds' if holds else 'FAILS'}"
        yield from _certificate_lines(cert, g.basis_names, "stabilizer ideal m",
                                      "stable term of the central series",
                                      "values of f on the stable term")
    return report.condition_r_json(cert, g.basis_names), lines()


def _cmd_polarize(args):
    g, entry = _load(args)
    f = _require_functional(args, g, entry)
    catalog_flag = entry is not None and entry.ideal_flag is not None
    p = vergne_polarization(g, entry.ideal_flag if catalog_flag else g.composition_flag(), f)
    rep = check_polarization(g, f, p)
    def lines():
        yield _subspace_line("Vergne polarization", p, g.basis_names)
        yield (f"subalgebra: {rep.is_subalgebra}  isotropic: {rep.is_isotropic}  "
               f"dimension: {rep.dimension_ok}  contains stabilizer: "
               f"{rep.contains_stabilizer}")
        yield f"certified: {rep.certified}"
    return report.polarization_json(rep, g.basis_names), lines()


def _cmd_orbit(args):
    from .symflow import orbit_map
    g, entry = _load(args)
    if entry is not None and entry.symbolic_start is not None and args.f is None:
        start = entry.symbolic_start
    else:
        start = _require_functional(args, g, entry)
    payload = report.orbit_json(orbit_map(g, start, _orbit_steps(g, entry)))
    def lines():
        yield "coadjoint orbit map (coordinates of the second kind):"
        for n, c in payload["components"].items():
            yield f"  {n}: {c}"
    return payload, lines()


def _cmd_invariants(args):
    from .invariants import invariant_space, semi_invariants
    g, entry = _load(args)
    semis = semi_invariants(g, args.degree)
    payload = {
        "degree_bound": args.degree,
        "invariants": [str(q) for q in invariant_space(g, semis)],
        "semi_invariants": [{"polynomial": str(q),
                             "weight": [report.rational_str(x) for x in w]}
                            for q, w in semis],
    }
    def lines():
        yield f"invariant polynomials up to degree {args.degree}:"
        for q in payload["invariants"]:
            yield f"  {q}"
        yield "semi-invariants (with weight covector):"
        for semi in payload["semi_invariants"]:
            yield f"  {semi['polynomial']}   weight {tuple(semi['weight'])}"
    return payload, lines()


def _cmd_closure_test(args):
    from .invariants import closure_membership, orbit_certificates
    from .symflow import orbit_map
    # the report prints the tolerance 10^-k, whose denominator has k + 1 digits
    limit = sys.get_int_max_str_digits()
    if limit and args.tol_exponent >= limit:
        raise SystemExit(_usage_error(f"--tol-exponent must be below {limit}"))
    g, entry = _load(args)
    f = _require_functional(args, g, entry)
    if not args.g:
        raise SystemExit(_usage_error("--g is required for closure-test"))
    # test in the dual of the stabilizer ideal where the worked example does
    m = None if entry is None or entry.stabilizer_names is None else stabilizer_ideal(g, f)
    om = orbit_map(g, f, _orbit_steps(g, entry), restrict_to=m)
    target = _parse_functional_arg(args.g, om.component_names)
    certs = orbit_certificates(g, f, om, args.degree)
    payload = report.closure_json(closure_membership(
        om, target, certs, tol=Fraction(1, 10 ** args.tol_exponent),
        budget=args.budget, seed=args.seed))
    def lines():
        yield f"verdict: {payload['kind']}"
        if "invariant" in payload:
            yield (f"certificate: invariant {payload['invariant']} has value "
                   f"{payload['invariant_value']} at the target")
        if "squared_distance" in payload:
            yield (f"squared distance: {payload['squared_distance']} "
                   f"(~{payload['distance_decimal']}), "
                   f"evaluations: {payload['evaluations']}")
    return payload, lines()


def _cmd_regularity_report(args):
    g, entry = _load(args)
    samples = []
    if args.f is not None:
        samples.append(_parse_functional_arg(args.f, g.basis_names))
    if entry is not None and entry.reference_functional is not None:
        samples.append(entry.reference_functional)
    rep = regularity_report(g, samples, seed=args.seed)
    def lines():
        yield f"verdict: {rep.verdict}"
        yield f"reason: {rep.reason}"
        for note in rep.notes:
            yield f"note: {note}"
        if rep.certificate is not None:
            yield from _certificate_lines(rep.certificate, g.basis_names,
                                          "certificate stabilizer ideal",
                                          "certificate stable term", "values on stable term")
        if rep.samples_checked:
            yield f"functionals sampled: {rep.samples_checked}"
    return report.regularity_json(rep, g.basis_names), lines()


def build_parser() -> _Parser:
    """The command line parser, built once and reused while ORBITKIT_SEED keeps its value."""
    return _build_parser(os.environ.get("ORBITKIT_SEED", "0"))


@functools.lru_cache(maxsize=1)
def _build_parser(seed_default) -> _Parser:
    parser = _Parser(prog="orbitkit",
                     description="exact Lie-algebraic computations for "
                                 "coadjoint orbits and regularity certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in algebras")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    for name, func, needs_f in [
        ("analyze", _cmd_analyze, False),
        ("stabilizer", _cmd_stabilizer, True),
        ("condition-r", _cmd_condition_r, True),
        ("polarize", _cmd_polarize, True),
        ("orbit", _cmd_orbit, True),
    ]:
        p = sub.add_parser(name)
        _add_source_arguments(p)
        if needs_f:
            p.add_argument("--f", help='functional, e.g. "e3=1,e0=2/3"')
        p.set_defaults(func=func)

    p = sub.add_parser("invariants")
    _add_source_arguments(p)
    p.add_argument("--degree", type=_int_at_least(1), default=2)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("closure-test")
    _add_source_arguments(p)
    p.add_argument("--f", help="reference functional (catalog default)")
    p.add_argument("--g", help="target functional on the orbit space coordinates")
    p.add_argument("--degree", type=_int_at_least(1), default=2)
    p.add_argument("--tol-exponent", type=_int_at_least(0), default=6,
                   help="tolerance 10^-k on the distance (default k=6)")
    p.add_argument("--budget", type=_int_at_least(1), default=10 ** 4,
                   help="soft bound on search evaluations; the search can "
                        "spend one more (default 10000)")
    _add_seed_argument(p, seed_default)
    p.set_defaults(func=_cmd_closure_test)

    p = sub.add_parser("regularity-report")
    _add_source_arguments(p)
    p.add_argument("--f", help="extra functional added to the sample")
    _add_seed_argument(p, seed_default)
    p.set_defaults(func=_cmd_regularity_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines = args.func(args)
        out = (report.envelope(args.command, payload) if args.json
               else "".join(f"{line}\n" for line in lines))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OrbitkitError as exc:
        print(f"orbitkit: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
