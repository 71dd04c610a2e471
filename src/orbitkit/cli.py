"""Command line surface: analyze, stabilizer, condition-r, polarize, orbit,
invariants, closure-test, regularity-report, catalog.

Algebras come from --catalog <name> or --file <path>; functionals use the
syntax --f "e3=1,e0=2/3".  --json switches to the machine-readable report
format.  ORBITKIT_SEED sets the default seed.

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
from .catalog import catalog_names, get_entry
from .coadjoint import (
    check_polarization,
    condition_R_at,
    regularity_report,
    stabilizer,
    stabilizer_ideal,
    vergne_polarization,
)
from .errors import OrbitkitError, ParseError
from .invariants import (
    closure_membership,
    invariant_space,
    orbit_certificates,
    semi_invariants,
)
from .symflow import orbit_map


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
        try:
            entry = get_entry(args.catalog)
        except KeyError as exc:
            # str() of a KeyError is the repr of its message
            raise SystemExit(_usage_error(exc.args[0]))
        return entry.algebra, entry
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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


def _print_subspace(label, s, names):
    rows = [" + ".join(f"{x}*{n}" for x, n in zip(row, names) if x != 0) or "0"
            for row in s.basis]
    print(f"{label}: dim {s.dim}" + (" span{" + "; ".join(rows) + "}" if rows else ""))


# -- commands ----------------------------------------------------------------

def _cmd_catalog(args):
    payload = []
    for name in catalog_names():
        if name == "abelian<n>":
            payload.append({"name": name, "dim": None,
                            "description": "abelian algebra of any dimension"})
            continue
        entry = get_entry(name)
        payload.append({"name": name, "dim": entry.algebra.dim,
                        "description": entry.description})
    if args.json:
        sys.stdout.write(report.envelope("catalog", {"entries": payload}))
    else:
        for item in payload:
            dim = "?" if item["dim"] is None else item["dim"]
            print(f"{item['name']:12s} dim {dim:>2}  {item['description']}")
    return 0


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
        roots = g.adjoint_weights()
        payload["roots"] = [report.root_json(r) for r in roots]
        nilrad = g.nilradical()
        payload["nilradical"] = report.subspace_json(nilrad, names)
    except OrbitkitError as exc:
        payload["roots_error"] = str(exc)
    if args.json:
        sys.stdout.write(report.envelope("analyze", payload))
        return 0
    print(f"dimension: {g.dim}  basis: {' '.join(names)}")
    print(f"solvable: {payload['solvable']}  nilpotent: {payload['nilpotent']}")
    _print_subspace("commutator ideal", comm, names)
    _print_subspace("center", center, names)
    if "nilradical" in payload:
        _print_subspace("nilradical", nilrad, names)
        print("roots (re; im as covectors):")
        for r in roots:
            print(f"  re={tuple(map(str, r.re))} im={tuple(map(str, r.im))} "
                  f"x{r.multiplicity}")
    print(f"exponential: {exp.kind}" + (f" ({exp.detail})" if exp.detail else ""))
    return 0


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
    if args.json:
        sys.stdout.write(report.envelope("stabilizer", payload))
        return 0
    print(f"form rank: {payload['form_rank']} (orbit dimension)")
    _print_subspace("stabilizer g_f", gf, names)
    _print_subspace("stabilizer ideal m = g_f + n", m, names)
    print("bracket table of m:")
    for i in range(sub.dim):
        for j in range(i + 1, sub.dim):
            cell = sub.sparse_table[i][j]
            if cell:
                text = " + ".join(f"{c}*{sub.basis_names[k]}" for k, c in cell)
                print(f"  [{sub.basis_names[i]},{sub.basis_names[j]}] = {text}")
    return 0


def _cmd_condition_r(args):
    g, entry = _load(args)
    f = _require_functional(args, g, entry)
    holds, cert = condition_R_at(g, f)
    if args.json:
        sys.stdout.write(report.envelope(
            "condition-r", report.condition_r_json(cert, g.basis_names)))
        return 0
    print(f"condition (R) at f: {'holds' if holds else 'FAILS'}")
    _print_subspace("stabilizer ideal m", cert.m, g.basis_names)
    _print_subspace("stable term of the central series", cert.m_infinity,
                    g.basis_names)
    print("values of f on the stable term: "
          + ", ".join(str(x) for x in cert.values_on_m_infinity))
    return 0


def _cmd_polarize(args):
    g, entry = _load(args)
    f = _require_functional(args, g, entry)
    if entry is not None and entry.ideal_flag is not None:
        flag = entry.ideal_flag
    else:
        flag = g.composition_flag()
    p = vergne_polarization(g, flag, f)
    rep = check_polarization(g, f, p)
    if args.json:
        sys.stdout.write(report.envelope(
            "polarize", report.polarization_json(rep, g.basis_names)))
        return 0
    _print_subspace("Vergne polarization", p, g.basis_names)
    print(f"subalgebra: {rep.is_subalgebra}  isotropic: {rep.is_isotropic}  "
          f"dimension: {rep.dimension_ok}  contains stabilizer: "
          f"{rep.contains_stabilizer}")
    print(f"certified: {rep.certified}")
    return 0


def _cmd_orbit(args):
    g, entry = _load(args)
    steps = _orbit_steps(g, entry)
    if entry is not None and entry.symbolic_start is not None and args.f is None:
        start = entry.symbolic_start
    else:
        start = _require_functional(args, g, entry)
    om = orbit_map(g, start, steps)
    if args.json:
        sys.stdout.write(report.envelope("orbit", report.orbit_json(om)))
        return 0
    print("coadjoint orbit map (coordinates of the second kind):")
    for n, c in zip(om.component_names, om.components):
        print(f"  {n}: {c}")
    return 0


def _cmd_invariants(args):
    g, entry = _load(args)
    semis = semi_invariants(g, args.degree)
    inv = invariant_space(g, semis)
    payload = {
        "degree_bound": args.degree,
        "invariants": [str(q) for q in inv],
        "semi_invariants": [{"polynomial": str(q),
                             "weight": [report.rational_str(x) for x in w]}
                            for q, w in semis],
    }
    if args.json:
        sys.stdout.write(report.envelope("invariants", payload))
        return 0
    print(f"invariant polynomials up to degree {args.degree}:")
    for q in inv:
        print(f"  {q}")
    print("semi-invariants (with weight covector):")
    for q, w in semis:
        print(f"  {q}   weight {tuple(map(str, w))}")
    return 0


def _cmd_closure_test(args):
    # the report prints the tolerance 10^-k, whose denominator has k + 1 digits
    limit = sys.get_int_max_str_digits()
    if limit and args.tol_exponent >= limit:
        raise SystemExit(_usage_error(f"--tol-exponent must be below {limit}"))
    g, entry = _load(args)
    f = _require_functional(args, g, entry)
    if not args.g:
        raise SystemExit(_usage_error("--g is required for closure-test"))
    steps = _orbit_steps(g, entry)
    if entry is not None and entry.stabilizer_names is not None:
        # test in the dual of the stabilizer ideal, as the worked example does
        m = stabilizer_ideal(g, f)
        om = orbit_map(g, f, steps, restrict_to=m)
    else:
        om = orbit_map(g, f, steps)
    target = _parse_functional_arg(args.g, om.component_names)
    certs = orbit_certificates(g, f, om, args.degree)
    verdict = closure_membership(om, target, certs,
                                 tol=Fraction(1, 10 ** args.tol_exponent),
                                 budget=args.budget, seed=args.seed)
    if args.json:
        sys.stdout.write(report.envelope("closure-test", report.closure_json(verdict)))
        return 0
    print(f"verdict: {verdict.kind}")
    if verdict.invariant is not None:
        print(f"certificate: invariant {verdict.invariant} has value "
              f"{verdict.invariant_value} at the target")
    if verdict.squared_distance is not None:
        print(f"squared distance: {verdict.squared_distance} "
              f"(~{report.decimal_str_sqrt(verdict.squared_distance)}), "
              f"evaluations: {verdict.evaluations}")
    return 0


def _cmd_regularity_report(args):
    g, entry = _load(args)
    samples = []
    if args.f is not None:
        samples.append(_parse_functional_arg(args.f, g.basis_names))
    if entry is not None and entry.reference_functional is not None:
        samples.append(entry.reference_functional)
    rep = regularity_report(g, samples, seed=args.seed)
    if args.json:
        sys.stdout.write(report.envelope(
            "regularity-report", report.regularity_json(rep, g.basis_names)))
        return 0
    print(f"verdict: {rep.verdict}")
    print(f"reason: {rep.reason}")
    for note in rep.notes:
        print(f"note: {note}")
    if rep.certificate is not None:
        _print_subspace("certificate stabilizer ideal", rep.certificate.m,
                        g.basis_names)
        _print_subspace("certificate stable term", rep.certificate.m_infinity,
                        g.basis_names)
        print("values on stable term: "
              + ", ".join(str(x) for x in rep.certificate.values_on_m_infinity))
    if rep.samples_checked:
        print(f"functionals sampled: {rep.samples_checked}")
    return 0


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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OrbitkitError as exc:
        print(f"orbitkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
