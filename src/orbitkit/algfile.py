"""Line-oriented algebra definition files.

Grammar (one declaration per line, '#' starts a comment):

    dim N
    basis name1 ... nameN
    bracket a b = term (('+'|'-') term)*

where term is either a bare basis name or rational*name with rational of
the form p or p/q.  Omitted brackets are zero.  Parsing a file emitted by
emit_algebra returns the same algebra (round trip on normal forms).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError
from .liealg import LieAlgebra

# p or p/q with a nonzero denominator
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _rational(text: str, lineno: int, col: int) -> Fraction:
    """Fraction of a p or p/q literal; ParseError for any other text, and for
    a numerator or denominator with more digits than Python converts
    (sys.get_int_max_str_digits())."""
    if not _RATIONAL_RE.match(text):
        raise ParseError(lineno, col, f"bad rational {text!r}")
    try:
        return Fraction(text)
    except ValueError:
        raise ParseError(lineno, col, "rational literal has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_terms(text: str, lineno: int, col0: int):
    """[(coeff, name)] from 'c1*n1 + n2 - c3*n3 ...'."""
    tokens = text.replace("+", " + ").replace("-", " - ").split()
    terms = []
    sign = Fraction(1)
    expect_term = True
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            if expect_term:
                raise ParseError(lineno, col0, "unexpected '+'")
            expect_term = True
            sign = Fraction(1)
            i += 1
            continue
        if tok == "-":
            if not expect_term:
                expect_term = True
                sign = Fraction(-1)
            else:
                sign = -sign
            i += 1
            continue
        if not expect_term:
            raise ParseError(lineno, col0, f"expected '+' or '-' before {tok!r}")
        if "*" in tok:
            coeff_text, _, name = tok.partition("*")
            coeff = _rational(coeff_text, lineno, col0)
        elif _RATIONAL_RE.match(tok) and i + 1 < len(tokens) and tokens[i + 1] == "*":
            raise ParseError(lineno, col0, "spaces around '*' are not allowed")
        else:
            coeff, name = Fraction(1), tok
        if not _NAME_RE.match(name):
            raise ParseError(lineno, col0, f"bad basis name {name!r}")
        terms.append((sign * coeff, name))
        expect_term = False
        sign = Fraction(1)
        i += 1
    if expect_term:
        raise ParseError(lineno, col0, "dangling sign or empty right-hand side")
    return terms


def parse_algebra(text: str) -> LieAlgebra:
    """Parse an algebra definition; raises positioned ParseError on bad input,
    AntisymmetryViolation/JacobiViolation on inconsistent tables."""
    dim = None
    names = None
    brackets = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "dim":
            if dim is not None:
                raise ParseError(lineno, 1, "duplicate dim declaration")
            if len(fields) != 2 or not re.fullmatch(r"[0-9]+", fields[1]):
                raise ParseError(lineno, 1, "dim needs a single positive integer")
            try:
                dim = int(fields[1])
            except ValueError:
                raise ParseError(lineno, 1, "dim has more than "
                                 f"{sys.get_int_max_str_digits()} digits") from None
            if dim == 0:
                raise ParseError(lineno, 1, "dimension must be positive")
        elif keyword == "basis":
            if names is not None:
                raise ParseError(lineno, 1, "duplicate basis declaration")
            names = tuple(fields[1:])
            if not names:
                raise ParseError(lineno, 1, "basis needs at least one name")
            for n in names:
                if not _NAME_RE.match(n):
                    raise ParseError(lineno, 1, f"bad basis name {n!r}")
            if len(set(names)) != len(names):
                raise ParseError(lineno, 1, "duplicate basis name")
        elif keyword == "bracket":
            if names is None:
                raise ParseError(lineno, 1, "bracket before basis declaration")
            head, eq, rhs = line.partition("=")
            if not eq:
                raise ParseError(lineno, 1, "bracket needs '='")
            parts = head.split()
            if len(parts) != 3:
                raise ParseError(lineno, 1, "bracket needs exactly two basis names")
            _, a, b = parts
            for n in (a, b):
                if n not in names:
                    raise ParseError(lineno, 1, f"unknown basis name {n!r}")
            if (a, b) in brackets:
                raise ParseError(lineno, 1, f"duplicate bracket ({a},{b})")
            terms = _parse_terms(rhs.strip(), lineno, len(head) + 2)
            coeffs = {}
            for coeff, n in terms:
                if n not in names:
                    raise ParseError(lineno, 1, f"unknown basis name {n!r}")
                coeffs[n] = coeffs.get(n, Fraction(0)) + coeff
            brackets[(a, b)] = coeffs
        else:
            raise ParseError(lineno, 1, f"unknown keyword {keyword!r}")
    if names is None:
        raise ParseError(1, 1, "missing basis declaration")
    if dim is not None and dim != len(names):
        raise ParseError(1, 1, f"dim {dim} does not match {len(names)} basis names")
    return LieAlgebra.construct(names, brackets)


def _format_coeff_name(coeff: Fraction, name: str) -> str:
    if coeff == 1:
        return name
    if coeff == -1:
        return f"-1*{name}"
    return f"{coeff}*{name}"


def emit_algebra(g: LieAlgebra) -> str:
    """Canonical text form: parse(emit(g)) == g."""
    lines = [f"dim {g.dim}", "basis " + " ".join(g.basis_names)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            cell = g.sparse_table[i][j]
            if not cell:
                continue
            chunks = []
            for k, c in cell:
                piece = _format_coeff_name(c, g.basis_names[k])
                if not chunks:
                    chunks.append(piece)
                elif piece.startswith("-"):
                    chunks.append("- " + piece[1:])
                else:
                    chunks.append("+ " + piece)
            lines.append(
                f"bracket {g.basis_names[i]} {g.basis_names[j]} = " + " ".join(chunks))
    return "\n".join(lines) + "\n"


def parse_functional(text: str, names) -> tuple:
    """'e3=1,e0=2/3' to a covector over the given basis names."""
    values = {}
    text = text.strip()
    if text:
        for chunk in text.split(","):
            name, eq, value = chunk.partition("=")
            name = name.strip()
            value = value.strip()
            if not eq or not name or not value:
                raise ParseError(1, 1, f"bad functional component {chunk!r}")
            if name not in names:
                raise ParseError(1, 1, f"unknown basis name {name!r}")
            value = _rational(value, 1, 1)
            if name in values:
                raise ParseError(1, 1, f"duplicate component {name!r}")
            values[name] = value
    return tuple(values.get(n, Fraction(0)) for n in names)
