"""Seeded upper-triangular Borel algebras b_n and their known answers.

b_n is spanned by the matrix units E_ij (i <= j) of the upper-triangular
n x n matrices, with [E_ij, E_kl] = d_jk E_il - d_li E_kj.  The seed only
shuffles the basis order and draws the functionals, so every seed gives
the same algebra up to relabelling and the same known answers:

- [b_n, b_n] is the strictly upper-triangular span, of dim n(n-1)/2;
- the centre is spanned by the identity;
- the nilradical is the strictly upper-triangular span plus the centre,
  of dim n(n-1)/2 + 1;
- the nonzero roots are e_i - e_j (i < j), each of multiplicity 1, and the
  zero root has multiplicity n; so b_n is exponential.

The structure constants here are written independently of orbitkit, so
the checks below do not trust the code they check.
"""

from __future__ import annotations

import random
from fractions import Fraction


def unit_name(i: int, j: int) -> str:
    return f"E{i}_{j}"


def basis_pairs(n: int, seed) -> list:
    """The matrix-unit index pairs of b_n in a seeded order."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    random.Random(f"borel-basis:{n}:{seed}").shuffle(pairs)
    return pairs


def bracket_units(a, b):
    """[E_a, E_b] as {index pair: coefficient}, zero terms dropped."""
    (i, j), (k, l) = a, b
    out = {}
    if j == k:
        out[(i, l)] = out.get((i, l), 0) + 1
    if l == i:
        out[(k, j)] = out.get((k, j), 0) - 1
    return {p: c for p, c in out.items() if c}


def borel_text(n: int, seed) -> str:
    """The .alg definition of b_n with a seeded basis order."""
    pairs = basis_pairs(n, seed)
    lines = [f"# upper-triangular Borel algebra b_{n}, basis order seed {seed}",
             f"dim {len(pairs)}",
             "basis " + " ".join(unit_name(*p) for p in pairs)]
    for x in range(len(pairs)):
        for y in range(x + 1, len(pairs)):
            terms = bracket_units(pairs[x], pairs[y])
            if not terms:
                continue
            rhs = " ".join(("- " if c < 0 else "+ ") + unit_name(*p)
                           for p, c in sorted(terms.items())).removeprefix("+ ")
            lines.append(f"bracket {unit_name(*pairs[x])} {unit_name(*pairs[y])} = {rhs}")
    return "\n".join(lines) + "\n"


def seeded_functional(names, rng: random.Random) -> dict:
    """A functional with every coordinate a nonzero rational of denominator 1..5."""
    return {name: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            for name in names}


def functional_arg(values: dict) -> str:
    return ",".join(f"{name}={value}" for name, value in values.items())


# -- independent exact arithmetic for the checks -----------------------------

def form_matrix(pairs, f: dict):
    """B_xy = f([E_x, E_y]) over the seeded basis."""
    return [[sum((c * f[unit_name(*p)] for p, c in bracket_units(a, b).items()),
                 Fraction(0)) for b in pairs] for a in pairs]


def rank(rows) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                factor = rows[k][col] / rows[r][col]
                rows[k] = [x - factor * y for x, y in zip(rows[k], rows[r])]
        r += 1
    return r


def _rows(subspace_json):
    return [[Fraction(x) for x in row] for row in subspace_json["basis"]]


def _pairing(b, u, v):
    return sum((u[x] * b[x][y] * v[y] for x in range(len(u)) if u[x]
                for y in range(len(v)) if v[y]), Fraction(0))


def check_analyze(n: int, pairs, result: dict) -> list:
    """Known answers of b_n in an `analyze --json` result; returns problems."""
    problems = []
    names = [unit_name(*p) for p in pairs]
    diag = [x for x, (i, j) in enumerate(pairs) if i == j]
    strict = n * (n - 1) // 2
    if result["basis"] != names:
        problems.append("basis order differs from the generated file")
    if not result["solvable"] or result["nilpotent"]:
        problems.append("b_n (n > 1) must be solvable and not nilpotent")
    comm = _rows(result["commutator_ideal"])
    if len(comm) != strict or any(row[x] for row in comm for x in diag):
        problems.append("commutator ideal is not the strictly upper-triangular span")
    center = _rows(result["center"])
    if len(center) != 1 or any(
            (center[0][x] != 0) != (x in diag) for x in range(len(pairs))) \
            or len({center[0][x] for x in diag}) != 1:
        problems.append("centre is not the span of the identity")
    nil = _rows(result.get("nilradical", {"basis": []}))
    if len(nil) != strict + 1 or any(len({row[x] for x in diag}) != 1 for row in nil):
        problems.append("nilradical is not strictly-upper-triangular plus centre")
    expected = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            re = tuple(Fraction(1) if p == (i, i) else Fraction(-1) if p == (j, j)
                       else Fraction(0) for p in pairs)
            expected[re] = 1
    expected[tuple(Fraction(0) for _ in pairs)] = n
    got = {}
    for root in result.get("roots", []):
        if any(Fraction(x) for x in root["im"]):
            problems.append("b_n has a root with nonzero imaginary part")
        key = tuple(Fraction(x) for x in root["re"])
        got[key] = got.get(key, 0) + root["multiplicity"]
    if got != expected:
        problems.append("roots are not e_i - e_j with the zero root of multiplicity n")
    if result["exponential"].get("kind") != "exponential":
        problems.append("b_n must be exponential")
    return problems


def check_stabilizer(pairs, f: dict, result: dict) -> list:
    b = form_matrix(pairs, f)
    r = rank(b)
    problems = []
    if result["form_rank"] != r:
        problems.append(f"form rank {result['form_rank']} != {r}")
    stab = _rows(result["stabilizer"])
    if len(stab) != len(pairs) - r:
        problems.append("stabilizer dimension is not dim g - rank")
    units = [[Fraction(int(x == y)) for y in range(len(pairs))] for x in range(len(pairs))]
    if any(_pairing(b, v, e) for v in stab for e in units):
        problems.append("a stabilizer vector does not annihilate f([v, g])")
    return problems


def check_polarization(pairs, f: dict, result: dict) -> list:
    b = form_matrix(pairs, f)
    sub = _rows(result["subspace"])
    problems = []
    if not result["certified"]:
        problems.append("polarization is not certified")
    if len(sub) != (2 * len(pairs) - rank(b)) // 2:
        problems.append("polarization dimension is not (dim g + dim g_f) / 2")
    if any(_pairing(b, u, v) for u in sub for v in sub):
        problems.append("polarization is not isotropic for f")
    return problems


def check_condition_r(n: int, f: dict, result: dict) -> list:
    problems = []
    if result["functional"] != {k: str(v) for k, v in f.items()}:
        problems.append("condition-r echoes a different functional")
    if result["commutator_ideal"]["dim"] != n * (n - 1) // 2:
        problems.append("condition-r uses a wrong commutator ideal")
    return problems


# regularity verdicts of b_n, which depend on n only
REGULARITY_VERDICTS = {2: "star-regular", 3: "condition-R-fails"}


def check_regularity(n: int, result: dict) -> list:
    want = REGULARITY_VERDICTS[n]
    return [] if result["verdict"] == want else [f"b_{n} verdict {result['verdict']} != {want}"]
