"""Problem-file parsing: field, algebra tower, and named modules.

Format (UTF-8, '#' comments, blank lines ignored):

    field rationals            # or: field prime 101

    [algebra]
    base y 2                   # A-generator: name degree
    ext  e 3                   # B-only generator
    d e = y                    # differential, any expression in earlier syntax

    [module K]
    generator e0 0
    generator e1 3
    entry e1 e0 = x            # coefficient of e0 in the differential of e1

    [options]
    max-degree = 8             # also max-n, samples, seed; other keys are errors

Expressions: terms joined by + or -, each a '*'-separated product of scalar
coefficients (integers or fractions like 1/2) and generator powers g^k.

Algebra generators have degree >= 1.  A name is declared once per algebra
or module, and a `d`, `entry` or option line may not repeat an earlier one.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import DGAlgebra
from .errors import DgresError, ParseError
from .modules import SemifreeModule
from .scalars import Field

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()])|(?P<bad>\S))")


def tokenize_expr(text: str, line_no: int, col_offset: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        col = col_offset + m.start(m.lastgroup) + 1
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r}", line_no, col)
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    return tokens


def parse_expression(text: str, line_no: int = 0, col_offset: int = 0, field: Field | None = None,
                     generators: dict | None = None):
    """Parse to raw term data [(Fraction, {name: exp}), ...].

    With `field`, a term whose coefficient is not an element of it (a
    denominator divisible by p) is an error at the term's first factor.
    With `generators` (name -> degree), a name outside it, and an odd
    generator raised to a power above 1 within a term, are errors at the
    name.
    """
    tokens = tokenize_expr(text, line_no, col_offset)
    if not tokens:
        raise ParseError("empty expression", line_no, col_offset + 1)
    terms = []
    i = 0

    def expect_factorish(idx):
        if idx >= len(tokens):
            raise ParseError("expression ends mid-term", line_no,
                             tokens[-1][2] + len(tokens[-1][1]))
        return tokens[idx]

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        coeff = Fraction(sign)
        exps: dict[str, int] = {}
        expect_factor = True
        term_col = expect_factorish(i)[2]
        while True:
            kind, val, col = expect_factorish(i)
            if kind == "num":
                if "/" in val and int(val.split("/")[1]) == 0:
                    raise ParseError(f"zero denominator in {val!r}", line_no, col)
                coeff *= Fraction(val)
                i += 1
            elif kind == "name":
                if generators is not None and val not in generators:
                    raise ParseError(f"unknown generator {val!r}", line_no, col)
                i += 1
                power = 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    k2, v2, c2 = expect_factorish(i)
                    if k2 != "num" or "/" in v2:
                        raise ParseError("exponent must be a positive integer", line_no, c2)
                    power = int(v2)
                    i += 1
                exps[val] = exps.get(val, 0) + power
                if generators is not None and exps[val] > 1 and generators[val] % 2:
                    raise ParseError(f"odd generator {val} cannot have exponent {exps[val]}", line_no, col)
            else:
                raise ParseError(f"expected a coefficient or generator, found {val!r}", line_no, col)
            expect_factor = False
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                expect_factor = True
                continue
            break
        if expect_factor:
            raise ParseError("dangling '*'", line_no, tokens[i - 1][2])
        if field is not None:
            try:
                field.of_fraction(coeff)
            except DgresError as exc:
                raise ParseError(str(exc), line_no, term_col)
        terms.append((coeff, exps))
        if i < len(tokens):
            kind, val, col = tokens[i]
            if not (kind == "op" and val in "+-"):
                raise ParseError(f"expected '+' or '-', found {val!r}", line_no, col)
    return terms


OPTION_KEYS = ("max-degree", "max-n", "samples", "seed")


class ProblemFile:
    def __init__(self, field: Field, algebra: DGAlgebra, modules: dict | None = None,
                 options: dict | None = None, source_text: str = ""):
        self.field = field
        self.algebra = algebra
        self.modules = {} if modules is None else modules  # name -> SemifreeModule
        self.options = {} if options is None else options
        self.source_text = source_text


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; every error is a `ParseError` at its line and column.

    Names are checked once the whole file is read, so a generator may be
    declared after a line that uses it.
    """
    field = None
    gens: dict[str, int] = {}             # algebra generator -> degree
    base: list[tuple[str, int]] = []
    ext: list[tuple[str, int]] = []
    diffs: dict[str, tuple] = {}          # generator -> (expression source, column of the name)
    modules_raw: dict[str, dict] = {}
    options: dict[str, str] = {}
    section = None
    current_module = None
    saw_algebra = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line_no, indent + len(stripped))
            name = stripped[1:-1].strip()
            if name == "algebra":
                if saw_algebra:
                    raise ParseError("duplicate [algebra] section", line_no, indent + 1)
                section = "algebra"
                saw_algebra = True
            elif name.startswith("module"):
                parts = name.split()
                if len(parts) != 2:
                    raise ParseError("module section needs a name: [module NAME]", line_no, indent + 1)
                section = "module"
                current_module = parts[1]
                if current_module in modules_raw:
                    raise ParseError(f"duplicate module {current_module}", line_no, indent + 1)
                modules_raw[current_module] = {"basis": {}, "entries": {}}
            elif name == "options":
                section = "options"
            else:
                raise ParseError(f"unknown section [{name}]", line_no, indent + 1)
            continue
        words = stripped.split()
        cols = [m.start() + 1 for m in re.finditer(r"\S+", line)]  # column of each word
        if section is None:
            if words[0] == "field":
                if field is not None:
                    raise ParseError("duplicate 'field' declaration", line_no, indent + 1)
                if len(words) == 2 and words[1] == "rationals":
                    field = Field.rationals()
                elif len(words) == 3 and words[1] == "prime":
                    try:
                        modulus = int(words[2])
                    except ValueError:
                        raise ParseError(f"bad prime {words[2]!r}", line_no, cols[2])
                    try:
                        field = Field.prime(modulus)
                    except DgresError as exc:
                        raise ParseError(str(exc), line_no, cols[2])
                else:
                    raise ParseError("expected 'field rationals' or 'field prime P'", line_no, indent + 1)
            else:
                raise ParseError(f"unexpected directive {words[0]!r} before any section", line_no, indent + 1)
            continue
        if section == "algebra":
            if words[0] in ("base", "ext"):
                if len(words) != 3:
                    raise ParseError(f"expected '{words[0]} NAME DEGREE'", line_no, indent + 1)
                gname, deg = words[1], _degree(words[2], line_no, cols[2])
                if gname in gens:
                    raise ParseError(f"duplicate generator {gname!r}", line_no, cols[1])
                if deg < 1:
                    raise ParseError(f"generator {gname} has degree {deg}; all degrees must be >= 1",
                                     line_no, cols[2])
                gens[gname] = deg
                (base if words[0] == "base" else ext).append((gname, deg))
            elif words[0] == "d":
                if "=" not in line:
                    raise ParseError("differential line needs '='", line_no, indent + 1)
                lhs, rhs = line.split("=", 1)
                if len(lhs.split()) != 2:
                    raise ParseError("expected 'd NAME = EXPR'", line_no, indent + 1)
                gname = lhs.split()[1]
                if gname in diffs:
                    raise ParseError(f"repeated differential of {gname!r}", line_no, cols[1])
                expr = (rhs, line_no, line.index("=") + 1)
                parse_expression(*expr, field)
                diffs[gname] = (expr, cols[1])
            else:
                raise ParseError(f"unknown algebra directive {words[0]!r}", line_no, indent + 1)
            continue
        if section == "module":
            mod = modules_raw[current_module]
            if words[0] == "generator":
                if len(words) != 3:
                    raise ParseError("expected 'generator NAME DEGREE'", line_no, indent + 1)
                if words[1] in mod["basis"]:
                    raise ParseError(f"module {current_module}: duplicate generator {words[1]!r}",
                                     line_no, cols[1])
                mod["basis"][words[1]] = _degree(words[2], line_no, cols[2])
            elif words[0] == "entry":
                if "=" not in line:
                    raise ParseError("entry line needs '='", line_no, indent + 1)
                lhs, rhs = line.split("=", 1)
                if len(lhs.split()) != 3:
                    raise ParseError("expected 'entry LAMBDA MU = EXPR'", line_no, indent + 1)
                lam, mu = lhs.split()[1:]
                if (mu, lam) in mod["entries"]:
                    raise ParseError(f"module {current_module}: repeated entry {lam} {mu}", line_no, cols[1])
                expr = (rhs, line_no, line.index("=") + 1)
                parse_expression(*expr, field)
                mod["entries"][(mu, lam)] = (expr, cols[1], cols[2])
            else:
                raise ParseError(f"unknown module directive {words[0]!r}", line_no, indent + 1)
            continue
        if section == "options":
            if "=" not in line:
                raise ParseError("option line needs '='", line_no, indent + 1)
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in OPTION_KEYS:
                raise ParseError(f"unknown option {key!r}; expected one of {', '.join(OPTION_KEYS)}",
                                 line_no, indent + 1)
            if key in options:
                raise ParseError(f"repeated option {key!r}", line_no, indent + 1)
            options[key] = val

    if field is None:
        raise ParseError("missing 'field' declaration", 1, 1)
    if not saw_algebra:
        raise ParseError("missing [algebra] section", 1, 1)

    for gname, (expr, col) in diffs.items():
        if gname not in gens:
            raise ParseError(f"differential given for unknown generator {gname!r}", expr[1], col)
    diff_terms = {gname: parse_expression(*expr, field, gens) for gname, (expr, _) in diffs.items()}
    algebra = DGAlgebra(field, base_gens=base, ext_gens=ext, diff_terms=diff_terms)
    modules = {}
    for name, data in modules_raw.items():
        index = {g: k for k, g in enumerate(data["basis"])}
        entries = {}
        for (mu, lam), (expr, lam_col, mu_col) in data["entries"].items():
            for gname, col in ((lam, lam_col), (mu, mu_col)):
                if gname not in index:
                    raise ParseError(f"module {name}: entry references unknown generator {gname!r}",
                                     expr[1], col)
            entries[(mu, lam)] = algebra.element(parse_expression(*expr, field, gens))
            if index[mu] >= index[lam] and not entries[(mu, lam)].is_zero():
                raise ParseError(f"module {name}: entry {lam} {mu} breaks strict triangularity "
                                 f"({mu} must come before {lam})", expr[1], lam_col)
        modules[name] = SemifreeModule(algebra, list(data["basis"].items()), entries)
    return ProblemFile(field, algebra, modules, options, text)


def _degree(word: str, line_no: int, col: int) -> int:
    try:
        return int(word)
    except ValueError:
        raise ParseError(f"bad degree {word!r}", line_no, col)
