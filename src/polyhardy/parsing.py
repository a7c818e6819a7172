"""Polynomial expression parsing.

Grammar: terms joined by ``+``/``-``; a term is a ``*``-separated product of
an optional complex literal, variable powers ``z^a``, ``z1^b1`` .. ``zn^bn``,
and an optional coefficient-coordinate tag ``e_j``.  Complex literals are
written ``x``, ``yi``, or ``x+yi`` (parenthesized when signed, e.g.
``(0.5+0.5i)``).  Whitespace is ignored everywhere.
"""
from __future__ import annotations

import cmath
import re

from .errors import GradeError, PolynomialParseError
from .grading import Grade, HardyVector, MultiIndex

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    rf"""
      (?P<complex>\(\s*[+-]?{_NUMBER}?i?\s*(?:[+-]\s*{_NUMBER}?i?\s*)?\))
    | (?P<imag>{_NUMBER}i|i)
    | (?P<real>{_NUMBER})
    | (?P<coord>e_\d+)
    | (?P<var>z\d*(?:\^\d+)?)
    | (?P<op>[+\-*])
    """,
    re.VERBOSE,
)


def _parse_complex_atom(text: str) -> complex:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        return complex(body.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise PolynomialParseError(f"bad complex literal {text!r}") from None


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    stripped = text
    while pos < len(stripped):
        if stripped[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(stripped, pos)
        if m is None:
            raise PolynomialParseError(
                f"syntax error at position {pos}: {stripped[pos:pos + 12]!r}"
            )
        kind = str(m.lastgroup)
        tokens.append((kind, m.group()))
        pos = m.end()
    return tokens


def _split_terms(tokens: list[tuple[str, str]]) -> list[tuple[int, list[tuple[str, str]]]]:
    terms: list[tuple[int, list[tuple[str, str]]]] = []
    sign = 1
    current: list[tuple[str, str]] = []
    expecting_factor = True
    for kind, text in tokens:
        if kind == "op" and text in "+-" and expecting_factor and not current:
            sign = sign * (-1 if text == "-" else 1)
            continue
        if kind == "op" and text in "+-":
            if not current:
                raise PolynomialParseError("empty term")
            terms.append((sign, current))
            current, sign = [], (-1 if text == "-" else 1)
            expecting_factor = True
            continue
        if kind == "op" and text == "*":
            expecting_factor = True
            continue
        current.append((kind, text))
        expecting_factor = False
    if not current:
        raise PolynomialParseError("trailing operator or empty expression")
    terms.append((sign, current))
    return terms


def parse_polynomial(text: str, grade: Grade) -> HardyVector:
    """Parse an expression into an exact coefficient map, validating caps."""
    if not text.strip():
        raise PolynomialParseError("empty expression")
    coeffs: dict[MultiIndex, complex] = {}
    for sign, factors in _split_terms(_tokenize(text)):
        coeff = complex(sign)
        outer = 0
        inner = [0] * grade.n
        coord = 0
        saw_coord = False
        for kind, tok in factors:
            if kind in ("complex", "real"):
                coeff *= _parse_complex_atom(tok)
            elif kind == "imag":
                coeff *= complex(0.0, 1.0 if tok == "i" else float(tok[:-1]))
            elif kind == "coord":
                if saw_coord:
                    raise PolynomialParseError("multiple coordinate tags in one term")
                saw_coord = True
                coord = int(tok[2:])
                if coord >= grade.coeff_dim:
                    raise PolynomialParseError(
                        f"coordinate {tok} out of range for coeff_dim {grade.coeff_dim}"
                    )
            elif kind == "var":
                name, _, power = tok.partition("^")
                exponent = int(power) if power else 1
                if name == "z":
                    outer += exponent
                else:
                    axis = int(name[1:])
                    if not 1 <= axis <= grade.n:
                        raise PolynomialParseError(
                            f"variable {name} out of range for n={grade.n}"
                        )
                    inner[axis - 1] += exponent
            else:
                raise PolynomialParseError(f"unexpected token {tok!r}")
        if outer > grade.outer_cap or any(b > grade.inner_cap for b in inner):
            raise GradeError(
                f"term degree (z^{outer}, inner {tuple(inner)}) exceeds caps "
                f"({grade.outer_cap}, {grade.inner_cap})"
            )
        key = MultiIndex(outer, tuple(inner), coord)
        coeffs[key] = coeffs.get(key, 0j) + coeff
    if not all(map(cmath.isfinite, coeffs.values())):
        raise PolynomialParseError(f"non-finite coefficient in {text!r}")
    return HardyVector(grade, coeffs)


def _format_complex(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"({repr(c.imag)}i)" if c.imag < 0 else f"{repr(c.imag)}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"({repr(c.real)}{sign}{repr(abs(c.imag))}i)"


def polynomial_to_string(f: HardyVector) -> str:
    """Render a vector in the grammar above; exact round trip through parse."""
    if not f.coeffs:
        raise PolynomialParseError("cannot render the zero polynomial")
    parts: list[str] = []
    for key in sorted(f.coeffs, key=lambda k: (k.outer, k.inner, k.coord)):
        c = f.coeffs[key]
        factors = [_format_complex(c)]
        if key.outer:
            factors.append(f"z^{key.outer}" if key.outer > 1 else "z")
        for i, b in enumerate(key.inner, start=1):
            if b:
                factors.append(f"z{i}^{b}" if b > 1 else f"z{i}")
        if key.coord:
            factors.append(f"e_{key.coord}")
        parts.append("*".join(factors))
    return " + ".join(parts)
