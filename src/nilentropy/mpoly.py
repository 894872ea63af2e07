"""Sparse multivariate polynomials over exact rationals.

:class:`MPoly` is only used while deriving a group's laws.  Each derived
polynomial is flattened by :func:`compile_poly` into an integer
``(denominator, terms)`` form, and every polynomial map of a law is then
turned by :func:`straight_line` into one generated Python function: plain
``int`` arithmetic with an exact-division check per non-unit denominator.
The right products of a word-metric ball are generated together by
:func:`layer_expander`, one function per ball that expands a whole
breadth-first layer.  Generated functions are the only runtime evaluation
path.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class ExactDivisionError(ArithmeticError):
    """A value that must be an integer came out fractional."""


class MPoly:
    """Polynomial with ``Fraction`` coefficients in a fixed number of variables.

    Terms map exponent tuples (one slot per variable) to nonzero coefficients.
    Instances are treated as immutable by all callers.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, value):
        value = Fraction(value)
        if value == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars, index):
        mono = [0] * nvars
        mono[index] = 1
        return cls(nvars, {tuple(mono): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if other == 0:
            return self
        if not isinstance(other, MPoly):
            other = MPoly.const(self.nvars, other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MPoly) else MPoly.const(self.nvars, -Fraction(other)))

    def __mul__(self, other):
        if isinstance(other, MPoly):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    s = out.get(mono, 0) + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
            return MPoly(self.nvars, out)
        if other == 1:
            return self
        if other == 0:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {m: v * other for m, v in self.terms.items()})

    __rmul__ = __mul__

    def partial_eval(self, values):
        """Substitute integers for some variables (``values``: index -> int)."""
        out = {}
        for mono, c in self.terms.items():
            factor = 1
            reduced = list(mono)
            for idx, val in values.items():
                e = mono[idx]
                if e:
                    factor *= val ** e
                    reduced[idx] = 0
            if factor == 0:
                continue
            key = tuple(reduced)
            s = out.get(key, 0) + c * factor
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MPoly(self.nvars, out)

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            vs = "*".join(
                f"v{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            bits.append(f"{c}" + (f"*{vs}" if vs else ""))
        return "MPoly(" + " + ".join(bits) + ")"


def compile_poly(poly):
    """Flatten an :class:`MPoly` into ``(denominator, terms)`` for int evaluation.

    ``terms`` is a tuple of ``(integer coefficient, ((var, exp), ...))``; the
    polynomial equals ``sum(...) / denominator``.
    """
    if not poly.terms:
        return (1, ())
    denom = lcm(*(c.denominator for c in poly.terms.values()))
    out = []
    for mono, c in sorted(poly.terms.items()):
        ic = c.numerator * (denom // c.denominator)
        ve = tuple((i, e) for i, e in enumerate(mono) if e)
        out.append((ic, ve))
    return (denom, tuple(out))


# Terms per generated sum expression; CPython's compiler recurses once per
# ``+``, and a few thousand terms in one expression exceed its limit.
_CHUNK = 500


def _inexact(denom, remainder):
    raise ExactDivisionError(
        f"expected multiple of {denom}, got remainder {remainder}"
    )


def exact_quotient(value, denom):
    """``value // denom``, raising :class:`ExactDivisionError` on a remainder."""
    q, r = divmod(value, denom)
    if r:
        _inexact(denom, r)
    return q


def _term_text(c, ve):
    factors = "*".join(f"v{v}" if e == 1 else f"v{v}_{e}" for v, e in ve)
    if not factors:
        return repr(c)
    if c == 1:
        return factors
    if c == -1:
        return f"-{factors}"
    return f"{c!r}*{factors}"


def _sum_text(texts):
    parts = [texts[0]]
    for t in texts[1:]:
        parts.append(f" - {t[1:]}" if t[0] == "-" else f" + {t}")
    return "".join(parts)


def _power_lines(compiled, indent):
    """One statement per power ``v_i ** e`` (``e > 1``) used by ``compiled``."""
    powers = sorted({(v, e) for _, terms in compiled for _, ve in terms
                     for v, e in ve if e > 1})
    return [f"{indent}v{v}_{e} = v{v} ** {e}" for v, e in powers]


def _output_lines(compiled, indent):
    """Statements and result expressions evaluating each compiled output.

    An output is one integer sum (split into statements of ``_CHUNK`` terms
    when longer), followed by an exact ``divmod`` check when its denominator
    is not 1; a short sum over denominator 1 stays an inline expression.
    """
    lines, outputs = [], []
    for k, (denom, terms) in enumerate(compiled):
        texts = [_term_text(c, ve) for c, ve in terms]
        chunks = [_sum_text(texts[i:i + _CHUNK])
                  for i in range(0, len(texts), _CHUNK)] or ["0"]
        if denom == 1 and len(chunks) == 1:
            outputs.append(chunks[0])
            continue
        lines.append(f"{indent}s{k} = {chunks[0]}")
        lines.extend(f"{indent}s{k} += {chunk}" for chunk in chunks[1:])
        if denom != 1:
            lines.append(f"{indent}s{k}, r = divmod(s{k}, {denom!r})")
            lines.append(f"{indent}if r:")
            lines.append(f"{indent}    _inexact({denom!r}, r)")
        outputs.append(f"s{k}")
    return lines, outputs


def straight_line_source(name, compiled, arg_sizes):
    """Python source of one function evaluating a tuple of compiled polynomials.

    The function takes one sequence per entry of ``arg_sizes`` and unpacks
    them, in order, into the variables ``v0, v1, ...``.  Each power
    ``v_i ** e`` with ``e > 1`` is computed once; each output is one integer
    sum (split into statements of ``_CHUNK`` terms when longer), followed by
    an exact ``divmod`` check when its denominator is not 1.  The text is
    built from sorted terms, ``int`` reprs and variable indices only, so it
    is a deterministic function of its arguments.
    """
    params = [f"a{i}" for i in range(len(arg_sizes))]
    lines = [f"def {name}({', '.join(params)}):"]
    first = 0
    for param, size in zip(params, arg_sizes):
        names = ", ".join(f"v{first + k}" for k in range(size))
        lines.append(f"    {names}, = {param}")
        first += size
    lines.extend(_power_lines(compiled, "    "))
    body, outputs = _output_lines(compiled, "    ")
    lines.extend(body)
    lines.append(f"    return ({', '.join(outputs)},)")
    return "\n".join(lines) + "\n"


def layer_expander_source(directions, size):
    """Python source of ``expand(frontier, dist, new, radius, budget)``.

    ``directions`` holds one tuple of compiled polynomials in ``size``
    variables per direction ``h``: the right product ``g -> g * h``.  The
    function expands one breadth-first layer.  For each ``g`` of
    ``frontier`` it unpacks ``g`` into ``v0, v1, ...`` once and computes
    each power ``v_i ** e`` once, then takes every direction's product in
    order, with the same exact ``divmod`` checks as :func:`straight_line`.
    A product not yet in ``dist`` is recorded there at ``radius`` and
    appended to ``new``.  The function returns ``True`` right after the
    insertion that takes ``len(dist)`` past ``budget``, and ``False`` once
    the layer is done.  The text is a deterministic function of its
    arguments.
    """
    names = ", ".join(f"v{k}" for k in range(size))
    lines = ["def expand(frontier, dist, new, radius, budget):",
             "    append = new.append",
             "    room = budget - len(dist)",
             "    for g in frontier:",
             f"        {names}, = g"]
    lines.extend(_power_lines([cp for compiled in directions for cp in compiled],
                              "        "))
    for compiled in directions:
        body, outputs = _output_lines(compiled, "        ")
        lines.extend(body)
        lines.extend([f"        h = ({', '.join(outputs)},)",
                      "        if h not in dist:",
                      "            dist[h] = radius",
                      "            append(h)",
                      "            room -= 1",
                      "            if room < 0:",
                      "                return True"])
    lines.append("    return False")
    return "\n".join(lines) + "\n"


def _define(name, source):
    namespace = {"_inexact": _inexact}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    # popped, so the function and its globals form no reference cycle and a
    # dropped function is freed at once
    return namespace.pop(name)


def straight_line(name, compiled, arg_sizes):
    """Compile :func:`straight_line_source` into a function; the text is dropped.

    A non-integral output raises :class:`ExactDivisionError`.
    """
    return _define(name, straight_line_source(name, compiled, arg_sizes))


def layer_expander(directions, size):
    """Compile :func:`layer_expander_source` into a function; the text is dropped.

    A non-integral product raises :class:`ExactDivisionError`.
    """
    return _define("expand", layer_expander_source(directions, size))
