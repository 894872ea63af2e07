"""Sparse multivariate polynomials with rational coefficients.

:class:`MPoly` is the derivation-time number type of a group's laws.  A
polynomial is held as integer numerators over one positive denominator, and
each monomial is one ``int`` with one byte per variable exponent
(little-endian), so a monomial product is one integer addition.  Each
derived polynomial is flattened by :func:`compile_poly` into an integer
``(denominator, terms)`` form, and every polynomial map of a law is then
turned by :func:`straight_line` into one generated Python function of
plain ``int`` arithmetic.  An output over a denominator ``D != 1`` is
rewritten over products of binomial coefficients ``C(v, k)``, a basis of
the integer-valued polynomials: when every coefficient is a multiple of
``D`` the output is integer-valued, and it is generated with no division
that can fail.  That holds for every multiply and inverse output of a law,
Hall's polynomials being integer-valued.  Any other output keeps an
exact-division check by ``D``; a remainder raises
:class:`IntegralityError` right there, and every entry point lets it
through unchanged.  The inverse of a unitriangular map, such
as the exponential of a law's scaled logarithm, is generated from the
map's own polynomials by :func:`back_substitution`, one exact division per
output.  The right products of a word-metric ball
are generated together by :func:`layer_expander`, one function per ball
that expands a whole breadth-first layer.

Generated functions are the only evaluator of a polynomial map.  They run
on ``int`` arguments at runtime, and on ``MPoly`` arguments while a law
derives its next maps from the ones already generated.  For that,
``MPoly`` supports every operation the generated text applies: ``+``,
``-``, ``*``, ``p ** e``, and ``p // d`` and ``divmod(p, d)`` by a nonzero
``int`` ``d``, which divide exactly in ``Q[x]`` and leave remainder 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Bits per variable in a packed monomial, and the largest exponent they hold.
_BITS = 8
_MAX_EXP = (1 << _BITS) - 1


class IntegralityError(ArithmeticError):
    """A value that must be an integer came out fractional (corrupt input data)."""


def _normal(nvars, terms, den, top):
    """``MPoly`` of ``terms / den`` with zero numerators dropped and the common
    factor of ``den`` and the numerators divided out."""
    if 0 in terms.values():
        terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return MPoly(nvars)
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    return MPoly(nvars, terms, den, top)


class MPoly:
    """Polynomial with rational coefficients in a fixed number of variables.

    The polynomial is ``sum(c * x^m for m, c in terms.items()) / den``:
    ``terms`` maps packed monomials to nonzero integer numerators, ``den`` is
    positive and ``gcd(den, *numerators) == 1``, so equal polynomials have
    equal fields.  Variable ``i``'s exponent in a packed monomial ``m`` is
    byte ``i`` of ``m``, ``(m >> 8 * i) & 255``; ``m.to_bytes(nvars,
    "little")`` is the exponent tuple.  ``top`` bounds the total degree, so
    every exponent.  Law derivations keep degrees at most ``2 * nil_class``
    (a coordinate's degree is at most its weight, or twice it with the extra
    scaling variable of a power polynomial), far inside a byte; a product
    whose bound passes 255 raises ``ValueError`` instead of carrying into
    the next variable.  Instances are treated as immutable by all callers.
    """

    __slots__ = ("nvars", "terms", "den", "top")

    def __init__(self, nvars, terms=None, den=1, top=0):
        self.nvars = nvars
        self.terms = {} if terms is None else terms
        self.den = den
        self.top = top

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, value):
        value = Fraction(value)
        if value == 0:
            return cls(nvars)
        return cls(nvars, {0: value.numerator}, value.denominator)

    @classmethod
    def var(cls, nvars, index):
        if not 0 <= index < nvars:
            raise IndexError(f"variable {index} out of range for {nvars} variables")
        return cls(nvars, {1 << _BITS * index: 1}, 1, 1)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return (self.nvars == other.nvars and self.den == other.den
                    and self.terms == other.terms)
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.terms.items())))

    def _same_ring(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            if other == 0:
                return self
            other = MPoly.const(self.nvars, other)
        self._same_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, den // other.den
        out = {m: c * s1 for m, c in self.terms.items()} if s1 != 1 else dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            out[m] = get(m, 0) + c * s2
        return _normal(self.nvars, out, den, max(self.top, other.top))

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {m: -c for m, c in self.terms.items()}, self.den, self.top)

    def __sub__(self, other):
        return self + (-other if isinstance(other, MPoly) else -Fraction(other))

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, int):
                return self._scaled(other, 1)
            other = Fraction(other)
            return self._scaled(other.numerator, other.denominator)
        self._same_ring(other)
        top = self.top + other.top
        if top > _MAX_EXP:
            raise ValueError(f"product degree bound {top} exceeds {_MAX_EXP}, "
                             "the largest exponent a packed monomial holds")
        out = {}
        get = out.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return _normal(self.nvars, out, self.den * other.den, top)

    __rmul__ = __mul__

    def _scaled(self, num, den):
        if not num:
            return MPoly(self.nvars)
        if num == den == 1:
            return self
        return _normal(self.nvars, {m: c * num for m, c in self.terms.items()},
                       self.den * den, self.top)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = MPoly.const(self.nvars, 1)
        for _ in range(e):
            out = out * self
        return out

    def __floordiv__(self, d):
        """``self / d`` for a nonzero ``int`` ``d``: division by a constant
        is exact in ``Q[x]``, so a generated ``// d`` or ``divmod(., d)``
        run on polynomials yields the polynomial quotient."""
        if not isinstance(d, int):
            return NotImplemented
        return self * Fraction(1, d)

    def __divmod__(self, d):
        return self // d, 0

    def _sorted_terms(self):
        """``(exponent bytes, numerator)`` pairs, sorted by exponent tuple."""
        n = self.nvars
        return sorted((m.to_bytes(n, "little"), c) for m, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for mono, c in self._sorted_terms():
            vs = "*".join(
                f"v{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            bits.append(f"{Fraction(c, self.den)}" + (f"*{vs}" if vs else ""))
        return "MPoly(" + " + ".join(bits) + ")"


def compile_poly(poly):
    """Flatten an :class:`MPoly` into ``(denominator, terms)`` for int evaluation.

    ``terms`` is a tuple of ``(integer coefficient, ((var, exp), ...))``,
    sorted by exponent tuple; the polynomial equals ``sum(...) /
    denominator``.  The denominator is the least one: the numerators share
    no factor with it.
    """
    if not poly.terms:
        return (1, ())
    return (poly.den, tuple(
        (c, tuple((i, e) for i, e in enumerate(mono) if e))
        for mono, c in poly._sorted_terms()
    ))


# Terms per generated sum expression; CPython's compiler recurses once per
# ``+``, and a few thousand terms in one expression exceed its limit.
_CHUNK = 500


def _inexact(denom, remainder):
    raise IntegralityError(f"expected multiple of {denom}, got remainder {remainder}")


def exact_quotient(value, denom):
    """``value // denom``, raising :class:`IntegralityError` on a remainder."""
    q, r = divmod(value, denom)
    if r:
        _inexact(denom, r)
    return q


def _term_text(c, ve, prefix="v"):
    """``c`` times the factors ``ve``: ``v{v}`` at exponent 1, else
    ``{prefix}{v}_{e}`` (a power under ``"v"``, a binomial under ``"b"``)."""
    factors = "*".join(f"v{v}" if e == 1 else f"{prefix}{v}_{e}" for v, e in ve)
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


def _output_form(denom, terms):
    """``(denominator, terms, prefix)`` of one compiled output, as generated.

    An output over a denominator ``D != 1`` is rewritten in the basis of
    binomial products ``C(v_1, k_1) ... C(v_r, k_r)``: ``v ** e`` is the sum
    of ``k! S(e, k) C(v, k)`` over ``k = 1 .. e``, ``S`` being the Stirling
    numbers of the second kind, so every coefficient stays an ``int``.
    Those products are a basis of the integer-valued polynomials, so the
    output takes an integer value at every integer point exactly when each
    coefficient is a multiple of ``D``.  Then the quotients are returned
    under ``"b"``, over denominator 1: no division is left to fail.
    Otherwise, and for ``D == 1``, the output is returned as it came,
    under ``"v"``.
    """
    if denom == 1:
        return denom, terms, "v"
    row, rows = [1], [[]]  # rows[e]: the pairs (k, k! S(e, k)) with k >= 1
    for e in range(1, max((e for _, ve in terms for _, e in ve), default=0) + 1):
        row = [0] + [k * (row[k - 1] + (row[k] if k < e else 0)) for k in range(1, e + 1)]
        rows.append([(k, t) for k, t in enumerate(row) if t])
    out = {}
    get = out.get
    for c, ve in terms:
        expanded = [((), c)]
        for v, e in ve:
            expanded = [(key + ((v, k),), a * t) for key, a in expanded for k, t in rows[e]]
        for key, a in expanded:
            out[key] = get(key, 0) + a
    if any(a % denom for a in out.values()):
        return denom, terms, "v"
    return 1, tuple((a // denom, key) for key, a in sorted(out.items()) if a), "b"


def _prelude_lines(forms, indent):
    """One statement per power ``v_i ** e`` and per binomial ``C(v_i, k)``
    (``e, k > 1``) that ``forms`` use, each computed once.  The binomials of
    one variable form a chain, ``C(v, k) = C(v, k - 1) * (v - k + 1) // k``,
    whose division is exact for every integer ``v``, negative ones too:
    the product is ``k C(v, k)``."""
    powers = sorted({(v, e) for _, terms, prefix in forms if prefix == "v"
                     for _, ve in terms for v, e in ve if e > 1})
    lines = [f"{indent}v{v}_{e} = v{v} ** {e}" for v, e in powers]
    tops = {}
    for _, terms, prefix in forms:
        if prefix == "b":
            for _, ve in terms:
                for v, k in ve:
                    tops[v] = max(tops.get(v, 1), k)
    for v in sorted(tops):
        for k in range(2, tops[v] + 1):
            prev = f"v{v}" if k == 2 else f"b{v}_{k - 1}"
            lines.append(f"{indent}b{v}_{k} = {prev} * (v{v} - {k - 1}) // {k}")
    return lines


def _output_lines(forms, indent):
    """Statements and result expressions evaluating each output form.

    An output is one integer sum (split into statements of ``_CHUNK`` terms
    when longer), followed by an exact ``divmod`` check when its denominator
    is not 1; a short sum over denominator 1 stays an inline expression.
    """
    lines, outputs = [], []
    for k, (denom, terms, prefix) in enumerate(forms):
        texts = [_term_text(c, ve, prefix) for c, ve in terms]
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
    them, in order, into the variables ``v0, v1, ...``.  Each output is one
    integer sum (split into statements of ``_CHUNK`` terms when longer).
    An output with denominator 1 is a sum of monomials, each power
    ``v_i ** e`` with ``e > 1`` computed once.  An output with a denominator
    ``D != 1`` that takes integer values at every integer point is a sum of
    binomial products with integer coefficients (:func:`_output_form`), each
    ``C(v_i, k)`` computed once, so it cannot fail: that was proven when the
    text was generated.  Only an output that is not integer-valued keeps
    its monomial sum and an exact ``divmod`` check by ``D``, which raises
    :class:`IntegralityError` on a remainder.  The text is built from
    sorted terms, ``int`` reprs and variable indices only, so it is a
    deterministic function of its arguments.
    """
    params = [f"a{i}" for i in range(len(arg_sizes))]
    lines = [f"def {name}({', '.join(params)}):"]
    first = 0
    for param, size in zip(params, arg_sizes):
        names = ", ".join(f"v{first + k}" for k in range(size))
        lines.append(f"    {names}, = {param}")
        first += size
    forms = [_output_form(*cp) for cp in compiled]
    lines.extend(_prelude_lines(forms, "    "))
    body, outputs = _output_lines(forms, "    ")
    lines.extend(body)
    lines.append(f"    return ({', '.join(outputs)},)")
    return "\n".join(lines) + "\n"


def _triangular_rows(scale, compiled):
    """The terms of each ``Q_k`` in ``z_k = scale * v_k + Q_k(v_0 .. v_{k-1})``.

    ``compiled`` holds one integer polynomial per output ``z_k``; a
    denominator other than 1, a coefficient of ``v_k`` other than ``scale``
    or any other term in ``v_j`` with ``j >= k`` raises ``ValueError``
    naming the output.
    """
    rows = []
    for k, (denom, terms) in enumerate(compiled):
        if denom != 1:
            raise ValueError(f"output {k} has denominator {denom}, not 1")
        lead = ((k, 1),)
        coeff = next((c for c, ve in terms if ve == lead), 0)
        if coeff != scale:
            raise ValueError(f"output {k} has v{k} coefficient {coeff}, not {scale}")
        rest = tuple((c, ve) for c, ve in terms if ve != lead)
        late = max((v for _, ve in rest for v, _ in ve), default=-1)
        if late >= k:
            raise ValueError(f"output {k} has a term in v{late}, which is not "
                             f"solved before v{k}")
        rows.append(rest)
    return rows


def back_substitution_source(name, scale, compiled):
    """Python source of the inverse of a unitriangular polynomial map.

    ``compiled`` holds integer polynomials ``z_k = scale * v_k + Q_k(v_0 ..
    v_{k-1})`` (checked by :func:`_triangular_rows`).  The function takes
    one sequence ``z`` and solves for ``v`` in order:
    ``v_k, r = divmod(z_k - Q_k, scale)``, raising :class:`IntegralityError`
    through ``_inexact`` on a remainder, so the first ``v_k`` that is not
    an integer fails its own division.  Each power ``v_j ** e`` (``e > 1``)
    is computed once, right after ``v_j``; a sum of more than ``_CHUNK``
    terms is split into statements.  The text is a deterministic function
    of its arguments.
    """
    rows = _triangular_rows(scale, compiled)
    powers = sorted({(v, e) for terms in rows for _, ve in terms
                     for v, e in ve if e > 1})
    lines = [f"def {name}(a0):",
             f"    {', '.join(f'z{k}' for k in range(len(rows)))}, = a0"]
    for k, terms in enumerate(rows):
        texts = [f"z{k}"] + [_term_text(-c, ve) for c, ve in terms]
        chunks = [_sum_text(texts[i:i + _CHUNK])
                  for i in range(0, len(texts), _CHUNK)]
        value = chunks[0]
        if len(chunks) > 1:
            lines.append(f"    s = {value}")
            lines.extend(f"    s += {chunk}" for chunk in chunks[1:])
            value = "s"
        if scale == 1:
            lines.append(f"    v{k} = {value}")
        else:
            lines.append(f"    v{k}, r = divmod({value}, {scale!r})")
            lines.append("    if r:")
            lines.append(f"        _inexact({scale!r}, r)")
        lines.extend(f"    v{v}_{e} = v{v} ** {e}" for v, e in powers if v == k)
    lines.append(f"    return ({', '.join(f'v{k}' for k in range(len(rows)))},)")
    return "\n".join(lines) + "\n"


def layer_expander_source(directions, size):
    """Python source of ``expand(frontier, dist, new, radius, budget)``.

    ``directions`` holds one tuple of compiled polynomials in ``size``
    variables per direction ``h``: the right product ``g -> g * h``.  The
    function expands one breadth-first layer.  For each ``g`` of
    ``frontier`` it unpacks ``g`` into ``v0, v1, ...`` once and computes
    each power ``v_i ** e`` and each binomial ``C(v_i, k)`` once, then
    takes every direction's product in order, each output generated as in
    :func:`straight_line_source`: division-free where it is integer-valued,
    with an exact ``divmod`` check where it is not.
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
    forms = [[_output_form(*cp) for cp in compiled] for compiled in directions]
    lines.extend(_prelude_lines([f for fs in forms for f in fs], "        "))
    for fs in forms:
        body, outputs = _output_lines(fs, "        ")
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

    A non-integral output raises :class:`IntegralityError`.
    """
    return _define(name, straight_line_source(name, compiled, arg_sizes))


def back_substitution(name, scale, compiled):
    """Compile :func:`back_substitution_source` into a function; the text is
    dropped.  A non-integral output raises :class:`IntegralityError`."""
    return _define(name, back_substitution_source(name, scale, compiled))


def layer_expander(directions, size):
    """Compile :func:`layer_expander_source` into a function; the text is dropped.

    A non-integral product raises :class:`IntegralityError`.
    """
    return _define("expand", layer_expander_source(directions, size))
