"""Exact multivariate polynomials and logarithmic differential forms.

Coefficients are arbitrary-precision rationals (fractions.Fraction); ring
arithmetic, exterior derivative, wedge product and pullback along monomial
coordinate changes are all exact.  Floats appear only when a polynomial is
evaluated at a float point.

A logarithmic m-form is a sum of terms

    a(r, x) * dr_{i1}/r_{i1} ^ ... ^ dr_{ik}/r_{ik} ^ dx_{j1} ^ ... ^ dx_{jm-k}

where the first p ambient coordinates are the divisor coordinates r and the
rest are smooth coordinates x.  Terms are normalized so the log factors come
first with ascending indices, then the smooth factors ascending; all signs
are tracked relative to that normal form.  Indices are 0-based internally.

A polynomial is built once and never changed.  The public constructor
`Polynomial(nvars, terms)` validates its input: exponent tuples of the
right length with no negative entry, exact coefficients, zero terms
dropped and repeated keys merged.  Exact arithmetic (`+`, `-`, `*`, `**`,
`partial`, `partial_eval`, `compose`, `map_vars`, `drop_vars`,
`divide_monomial`) builds each result's term dict clean, in the order the
validating constructor would keep, and wraps it with `Polynomial._of`,
which checks nothing; a caller elsewhere may use `_of` only for a dict
that is clean by construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linprog import _rref


class PolyError(ValueError):
    pass


class PolyParseError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ZERO = Fraction(0)  # Fractions are immutable: one zero serves every default


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise PolyError(f"cannot use {type(value).__name__} as an exact coefficient")


def _accumulate(terms: dict, exp: tuple, c: Fraction) -> None:
    """Add c to the term at exp in place; a sum that cancels is deleted."""
    prev = terms.get(exp)
    if prev is None:
        terms[exp] = c
    elif (s := prev + c):
        terms[exp] = s
    else:
        del terms[exp]


def power_table(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """The (k, m) monomials of k points, one per exponent row.  Sum them
    with np.einsum: unlike a BLAS product, it adds each entry in the same
    order for every k, so a point's value does not depend on its batch.

    A monomial is built only from the variables it uses, and is bit for bit
    the broadcast product `(points[:, None, :] ** exps).prod(axis=2)`,
    nan and inf included: an exponent 0 is dropped, since pow(x, 0) = 1 and
    1.0 * y = y; an exponent 1 is the column itself, since pow(x, 1) = x; a
    term without variables is a column of 1.0.  An exponent e >= 2 keeps
    numpy's elementwise pow loop through an exponent array: a scalar or
    broadcast e may take a squaring shortcut that differs in the last bit;
    each (variable, e) power is computed once per call and shared by the
    rows that use it.  The factors are multiplied left to right, as the
    product was."""
    k = len(points)
    out = np.ones((k, len(exps)), dtype=np.result_type(points, exps))
    powers = {}
    for m, row in enumerate(exps.tolist()):
        col = None
        for v, e in enumerate(row):
            if e:
                if e == 1:
                    x = points[:, v]
                elif (v, e) in powers:
                    x = powers[v, e]
                else:
                    x = powers[v, e] = points[:, v] ** np.full(k, e)
                col = x if col is None else col * x
        if col is not None:
            out[:, m] = col
    return out


class Polynomial:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions."""

    __slots__ = ("nvars", "terms", "_vec")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        self.nvars = int(nvars)
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.nvars:
                    raise PolyError(
                        f"exponent tuple {exp} does not match ambient dimension {self.nvars}"
                    )
                if any(e < 0 for e in exp):
                    raise PolyError("negative exponent in monomial")
                prev = clean.get(exp)
                total = coeff if prev is None else prev + coeff
                if total == 0:
                    clean.pop(exp, None)
                else:
                    clean[exp] = total
        self.terms = clean
        self._vec = None

    @classmethod
    def _of(cls, nvars: int, clean: dict) -> "Polynomial":
        """A polynomial over a term dict that is already clean: keys are
        distinct tuples of nvars non-negative ints, values nonzero
        Fractions.  Nothing is checked or copied; the dict is kept."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = clean
        self._vec = None
        return self

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial._of(nvars, {})

    @staticmethod
    def const(nvars: int, value) -> "Polynomial":
        value = _as_fraction(value)
        return Polynomial._of(nvars, {(0,) * nvars: value} if value else {})

    @staticmethod
    def var(nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise PolyError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return Polynomial._of(nvars, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(exps): _as_fraction(coeff)})

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        for exp, c in other.terms.items():
            _accumulate(merged, exp, c)
        return Polynomial._of(self.nvars, merged)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Polynomial._of(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise PolyError("polynomial powers must be non-negative integers")
        result = Polynomial.const(self.nvars, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise PolyError("ambient dimension mismatch")
            return other
        return Polynomial.const(self.nvars, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, _ZERO)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(exp[index] for exp in self.terms)

    def uses_var(self, index: int) -> bool:
        return any(exp[index] > 0 for exp in self.terms)

    def as_affine(self):
        """Return (coeffs, offset) if degree <= 1, else None."""
        coeffs = [_ZERO] * self.nvars
        offset = _ZERO
        for exp, c in self.terms.items():
            total = sum(exp)
            if total == 0:
                offset = c
            elif total == 1:
                coeffs[exp.index(1)] = c
            else:
                return None
        return coeffs, offset

    def content_monomial(self) -> tuple:
        """Componentwise minimum exponent over all terms (the gcd monomial)."""
        if not self.terms:
            raise PolyError("zero polynomial has no content monomial")
        mins = None
        for exp in self.terms:
            mins = exp if mins is None else tuple(min(a, b) for a, b in zip(mins, exp))
        return mins

    # -- calculus and substitution ---------------------------------------

    def partial(self, index: int) -> "Polynomial":
        if not -self.nvars <= index < self.nvars:
            raise PolyError(f"variable index {index} out of range for {self.nvars} variables")
        index %= self.nvars
        # lowering one exponent is one to one on the terms that carry it
        out: dict[tuple, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[index]
            if e:
                out[exp[:index] + (e - 1,) + exp[index + 1:]] = c * e
        return Polynomial._of(self.nvars, out)

    def float_form(self) -> tuple:
        """(exps, coeffs): the exponent rows and float coefficients in the
        one order every float reader sums the terms in, sorted by exponent
        tuple whatever order exact arithmetic built them in, so equal
        polynomials evaluate alike.  Cached; `terms` keeps its own order."""
        if self._vec is None:
            terms = sorted(self.terms.items())
            exps = np.array([exp for exp, _ in terms], dtype=np.int64)
            self._vec = exps.reshape(len(terms), self.nvars), np.array([float(c) for _, c in terms])
        return self._vec

    def eval(self, point: Sequence):
        """Exact when the point is rational, float otherwise."""
        if len(point) != self.nvars:
            raise PolyError(
                f"point of length {len(point)} for {self.nvars}-variable polynomial"
            )
        if all(isinstance(x, (int, Fraction)) for x in point):
            terms, total = self.terms.items(), Fraction(0)
        else:
            exps, coeffs = self.float_form()
            terms, total = zip(exps.tolist(), coeffs.tolist()), 0.0
        for exp, c in terms:
            for x, e in zip(point, exp):
                if e:
                    c *= x**e
            total += c
        return total

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation; pts has shape (N, nvars)."""
        exps, coeffs = self.float_form()
        return np.einsum("km,m->k", power_table(pts, exps), coeffs)

    def partial_eval(self, values: Mapping[int, object]) -> "Polynomial":
        """Fix the listed variables; the result keeps the same ambient."""
        out: dict[tuple, Fraction] = {}
        for exp, c in self.terms.items():
            coeff = c
            new = list(exp)
            ok = True
            for idx, val in values.items():
                e = exp[idx]
                if e:
                    coeff = coeff * _as_fraction(val) ** e
                new[idx] = 0
                if coeff == 0:
                    ok = False
                    break
            if not ok:
                continue
            _accumulate(out, tuple(new), coeff)
        return Polynomial._of(self.nvars, out)

    def compose(self, comps: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute comps[i] for variable i; comps live in a common ambient."""
        if len(comps) != self.nvars:
            raise PolyError("need one substitute per variable")
        target_n = comps[0].nvars if comps else 0
        result = Polynomial.zero(target_n)
        cache: dict[tuple, Polynomial] = {}
        for exp, c in self.terms.items():
            term = Polynomial.const(target_n, c)
            for i, e in enumerate(exp):
                if e:
                    key = (i, e)
                    if key not in cache:
                        cache[key] = comps[i] ** e
                    term = term * cache[key]
            result = result + term
        return result

    def drop_vars(self, indices: Iterable[int]) -> "Polynomial":
        """Remove unused coordinates, renumbering the rest in order."""
        drop = sorted(set(indices))
        for exp in self.terms:
            for i in drop:
                if exp[i]:
                    raise PolyError(f"variable {i} still occurs; cannot drop")
        keep = [i for i in range(self.nvars) if i not in drop]
        out = {
            tuple(exp[i] for i in keep): c for exp, c in self.terms.items()
        }
        return Polynomial._of(len(keep), out)

    def map_vars(self, mapping: Sequence[int], new_nvars: int) -> "Polynomial":
        """Reindex: old variable i becomes mapping[i] in an ambient of new_nvars."""
        out: dict[tuple, Fraction] = {}
        for exp, c in self.terms.items():
            new = [0] * new_nvars
            for i, e in enumerate(exp):
                if e:
                    new[mapping[i]] += e
            key = tuple(new)
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
        # zero sums go last, so a term that cancels and comes back keeps its place
        return Polynomial._of(new_nvars, {key: c for key, c in out.items() if c})

    def divide_monomial(self, exps: Sequence[int]) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars:
            raise PolyError(
                f"exponent tuple {exps} does not match ambient dimension {self.nvars}"
            )
        out = {}
        for exp, c in self.terms.items():
            new = tuple(a - b for a, b in zip(exp, exps))
            if any(e < 0 for e in new):
                raise PolyError("monomial division is not exact")
            out[new] = c
        return Polynomial._of(self.nvars, out)

    # -- display ----------------------------------------------------------

    def to_text(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        def keyfn(item):
            exp, _ = item
            return (-sum(exp), tuple(-e for e in exp))
        pieces = []
        for exp, c in sorted(self.terms.items(), key=keyfn):
            factors = []
            if abs(c) != 1 or all(e == 0 for e in exp):
                factors.append(str(abs(c)))
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            text = "*".join(factors)
            pieces.append((c < 0, text))
        out = ("-" if pieces[0][0] else "") + pieces[0][1]
        for neg, text in pieces[1:]:
            out += (" - " if neg else " + ") + text
        return out

    def __repr__(self):
        names = [f"v{i}" for i in range(self.nvars)]
        return f"Polynomial({self.to_text(names)})"


# -- expression parser ------------------------------------------------------
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := var | rational | '(' expr ')'
# var    := ('r'|'x'|'zr'|'zi') nat        (any declared name, in general)


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.pos = 0
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)

    def error(self, message: str):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Polynomial:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return value

    def expr(self) -> Polynomial:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        value = self.base()
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "-":
                self.error("negative exponent")
            exponent = self.nat()
            value = value**exponent
        return value

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        return int(self.text[start : self.pos])

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.expect(")")
            return value
        if ch.isdigit():
            num = self.nat()
            if self.peek() == "/":
                self.pos += 1
                den = self.nat()
                if den == 0:
                    self.error("zero denominator")
                return Polynomial.const(self.nvars, Fraction(num, den))
            return Polynomial.const(self.nvars, num)
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.names:
                self.pos = start
                self.error(f"unknown variable '{name}'")
            return Polynomial.var(self.nvars, self.names[name])
        self.error("expected a variable, number or '('")


def parse_poly(text: str, names: Sequence[str]) -> Polynomial:
    """Parse an expression over the declared variable names."""
    return _Parser(text, names).parse()


# -- Newton exponent data ----------------------------------------------------


class NewtonData:
    """Exponent support of a polynomial projected to the divisor block.

    points holds all projections; generators the componentwise-minimal ones,
    which generate the convex hull of the union of shifted positive orthants.
    """

    def __init__(self, points: set, generators: list):
        self.points = points
        self.generators = generators

    def has_constant(self) -> bool:
        if not self.points:
            return False
        width = len(next(iter(self.points)))
        return (0,) * width in self.points


def newton_exponents(f: Polynomial, p: int) -> NewtonData:
    """Divisor-block exponent support; the coefficient polynomials in the
    remaining variables are automatically nonzero because distinct stored
    monomials cannot cancel."""
    if f.is_zero():
        raise PolyError("zero polynomial has no exponent support")
    points = {exp[:p] for exp in f.terms}
    gens = []
    for pt in sorted(points):
        if not any(all(q[i] <= pt[i] for i in range(p)) and q != pt for q in points):
            gens.append(pt)
    return NewtonData(points, gens)


# -- monomial coordinate changes ----------------------------------------------


class MonomialMap:
    """Map sending a source point to a target point, one signed scaled
    monomial per target coordinate: target_i = coeff_i * prod_j s_j^e_ij.

    Covers blow-up chart substitutions; composition always closes because
    monomials substituted into monomials stay monomials.
    """

    def __init__(self, n_source: int, components: Sequence[tuple]):
        self.n_source = int(n_source)
        comps = []
        for coeff, exps in components:
            coeff = _as_fraction(coeff)
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n_source:
                raise PolyError("component exponent length mismatch")
            if any(e < 0 for e in exps):
                raise PolyError("negative exponents are not permitted in a chart map")
            comps.append((coeff, exps))
        self.components = comps
        self.n_target = len(comps)

    @staticmethod
    def identity(n: int) -> "MonomialMap":
        comps = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            comps.append((Fraction(1), tuple(e)))
        return MonomialMap(n, comps)

    def compose(self, inner: "MonomialMap") -> "MonomialMap":
        """self after inner: x -> self(inner(x))."""
        if inner.n_target != self.n_source:
            raise PolyError("composition dimension mismatch")
        comps = []
        for coeff, exps in self.components:
            c = coeff
            acc = [0] * inner.n_source
            for j, e in enumerate(exps):
                if e:
                    cj, fj = inner.components[j]
                    c *= cj**e
                    for k, fe in enumerate(fj):
                        acc[k] += e * fe
            comps.append((c, tuple(acc)))
        return MonomialMap(inner.n_source, comps)

    def component_poly(self, i: int) -> Polynomial:
        coeff, exps = self.components[i]
        return Polynomial.monomial(self.n_source, exps, coeff)

    def apply(self, point: Sequence):
        out = []
        exact = all(isinstance(x, (int, Fraction)) for x in point)
        for coeff, exps in self.components:
            val = coeff if exact else float(coeff)
            for x, e in zip(point, exps):
                if e:
                    val *= x**e
            out.append(val)
        return out

    def numeric_inverse(self, target: Sequence[float]) -> list:
        """Invert on the positive orthant: log|source| = E^-1 log|target /
        coeff| for the exponent matrix E, inverted exactly."""
        if self.n_source != self.n_target:
            raise PolyError("only square maps are invertible")
        n = self.n_source
        # [E | I] reduces to [I | E^-1] exactly when E is invertible
        mat = [[Fraction(e) for e in exps] + [Fraction(int(k == i)) for k in range(n)]
               for i, (_, exps) in enumerate(self.components)]
        if len(_rref(mat, n)) < n:
            raise PolyError("chart exponent matrix is singular")
        logs = [float(np.log(abs(t) / abs(float(c))))
                for t, (c, _) in zip(target, self.components)]
        return [float(np.exp(sum(float(a) * v for a, v in zip(row[n:], logs))))
                for row in mat]

    def __repr__(self):
        return f"MonomialMap({self.components})"


# -- logarithmic forms --------------------------------------------------------


def _merge_sign(keys: list) -> int:
    """Parity sign for sorting a list of distinct 1-form slots."""
    inversions = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] > keys[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


class LogForm:
    """Sum of log-form terms over an ambient with p divisor coordinates."""

    __slots__ = ("n", "p", "degree", "terms")

    def __init__(self, n: int, p: int, degree: int,
                 terms: Mapping[tuple, Polynomial] | None = None):
        self.n = int(n)
        self.p = int(p)
        self.degree = int(degree)
        clean: dict[tuple, Polynomial] = {}
        if terms:
            for (I, J), coeff in terms.items():
                I = tuple(sorted(int(i) for i in I))
                J = tuple(sorted(int(j) for j in J))
                self._check_key(I, J)
                if coeff.nvars != self.n:
                    raise PolyError("coefficient ambient mismatch")
                if coeff.is_zero():
                    continue
                key = (I, J)
                if key in clean:
                    s = clean[key] + coeff
                    if s.is_zero():
                        del clean[key]
                    else:
                        clean[key] = s
                else:
                    clean[key] = coeff
        self.terms = clean

    def _check_key(self, I: tuple, J: tuple):
        if len(I) + len(J) != self.degree:
            raise PolyError("term degree mismatch")
        if any(not 0 <= i < self.p for i in I):
            raise PolyError("log index outside the divisor coordinates")
        if any(not self.p <= j < self.n for j in J):
            raise PolyError("smooth index outside the smooth coordinates")
        if len(set(I)) != len(I) or len(set(J)) != len(J):
            raise PolyError("repeated index in a term")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int, p: int, degree: int) -> "LogForm":
        return LogForm(n, p, degree)

    @staticmethod
    def term(n: int, p: int, coeff: Polynomial, I: Iterable[int], J: Iterable[int]) -> "LogForm":
        I = tuple(sorted(I))
        J = tuple(sorted(J))
        return LogForm(n, p, len(I) + len(J), {(I, J): coeff})

    @staticmethod
    def dlog(n: int, p: int, index: int) -> "LogForm":
        """dr_index / r_index."""
        return LogForm.term(n, p, Polynomial.const(n, 1), (index,), ())

    @staticmethod
    def dx(n: int, p: int, index: int) -> "LogForm":
        return LogForm.term(n, p, Polynomial.const(n, 1), (), (index,))

    # -- linear structure -------------------------------------------------

    def _compatible(self, other: "LogForm"):
        if (self.n, self.p) != (other.n, other.p):
            raise PolyError("mismatched ambient (n, p)")

    def __add__(self, other: "LogForm") -> "LogForm":
        self._compatible(other)
        if self.degree != other.degree:
            raise PolyError("cannot add forms of different degree")
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            s = merged[key] + coeff if key in merged else coeff
            if s.is_zero():
                merged.pop(key, None)
            else:
                merged[key] = s
        return LogForm(self.n, self.p, self.degree, merged)

    def __neg__(self) -> "LogForm":
        return LogForm(
            self.n, self.p, self.degree, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "LogForm") -> "LogForm":
        return self + (-other)

    def scale(self, factor) -> "LogForm":
        if isinstance(factor, Polynomial):
            mult = factor
        else:
            mult = Polynomial.const(self.n, factor)
        return LogForm(
            self.n, self.p, self.degree, {k: mult * c for k, c in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LogForm):
            return NotImplemented
        return (
            (self.n, self.p, self.degree) == (other.n, other.p, other.degree)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.p, self.degree, frozenset(self.terms)))

    # -- exterior algebra ---------------------------------------------------

    @staticmethod
    def _slot_keys(I: tuple, J: tuple) -> list:
        return [(0, i) for i in I] + [(1, j) for j in J]

    def wedge(self, other: "LogForm") -> "LogForm":
        self._compatible(other)
        out: dict[tuple, Polynomial] = {}
        for (I1, J1), c1 in self.terms.items():
            for (I2, J2), c2 in other.terms.items():
                if set(I1) & set(I2) or set(J1) & set(J2):
                    continue
                keys = self._slot_keys(I1, J1) + self._slot_keys(I2, J2)
                sign = _merge_sign(keys)
                I = tuple(sorted(I1 + I2))
                J = tuple(sorted(J1 + J2))
                coeff = c1 * c2
                if sign < 0:
                    coeff = -coeff
                key = (I, J)
                s = out[key] + coeff if key in out else coeff
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return LogForm(self.n, self.p, self.degree + other.degree, out)

    def exterior_d(self) -> "LogForm":
        """d of a smooth form (all terms must have empty log index set).

        d in an r-direction produces r_i * da/dr_i * dr_i/r_i, which keeps
        the result inside the polynomial-coefficient log-form algebra.
        """
        out = LogForm.zero(self.n, self.p, self.degree + 1)
        for (I, J), coeff in self.terms.items():
            if I:
                raise PolyError(
                    "exterior derivative of dr/r terms is outside this algebra"
                )
            for v in range(self.n):
                dv = coeff.partial(v)
                if dv.is_zero():
                    continue
                if v < self.p:
                    new_coeff = Polynomial.var(self.n, v) * dv
                    out = out + LogForm.term(self.n, self.p, new_coeff, (v,), J)
                else:
                    if v in J:
                        continue
                    sign = -1 if sum(1 for j in J if j < v) % 2 else 1
                    new_coeff = dv if sign > 0 else -dv
                    out = out + LogForm.term(
                        self.n, self.p, new_coeff, (), tuple(sorted(J + (v,)))
                    )
        return out

    # -- pullbacks ------------------------------------------------------------

    def pullback_monomial(self, mapping: MonomialMap, p_source: int) -> "LogForm":
        """Pull back along a monomial coordinate change.

        Divisor coordinates of the target must map to monomials in the
        source divisor coordinates so each dr/r pulls back to a sum of
        du/u; smooth target coordinates may map to any signed monomial.
        """
        if mapping.n_target != self.n:
            raise PolyError("map target dimension differs from the form ambient")
        ns = mapping.n_source
        for i in range(min(self.p, mapping.n_target)):
            _, exps = mapping.components[i]
            if any(exps[k] > 0 for k in range(p_source, ns)):
                raise PolyError(
                    f"divisor coordinate {i} maps into smooth source coordinates"
                )

        def factor_pullback(slot) -> LogForm:
            kind, idx = slot
            if kind == 1:
                return _differential(comps[idx], p_source)
            # dr/r of a monomial c u^e is sum_k e_k du_k/u_k
            _, exps = mapping.components[idx]
            out = LogForm.zero(ns, p_source, 1)
            for k in range(p_source):
                if exps[k]:
                    out = out + LogForm.term(
                        ns, p_source, Polynomial.const(ns, exps[k]), (k,), ()
                    )
            return out

        comps = [mapping.component_poly(i) for i in range(self.n)]
        result = LogForm.zero(ns, p_source, self.degree)
        for (I, J), coeff in self.terms.items():
            piece = LogForm.term(ns, p_source, coeff.compose(comps), (), ())
            for slot in self._slot_keys(I, J):
                piece = piece.wedge(factor_pullback(slot))
                if piece.is_zero():
                    break
            if not piece.is_zero():
                result = result + piece
        return result

    def pullback_polymap(self, comps: Sequence[Polynomial], p_source: int = 0) -> "LogForm":
        """Pull back a smooth form along a polynomial map given by components.

        Source divisor coordinates are allowed: du_k is rewritten as
        u_k * du_k/u_k there.
        """
        if len(comps) != self.n:
            raise PolyError("need one component per target coordinate")
        ns = comps[0].nvars
        result = LogForm.zero(ns, p_source, self.degree)
        for (I, J), coeff in self.terms.items():
            if I:
                raise PolyError("log factors cannot be pulled back along a general map")
            piece = LogForm.term(ns, p_source, coeff.compose(list(comps)), (), ())
            for j in J:
                piece = piece.wedge(_differential(comps[j], p_source))
                if piece.is_zero():
                    break
            if not piece.is_zero():
                result = result + piece
        return result

    # -- slice restriction ------------------------------------------------

    def substitute_log_relation(self, index: int, replacement: Sequence[tuple]) -> "LogForm":
        """Replace every dr_index/r_index factor by sum_k c_k dr_k/r_k."""
        out = LogForm.zero(self.n, self.p, self.degree)
        for (I, J), coeff in self.terms.items():
            if index not in I:
                out = out + LogForm.term(self.n, self.p, coeff, I, J)
                continue
            rest = tuple(i for i in I if i != index)
            pos = I.index(index)
            for c, k in replacement:
                if k in rest:
                    continue
                slots = [(0, i) for i in I] + [(1, j) for j in J]
                slots[pos] = (0, k)
                sign = _merge_sign(slots)
                new_coeff = coeff * _as_fraction(c)
                if sign < 0:
                    new_coeff = -new_coeff
                out = out + LogForm.term(
                    self.n, self.p, new_coeff, tuple(sorted(rest + (k,))), J
                )
        return out

    def remove_coordinate(self, index: int) -> "LogForm":
        """Drop an unused coordinate and renumber; p shrinks if it was a divisor."""
        mapping = [i if i < index else i - 1 for i in range(self.n)]
        new_p = self.p - 1 if index < self.p else self.p
        out: dict[tuple, Polynomial] = {}
        for (I, J), coeff in self.terms.items():
            if index in I or index in J:
                raise PolyError("form still references the dropped coordinate")
            if coeff.uses_var(index):
                raise PolyError("coefficient still references the dropped coordinate")
            coeff2 = coeff.drop_vars([index])
            key = (
                tuple(mapping[i] for i in I),
                tuple(mapping[j] for j in J),
            )
            out[key] = coeff2
        return LogForm(self.n - 1, new_p, self.degree, out)

    def to_text(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (I, J), coeff in sorted(self.terms.items()):
            factors = [f"d{names[i]}/{names[i]}" for i in I]
            factors += [f"d{names[j]}" for j in J]
            body = " ^ ".join(factors) if factors else "1"
            pieces.append(f"({coeff.to_text(names)}) {body}")
        return " + ".join(pieces)

    def __repr__(self):
        names = [f"v{i}" for i in range(self.n)]
        return f"LogForm({self.to_text(names)})"


def _differential(h: Polynomial, p: int) -> LogForm:
    """dh of a polynomial as a 1-form with p divisor coordinates: the
    exterior derivative of the 0-form h, r_v dh/dr_v dr_v/r_v in a
    divisor coordinate."""
    return LogForm.term(h.nvars, p, h, (), ()).exterior_d()
