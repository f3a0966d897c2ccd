"""Multivariate polynomials over the rationals and a Buchberger engine.

Monomial order is graded reverse lexicographic throughout.  The reduced
Groebner basis of an ideal is unique for a fixed order, so every verdict
derived from it is reproducible.  Computation aborts with CapExceeded
once an S-pair's lcm exceeds the degree cap; callers turn that into an
inconclusive answer instead of a wrong one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import frac

Exponent = Tuple[int, ...]


def grevlex_key(exp: Exponent):
    # Under max(), this realizes graded reverse lexicographic order:
    # compare total degree first, then the reversed exponents negated.
    return (sum(exp), tuple(-e for e in reversed(exp)))


class CapExceeded(Exception):
    """Raised when Buchberger meets an S-pair beyond the degree cap."""

    def __init__(self, degree: int):
        super().__init__("S-polynomial lcm degree %d exceeds the cap" % degree)
        self.degree = degree


class Polynomial:
    """A polynomial with Fraction coefficients in named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str],
                 terms: Optional[Dict[Exponent, object]] = None):
        variables = tuple(variables)
        clean: Dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(variables) or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            c = frac(c)
            if c != 0:
                clean[exp] = clean.get(exp, Fraction(0)) + c
        clean = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "Polynomial":
        return cls(variables, {tuple([0] * len(variables)): c})

    @classmethod
    def variable(cls, variables: Sequence[str], i: int) -> "Polynomial":
        exp = [0] * len(variables)
        exp[i] = 1
        return cls(variables, {tuple(exp): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading(self) -> Tuple[Exponent, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def evaluate(self, point: Sequence) -> Fraction:
        point = [frac(p) for p in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(point, exp):
                if e:
                    v *= x ** e
            total += v
        return total

    def _binop(self, other, sign):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable sets differ")
            terms = dict(self.terms)
            for e, c in other.terms.items():
                terms[e] = terms.get(e, Fraction(0)) + sign * c
            return Polynomial(self.variables, terms)
        return self._binop(Polynomial.constant(self.variables, other), sign)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable sets differ")
            terms: Dict[Exponent, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    terms[e] = terms.get(e, Fraction(0)) + c1 * c2
            return Polynomial(self.variables, terms)
        c = frac(other)
        return Polynomial(self.variables,
                          {e: c * v for e, v in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, self.key()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                ("%s^%d" % (v, e) if e > 1 else v)
                for v, e in zip(self.variables, exp) if e)
            if mono and abs(c) == 1:
                piece = mono if c > 0 else "-" + mono
            elif mono:
                piece = "%s*%s" % (c, mono)
            else:
                piece = str(c)
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    __repr__ = __str__


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mul_monomial(p: Polynomial, exp: Exponent, coeff: Fraction) -> Polynomial:
    return Polynomial(p.variables, {
        tuple(a + b for a, b in zip(e, exp)): c * coeff
        for e, c in p.terms.items()})


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full multivariate division remainder of f by the given basis."""
    if f.is_zero():
        return f
    leads = [(g.leading()[0], g.leading()[1], g) for g in basis
             if not g.is_zero()]
    work = dict(f.terms)
    remainder: Dict[Exponent, Fraction] = {}
    while work:
        exp = max(work, key=grevlex_key)
        coeff = work.pop(exp)
        if coeff == 0:
            continue
        hit = None
        for lexp, lc, g in leads:
            if _divides(lexp, exp):
                hit = (lexp, lc, g)
                break
        if hit is None:
            remainder[exp] = remainder.get(exp, Fraction(0)) + coeff
            continue
        lexp, lc, g = hit
        factor_exp = _exp_sub(exp, lexp)
        factor_coeff = coeff / lc
        for e, c in g.terms.items():
            if e == lexp:
                continue
            te = tuple(a + b for a, b in zip(e, factor_exp))
            nv = work.get(te, Fraction(0)) - factor_coeff * c
            if nv == 0:
                work.pop(te, None)
            else:
                work[te] = nv
    return Polynomial(f.variables, remainder)


def _primitive(p: Polynomial) -> Polynomial:
    """Clear denominators, divide by the integer content, fix the sign
    of the leading coefficient.  Keeps Buchberger's intermediate
    coefficients small without leaving exact arithmetic."""
    if p.is_zero():
        return p
    denom_lcm = 1
    for c in p.terms.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    nums = [int(c * denom_lcm) for c in p.terms.values()]
    g = 0
    for v in nums:
        g = gcd(g, abs(v))
    scale = Fraction(denom_lcm, g)
    out = p * scale
    if out.leading()[1] < 0:
        out = -out
    return out


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm = _exp_lcm(fe, ge)
    return (_mul_monomial(f, _exp_sub(lcm, fe), 1 / fc)
            - _mul_monomial(g, _exp_sub(lcm, ge), 1 / gc))


def buchberger(generators: Sequence[Polynomial],
               degree_cap: int = 12) -> List[Polynomial]:
    """The reduced Groebner basis in grevlex order.

    Normal selection strategy (smallest lcm first) with the coprime
    leading term criterion; every new remainder is reduced to a
    primitive integer form.  Raises CapExceeded when a surviving pair's
    lcm degree passes degree_cap.
    """
    basis = [_primitive(g) for g in generators if not g.is_zero()]
    if not basis:
        return []
    variables = basis[0].variables
    if any(g.variables != variables for g in basis):
        raise ValueError("generators over different variable sets")

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        def pair_key(ij):
            i, j = ij
            lcm = _exp_lcm(basis[i].leading()[0], basis[j].leading()[0])
            return (grevlex_key(lcm), i, j)
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        fe = basis[i].leading()[0]
        ge = basis[j].leading()[0]
        lcm = _exp_lcm(fe, ge)
        if all(min(a, b) == 0 for a, b in zip(fe, ge)):
            continue  # coprime leading terms reduce to zero
        if sum(lcm) > degree_cap:
            raise CapExceeded(sum(lcm))
        rem = normal_form(_spoly(basis[i], basis[j]), basis)
        if rem.is_zero():
            continue
        rem = _primitive(rem)
        new_index = len(basis)
        basis.append(rem)
        pairs.update((t, new_index) for t in range(new_index))

    return _interreduce(basis)


def _interreduce(basis: List[Polynomial]) -> List[Polynomial]:
    # minimal: drop any element whose leading term another one divides
    basis = [g for g in basis if not g.is_zero()]
    keep: List[Polynomial] = []
    leads = [g.leading()[0] for g in basis]
    for idx, g in enumerate(basis):
        lt = leads[idx]
        dominated = False
        for jdx, other in enumerate(basis):
            if jdx == idx:
                continue
            lo = leads[jdx]
            if _divides(lo, lt) and (lo != lt or jdx < idx):
                dominated = True
                break
        if not dominated:
            keep.append(g)
    # reduced: every element fully reduced against the others
    changed = True
    while changed:
        changed = False
        for idx in range(len(keep)):
            rest = keep[:idx] + keep[idx + 1:]
            red = normal_form(keep[idx], rest)
            if red.is_zero():
                keep.pop(idx)
                changed = True
                break
            red = _primitive(red)
            if red != keep[idx]:
                keep[idx] = red
                changed = True
                break
    out = []
    for g in keep:
        _, lc = g.leading()
        out.append(g * (1 / lc))
    out.sort(key=lambda g: grevlex_key(g.leading()[0]))
    return out


@dataclass
class PolynomialIdeal:
    """An ideal with a lazily computed reduced Groebner basis."""
    generators: Tuple[Polynomial, ...]
    degree_cap: int = 12
    _groebner: Optional[Tuple[Polynomial, ...]] = field(
        default=None, repr=False, compare=False)

    def __init__(self, generators: Iterable[Polynomial],
                 degree_cap: int = 12):
        self.generators = tuple(generators)
        self.degree_cap = degree_cap
        self._groebner = None

    @property
    def variables(self) -> Tuple[str, ...]:
        if self.generators:
            return self.generators[0].variables
        return ()

    def groebner(self) -> Tuple[Polynomial, ...]:
        if self._groebner is None:
            self._groebner = tuple(
                buchberger(self.generators, degree_cap=self.degree_cap))
        return self._groebner

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.groebner()).is_zero()


def only_trivial_zero(ideal: PolynomialIdeal) -> bool:
    """Whether the zero set over the algebraic closure is at most {0}.

    Requires homogeneous generators, so the zero set is a cone and is
    finite exactly when it is contained in {0}.  Decided by the standard
    criterion: the ideal is zero-dimensional iff every variable appears
    as a pure power among the leading terms of the Groebner basis.
    """
    gens = [g for g in ideal.generators if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("only_trivial_zero needs homogeneous generators")
    nvars = len(ideal.variables)
    if not gens:
        return nvars == 0
    gb = ideal.groebner()
    if any(g.is_constant() for g in gb):
        return True  # unit ideal, empty zero set
    covered = set()
    for g in gb:
        exp, _ = g.leading()
        support = [i for i, e in enumerate(exp) if e > 0]
        if len(support) == 1:
            covered.add(support[0])
    return len(covered) == nvars
