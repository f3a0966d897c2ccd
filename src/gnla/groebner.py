"""Multivariate polynomials over the rationals and a Buchberger engine.

Monomial order is graded reverse lexicographic throughout.  The reduced
Groebner basis of an ideal is unique for a fixed order, so every verdict
derived from it is reproducible.  S-pairs wait in a heap, smallest lcm
first, and pass the Gebauer-Moeller criteria (J. Symb. Comp. 6, 1988).
Computation aborts with CapExceeded once a pair that survived them has
an lcm beyond the degree cap; callers turn that into an inconclusive
answer instead of a wrong one.

Coefficients are reduced fraction-free, in the style of the package's
elimination core (Bareiss 1968): every polynomial caches its integral
form, the integer terms over the lcm of its denominators, and
S-polynomials, normal forms and primitive parts are computed on those
integers with gcd cofactors.  Fractions appear only in the terms a
Polynomial exposes, so normal_form still returns the exact remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import _integer_row, _reduced, frac

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

    __slots__ = ("variables", "terms", "_lead", "_integral")

    def __init__(self, variables: Sequence[str],
                 terms: Optional[Dict[Exponent, object]] = None):
        variables = tuple(variables)
        clean: Dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(variables) or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            c = frac(c)
            if exp in clean:
                c += clean[exp]
            clean[exp] = c
        clean = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)
        object.__setattr__(self, "_integral", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _trusted(cls, variables: Tuple[str, ...],
                 terms: Dict[Exponent, Fraction]) -> "Polynomial":
        """A polynomial over terms the engine built clean: variables a
        tuple, exponents tuples of its length, values nonzero Fractions.
        Skips the validation of the public constructor."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_lead", None)
        object.__setattr__(p, "_integral", None)
        return p

    @classmethod
    def _from_integers(cls, variables: Tuple[str, ...], scale: int,
                       ints: Dict[Exponent, int],
                       lead: Optional[Exponent] = None) -> "Polynomial":
        """The polynomial with terms ints[e] / scale, for nonzero ints and
        a positive scale, with its integral form cached (and its leading
        term, when its exponent is given)."""
        g = gcd(scale, *ints.values())
        if g != 1:
            scale //= g
            ints = {e: v // g for e, v in ints.items()}
        if scale == 1:
            p = cls._trusted(variables, {e: Fraction(v) for e, v in ints.items()})
        else:
            p = cls._trusted(variables, {e: Fraction(v, scale)
                                         for e, v in ints.items()})
        object.__setattr__(p, "_integral", (scale, ints))
        if lead is not None:
            object.__setattr__(p, "_lead", (lead, p.terms[lead]))
        return p

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
        # grevlex compares total degrees first
        return sum(self.leading()[0]) if self.terms else 0

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading(self) -> Tuple[Exponent, Fraction]:
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            exp = max(self.terms, key=grevlex_key)
            object.__setattr__(self, "_lead", (exp, self.terms[exp]))
        return self._lead

    def _integral_form(self) -> Tuple[int, Dict[Exponent, int]]:
        """(scale, {exp: int}): the terms times scale, the lcm of their
        denominators, computed once."""
        if self._integral is None:
            ints, scale = _integer_row(self.terms)
            object.__setattr__(self, "_integral", (scale, ints))
        return self._integral

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a point n_i/d, summed in integers: a term C/D of
        degree k adds C * prod n_i^e_i * d^(top - k), over D * d^top."""
        point = [frac(p) for p in point]
        d = lcm(*(x.denominator for x in point))
        nums = [x.numerator * (d // x.denominator) for x in point]
        den, ints = self._integral_form()
        top = self.total_degree()
        total = 0
        for exp, v in ints.items():
            k = top
            for n, e in zip(nums, exp):
                if e:
                    v *= n ** e
                    k -= e
            total += v * d ** k if k else v
        return Fraction(total, den * d ** top)

    def _binop(self, other, sign):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable sets differ")
            terms = dict(self.terms)
            for e, c in other.terms.items():
                terms[e] = terms.get(e, 0) + sign * c
            return Polynomial._trusted(
                self.variables, {e: c for e, c in terms.items() if c})
        return self._binop(Polynomial.constant(self.variables, other), sign)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return Polynomial._trusted(
            self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable sets differ")
            terms: Dict[Exponent, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = _exp_add(e1, e2)
                    terms[e] = terms.get(e, 0) + c1 * c2
            return Polynomial._trusted(
                self.variables, {e: c for e, c in terms.items() if c})
        c = frac(other)
        terms = {e: c * v for e, v in self.terms.items()} if c else {}
        return Polynomial._trusted(self.variables, terms)

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
    return all(map(le, a, b))


def _exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full multivariate division remainder of f by the given basis.

    Terms wait in a heap keyed by (-degree, reversed exponent), largest
    in grevlex first; a key whose term has cancelled since is skipped.
    The division runs on the integral forms: with c the term's integer,
    l the divisor's leading integer and d = gcd(c, l) signed like l, the
    work and the remainder are multiplied by l/d and (c/d) x^a times the
    divisor is subtracted.  The running scale turns the integer remainder
    back into the exact one.
    """
    if f.is_zero():
        return f
    leads = []
    for g in basis:
        if g.terms:
            lexp = g.leading()[0]
            ints = g._integral_form()[1]
            leads.append((lexp, ints[lexp], ints))
    scale, work = f._integral_form()
    work = dict(work)
    heap = [(-sum(e), e[::-1], e) for e in work]
    heapify(heap)
    remainder: Dict[Exponent, int] = {}
    while heap:
        exp = heappop(heap)[2]
        coeff = work.pop(exp, None)
        if coeff is None:
            continue
        for lexp, lc, terms in leads:
            if _divides(lexp, exp):
                break
        else:
            remainder[exp] = coeff
            continue
        d = gcd(coeff, lc)
        if lc < 0:
            d = -d
        b = lc // d
        if b != 1:
            work = {e: b * v for e, v in work.items()}
            remainder = {e: b * v for e, v in remainder.items()}
            scale *= b
        a = coeff // d
        factor_exp = _exp_sub(exp, lexp)
        for e, c in terms.items():
            if e == lexp:
                continue
            te = _exp_add(e, factor_exp)
            old = work.get(te)
            if old is None:
                work[te] = -a * c
                heappush(heap, (-sum(te), te[::-1], te))
            else:
                nv = old - a * c
                if nv:
                    work[te] = nv
                else:
                    del work[te]
    return Polynomial._from_integers(f.variables, scale, remainder)


def _primitive(p: Polynomial) -> Polynomial:
    """The integral form divided by its content, with a positive leading
    coefficient.  Keeps Buchberger's intermediate coefficients small
    without leaving exact arithmetic."""
    if p.is_zero():
        return p
    lexp = p.leading()[0]
    ints = p._integral_form()[1]
    g = gcd(*ints.values())
    if ints[lexp] < 0:
        g = -g
    return Polynomial._from_integers(
        p.variables, 1, {e: v // g for e, v in ints.items()}, lexp)


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of f and g times l_f l_g / d, for the leading
    integers l_f, l_g of their integral forms and d = gcd(l_f, l_g): the
    cofactors l_g/d and l_f/d cancel the leading terms."""
    fe, ge = f.leading()[0], g.leading()[0]
    fi, gi = f._integral_form()[1], g._integral_form()[1]
    d = gcd(fi[fe], gi[ge])
    m = _exp_lcm(fe, ge)
    terms: Dict[Exponent, int] = {}
    for ints, lexp, c in ((fi, fe, gi[ge] // d), (gi, ge, -(fi[fe] // d))):
        shift = _exp_sub(m, lexp)
        for e, v in ints.items():
            te = _exp_add(e, shift)
            terms[te] = terms.get(te, 0) + c * v
    return Polynomial._from_integers(
        f.variables, 1, {e: c for e, c in terms.items() if c})


def _update(pairs: list, leads: List[Exponent], t: Exponent) -> None:
    """Add the pairs of a new element with leading exponent t to the
    heap under the Gebauer-Moeller criteria, then append t to leads.
    M: drop a new pair whose lcm is a proper multiple of another new lcm.
    F: keep one new pair per lcm, none if one of them is coprime.
    B: drop a queued pair when t divides its lcm and neither of its
    elements has that same lcm with t."""
    new = len(leads)
    lcms = [_exp_lcm(s, t) for s in leads]
    by_lcm: Dict[Exponent, List[int]] = {}
    for i, m in enumerate(lcms):
        by_lcm.setdefault(m, []).append(i)
    survivors = []
    for m, idx in by_lcm.items():
        if any(sum(m) == sum(leads[i]) + sum(t) for i in idx):
            continue
        if any(o != m and _divides(o, m) for o in by_lcm):
            continue
        survivors.append((grevlex_key(m), idx[0], new, m))
    pairs[:] = [p for p in pairs
                if not (_divides(t, p[3]) and lcms[p[1]] != p[3]
                        and lcms[p[2]] != p[3])] + survivors
    heapify(pairs)
    leads.append(t)


def _row_reduced(generators: Sequence[Polynomial]) -> List[Polynomial]:
    """The reduced row echelon basis of the span of the generators, with
    the monomials as columns, largest in grevlex first: the same ideal,
    with distinct leading terms, and no generator that is a linear
    combination of the others."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    variables = gens[0].variables
    if any(g.variables != variables for g in gens):
        raise ValueError("generators over different variable sets")
    monos = sorted({e for g in gens for e in g.terms},
                   key=grevlex_key, reverse=True)
    column = {e: j for j, e in enumerate(monos)}
    cols, rows = _reduced([{column[e]: v for e, v in
                            g._integral_form()[1].items()} for g in gens])
    # the pivot of a row is its largest monomial, so its leading term
    return [Polynomial._from_integers(variables, 1, {
        monos[j]: v for j, v in rows[c].items()}, monos[c]) for c in cols]


def buchberger(generators: Sequence[Polynomial],
               degree_cap: int = 12) -> List[Polynomial]:
    """The reduced Groebner basis in grevlex order.

    The generators are row reduced as vectors over the monomials; made
    primitive, the rows enter one at a time through the Gebauer-Moeller
    update, and so does every nonzero remainder.  Pairs
    leave a heap smallest lcm first (ties by index); each S-polynomial
    is reduced by the whole basis and a nonzero remainder is reduced to
    a primitive integer form.  Raises CapExceeded when a pair that
    survived the criteria comes out with an lcm degree past degree_cap.
    """
    return _interreduce(_completed(_row_reduced(generators), degree_cap))


def _completed(reduced: List[Polynomial],
               degree_cap: int) -> List[Polynomial]:
    """The pair loop of buchberger from the row-reduced generators on: a
    Groebner basis, not yet interreduced."""
    basis = [_primitive(g) for g in reduced]
    pairs: list = []
    leads: List[Exponent] = []
    for g in basis:
        _update(pairs, leads, g.leading()[0])
    while pairs:
        _, i, j, m = heappop(pairs)
        if sum(m) > degree_cap:
            raise CapExceeded(sum(m))
        rem = normal_form(_spoly(basis[i], basis[j]), basis)
        if rem.is_zero():
            continue
        rem = _primitive(rem)
        basis.append(rem)
        _update(pairs, leads, rem.leading()[0])
    return basis


def _interreduce(basis: List[Polynomial]) -> List[Polynomial]:
    # minimal: drop any element whose leading term another one divides
    leads = [g.leading()[0] for g in basis]
    keep = [g for idx, (g, lt) in enumerate(zip(basis, leads)) if not any(
        _divides(lo, lt) and (lo != lt or jdx < idx)
        for jdx, lo in enumerate(leads) if jdx != idx)]
    # reduced: the leading terms of a minimal basis stay put under
    # reduction by the others, so one pass reduces every tail fully
    out = []
    for idx, g in enumerate(keep):
        red = normal_form(g, keep[:idx] + keep[idx + 1:])
        out.append(red * (1 / red.leading()[1]))
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

    The leading terms of the row-reduced generators lie in the leading
    term ideal already, so when they hold a pure power of every variable
    the answer is True without the S-pair loop.  That shortcut works in
    the generators' own degrees and is taken only when those are within
    the degree cap.  The generators are row reduced once, and the S-pair
    loop, when it runs, starts from that reduction.  Any Groebner basis
    gives the answer through its leading terms, so the loop's basis
    decides before interreduction, and the ideal's cache is left for
    groebner() to fill with the reduced basis.
    """
    gens = [g for g in ideal.generators if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("only_trivial_zero needs homogeneous generators")
    nvars = len(ideal.variables)
    if not gens:
        return nvars == 0
    gb = ideal._groebner
    if gb is None:
        reduced = _row_reduced(gens)
        if (max(g.total_degree() for g in gens) <= ideal.degree_cap
                and _covers_every_variable(reduced, nvars)):
            return True
        gb = _completed(reduced, ideal.degree_cap)
    if any(g.is_constant() for g in gb):
        return True  # unit ideal, empty zero set
    return _covers_every_variable(gb, nvars)


def _covers_every_variable(polys: Sequence[Polynomial], nvars: int) -> bool:
    """Whether the leading terms include a pure power of every variable."""
    covered = set()
    for g in polys:
        exp, _ = g.leading()
        support = [i for i, e in enumerate(exp) if e > 0]
        if len(support) == 1:
            covered.add(support[0])
    return len(covered) == nvars
