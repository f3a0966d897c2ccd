"""Multivariate polynomials over the rationals and a Buchberger engine.

Monomial order is graded reverse lexicographic throughout.  The reduced
Groebner basis of an ideal is unique for a fixed order, so every verdict
derived from it is reproducible.  S-pairs wait in a heap, smallest lcm
first, and pass the Gebauer-Moeller criteria (J. Symb. Comp. 6, 1988).
Computation aborts with CapExceeded once a pair that survived them has
an lcm beyond the degree cap; callers turn that into an inconclusive
answer instead of a wrong one.

Coefficients are reduced fraction-free, in the style of the package's
elimination core (Bareiss 1968): a polynomial stores integer terms over
one positive scale, and arithmetic, S-polynomials, normal forms and
primitive parts are computed on those integers with gcd cofactors.
Fractions are built only when a caller reads terms, leading() or the
printed form; normal_form still returns the exact remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import Frozen, _integer_row, _reduced, frac

__all__ = [
    "CapExceeded", "Polynomial", "PolynomialIdeal", "buchberger",
    "grevlex_key", "normal_form", "only_trivial_zero",
]

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


class Polynomial(Frozen):
    """A polynomial with rational coefficients in named variables.

    It stores integers over one scale: _ints maps each exponent to a
    nonzero int and _scale is a positive int with gcd(scale, *ints) = 1,
    so equal polynomials store equal forms.  The coefficient of x^e is
    ints[e] / scale; terms shows them as Fractions, built on first read.
    """

    __slots__ = ("variables", "_scale", "_ints", "_lead", "_terms")

    def __init__(self, variables: Sequence[str],
                 terms: Optional[Dict[Exponent, object]] = None):
        variables = tuple(variables)
        clean: Dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(variables) or any(
                    int(e) != e or e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            exp = tuple(map(int, exp))
            clean[exp] = clean.get(exp, 0) + frac(c)
        # over reduced Fractions, no prime divides the lcm and every integer
        ints, scale = _integer_row(clean)
        for name, value in zip(Polynomial.__slots__,
                               (variables, scale, ints, None, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_integers(cls, variables: Tuple[str, ...], scale: int,
                       ints: Dict[Exponent, int],
                       lead: Optional[Exponent] = None) -> "Polynomial":
        """The polynomial with terms ints[e] / scale, for nonzero ints and
        a positive scale, stored with their gcd divided out; lead, when
        given, is its leading exponent."""
        g = gcd(scale, *ints.values())
        if g != 1:
            scale //= g
            ints = {e: v // g for e, v in ints.items()}
        return cls._trusted(variables, scale, ints, lead, None)

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

    @property
    def terms(self) -> Dict[Exponent, Fraction]:
        """{exponent: Fraction coefficient}, built on first read."""
        if self._terms is None:
            object.__setattr__(self, "_terms", {
                e: Fraction(v, self._scale) for e, v in self._ints.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self._ints

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._ints)

    def total_degree(self) -> int:
        # grevlex compares total degrees first
        return sum(self._lexp()) if self._ints else 0

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self._ints}) <= 1

    def _lexp(self) -> Exponent:
        """The leading exponent, found once."""
        if self._lead is None:
            if not self._ints:
                raise ValueError("zero polynomial has no leading term")
            object.__setattr__(self, "_lead", max(self._ints, key=grevlex_key))
        return self._lead

    def leading(self) -> Tuple[Exponent, Fraction]:
        exp = self._lexp()
        return exp, Fraction(self._ints[exp], self._scale)

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a point n_i/d, summed in integers: a term C/D of
        degree k adds C * prod n_i^e_i * d^(top - k), over D * d^top."""
        point = [frac(p) for p in point]
        d = lcm(*(x.denominator for x in point))
        nums = [x.numerator * (d // x.denominator) for x in point]
        top = self.total_degree()
        total = 0
        for exp, v in self._ints.items():
            k = top
            for n, e in zip(nums, exp):
                if e:
                    v *= n ** e
                    k -= e
            total += v * d ** k if k else v
        return Fraction(total, self._scale * d ** top)

    def _binop(self, other, sign):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        elif other.variables != self.variables:
            raise ValueError("variable sets differ")
        scale = lcm(self._scale, other._scale)
        a, b = scale // self._scale, sign * (scale // other._scale)
        ints = {e: a * v for e, v in self._ints.items()}
        for e, v in other._ints.items():
            ints[e] = ints.get(e, 0) + b * v
        return Polynomial._from_integers(
            self.variables, scale, {e: v for e, v in ints.items() if v})

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        elif other.variables != self.variables:
            raise ValueError("variable sets differ")
        ints: Dict[Exponent, int] = {}
        for e1, c1 in self._ints.items():
            for e2, c2 in other._ints.items():
                e = _exp_add(e1, e2)
                ints[e] = ints.get(e, 0) + c1 * c2
        return Polynomial._from_integers(
            self.variables, self._scale * other._scale,
            {e: c for e, c in ints.items() if c})

    def __rmul__(self, other):
        return self * other

    def key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.variables == other.variables
                and self._scale == other._scale
                and self._ints == other._ints)

    def __hash__(self):
        return hash((self.variables, self._scale,
                     frozenset(self._ints.items())))

    def __str__(self):
        if not self._ints:
            return "0"
        parts = []
        for exp, c in sorted(self.terms.items(), reverse=True,
                             key=lambda t: grevlex_key(t[0])):
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
    The division runs on the stored integers: with c the term's integer,
    l the divisor's leading integer and d = gcd(c, l) signed like l, the
    work and the remainder are multiplied by l/d and (c/d) x^a times the
    divisor is subtracted.  The running scale turns the integer remainder
    back into the exact one.
    """
    if f.is_zero():
        return f
    leads = []
    for g in basis:
        if g._ints:
            lexp = g._lexp()
            leads.append((lexp, g._ints[lexp], g._ints))
    scale, work = f._scale, dict(f._ints)
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
    """The stored integers divided by their content, with a positive leading
    coefficient.  Keeps Buchberger's intermediate coefficients small
    without leaving exact arithmetic."""
    if p.is_zero():
        return p
    lexp, ints = p._lexp(), p._ints
    g = gcd(*ints.values())
    if ints[lexp] < 0:
        g = -g
    return Polynomial._from_integers(
        p.variables, 1, {e: v // g for e, v in ints.items()}, lexp)


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of f and g times l_f l_g / d, for the leading
    integers l_f, l_g of their stored forms and d = gcd(l_f, l_g): the
    cofactors l_g/d and l_f/d cancel the leading terms."""
    fe, ge, fi, gi = f._lexp(), g._lexp(), f._ints, g._ints
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
    combination of the others.  The pass stops once the generators span
    every monomial they use."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    variables = gens[0].variables
    if any(g.variables != variables for g in gens):
        raise ValueError("generators over different variable sets")
    monos = sorted({e for g in gens for e in g._ints},
                   key=grevlex_key, reverse=True)
    column = {e: j for j, e in enumerate(monos)}
    cols, rows = _reduced([{column[e]: v for e, v in g._ints.items()}
                           for g in gens], len(monos))
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
        _update(pairs, leads, g._lexp())
    while pairs:
        _, i, j, m = heappop(pairs)
        if sum(m) > degree_cap:
            raise CapExceeded(sum(m))
        rem = normal_form(_spoly(basis[i], basis[j]), basis)
        if rem.is_zero():
            continue
        rem = _primitive(rem)
        basis.append(rem)
        _update(pairs, leads, rem._lexp())
    return basis


def _interreduce(basis: List[Polynomial]) -> List[Polynomial]:
    # minimal: drop any element whose leading term another one divides
    leads = [g._lexp() for g in basis]
    keep = [g for idx, (g, lt) in enumerate(zip(basis, leads)) if not any(
        _divides(lo, lt) and (lo != lt or jdx < idx)
        for jdx, lo in enumerate(leads) if jdx != idx)]
    # reduced: the leading terms of a minimal basis stay put under
    # reduction by the others, so one pass reduces every tail fully
    out = []
    for idx, g in enumerate(keep):
        red = normal_form(g, keep[:idx] + keep[idx + 1:])
        out.append(red * (1 / red.leading()[1]))
    out.sort(key=lambda g: grevlex_key(g._lexp()))
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
        exp = g._lexp()
        support = [i for i, e in enumerate(exp) if e > 0]
        if len(support) == 1:
            covered.add(support[0])
    return len(covered) == nvars
