"""Sparse superpolynomials over Q.

A ring holds an ordered list of variables, each with a parity (0 even,
1 odd), an optional half-integer weight (stored doubled, so weight 3/2 is
``wt2 = 3``), and a derivative order.  Polynomials are dicts mapping
monomial keys to Fraction coefficients.  Products of odd variables are
normalized to index order with the Koszul sign absorbed into the
coefficient, so equal polynomials always have identical dicts.

A monomial key is one Python int holding packed exponents (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): variable i owns the ``W``-bit field at
bit offset ``W * i``, so x_i^e is ``e << (W * i)`` and the constant
monomial is 0.  The top bit of each field is a guard bit, so an
exponent is at most ``EMAX = 2**(W-1) - 1``; odd variables hold 0 or 1
in the same fields, so the layout never depends on the ring's size and
a jet that a differential ring adds later moves no existing key.  The
product of keys ka and kb is ka + kb: disjoint odd bits add without a
carry, and an odd variable met twice, or an exponent past ``EMAX``,
sets a bit of the ring's ``over`` mask (bit 1 of an odd field, the
guard bit of an even one).  The first means the product is zero; the
second raises ``OverflowError``, so a carry never wraps silently into
the next field.  The Koszul sign is the parity of the number of pairs
(odd factor of ka, odd factor of kb) with the first of higher index,
one ``int.bit_count`` per product (see ``mul_int_terms``).
``PolyRing.masks()`` caches the (odd, over, limit) masks beside
``parities()``; ``limit`` bounds every key of the ring and every bit
from it up is in ``over`` too, so a key that names a variable the masks
do not cover raises instead of being multiplied with the wrong signs.
Tuples of (index, exponent) pairs sorted by index remain only at the
edges: ``pack`` and ``unpack`` convert, and ``text`` sorts terms by
(degree, unpacked tuple), so rendered output does not depend on the key.

Coefficients are Fractions at the API and integer numerators over one
common denominator inside products.  ``numerators`` puts each operand
over its ``common_denominator`` (the lcm of its coefficient
denominators), ``mul_int_terms`` multiplies and accumulates in Python
ints, and ``fraction_terms`` divides each output term by the product of
the operands' denominators, once.  Scaling by a positive integer keeps
the zero test of every partial sum, so a product has the same keys in
the same order as one taken in Fractions.  ``mul_terms`` (and so ``*``),
``substitute`` and ``LieSuperalgebra.bracket_poly`` all multiply this
way.  ``sum_of_products`` is the one accumulator for sums of products
and for linear combinations: it takes sum n * a * b over many (n, a, b),
n an int or a Fraction, over the lcm of the products' denominators, so
each output term becomes a Fraction once.  ``mul_terms`` is its
one-product case, the lambda bracket of ``pva`` sums each power of
lambda with it, and ``combine`` sums a whole {key: [triples]} table
with it, one key at a time; with the unit operand ``UNIT``,
(c, p.terms, UNIT) is c * p, so series, generator images, Poisson
tables and points f + sum p v are all summed this way.  Operand term
dicts must hold no zero coefficient: build them from polynomials or
``PolyRing.const``, never as {0: c} with c possibly zero.

Odd derivatives are left derivatives: d/dt (t*u) = u and
d/dt (s*t) = -s for odd s, t.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Union

Scalar = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)
# the term dict of the polynomial 1: (c, p.terms, UNIT) stands for c * p
UNIT = {0: ONE}


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact rational required, got {type(c).__name__}")


# -- packed monomial keys ----------------------------------------------------

W = 8  # bits per variable field
EMAX = (1 << (W - 1)) - 1  # largest exponent: the field's top bit guards
FIELD = (1 << W) - 1


def var_key(i: int) -> int:
    """The key of the monomial x_i."""
    return 1 << (W * i)


def lowest_variable(key: int) -> int:
    """The index of the lowest variable in a nonzero key."""
    return ((key ^ (key - 1)).bit_length() - 1) // W


def key_parity(key: int, odd: int) -> int:
    """The parity of a monomial: its number of odd factors modulo 2,
    for the odd mask of ``masks()``."""
    return (key & odd).bit_count() & 1


def pack(mono) -> int:
    """The key of a monomial given as (index, exponent) pairs."""
    key = 0
    for i, e in mono:
        if not 0 <= e <= EMAX:
            raise OverflowError(f"exponent {e} outside 0..{EMAX}")
        key += e << (W * i)
    return key


def unpack(key: int) -> tuple:
    """The (index, exponent) pairs of a key, sorted by index."""
    out = []
    while key:
        i = lowest_variable(key)
        e = (key >> (W * i)) & FIELD
        out.append((i, e))
        key -= e << (W * i)
    return tuple(out)


def key_masks(parities) -> tuple[int, int, int]:
    """(odd, over, limit) for variables of the given parities: odd has
    bit 0 of every odd field, every key of these variables is below
    limit, and over has bit 1 of every odd field, the guard bit of every
    even one and every bit from limit up (a negative int), so that a sum
    of two keys meets it when an odd variable is squared, an exponent
    overflows or a key lies outside the fields."""
    odd = over = 0
    for i, p in enumerate(parities):
        if p:
            odd |= 1 << (W * i)
            over |= 2 << (W * i)
        else:
            over |= 1 << (W * i + W - 1)
    limit = 1 << (W * len(parities))
    return odd, over | -limit, limit


def _odd_below(oa: int, odd: int) -> int:
    """The odd fields below an odd number of the odd factors oa: for
    the odd part ob of another key, popcount(ob & _odd_below(oa, odd))
    counts the pairs (odd factor of oa, odd factor of ob) with the first
    of higher index, modulo 2."""
    q = 0
    while oa:
        low = oa & -oa
        q ^= low - 1  # every bit below this factor
        oa ^= low
    return q & odd


# -- the sparse product ------------------------------------------------------

def common_denominator(*term_dicts) -> int:
    """lcm of the coefficient denominators of the term dicts (1 if none)."""
    return lcm(*[c.denominator for t in term_dicts for c in t.values()])


def numerators(terms, d: int) -> dict:
    """A Fraction term dict over d (a multiple of every denominator in
    it) as integer numerators."""
    if d == 1:
        return {m: c.numerator for m, c in terms.items()}
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def fraction_terms(terms, d: int) -> dict:
    """Integer numerators over d back to Fraction coefficients."""
    if d == 1:
        return {m: Fraction(n) for m, n in terms.items()}
    return {m: Fraction(n, d) for m, n in terms.items()}


def mul_int_terms(terms_a, terms_b, masks, out=None):
    """Sparse product of two term dicts over integer numerators, added
    into ``out`` (a new dict if None), which is returned; ``masks`` is
    the ring's ``masks()``.

    Products are accumulated per monomial in the order the pairs meet
    (a-major); a sum that reaches zero drops its key, and a later
    contribution to that monomial appends it again.  A pair's key is
    ka + kb; when it meets the over mask, a key lies outside the ring's
    fields (raises), an odd variable is squared (the pair is skipped) or
    an exponent overflowed (raises).
    Its sign is (-1)^(number of odd factors of ka that pass an odd
    factor of kb on the way to index order), the parity of one
    popcount against ``_odd_below`` of ka.
    """
    if out is None:
        out = {}
    if not terms_a or not terms_b:
        return out
    odd, over, limit = masks
    b = terms_b.items()
    for ka, ca in terms_a.items():
        oa = ka & odd
        qa = _odd_below(oa, odd) if oa else 0
        for kb, cb in b:
            k = ka + kb
            if k & over:
                if k >= limit:
                    raise ValueError(
                        "monomial key names a variable outside the ring")
                if oa & kb:
                    continue  # odd variable squared
                raise OverflowError(
                    f"exponent above {EMAX} in a monomial product")
            if qa and (kb & qa).bit_count() & 1:
                c = -(ca * cb)
            else:
                c = ca * cb
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def sum_of_products(triples, masks):
    """sum n * a * b over (n, a, b) triples, n an int or a Fraction and
    a, b Fraction term dicts, as a Fraction term dict without zero
    coefficients; ``masks`` is the ring's ``masks()``.

    Each product n * a * b has denominator da * db * dn (the operands'
    common denominators and n's); all are summed in ints over the lcm D
    of those, the numerators of a scaled by n's numerator times
    D / (da * db * dn), and each output term becomes a Fraction once.
    Products accumulate into one dict in triple order, each as
    ``mul_int_terms`` orders it.  Operands must hold no zero
    coefficient: an int accumulator only drops the sums it sees reach
    zero, so a zero term of an operand survives into the output.
    """
    prepared = []
    for n, a, b in triples:
        if n and a and b:
            da, db = common_denominator(a), common_denominator(b)
            prepared.append((n.numerator, a, da, b, db,
                             da * db * n.denominator))
    if not prepared:
        return {}
    den = lcm(*[p[5] for p in prepared])
    out = {}
    for n, a, da, b, db, d in prepared:
        # a times n * D / db and b times db, both integral: n * a * b * D
        mul_int_terms(numerators(a, n * (den // d) * da), numerators(b, db),
                      masks, out)
    return fraction_terms(out, den)


def combine(ring: "PolyRing", acc: Mapping) -> dict:
    """{key: [(n, a, b), ...]} to {key: sum n * a * b as a polynomial of
    ring}, each key summed once by ``sum_of_products``; keys whose sum
    is zero are dropped.  ``UNIT`` as b makes (c, p.terms, UNIT) the
    term c * p, so this is also the one way to take linear combinations.
    The ring's masks are read here, after any jets the operands
    needed were added."""
    out = {}
    masks = ring.masks()
    for key, triples in acc.items():
        terms = sum_of_products(triples, masks)
        if terms:
            out[key] = SuperPolynomial(ring, terms)
    return out


def mul_terms(terms_a, terms_b, masks):
    """Sparse product of two Fraction term dicts; drops zero coefficients."""
    return sum_of_products(((1, terms_a, terms_b),), masks)


class Variable:
    """One ring variable: name, parity, optional doubled weight, order."""

    __slots__ = ("name", "parity", "wt2", "order", "base")

    def __init__(self, name: str, parity: int, wt2: Optional[int] = None,
                 order: int = 0, base: Optional[str] = None):
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        self.name = name
        self.parity = parity
        self.wt2 = wt2
        self.order = order
        self.base = base if base is not None else name

    def __repr__(self):
        return f"Variable({self.name!r}, parity={self.parity})"


class PolyRing:
    """Variable table shared by a family of SuperPolynomials.

    The table may grow (differential rings create higher-order variables
    lazily) but existing indices never change, so polynomials built
    earlier stay valid: their keys name the same fields.  ``parities()``
    and ``masks()`` are read again after a growth.
    """

    def __init__(self, variables: Iterable[Variable], differential: bool = False):
        self.variables: list[Variable] = list(variables)
        self.index: dict[str, int] = {}
        for i, v in enumerate(self.variables):
            if v.name in self.index:
                raise ValueError(f"duplicate variable name {v.name!r}")
            self.index[v.name] = i
        self.differential = differential
        self._parities = ()
        self._masks = key_masks(())
        # (base, order) -> index, for differential rings
        self._jet: dict[tuple[str, int], int] = {
            (v.base, v.order): i for i, v in enumerate(self.variables)
        }

    # -- variable bookkeeping -------------------------------------------

    def parity_of(self, i: int) -> int:
        return self.variables[i].parity

    def parities(self) -> tuple[int, ...]:
        if len(self._parities) != len(self.variables):
            self._refresh()
        return self._parities

    def masks(self) -> tuple[int, int, int]:
        """The (odd, over, limit) masks of ``key_masks`` for the ring's
        variables, the argument of the product kernels."""
        if len(self._parities) != len(self.variables):
            self._refresh()
        return self._masks

    def _refresh(self) -> None:
        self._parities = tuple(v.parity for v in self.variables)
        self._masks = key_masks(self._parities)

    def add_variable(self, v: Variable) -> int:
        if v.name in self.index:
            raise ValueError(f"duplicate variable name {v.name!r}")
        self.variables.append(v)
        i = len(self.variables) - 1
        self.index[v.name] = i
        self._jet[(v.base, v.order)] = i
        return i

    def derivative_index(self, i: int) -> int:
        """Index of the order+1 variable above variable i, created lazily."""
        if not self.differential:
            raise ValueError("not a differential ring")
        v = self.variables[i]
        key = (v.base, v.order + 1)
        j = self._jet.get(key)
        if j is not None:
            return j
        wt2 = None if v.wt2 is None else v.wt2 + 2
        name = derivative_name(v.base, v.order + 1)
        return self.add_variable(Variable(name, v.parity, wt2=wt2,
                                          order=v.order + 1, base=v.base))

    # -- element builders ------------------------------------------------

    def zero(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {})

    def one(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {0: ONE})

    def const(self, c: Scalar) -> "SuperPolynomial":
        c = _as_fraction(c)
        return SuperPolynomial(self, {0: c} if c else {})

    def gen(self, name_or_index: Union[str, int]) -> "SuperPolynomial":
        i = (name_or_index if isinstance(name_or_index, int)
             else self.index[name_or_index])
        return SuperPolynomial(self, {var_key(i): ONE})


def derivative_name(base: str, order: int) -> str:
    if order == 0:
        return base
    if order <= 3:
        return base + "'" * order
    return f"{base}^({order})"


class SuperPolynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[int, Fraction]):
        self.ring = ring
        self.terms = dict(terms)

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(0, ZERO)

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.constant_term()

    def monomial_parity(self, mono: int) -> int:
        return key_parity(mono, self.ring.masks()[0])

    def parity(self) -> Optional[int]:
        """Parity if homogeneous, else None (zero counts as either, returns 0)."""
        seen = {self.monomial_parity(m) for m in self.terms}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def parity_split(self) -> tuple["SuperPolynomial", "SuperPolynomial"]:
        ev, od = {}, {}
        for m, c in self.terms.items():
            (ev if self.monomial_parity(m) == 0 else od)[m] = c
        return SuperPolynomial(self.ring, ev), SuperPolynomial(self.ring, od)

    def weight2(self) -> Optional[int]:
        """Doubled weight if homogeneous; None if mixed. Zero -> 0.

        Raises if some involved variable carries no weight.
        """
        seen = set()
        for m in self.terms:
            w = 0
            for i, e in unpack(m):
                v = self.ring.variables[i]
                if v.wt2 is None:
                    raise ValueError(f"variable {v.name} carries no weight")
                w += v.wt2 * e
            seen.add(w)
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def variables_used(self) -> set[int]:
        both = 0
        for m in self.terms:
            both |= m
        return {i for i, _ in unpack(both)}

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "SuperPolynomial"):
        if self.ring is not other.ring:
            raise ValueError("polynomials belong to different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SuperPolynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return self.ring.zero()
            return SuperPolynomial(self.ring, {m: v * c for m, v in self.terms.items()})
        self._check_ring(other)
        out = mul_terms(self.terms, other.terms, self.ring.masks())
        return SuperPolynomial(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        c = _as_fraction(other)
        if not c:
            raise ZeroDivisionError("division by zero scalar")
        return self * (ONE / c)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        acc = self.ring.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial_derivative(self, i: Union[int, str]) -> "SuperPolynomial":
        """Left partial derivative with respect to variable i."""
        if isinstance(i, str):
            i = self.ring.index[i]
        unit = var_key(i)
        odd = self.ring.masks()[0]
        # the odd factors left of x_i, when x_i is odd: the left
        # derivative passes each of them
        left = odd & (unit - 1) if odd & unit else -1
        out: dict[int, Fraction] = {}
        for m, c in self.terms.items():
            e = (m >> (W * i)) & FIELD
            if not e:
                continue
            # m -> m - unit is one to one, so no two terms meet
            if left < 0:
                out[m - unit] = c * e
            else:
                out[m - unit] = -c if (m & left).bit_count() & 1 else c
        return SuperPolynomial(self.ring, out)

    def total_derivative(self) -> "SuperPolynomial":
        """Derivation sending each variable of order n to the one of order n+1."""
        ring = self.ring
        triples = [(1, ring.gen(ring.derivative_index(i)).terms,
                    self.partial_derivative(i).terms)
                   for i in sorted(self.variables_used())]
        return SuperPolynomial(ring, sum_of_products(triples, ring.masks()))

    def substitute(self, images: Mapping[int, "SuperPolynomial"],
                   target: Optional[PolyRing] = None) -> "SuperPolynomial":
        """Substitute polynomials for variables.

        ``images`` maps variable indices to polynomials in ``target``
        (default: this ring).  Unmapped variables must exist in the target
        ring under the same index when the rings differ; when target is
        the same ring they're left alone.  Parity of each image must match
        the variable (odd -> odd-homogeneous, even -> even-homogeneous);
        this keeps Koszul reordering consistent.
        """
        tgt = target if target is not None else self.ring
        par = self.ring.parities()
        cache: dict[int, tuple[dict, int]] = {}

        def image(i: int) -> tuple[dict, int]:
            """The image of variable i over its own common denominator."""
            got = cache.get(i)
            if got is not None:
                return got
            if i in images:
                p = images[i]
                if p.ring is not tgt:
                    raise ValueError("image polynomial in wrong ring")
                ip = p.parity()
                if p.is_zero():
                    pass  # zero is homogeneous of every parity
                elif ip is None:
                    raise ValueError("image must be parity homogeneous")
                elif ip != par[i]:
                    raise ValueError(
                        f"parity mismatch substituting variable "
                        f"{self.ring.variables[i].name}")
            else:
                # unmapped variables pass through; extensions keep indices stable
                p = tgt.gen(i)
            d = common_denominator(p.terms)
            got = cache[i] = (numerators(p.terms, d), d)
            return got

        masks = tgt.masks()
        # a term's product of images is the head of its key (the product
        # for the key without its highest factor) times that factor's
        # image; heads are memoized as integer numerators over their
        # denominator, so terms share the products of common factors
        heads: dict[int, tuple[dict, int]] = {0: ({0: 1}, 1)}

        def split(m: int) -> tuple[tuple[dict, int], tuple[dict, int]]:
            i = (m.bit_length() - 1) // W
            return head(m - var_key(i)), image(i)

        def head(m: int) -> tuple[dict, int]:
            got = heads.get(m)
            if got is None:
                (h, dh), (g, dg) = split(m)
                got = heads[m] = (mul_int_terms(h, g, masks), dh * dg)
            return got

        # term c * m has denominator c.denominator * d(m); all terms are
        # summed over the lcm of those
        parts = [(c, split(m) if m else (heads[0], heads[0]))
                 for m, c in self.terms.items()]
        den = lcm(*[c.denominator * dh * dg
                    for c, ((_, dh), (_, dg)) in parts])
        out: dict[int, int] = {}
        for c, ((h, dh), (g, dg)) in parts:
            n = c.numerator * (den // (c.denominator * dh * dg))
            for mono, v in mul_int_terms(h, g, masks).items():
                s = out.get(mono, 0) + n * v
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return SuperPolynomial(tgt, fraction_terms(out, den))

    def evaluate(self, values: Mapping[int, Scalar]) -> "SuperPolynomial":
        """Substitute scalars for variables: any for an even variable,
        only zero for an odd one."""
        imgs = {i: self.ring.const(v) for i, v in values.items()}
        return self.substitute(imgs)

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        """Canonical deterministic rendering."""
        if not self.terms:
            return "0"
        mono = {m: unpack(m) for m in self.terms}

        def key(m):
            return (sum(e for _, e in mono[m]), mono[m])
        pieces = []
        for m in sorted(self.terms, key=key):
            c = self.terms[m]
            factors = []
            for i, e in mono[m]:
                nm = self.ring.variables[i].name
                factors.append(nm if e == 1 else f"{nm}^{e}")
            body = "*".join(factors)
            a = abs(c)
            if not body:
                pieces.append((c, _frac_str(a)))
            elif a == 1:
                pieces.append((c, body))
            else:
                pieces.append((c, f"{_frac_str(a)}*{body}"))
        out = []
        for n, (c, s) in enumerate(pieces):
            if n == 0:
                out.append(("-" if c < 0 else "") + s)
            else:
                out.append((" - " if c < 0 else " + ") + s)
        return "".join(out)

    def __repr__(self):
        return f"<SuperPolynomial {self.text()}>"


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
