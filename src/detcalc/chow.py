"""Exact truncated graded-ring models of the ambient Chow rings.

A ring is presented by degree-one generators with one reduction rule per
generator: a hyperplane class truncates (``h^(d+1) = 0``) while the extra
generator of a projective bundle reduces through its defining relation,
or truncates too when that relation is zero.  Products are normalized
eagerly, so every class is a coefficient map on normal-form monomials and
equality is coefficient equality.  Coefficients are exact integers
throughout; floating point never appears.

A bundle caches the normal form of each monomial whose fiber exponent left
the normal form.  Only the pure fiber powers ``xi^(r+m)`` read the
relation; any other entry is a smaller entry shifted by one base monomial,
so it costs as many terms as the entry it comes from.

A monomial is stored as one packed ``int`` with a fixed-width exponent
field per generator, the first generator in the lowest bits.  A field has
one bit more than its cap needs, so the exponents of two normal-form
monomials add without carry and a product of monomials is ``a + b``.
Adding the space's bias lifts exactly the fields above their cap into
their top bit, so one mask test finds the monomials that leave the normal
form.  The bias is used only in that flag test: every term map, a class's
or an accumulator's, is keyed by plain codes.  A projective bundle lays
out its base's fields first, unchanged, so pulling a class back copies
its codes.  A block of repeated P^1 factors (:func:`block_space`) is one
divided field, whose exponent k stands for ``e_k``: there
``e_k e_l = C(k+l, k) e_(k+l)``, a weight the kernel, the reduction's shift
and the pairings read off a table of factorials.

Term maps belong to this module: other modules build classes through the
ring operations, :func:`sum_of_products` and :func:`divide_by_roots`.  A
class never changes its term map.  Each accumulator is made by the
function that fills it and adopted by one new class (:func:`_finish`), and
one that starts from a class is a copy, ``dict(x.terms)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def _scalar(value) -> int | None:
    """``value`` as an exact integer, or None when it is not a number."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"coefficients must be integers, got {value}")
        return value.numerator
    return None


def _make(ambient: "AmbientSpace", terms: dict[int, int]) -> "ChowClass":
    """A class from packed codes and nonzero coefficients, taken as given."""
    x = object.__new__(ChowClass)
    x.ambient = ambient
    x.terms = terms
    return x


def _accumulate_terms(
    space: "AmbientSpace",
    out: dict[int, int],
    left: dict[int, int],
    right: dict[int, int],
    scale: int = 1,
):
    """Add ``scale * left * right``, term maps of ``space``, into ``out``.

    The bias enters only the flag test: ``a + b`` is the product's code,
    and ``a + b + bias`` has a flag bit set exactly when a field left the
    normal form.  A term map may hold zero coefficients; they add nothing,
    and those that cancel in ``out`` are dropped by :func:`_finish`.
    """
    bias, over, trunc = space._bias, space._over, space._trunc
    reduced = space._reduced
    get = out.get
    if space._divided:  # weight each product of divided powers by binomials
        fact, mask = space._fact, space._divided
        right = [(b, cb, fact[b & mask]) for b, cb in right.items()]
        for a, ca in left.items():
            ca, biased, fa = ca * scale, a + bias, fact[a & mask]
            for b, cb, fb in right:
                flags = (biased + b) & over
                if not flags & trunc:
                    raw = a + b
                    coeff = ca * cb * (fact[raw & mask] // (fa * fb))
                    if not flags:
                        out[raw] = get(raw, 0) + coeff
                    else:
                        for e, k in reduced.get(raw) or space._reduce(raw):
                            out[e] = get(e, 0) + coeff * k
        return
    right = list(right.items())
    for a, ca in left.items():
        ca *= scale
        biased = a + bias
        for b, cb in right:
            flags = (biased + b) & over
            if not flags:
                raw = a + b
                out[raw] = get(raw, 0) + ca * cb
            elif not flags & trunc:
                raw, coeff = a + b, ca * cb
                for e, k in reduced.get(raw) or space._reduce(raw):
                    out[e] = get(e, 0) + coeff * k


def _finish(space: "AmbientSpace", out: dict[int, int]) -> "ChowClass":
    """The class of an accumulator, which it adopts as its term map: the
    caller hands ``out`` over and never touches it again.  The map is
    rebuilt only to drop zero coefficients, when it holds any."""
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return _make(space, out)


def sum_of_products(space: "AmbientSpace", products) -> "ChowClass":
    """``sum scale * x * y`` over the ``(scale, x, y)`` triples of
    ``products``, classes on ``space``, built in one term map."""
    out: dict[int, int] = {}
    for scale, x, y in products:
        if x.ambient is not space or y.ambient is not space:
            raise ValueError("classes live on different ambient spaces")
        _accumulate_terms(space, out, x.terms, y.terms, scale)
    return _finish(space, out)


def divide_by_roots(parts: list["ChowClass"], roots) -> list["ChowClass"]:
    """A new list of the parts of a class divided by ``prod (1 + root)``,
    one degree-one root at a time through ``Z_k = Y_k - root * Z_(k-1)``,
    all roots of one degree in one term map: no inverse, only degree-one
    factors.  Each root's running quotient ``Z_(k-1)`` is a snapshot of the
    accumulator, and only the returned parts become classes.  Every root
    must live on the space of the parts; a zero one is then skipped."""
    if not parts:
        return []
    space = parts[0].ambient
    if any(root.ambient is not space for root in roots):
        raise ValueError("classes live on different ambient spaces")
    roots = [root.terms for root in roots if root.terms]
    if not roots:
        return list(parts)
    out = [parts[0]]
    last = [parts[0].terms] * len(roots)  # Z_(k-1) after each root
    for part in parts[1:]:
        acc = dict(part.terms)
        for j, root in enumerate(roots):
            _accumulate_terms(space, acc, root, last[j], -1)
            last[j] = dict(acc)
        out.append(_finish(space, acc))
    return out


def _combine(x: "ChowClass", y: "ChowClass", sign: int) -> "ChowClass":
    """``x + sign * y`` built in one term map."""
    terms = dict(x.terms)
    for e, c in y.terms.items():
        terms[e] = terms.get(e, 0) + sign * c
    return _finish(x.ambient, terms)


class ChowClass:
    """A ring element: exact integer coefficients on normal-form monomials.

    ``terms`` maps the packed code of each monomial to its nonzero
    coefficient; the constructor takes exponent tuples instead.
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: "AmbientSpace", terms: dict[tuple[int, ...], int]):
        out = {}
        for e, c in terms.items():
            q = _scalar(c)
            if q is None:
                raise TypeError(f"expected an integer coefficient, got {c!r}")
            if q:
                out[ambient._pack(e)] = q
        self.ambient = ambient
        self.terms = out

    def _coerce(self, other) -> "ChowClass | None":
        if isinstance(other, ChowClass):
            if other.ambient is not self.ambient:
                raise ValueError("classes live on different ambient spaces")
            return other
        q = _scalar(other)
        return None if q is None else self.ambient.scalar(q)

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ambient, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _combine(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _combine(other, self, -1)

    def __mul__(self, other):
        space = self.ambient
        if not isinstance(other, ChowClass):
            q = _scalar(other)
            if q is None:
                return NotImplemented
            return _make(space, {e: c * q for e, c in self.terms.items()} if q else {})
        if other.ambient is not space:
            raise ValueError("classes live on different ambient spaces")
        out: dict[int, int] = {}
        _accumulate_terms(space, out, self.terms, other.terms)
        return _finish(space, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ambient.one()
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, ChowClass):
            return other.ambient is self.ambient and self.terms == other.terms
        q = _scalar(other)
        if q is None:
            return NotImplemented
        return self.terms == self.ambient.scalar(q).terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def parts(self, top: int | None = None) -> list["ChowClass"]:
        """Homogeneous components of degrees ``0 .. top`` (default: the
        dimension), split off in one pass over the terms."""
        space = self.ambient
        top = space.dim if top is None else top
        split: list[dict[int, int]] = [{} for _ in range(top + 1)]
        deg = space._degree
        for e, c in self.terms.items():
            k = deg(e)
            if k <= top:
                split[k][e] = c
        return [_make(space, terms) for terms in split]

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True when every monomial has the same degree (``degree`` if given)."""
        degrees = {self.ambient._degree(e) for e in self.terms}
        if not degrees:
            return True
        if degree is None:
            return len(degrees) == 1
        return degrees == {degree}

    def __repr__(self):
        if not self.terms:
            return "0"
        space = self.ambient
        bits = []
        for e in sorted(map(space._unpack, self.terms), key=lambda e: (sum(e), e)):
            c = self.terms[space._pack(e)]
            mono = space._monomial_str(e)
            if mono == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


def _pair(x: ChowClass, y: ChowClass) -> int:
    """``integrate(x * y)`` on a space with no relation, without the product:
    a base, or a bundle whose relation is zero.

    There every product of normal-form monomials either truncates or stays
    in normal form, so only the pairs ``m * (top / m)`` reach the top
    monomial, and the complement of a packed code is ``top - m``.  The cost
    is linear in the term count of ``x``, with divided fields too, whose
    weights :func:`_pair3` applies.
    """
    space = x.ambient
    if y.ambient is not space:
        raise ValueError("classes live on different ambient spaces")
    if space._relation:
        raise ValueError("the pairing kernel needs a space with no relation")
    if space._divided:
        return _pair3(x, y, space.one())
    top, get = space._top, y.terms.get
    return sum(c * get(top - e, 0) for e, c in x.terms.items())


def _pair3(x: ChowClass, y: ChowClass, z: ChowClass) -> int:
    """``integrate(x * y * z)`` on a space with no relation, without a product.

    For each pair of terms ``m``, ``n`` of the two shorter classes the
    complement ``top - m - n`` is looked up in the longest class.  When
    ``m * n`` stays in normal form the complement is a normal-form code.
    When it truncates, some field of ``m + n`` exceeds its cap, the
    subtraction borrows there, and the borrowing field comes out above its
    cap (a field is one bit wider than its cap needs) or the code negative:
    no class holds such a key, so the lookup itself is the truncation test.
    Divided fields weight a triple by its multinomial coefficients,
    ``N / (F(m) F(n) F(rest))`` with ``F`` the product of the factorials of
    a code's divided fields and ``N = F(top)``.  No class or accumulator is
    built, and the cost is the product of the two shorter term counts.
    """
    space = x.ambient
    if y.ambient is not space or z.ambient is not space:
        raise ValueError("classes live on different ambient spaces")
    if space._relation:
        raise ValueError("the pairing kernel needs a space with no relation")
    if len(x.terms) > len(z.terms):
        x, z = z, x
    if len(y.terms) > len(z.terms):
        y, z = z, y
    top, get = space._top, z.terms.get
    right = list(y.terms.items())
    total = 0
    if space._divided:
        fact, mask = space._fact, space._divided
        right = [(b, cb, fact[b & mask]) for b, cb in right]
        for a, ca in x.terms.items():
            rest, na = top - a, fact[top & mask] // fact[a & mask]
            for b, cb, fb in right:
                cz = get(rest - b)
                if cz:
                    total += ca * cb * cz * (na // (fb * fact[(rest - b) & mask]))
        return total
    for a, ca in x.terms.items():
        rest = top - a
        for b, cb in right:
            cz = get(rest - b)
            if cz:
                total += ca * cb * cz
    return total


class AmbientSpace:
    """A Chow-ring model: generators, reduction rules, dimension, tangent class.

    ``caps[i]`` is the highest normal-form power of generator ``i``, so the
    dimension is ``sum(caps)``; a space with a ``base`` is a projective
    bundle whose last generator is the fiber class.  The module
    constructors build an instance completely, but a bundle space then
    fills its reduction cache lazily, without a lock: an entry is computed
    from the inputs alone, so two threads that race store equal values.
    """

    def __init__(
        self,
        gens: tuple[str, ...],
        caps: tuple[int, ...],
        base: "AmbientSpace | None" = None,
        divided: tuple[bool, ...] = (),
    ):
        self.dim = sum(caps)
        self.gens = gens
        self.caps = caps
        self.base = base
        self.divided = divided or (False,) * len(caps)
        self.tangent_chern: ChowClass | None = None
        # A field is one bit wider than caps[i] needs, so the sum of two
        # normal-form exponents fits.  After the bias is added, its top bit
        # (in tops[i]) is set exactly when the exponent exceeds caps[i].
        # A divided field's bits are in _divided, and _fact holds, per code of
        # those bits, the product of the factorials of its fields, so that
        # e_k e_l = C(k+l, k) e_(k+l) is fact[a + b] / (fact[a] fact[b]).
        fields, tops, self._bias, shift = [], [], 0, 0
        self._divided, self._fact = 0, {0: 1}
        for cap, d in zip(caps, self.divided):
            width = cap.bit_length() + 1
            fields.append((shift, (1 << width) - 1))
            tops.append(1 << (shift + width - 1))
            self._bias += ((1 << (width - 1)) - 1 - cap) << shift
            if d:
                self._divided += fields[-1][1] << shift
                self._fact = {
                    c + (k << shift): f * factorial(k)
                    for c, f in self._fact.items()
                    for k in range(cap + 1)
                }
            shift += width
        self._fields = tuple(fields)  # (shift, mask) per generator
        self._shifts = tuple(shift for shift, _ in fields)
        self._tops = tuple(tops)
        self._over = sum(tops)
        self._trunc = self._over  # flag bits of the generators that truncate
        self._top = self._pack(caps)
        self._relation: tuple[tuple[int, int], ...] = ()
        self._step = 0
        self._base_fields: tuple[int, ...] = ()  # a bundle's base field masks
        self._reduced: dict[int, tuple[tuple[int, int], ...]] = {}

    # -- packed monomials ----------------------------------------------------

    def _pack(self, exp: tuple[int, ...]) -> int:
        if len(exp) != len(self.caps):
            raise ValueError(f"expected {len(self.caps)} exponents, got {exp!r}")
        code = 0
        for e, cap, shift in zip(exp, self.caps, self._shifts):
            if not 0 <= e <= cap:
                raise ValueError(f"{exp!r} is not a normal-form monomial")
            code += e << shift
        return code

    def _unpack(self, code: int) -> tuple[int, ...]:
        return tuple((code >> shift) & mask for shift, mask in self._fields)

    def _degree(self, code: int) -> int:
        degree = 0
        for shift, mask in self._fields:
            degree += (code >> shift) & mask
        return degree

    def _set_relation(self, relation: dict[int, int]) -> None:
        """Rewrite ``g^(cap+1)`` of the last generator ``g`` as ``relation``.

        An empty relation (a bundle with ``c(fiber dual) = 1``) leaves ``g``
        truncating, so ``g^(cap+1) = 0`` costs a flag test and no cache
        entry."""
        if not relation:
            return
        self._relation = tuple(relation.items())
        self._step = (self.caps[-1] + 1) << self._shifts[-1]
        self._trunc = self._over - self._tops[-1]
        self._base_fields = tuple(mask << shift for shift, mask in self._fields[:-1])

    def _reduce(self, raw: int) -> tuple[tuple[int, int], ...]:
        """Normal form of a raw code whose only field above its cap is the
        last generator's; cached by code.

        Only a pure fiber power ``xi^(r+m)`` reads the relation.  Any other
        code is ``g * rest``, where ``g`` is the whole lowest nonzero base
        field: its normal form is the cached one of ``rest`` with every code
        shifted by ``g``, less the codes that ``g`` pushes over a base cap,
        which truncate because the base has no relation.  Removing a whole
        field, not one power of it, keeps the recursion as deep as the base
        has fields.  Every entry is computed from the inputs alone."""
        cached = self._reduced.get(raw)
        if cached is not None:
            return cached
        bias, over = self._bias, self._over
        for field in self._base_fields:
            g = raw & field
            if g:
                rest, biased = raw - g, g + bias
                result = tuple([
                    (e + g, c)
                    for e, c in self._reduced.get(rest) or self._reduce(rest)
                    if not (e + biased) & over
                ])
                if g & self._divided:  # e_k e_l = C(k+l, k) e_(k+l) on g's field
                    fact, mask = self._fact, self._divided
                    result = tuple([
                        (e, c * fact[e & mask] // fact[(e - g) & mask] // fact[g])
                        for e, c in result
                    ])
                break
        else:
            trunc, lowered = self._trunc, raw - self._step
            acc: dict[int, int] = {}
            for code, k in self._relation:
                e = lowered + code
                flags = (e + bias) & over
                if not flags:
                    acc[e] = acc.get(e, 0) + k
                elif not flags & trunc:
                    for ne, nc in self._reduce(e):
                        acc[ne] = acc.get(ne, 0) + k * nc
            result = tuple((e, c) for e, c in acc.items() if c)
        self._reduced[raw] = result
        return result

    # -- element constructors ------------------------------------------------

    def zero(self) -> ChowClass:
        return _make(self, {})

    def scalar(self, q) -> ChowClass:
        value = _scalar(q)
        if value is None:
            raise TypeError(f"expected an integer, got {q!r}")
        return _make(self, {0: value} if value else {})

    def one(self) -> ChowClass:
        return self.scalar(1)

    def generator(self, i: int) -> ChowClass:
        """The i-th degree-one generator, already reduced to normal form."""
        i = range(len(self.gens))[i]
        code = 1 << self._shifts[i]
        flags = (code + self._bias) & self._over
        if not flags:
            return _make(self, {code: 1})
        if flags & self._trunc:
            return self.zero()
        return _make(self, dict(self._reduce(code)))

    def degree_one(self, coeffs) -> ChowClass:
        """Integer combination of the generators, summed in one term map."""
        coeffs = list(coeffs)
        if len(coeffs) != len(self.gens):
            raise ValueError(
                f"expected {len(self.gens)} coefficients, got {len(coeffs)}"
            )
        out: dict[int, int] = {}
        for i, c in enumerate(coeffs):
            q = _scalar(c)
            if q is None:
                raise TypeError(f"expected an integer, got {c!r}")
            for e, k in self.generator(i).terms.items():
                out[e] = out.get(e, 0) + q * k
        return _finish(self, out)

    def coefficients(self, x: ChowClass) -> list[int]:
        """The coefficient of each generator in ``x``, a class of degree one:
        on a product, its degree on a line of each factor (of a block)."""
        row = [x.terms.get(1 << shift, 0) for shift in self._shifts]
        if x.ambient is not self or len(x.terms) != len(row) - row.count(0):
            raise ValueError("expected a class of degree one on this space")
        return row

    # -- functionals ---------------------------------------------------------

    def integrate(self, x: ChowClass) -> int:
        """Coefficient of the fundamental top-degree monomial."""
        if x.ambient is not self:
            raise ValueError("class does not live on this space")
        return x.terms.get(self._top, 0)

    def pullback(self, x: ChowClass) -> ChowClass:
        """Pull a class on the base up to this projective bundle."""
        if self.base is None:
            raise ValueError("pullback is defined on projective bundles only")
        if x.ambient is not self.base:
            raise ValueError("class does not live on the base of this bundle")
        return _make(self, dict(x.terms))

    def pushforward(self, x: ChowClass) -> ChowClass:
        """Push a class down the bundle map; kills fiber powers below r - 1.

        In normal form the fiber exponent never exceeds r - 1, so only the
        terms carrying exactly that power survive, with the power stripped.
        The direct routes of the intersection numbers and ``c2`` pairings
        push their cycles on the resolution down with it and pair them on
        the base, by the projection formula.
        """
        if self.base is None:
            raise ValueError("pushforward is defined on projective bundles only")
        if x.ambient is not self:
            raise ValueError("class does not live on this space")
        shift = self._shifts[-1]
        top = self.caps[-1]
        return _make(
            self.base,
            {e - (top << shift): c for e, c in x.terms.items() if e >> shift == top},
        )

    @property
    def has_relation(self) -> bool:
        """True when the fiber class reduces through a nonzero relation."""
        return bool(self._relation)

    def fiber_class(self) -> ChowClass:
        """First Chern class of the tautological quotient line bundle."""
        if self.base is None:
            raise ValueError("fiber_class is defined on projective bundles only")
        return self.generator(len(self.gens) - 1)

    # -- misc ----------------------------------------------------------------

    def _monomial_str(self, exp: tuple[int, ...]) -> str:
        bits = []
        for name, e, d in zip(self.gens, exp, self.divided):
            if e == 1:
                bits.append(name)
            elif e > 1:
                bits.append(f"{name}[{e}]" if d else f"{name}^{e}")
        return "*".join(bits) if bits else "1"

    def __repr__(self):
        if self.base is None:
            names = zip(self.caps, self.divided)
            return " x ".join(f"(P^1)^{c}" if d else f"P^{c}" for c, d in names)
        return f"P(rank-{self.caps[-1] + 1} bundle) over {self.base!r}"


# -- space constructors --------------------------------------------------


def projective_space(d: int) -> AmbientSpace:
    """Projective d-space: one hyperplane class h with h^(d+1) = 0."""
    return product_of_projective_spaces((d,))


def product_of_projective_spaces(dims) -> AmbientSpace:
    """Product of projective spaces: one truncating hyperplane class per
    factor, named ``h`` for a single factor and ``h1..hn`` otherwise.  The
    tangent class ``prod_i (1 + h_i)^(d_i + 1)`` is built in closed form:
    coefficient ``prod_i C(d_i + 1, e_i)`` on ``prod_i h_i^e_i``."""
    dims = tuple(dims)
    return _product(dims, dims, (False,) * len(dims), range(len(dims)))


def block_space(dims, columns) -> tuple[AmbientSpace, list[int]]:
    """The ring of the classes of a product of projective spaces that are
    symmetric in each block, the P^1 factors of equal ``columns`` (any
    hashable per factor), and the first factor of each of its generators.

    A block of ``n >= 2`` factors is one divided generator ``e`` with basis
    ``e_k``, the sum of the products of k distinct hyperplane classes:
    ``e_k e_l = C(k+l, k) e_(k+l)``, ``e_n`` integrates to 1, and ``c(T)``
    has ``2^k`` on ``e_k``.  A symmetric class restricts to it by its
    coefficient on one monomial of each ``e_k``, with the same integrals.
    Other factors stay truncating hyperplane classes, as in a product."""
    dims, caps, firsts, index = tuple(dims), [], [], {}
    for i, (d, column) in enumerate(zip(dims, columns)):
        if d == 1 and column in index:
            caps[index[column]] += 1
            continue
        if d == 1:
            index[column] = len(caps)
        caps.append(d)
        firsts.append(i)
    divided = tuple(dims[i] == 1 and c > 1 for i, c in zip(firsts, caps))
    return _product(dims, tuple(caps), divided, firsts), firsts


def _product(dims: tuple, caps: tuple, divided: tuple, firsts) -> AmbientSpace:
    """The product of P^d over ``dims`` with a generator of cap ``caps[j]``
    for each first factor ``firsts[j]``, divided where ``divided`` says."""
    for d in dims:
        if not isinstance(d, int) or isinstance(d, bool):
            raise TypeError(f"dimensions must be integers, got {d!r}")
    if not dims:
        raise ValueError("at least one factor is required")
    if any(d < 0 for d in dims):
        raise ValueError("dimensions must be nonnegative")
    if len(dims) == 1:
        gens = ("h",)
    else:
        gens = tuple(f"{'eh'[not d]}{i + 1}" for i, d in zip(firsts, divided))
    space = AmbientSpace(gens, caps, divided=divided)
    terms = {0: 1}
    for cap, d, shift in zip(caps, divided, space._shifts):
        terms = {
            code + (e << shift): c * (2**e if d else comb(cap + 1, e))
            for code, c in terms.items()
            for e in range(cap + 1)
        }
    space.tangent_chern = _make(space, terms)
    return space


def restrict_to_blocks(classes: list) -> tuple | None:
    """Degree-one ``classes`` (or None) on a product of projective spaces,
    restricted to its :func:`block_space` by the coefficients of each
    factor; None when no two P^1 factors have equal coefficients, or the
    space is not a plain product.  Every class built from them is then
    symmetric in each block, so it has the same integrals on both rings."""
    space = classes[0].ambient
    if space.base is not None or space._divided or space.caps.count(1) < 2:
        return None
    given = [x for x in classes if x is not None]
    rows = [space.coefficients(x) for x in given]
    lines = [column for column, cap in zip(zip(*rows), space.caps) if cap == 1]
    if len(set(lines)) == len(lines):
        return None
    blocks, firsts = block_space(space.caps, zip(*rows))
    codes = [(1 << shift, i) for shift, i in zip(blocks._shifts, firsts)]
    out = iter([_make(blocks, {e: r[i] for e, i in codes if r[i]}) for r in rows])
    return tuple(None if x is None else next(out) for x in classes)


def proj_bundle(base: AmbientSpace, fiber) -> AmbientSpace:
    """Bundle of rank-one quotients of ``fiber``, a bundle on ``base``.

    Adjoins a generator ``xi`` (the first Chern class of the tautological
    quotient line bundle) with the relation ``sum_i c_i(fiber dual) *
    xi^(r - i) = 0``.  With this convention the rank-one case collapses to
    the base with ``xi = c1(fiber)``, and pushing forward ``xi^(r-1+m)``
    yields the m-th coefficient of ``1 / c(fiber dual)``.  The relative
    tangent class is ``c`` of ``fiber dual`` pulled back and twisted by ``xi``.

    The base must not itself be a projective bundle: the new space would
    drop the base's relation, and ``pullback`` would not be multiplicative.
    """
    rank = fiber.rank
    if rank < 1:
        raise ValueError("fiber bundle must have positive rank")
    if fiber.ambient is not base:
        raise ValueError("fiber bundle does not live on the given base")
    if base.base is not None:
        raise ValueError("the base must not itself be a projective bundle")
    space = AmbientSpace(
        base.gens + ("xi",), base.caps + (rank - 1,), base, base.divided + (False,)
    )
    dual = fiber.dual()
    parts = dual.total_chern().parts(rank)
    shift = space._shifts[-1]
    space._set_relation({
        e + ((rank - i) << shift): -c
        for i in range(1, rank + 1)
        for e, c in parts[i].terms.items()
    })
    relative = dual.pullback_to(space).twist(space.fiber_class()).total_chern()
    space.tangent_chern = space.pullback(base.tangent_chern) * relative
    return space
