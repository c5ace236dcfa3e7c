"""Chern-class calculus for split and virtual bundles.

A bundle is a direct sum of line bundles, given by one first Chern class
per summand.  A :class:`VirtualPair` holds two bundles of equal rank and
the two Chern-class sequences every downstream formula consumes, computed
by ``chow.divide_by_roots`` on first read.  No term map is read here, and
P(F) needs no bundle: ``chow.proj_bundle`` reads only the parts ``c_i`` of
``c(F dual)``, as ``c(T) = pi^* c(T_base) sum_i c_i (1 + xi)^(r - i)``.
"""

from __future__ import annotations

from .chow import AmbientSpace, ChowClass, divide_by_roots, sum_of_products


class first_read:
    """A value computed on first read and kept in the instance's ``vars``.
    No lock is taken: when threads race, every read returns the first stored."""

    def __init__(self, func):
        self.func = func

    def __get__(self, obj, owner=None):
        name = self.func.__name__
        return self if obj is None else vars(obj).setdefault(name, self.func(obj))


class BundleSpec:
    """A direct sum of line bundles on an ambient space."""

    def __init__(self, ambient, roots):
        self.ambient = ambient
        self.roots = roots

    @classmethod
    def sum_of_line_bundles(cls, ambient: AmbientSpace, degree_rows) -> "BundleSpec":
        """Split bundle from integer multidegrees, one row per summand."""
        return cls(ambient, tuple(ambient.degree_one(row) for row in degree_rows))

    @property
    def rank(self) -> int:
        return len(self.roots)

    def total_chern(self) -> ChowClass:
        """``prod (1 + root)``: one ``sum_of_products`` per nonzero root, short
        factor first, since the kernel's outer loop runs over it."""
        one = out = self.ambient.one()
        for root in self.roots:
            if not root.is_zero():
                out = sum_of_products(self.ambient, [(1, one + root, out)])
        return out

    def dual(self) -> "BundleSpec":
        return BundleSpec(self.ambient, tuple(-r for r in self.roots))

    def twist(self, ell: ChowClass) -> "BundleSpec":
        """Tensor with a line bundle of first Chern class ``ell``, a degree-one
        class on the same space (``AmbientSpace.coefficients``); O is a no-op."""
        if not any(self.ambient.coefficients(ell)):
            return self
        return BundleSpec(self.ambient, tuple(r + ell for r in self.roots))

    def __repr__(self):
        return f"split rank-{self.rank} bundle on {self.ambient!r}"


class VirtualPair:
    """An equal-rank pair (E, F), with the virtual classes both orders need.

    ``chern_diff[k]`` is the degree-k part of ``c(F)/c(E)``; ``schur_seq[k]``
    the degree-k part of ``c(E dual)/c(F dual)``, the sequence that feeds
    the Schur classes of the degeneracy-locus formulas.  Both are computed
    on first read with no lock (:class:`first_read`), each by dividing a
    total Chern class by the other bundle's roots one at a time
    (``chow.divide_by_roots``), so a pair whose Instance runs on the block
    ring never divides on its own space.  ``chern_diff`` is also the dual
    sequence of ``schur_seq``, ``(sum s_i t^i) (sum (-1)^j c_j t^j) = 1``,
    as the hook sums of :mod:`detcalc.schur` read them.
    ``hypersurface_class`` is ``c1(F) - c1(E)``, the first Chern class of
    det(E dual) tensor det(F): the divisor class cut out by the determinant
    of a morphism E -> F, built from the roots alone in one term map, F's
    with scale +1 and E's with scale -1.  ``calabi_yau`` is the test
    ``c1(T) == hypersurface_class``, with ``c1(T)`` the space's
    ``AmbientSpace.tangent_c1``.
    """

    def __init__(self, E: BundleSpec, F: BundleSpec):
        if E.ambient is not F.ambient:
            raise ValueError("bundles live on different ambient spaces")
        if E.rank != F.rank:
            raise ValueError("bundles must have the same rank")
        self.E = E
        self.F = F
        self.ambient = E.ambient
        one, signed = self.ambient.one(), ((1, F), (-1, E))
        terms = [(s, one, r) for s, B in signed for r in B.roots if not r.is_zero()]
        self.hypersurface_class = sum_of_products(self.ambient, terms)
        self.calabi_yau = self.ambient.tangent_c1 == self.hypersurface_class

    @first_read
    def chern_diff(self) -> list[ChowClass]:
        return divide_by_roots(self.F.total_chern().parts(), self.E.roots)

    @first_read
    def schur_seq(self) -> list[ChowClass]:
        return divide_by_roots(
            self.E.dual().total_chern().parts(), self.F.dual().roots
        )

    @property
    def rank(self) -> int:
        return self.E.rank

    def __repr__(self):
        return f"VirtualPair(rank {self.rank} on {self.ambient!r})"
