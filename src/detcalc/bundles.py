"""Chern-class calculus for split and virtual bundles.

A bundle is a direct sum of line bundles, given by one first Chern class
per summand.  A :class:`VirtualPair` holds two bundles of equal rank and
the two Chern-class sequences every downstream formula consumes, computed
by ``chow.divide_by_roots`` on first read.  No term map is read here.
"""

from __future__ import annotations

from functools import cached_property

from .chow import AmbientSpace, ChowClass, divide_by_roots, sum_of_products


class BundleSpec:
    """A direct sum of line bundles on an ambient space."""

    def __init__(self, ambient, roots):
        self.ambient = ambient
        self.roots = roots

    @classmethod
    def split(cls, ambient: AmbientSpace, roots) -> "BundleSpec":
        """Direct sum of line bundles, given their first Chern classes."""
        roots = tuple(roots)
        for root in roots:
            if root.ambient is not ambient:
                raise ValueError("summand class lives on a different space")
            if not root.is_homogeneous(1):
                raise ValueError("summand classes must be homogeneous of degree one")
        return cls(ambient, roots)

    @classmethod
    def sum_of_line_bundles(cls, ambient: AmbientSpace, degree_rows) -> "BundleSpec":
        """Split bundle from integer multidegrees, one row per summand."""
        return cls.split(
            ambient, (ambient.degree_one(row) for row in degree_rows)
        )

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

    def c1(self) -> ChowClass:
        """The sum of the roots, in one term map; zero roots are skipped."""
        one = self.ambient.one()
        products = [(1, one, root) for root in self.roots if not root.is_zero()]
        return sum_of_products(self.ambient, products)

    def dual(self) -> "BundleSpec":
        return BundleSpec(self.ambient, tuple(-r for r in self.roots))

    def twist(self, ell: ChowClass) -> "BundleSpec":
        """Tensor with a line bundle of first Chern class ``ell``; O is a no-op."""
        if ell.ambient is not self.ambient:
            raise ValueError("twisting class lives on a different space")
        if not ell.is_homogeneous(1):
            raise ValueError("twisting class must be homogeneous of degree one")
        if ell.is_zero():
            return self
        return BundleSpec(self.ambient, tuple(r + ell for r in self.roots))

    def pullback_to(self, space: AmbientSpace) -> "BundleSpec":
        """Pull the bundle up to a projective bundle over its ambient space."""
        if space.base is not self.ambient:
            raise ValueError("target space is not a bundle over this ambient")
        return BundleSpec(space, tuple(space.pullback(r) for r in self.roots))

    def __repr__(self):
        return f"split rank-{self.rank} bundle on {self.ambient!r}"


class VirtualPair:
    """An equal-rank pair (E, F), with the virtual classes both orders need.

    ``chern_diff[k]`` is the degree-k part of ``c(F)/c(E)``; ``schur_seq[k]``
    the degree-k part of ``c(E dual)/c(F dual)``, the sequence that feeds
    the Schur classes of the degeneracy-locus formulas.  Both are
    computed on first read, each by dividing a total Chern class by the
    other bundle's roots one at a time (``chow.divide_by_roots``), so a
    pair whose :class:`~detcalc.invariants.Instance` runs on the block ring
    never divides on its own space.  ``chern_diff`` is also the dual
    sequence of ``schur_seq``, ``(sum s_i t^i) (sum (-1)^j c_j t^j) = 1``,
    as the hook sums of :mod:`detcalc.schur` read them.
    ``hypersurface_class`` is ``c1(F) - c1(E)``, the first Chern class of
    det(E dual) tensor det(F): the divisor class cut out by the determinant
    of a morphism E -> F, taken from the roots so that it is independent of
    the two sequences.  ``calabi_yau`` is the test
    ``c1(T) == hypersurface_class`` on a product of projective spaces, with
    ``c1(T) = sum (d_i + 1) h_i`` read from the caps, and ``2 e`` on a
    divided block generator (``chow.block_space``).
    """

    def __init__(self, E: BundleSpec, F: BundleSpec):
        if E.ambient is not F.ambient:
            raise ValueError("bundles live on different ambient spaces")
        if E.rank != F.rank:
            raise ValueError("bundles must have the same rank")
        self.E = E
        self.F = F
        self.ambient = E.ambient
        self.hypersurface_class = F.c1() - E.c1()
        space = self.ambient
        tangent_c1 = space.degree_one(
            [2 if d else c + 1 for c, d in zip(space.caps, space.divided)]
        )
        self.calabi_yau = tangent_c1 == self.hypersurface_class

    @cached_property
    def chern_diff(self) -> list[ChowClass]:
        return divide_by_roots(self.F.total_chern().parts(), self.E.roots)

    @cached_property
    def schur_seq(self) -> list[ChowClass]:
        return divide_by_roots(
            self.E.dual().total_chern().parts(), self.F.dual().roots
        )

    @property
    def rank(self) -> int:
        return self.E.rank

    def __repr__(self):
        return f"VirtualPair(rank {self.rank} on {self.ambient!r})"
