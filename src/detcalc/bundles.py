"""Chern-class calculus for concrete and virtual bundles.

A bundle is either split (one first Chern class per line-bundle summand) or
formal (a rank plus a total Chern class).  A :class:`VirtualPair` holds two
bundles of equal rank and caches the two Chern-class sequences every
downstream formula consumes.
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from .chow import (
    AmbientSpace,
    ChowClass,
    dual_total_chern,
    twisted_total_chern,
)


class BundleSpec:
    """A vector bundle on an ambient space, split or formal."""

    def __init__(self, ambient, roots=None, rank=None, total=None):
        self.ambient = ambient
        self._roots = roots
        self._rank = rank
        self._total = total

    @classmethod
    def split(cls, ambient: AmbientSpace, roots) -> "BundleSpec":
        """Direct sum of line bundles, given their first Chern classes."""
        roots = tuple(roots)
        for root in roots:
            if root.ambient is not ambient:
                raise ValueError("summand class lives on a different space")
            if not root.is_homogeneous(1):
                raise ValueError("summand classes must be homogeneous of degree one")
        return cls(ambient, roots=roots)

    @classmethod
    def formal(cls, ambient: AmbientSpace, rank: int, total: ChowClass) -> "BundleSpec":
        """Bundle known only through its rank and total Chern class."""
        if rank < 1:
            raise ValueError("rank must be positive")
        if total.ambient is not ambient:
            raise ValueError("total Chern class lives on a different space")
        if total.constant() != 1:
            raise ValueError("total Chern class must have constant term 1")
        return cls(ambient, rank=rank, total=total)

    @classmethod
    def sum_of_line_bundles(cls, ambient: AmbientSpace, degree_rows) -> "BundleSpec":
        """Split bundle from integer multidegrees, one row per summand."""
        return cls.split(
            ambient, (ambient.degree_one(row) for row in degree_rows)
        )

    @property
    def is_split(self) -> bool:
        return self._roots is not None

    @property
    def rank(self) -> int:
        return len(self._roots) if self._roots is not None else self._rank

    @property
    def roots(self) -> tuple[ChowClass, ...]:
        if self._roots is None:
            raise ValueError("formal bundle has no line-bundle summands")
        return self._roots

    def total_chern(self) -> ChowClass:
        if self._total is not None:
            return self._total
        out = self.ambient.one()
        for root in self._roots:
            out = out * (self.ambient.one() + root)
        self._total = out
        return out

    def chern(self, k: int) -> ChowClass:
        return self.total_chern().part(k)

    def c1(self) -> ChowClass:
        return self.chern(1)

    def dual(self) -> "BundleSpec":
        if self.is_split:
            return BundleSpec.split(self.ambient, (-r for r in self._roots))
        return BundleSpec.formal(
            self.ambient, self.rank, dual_total_chern(self.total_chern())
        )

    def twist(self, ell: ChowClass) -> "BundleSpec":
        """Tensor with a line bundle of first Chern class ``ell``."""
        if not ell.is_homogeneous(1):
            raise ValueError("twisting class must be homogeneous of degree one")
        if self.is_split:
            return BundleSpec.split(self.ambient, (r + ell for r in self._roots))
        return BundleSpec.formal(
            self.ambient,
            self.rank,
            twisted_total_chern(self.rank, self.total_chern(), ell),
        )

    def pullback_to(self, space: AmbientSpace) -> "BundleSpec":
        """Pull the bundle up to a projective bundle over its ambient space."""
        if space.base is not self.ambient:
            raise ValueError("target space is not a bundle over this ambient")
        if self.is_split:
            return BundleSpec.split(space, (space.pullback(r) for r in self._roots))
        return BundleSpec.formal(space, self.rank, space.pullback(self.total_chern()))

    def __repr__(self):
        kind = "split" if self.is_split else "formal"
        return f"{kind} rank-{self.rank} bundle on {self.ambient!r}"


class VirtualPair:
    """An equal-rank pair (E, F), with the virtual classes both orders need.

    ``chern_diff[k]`` is the degree-k part of ``c(F)/c(E)``; ``schur_seq[k]``
    the degree-k part of ``c(E dual)/c(F dual)``, the sequence that feeds
    the Schur determinants of the degeneracy-locus formulas.  Each is
    computed on first use and cached; ``chern_diff`` is also the dual
    sequence ``s_from_c(schur_seq)`` of the dual Jacobi-Trudi form.
    """

    def __init__(self, E: BundleSpec, F: BundleSpec):
        if E.ambient is not F.ambient:
            raise ValueError("bundles live on different ambient spaces")
        if E.rank != F.rank:
            raise ValueError("bundles must have the same rank")
        self.E = E
        self.F = F
        self.ambient = E.ambient

    @property
    def rank(self) -> int:
        return self.E.rank

    @cached_property
    def chern_diff(self) -> list[ChowClass]:
        quotient = self.F.total_chern() * self.E.total_chern().inverse()
        return [quotient.part(k) for k in range(self.ambient.dim + 1)]

    @cached_property
    def schur_seq(self) -> list[ChowClass]:
        quotient = self.E.dual().total_chern() * self.F.dual().total_chern().inverse()
        return [quotient.part(k) for k in range(self.ambient.dim + 1)]

    def virtual_chern(self, k: int) -> ChowClass:
        """Degree-k part of ``c(F)/c(E)``; zero beyond the ambient dimension."""
        if k < 0:
            raise ValueError("index must be nonnegative")
        if k > self.ambient.dim:
            return self.ambient.zero()
        return self.chern_diff[k]

    def twisted_virtual_chern(self, ell: ChowClass, k: int) -> ChowClass:
        """Degree-k virtual Chern class after twisting both bundles by ``ell``.

        Closed form: an alternating binomial combination of the untwisted
        virtual classes with powers of ``ell``.  Must agree with twisting
        both bundles and expanding the quotient directly.
        """
        if k < 1:
            raise ValueError("index must be at least one")
        out = self.ambient.zero()
        ell_pow = self.ambient.one()
        for i in range(k, 0, -1):
            term = comb(k - 1, i - 1) * (self.virtual_chern(i) * ell_pow)
            out = out + (term if (k - i) % 2 == 0 else -term)
            ell_pow = ell_pow * ell
        return out

    def twisted(self, ell: ChowClass) -> "VirtualPair":
        return VirtualPair(self.E.twist(ell), self.F.twist(ell))

    def hypersurface_class(self) -> ChowClass:
        """First Chern class of det(E dual) tensor det(F): the divisor class
        cut out by the determinant of a morphism E -> F."""
        return self.F.c1() - self.E.c1()

    def __repr__(self):
        return f"VirtualPair(rank {self.rank} on {self.ambient!r})"
