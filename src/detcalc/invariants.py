"""Invariants of determinantal hypersurfaces cut out by square bundle morphisms.

Everything is computed on an :class:`Instance`: an ambient space of
dimension at least four, an equal-rank bundle pair (E, F), and an optional
degree-one polarization class.  The hypersurface is the divisor where a
generic morphism E -> F drops rank; its singular locus is the next
degeneracy stratum.  The quantities several invariants share are built
once: the ring the report runs on, the pair's divisor class ``D = c1(F) -
c1(E)`` and Calabi-Yau test ``c1(T) == D`` by the constructors, which do
no other ring work; the instance's small resolution with its tangent
class ``c(T_Z)`` and the pair's two Chern-class sequences, on first read
and with no lock (``bundles.first_read``).  In a report :func:`c2_numbers`
runs first, and its guard reads only the inputs.  The functions here only
read them, ``c(T)`` of the ambient space and ``AmbientSpace.tangent_c1``: on
the bundle they read the parts of ``c(T_Z)`` that :class:`Resolution` holds.
All results assume the morphism is generic in the transversality sense
(each stratum smooth of expected codimension); that assumption is
surfaced in report warnings, never verified.

A mismatch of two routes aborts, since it can only mean a convention bug.
Every comparison goes through one helper, which names each route with its
value, as in ``singular Euler gap: hooks 92, shortcut 94``.
Intersection numbers and ``c2`` pairings: a closed form on the ambient
space against a direct route through the rank-one-quotient bundle
carrying the small resolution, where each cycle but ``c2 . L . [Z]``,
integrated there, is pushed down to the ambient space and paired there
(the projection formula).  The bundle is
``P(F (x) L^-1)`` for the root ``L`` that F repeats most, which shortens
its relation.  The resolution's Euler number: the hook sum of
:func:`euler_numbers` against ``chi(Z)`` integrated on that bundle.  The
direct ``chi(Z)``, ``c2`` cycle and intersection numbers all read the one
stored ``[Z]`` of :class:`Resolution` and integrate by ``chow._pair``; a
relation on the bundle picks only the ``chi(Z)`` integrand.  The smooth
number and the singular gap have a second route, the shortcut of
:func:`ih_milnor_number_small_dim`, on fourfolds and fivefolds only: a
weight paired with the 2x2 class of :func:`porteous_class`, the one Schur
class a report forms.  Every integral is a ``chow._pair`` or ``_pair3``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod
from typing import NamedTuple

from .bundles import BundleSpec, VirtualPair, first_read
from .chow import AmbientSpace, ChowClass, _pair, _pair3, block_space, divide_by_roots
from .chow import _blocks, _scalar, proj_bundle, sum_of_products
from .schur import hook_pairing, hook_sum


class GuardError(ValueError):
    """A formula was requested outside its domain of validity."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree did not; the ring conventions are broken."""


def _agree(quantity: str, **routes):
    """The value every named route gives for ``quantity``; a mismatch raises
    :class:`ConsistencyError` naming each route with its value."""
    values = iter(routes.values())
    first = next(values)
    for value in values:
        if value != first:
            shown = ", ".join(f"{route} {value}" for route, value in routes.items())
            raise ConsistencyError(f"{quantity}: {shown}")
    return first


class Resolution(NamedTuple):
    """The small resolution as a zero locus in the quotient bundle ``space``,
    with normal roots ``xi - e_i`` for the roots ``e_i`` of E:
    ``tautological`` is ``xi = zeta + c1(L)`` on ``space = P(F (x) L^-1)``
    with fiber class ``zeta`` (:class:`Instance` picks ``L``), and ``cycles``
    are ``[Z] xi^j``: ``[Z] = xi^p prod_(e_i != 0) (xi - e_i)``, the roots'
    product, and every ``j < d`` when ``p > 0`` or there is a polarization.
    One rule on every bundle, with a relation or without: by the normal
    exact sequence ``c(T_Z) [Z] = Q sum_k a_k [Z] xi^k``, where the ``p``
    trivial summands of E, whose roots are ``xi``, give ``series``, the
    ``a_k`` of ``1 / (1 + t)^p`` for ``k < d`` (``[1]`` when ``p = 0``), and
    only the others divide ``c(T_P(F))`` into ``Q``, whose parts
    ``0 .. d-1`` are ``tangent`` (those of ``c(T_P(F))`` when none divides).
    ``Instance.resolution`` builds it on first read, with ``space`` a bundle
    over ``Instance.ambient``, the block ring of ``Instance.from_rows``."""

    space: AmbientSpace
    tangent: list[ChowClass]
    tautological: ChowClass
    cycles: list[ChowClass]
    series: list[int]


class Instance:
    """One evaluation problem: ambient space, bundle pair, optional polarization.

    :meth:`from_rows` builds one from integer degree rows; a projective
    bundle as ambient is refused.  ``calabi_yau``, the pair's test, is True
    when the hypersurface class is ``c1(T)``, so the hypersurface has
    trivial canonical class.  The small resolution and the sequences of
    the pair are built on first read, not here.

    Built by hand, it reads the degree row of each root and of the
    polarization once, where ``AmbientSpace.coefficients`` refuses a class not
    of degree one on ``ambient``; when the block rule, ``chow._blocks``, gives
    a plain product fewer generators by those rows' columns, it keeps the
    ``ambient``, ``pair`` and ``polarization`` that :meth:`from_rows` builds
    from them in place of the caller's, whose pair then divides none.
    """

    def __init__(
        self,
        ambient: AmbientSpace,
        pair: VirtualPair,
        polarization: ChowClass | None = None,
    ):
        if pair.ambient is not ambient:
            raise ValueError("bundle pair lives on a different ambient space")
        if ambient.base is not None:
            raise ValueError(f"the ambient space is a projective bundle: {ambient!r}")
        self._adopt(ambient, pair, polarization)
        polar = None if polarization is None else ambient.coefficients(polarization)
        _check_ample(polar)
        E, F = ([ambient.coefficients(x) for x in B.roots] for B in (pair.E, pair.F))
        rows, caps = [*E, *F] + ([polar] if polar is not None else []), ambient.caps
        if not any(ambient.divided) and len(_blocks(caps, zip(*rows))[1]) < len(caps):
            vars(self).update(vars(Instance.from_rows(caps, E, F, polar)))

    def _adopt(self, ambient, pair, polarization) -> "Instance":
        """Take the inputs after the guards that every instance passes."""
        if ambient.dim < 4:
            raise GuardError("the ambient space must have dimension at least 4")
        if pair.rank < 2:
            raise GuardError("the bundle rank must be at least 2")
        self.ambient = ambient
        self.pair = pair
        self.polarization = polarization
        self.calabi_yau = pair.calabi_yau
        return self

    @first_read
    def resolution(self) -> Resolution:
        """The small resolution, built on first read."""
        # The small resolution inside the rank-one-quotient bundle of F: the
        # zero locus of E dual pulled back and twisted by the tautological
        # class xi, with normal roots xi - e_i for the roots e_i of E.
        # P(F) = P(F (x) L^-1) with xi = zeta + c1(L) (Hartshorne II.7.9), and
        # each copy of L in F drops a factor from the relation, so L is the
        # root F repeats most, and O when no root repeats or O ties it.
        ambient, pair = self.ambient, self.pair
        F, zero = pair.F, ambient.zero()
        f = max((zero, *F.roots), key=F.roots.count)
        f = f if F.roots.count(f) > 1 else zero
        space = proj_bundle(ambient, F.twist(-f))
        xi = space.fiber_class() + space.pullback(f)
        # Only the roots of the nonzero e_i divide c(T_P); the p roots xi of
        # the trivial summands stay with [Z] as the series 1 / (1 + xi)^p.
        d = ambient.dim
        divided = [xi - space.pullback(e) for e in pair.E.roots if not e.is_zero()]
        p = pair.rank - len(divided)
        series = [(-1) ** k * comb(k + p - 1, k) for k in range(d)] if p else [1]
        tangent = divide_by_roots(space.tangent_chern.parts(d - 1), divided)
        cycles = [prod(divided, start=xi**p)]
        if p or self.polarization is not None:
            for _ in range(d - 1):
                cycles.append(cycles[-1] * xi)
        return Resolution(space, tangent, xi, cycles, series)

    @classmethod
    def from_rows(cls, dims, E, F, polarization=None) -> "Instance":
        """The instance on the P^d over ``dims`` of integer degree rows, one
        entry per factor: a row per summand of E and F, one for the
        polarization.  It runs on the block ring of the factors' columns,
        grouped by ``chow._blocks`` (``chow.block_space``); no rows, E and F of
        different lengths, a row of the wrong width, a factor P^0 or a
        polarization that is not ample raises ``ValueError``, naming the
        caller's factor, and a non-``int`` entry ``TypeError``, before that
        ring is built.  Built from the rows, the instance skips the checks of a
        hand-built one, which read each class's degrees back."""
        if not E or not F:
            raise ValueError("E and F must each have at least one row")
        if len(E) != len(F):
            raise ValueError("bundles must have the same rank")
        rows = [*E, *F] + ([polarization] if polarization is not None else [])
        for row in rows:
            if len(row) != len(dims):
                raise ValueError(f"expected {len(dims)} entries in row {row!r}")
        if bad := [c for row in rows for c in row if _scalar(c) is None]:
            raise TypeError(f"expected an integer, got {bad[0]!r}")
        _check_ample(polarization)
        space, firsts = block_space(dims, zip(*rows))
        if len(firsts) < len(dims):  # one degree per block
            rows = [[row[i] for i in firsts] for row in rows]
        E, F = rows[: len(E)], rows[len(E) : len(E) + len(F)]
        pair = VirtualPair(*(BundleSpec.sum_of_line_bundles(space, B) for B in (E, F)))
        polarization = space.degree_one(rows[-1]) if polarization is not None else None
        return object.__new__(cls)._adopt(space, pair, polarization)

    @property
    def d(self) -> int:
        return self.ambient.dim

    def __repr__(self):
        return f"Instance(rank {self.pair.rank} pair on {self.ambient!r})"


def _check_ample(degrees) -> None:
    """Raise ``ValueError`` unless ``O(a_1, ..., a_n)`` is ample (or absent,
    ``None``): every ``a_i``, its degree on a line of factor i, is at least 1."""
    for i, a in enumerate(degrees or ()):
        if a < 1:
            msg = f"polarization is not ample: degree below 1 on factor {i + 1}"
            raise ValueError(msg)


# -- scalar invariants -----------------------------------------------------


def euler_smooth_hypersurface(space: AmbientSpace, divisor: ChowClass) -> int:
    """Topological Euler characteristic of a smooth divisor in the given class.

    Integrates ``D * c(T) / (1 + D)`` over the space, on a base or a bundle
    space alike: the parts of ``c(T)`` below the top degree are divided by
    the one root ``D`` (:func:`divide_by_roots`), and ``chow._pair`` pairs ``D``
    with the quotient's degree-``(d-1)`` part.  A ``D`` that is not of degree
    one on ``space`` raises ``ValueError`` (``AmbientSpace.coefficients``).
    """
    space.coefficients(divisor)
    quotient = divide_by_roots(space.tangent_chern.parts(space.dim - 1), [divisor])
    return _pair(divisor, quotient[-1])


def porteous_class(inst: Instance) -> ChowClass:
    """Class of the singular locus of the determinantal hypersurface.

    By Thom-Porteous, the locus where the morphism has rank at most
    ``rank - 2``: the square shape of side 2 on the pair's Schur sequence,
    ``s_2 s_2 - s_1 s_3``, on ``inst.ambient``, the ring the constructor
    chose.
    """
    s = inst.pair.schur_seq
    return sum_of_products(inst.ambient, [(1, s[2], s[2]), (-1, s[1], s[3])])


class EulerNumbers(NamedTuple):
    """Euler numbers of the hypersurface: a smooth one in the same class, the
    signed singular gap, and the small resolution, whose Euler number is the
    intersection-homology one: ``resolution = smooth + (-1)^d ih_milnor``."""

    smooth: int
    ih_milnor: int
    resolution: int


def euler_numbers(inst: Instance) -> EulerNumbers:
    """The three Euler numbers from one loop over the weights ``w = 1 .. d``.

    In weight w the integrands are parts of the identity
    ``D^w = s_1^w = sum_{|lam| = w} f^lam s_lam`` (Macdonald, Ch. I), where
    ``f^lam`` counts standard tableaux and the hypersurface class ``D`` is
    taken from the bundles' roots.  ``D^w`` gives the smooth number.  The
    hooks, the shapes that do not contain the 2x2 square, give the
    resolution; with ``f = C(w-1, b)`` their sum is the one convolution
    ``sum_a C(w-2, a-1) h_a e_(w-a)`` of :func:`~detcalc.schur.hook_sum`.
    In weights 1 to 3 every shape is a hook, so ``D^w == hooks`` is checked
    as classes, which ties the roots to the pair's sequences, and the one
    pairing of ``D^w`` with ``c_(d-w)(T)``, with sign ``(-1)^(w-1)``, counts
    in both numbers.  From weight 4 that pairing, which reads only the
    degree-w terms of ``D^w``, gives the smooth number alone, and the hooks
    are not formed: :func:`~detcalc.schur.hook_pairing` integrates each
    product ``h_a e_(w-a) c_(d-w)(T)`` with ``chow._pair3``.  The other shapes
    give the gap, paired with sign ``(-1)^(d+w)``; as they are
    ``D^w - hooks``, the gap is ``(-1)^d (resolution - smooth)`` and no
    determinant runs.

    The resolution number is compared with ``chi(Z)``, integrated directly
    on the quotient bundle from the terms ``a_k Q_(d-1-k)`` and ``[Z] xi^k``
    of :class:`Resolution`: with no relation there (``has_relation``), each
    pair is paired; with one, ``c_(d-1)(T_Z)``, their sum without ``[Z]``,
    is formed by Horner in ``xi`` and paired with ``[Z]``, one product where
    the pairs would form ``d``.  A mismatch raises :class:`ConsistencyError`.
    """
    d = inst.d
    seq = inst.pair.schur_seq
    dual = inst.pair.chern_diff
    divisor = inst.pair.hypersurface_class
    tangent = inst.ambient.tangent_chern.parts()
    power = inst.ambient.one()
    smooth = resolution = 0
    for weight in range(1, d + 1):
        power = power * divisor
        sign, t = (-1) ** (weight - 1), tangent[d - weight]
        term = sign * _pair(power, t)
        smooth += term
        if weight <= 3:
            _agree(f"weight {weight}", power=power, hooks=hook_sum(weight, seq, dual))
            resolution += term
        else:
            resolution += sign * hook_pairing(weight, seq, dual, t)
    res = inst.resolution
    if res.space.has_relation:
        # c_(d-1)(T_Z) = sum_k a_k xi^k Q_(d-1-k) by Horner in xi (Q_(d-1)
        # itself when p = 0), then times [Z]
        bundle, xi, one = res.space, res.tautological, res.space.one()
        top, *rest = reversed(res.series)
        integrand = res.tangent[d - 1 - len(rest)] * top
        for a, t in zip(rest, res.tangent[d - len(rest) :]):
            integrand = sum_of_products(bundle, [(1, integrand, xi), (a, t, one)])
        direct = _pair(integrand, res.cycles[0])
    else:
        # [Z] xi^k has degree r + k: it meets only the part d-1-k of Q
        terms = zip(res.series, res.cycles, reversed(res.tangent))
        direct = sum(a * _pair(cycle, t) for a, cycle, t in terms)
    _agree("resolution Euler number", hooks=resolution, direct=direct)
    return EulerNumbers(smooth, (-1) ** d * (resolution - smooth), resolution)


def ih_milnor_number_small_dim(inst: Instance) -> int:
    """Shortcut for the singular Euler gap: a weight ``w`` paired with the
    class of the singular locus in one ``chow._pair`` (Parusinski-Pragacz,
    J. Algebraic Geom. 4, 1995).  On a fourfold ``w = 2``: twice the count of
    points; on a fivefold, where Sing is a curve with ``c1(N) = 2D`` on it,
    ``w = 5D - 2 c1(T)``, which is ``3 c1(T)`` under the Calabi-Yau condition
    ``D = c1(T)``.  Refused from dimension 6, where Sing is a surface or more.
    """
    if inst.d not in (4, 5):
        raise GuardError(
            "the shortcut formula is only available for dim M = 4 or 5; "
            "use euler_numbers instead"
        )
    if inst.d == 4:
        weight = inst.ambient.scalar(2)
    else:
        weight = 5 * inst.pair.hypersurface_class - 2 * inst.ambient.tangent_c1
    return _pair(weight, porteous_class(inst))


# -- intersection numbers on the resolution ---------------------------------


def intersection_numbers(inst: Instance) -> list[int]:
    """Pairings ``H^k . L^(d-1-k)`` on the resolution for ``k = 0 .. d-1``.

    ``H`` pulls back the polarization, ``L`` is the tautological class of
    the quotient bundle.  Each value is computed in closed form on the
    ambient space (``H^k`` against the complementary dual-difference Chern
    class) and again directly: the resolution's cycle ``L^j . [Z]`` on the
    quotient bundle is pushed down and paired with ``H^k`` on the ambient
    space by the projection formula.  The routes must agree.
    """
    if inst.polarization is None:
        raise GuardError("intersection numbers need a polarization class")
    d = inst.d
    space = inst.ambient
    seq = inst.pair.schur_seq
    hyper = inst.polarization

    bundle_space = inst.resolution.space
    cycles = inst.resolution.cycles  # L^j . [Z] on the quotient bundle

    hyper_pows = [space.one()]
    for _ in range(d - 1):
        hyper_pows.append(hyper_pows[-1] * hyper)

    closed = [_pair(hyper_pows[k], seq[d - k]) for k in range(d)]
    direct = [
        _pair(hyper_pows[k], bundle_space.pushforward(cycles[d - 1 - k]))
        for k in range(d)
    ]
    return _agree("intersection numbers", closed=closed, direct=direct)


class C2Pairings(NamedTuple):
    """Pairings of the second Chern class of the resolution's tangent bundle."""

    against_polarization: int
    against_tautological: int


def c2_numbers(inst: Instance, allow_non_cy: bool = False) -> C2Pairings:
    """Pair ``c2`` of the resolution's tangent bundle with the pulled-back
    polarization and with the tautological class.

    Stated for fourfold ambients, in closed form from the normal-sequence
    expansion.  Its guard reads only the inputs, so it refuses before the
    resolution or a sequence of the pair is built.  Under the Calabi-Yau
    condition its degree-two head is checked to be ``c2(T) - s_2`` as
    classes, so the closed form is the reduced pair ``(c2(T).c1(dual
    diff).H, c2(T).c2(dual diff) - #Sing)`` by linearity and is not
    evaluated again; without it callers must opt in, since the reduced
    forms no longer apply.  The closed form integrates products of two or
    three ambient classes with ``_pair`` and ``_pair3``, which form no
    product.  Every value is recomputed directly and compared: ``c2 . [Z]``
    is formed once on the quotient bundle as one sum over ``k <= 2`` of
    ``a_k Q_(2-k) [Z] xi^k`` (:class:`Resolution`), with or without a
    relation there; it is pushed down and paired with the polarization, and
    with the tautological class it is paired on the bundle by ``_pair``.
    """
    if inst.d != 4:
        raise GuardError("c2 pairings are defined for dim M = 4 only")
    if inst.polarization is None:
        raise GuardError("c2 pairings need a polarization class")
    if not inst.calabi_yau and not allow_non_cy:
        raise GuardError(
            "the Calabi-Yau condition fails; opt in to the general "
            "normal-sequence expansion (allow_non_cy=True, or "
            "flags.allow_non_cy_c2 in a config) or drop the polarization"
        )
    seq = inst.pair.schur_seq
    hyper = inst.polarization
    _, t1, t2 = inst.ambient.tangent_chern.parts(2)

    # Degree-two head of c(T_Z) pulled down: A + s1 * (tautological class),
    # where A comes from the normal exact sequence of the resolution.  The
    # degree-k part of c(F dual)/c(E dual) is (-1)^k chern_diff[k].
    diff = inst.pair.chern_diff
    head = t2 - diff[1] * t1 + diff[2]
    if inst.calabi_yau:
        _agree("c2 head", normal_sequence=head, calabi_yau=t2 - seq[2])
    closed_h = _pair3(head, seq[1], hyper) + _pair3(seq[1], seq[2], hyper)
    closed = (closed_h, _pair(head, seq[2]) + _pair(seq[1], seq[3]))

    res = inst.resolution
    bundle = res.space
    cycle = sum_of_products(bundle, zip(res.series, res.tangent[2::-1], res.cycles))
    direct = (
        _pair(hyper, bundle.pushforward(cycle)),
        _pair(res.tautological, cycle),
    )
    return C2Pairings(*_agree("c2 pairings", closed=closed, direct=direct))


# -- reports ----------------------------------------------------------------

_GENERAL_WARNING = (
    "genericity of the defining morphism is an input assumption, not verified"
)
_CONNECTED_WARNING = (
    "nodality additionally assumes the hypersurface is irreducible "
    "(equivalently, the resolution is connected); not verified"
)
_ODP_WARNINGS = (
    _GENERAL_WARNING,
    _CONNECTED_WARNING,
    "deeper degeneracy strata are empty for dimension reasons "
    "(expected codimension 9 exceeds 4)",
)


@dataclass
class InvariantReport:
    """Everything the calculator knows about one instance."""

    dim: int
    rank: int
    calabi_yau: bool
    ih_milnor: int
    euler_smooth: int
    euler_ih: int
    euler_resolution: int
    singular_degree: int | None = None
    odp_count: int | None = None
    intersection_numbers: list[int] | None = None
    c2_against_polarization: int | None = None
    c2_against_tautological: int | None = None
    warnings: list[str] = field(default_factory=list)


def build_report(
    inst: Instance,
    allow_non_cy_c2: bool = False,
    assume_general: bool = True,
) -> InvariantReport:
    """Evaluate every invariant the instance supports.

    Intersection numbers need a polarization; the c2 pairings additionally
    need a fourfold and either the Calabi-Yau condition or the explicit
    opt-in, and raise :class:`GuardError` otherwise.  On a polarized
    fourfold :func:`c2_numbers` runs first, and its guard reads only the
    inputs, so a refused report computes no invariant and builds no
    resolution.
    """
    c2 = None
    if inst.d == 4 and inst.polarization is not None:
        c2 = c2_numbers(inst, allow_non_cy_c2)
    euler = euler_numbers(inst)
    report = InvariantReport(
        dim=inst.d,
        rank=inst.pair.rank,
        calabi_yau=inst.calabi_yau,
        ih_milnor=euler.ih_milnor,
        euler_smooth=euler.smooth,
        euler_ih=euler.resolution,
        euler_resolution=euler.resolution,
    )
    if not assume_general:
        report.warnings.append(
            "assume_general is off: every output below is conditional on genericity"
        )
    if inst.d in (4, 5):
        shortcut = ih_milnor_number_small_dim(inst)
        _agree("singular Euler gap", hooks=euler.ih_milnor, shortcut=shortcut)
    if inst.d == 4:
        count = shortcut // 2  # 2 paired with [Sing]: one 2x2 class per report
        report.singular_degree = count
        report.odp_count = count
        report.warnings.extend(_ODP_WARNINGS)
    else:
        report.warnings.append(_GENERAL_WARNING)
    if inst.polarization is not None:
        report.intersection_numbers = intersection_numbers(inst)
    if c2 is not None:
        report.c2_against_polarization, report.c2_against_tautological = c2
        if not inst.calabi_yau:
            report.warnings.append(
                "c2 pairings computed through the general normal-sequence "
                "expansion (Calabi-Yau condition fails)"
            )
    return report
