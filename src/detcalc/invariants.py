"""Invariants of determinantal hypersurfaces cut out by square bundle morphisms.

Everything is computed on an :class:`Instance`: an ambient space of
dimension at least four, an equal-rank bundle pair (E, F), and an optional
degree-one polarization class.  The hypersurface is the divisor where a
generic morphism E -> F drops rank; its singular locus is the next
degeneracy stratum.  All results assume the morphism is generic in the
transversality sense (each stratum smooth of expected codimension); that
assumption is surfaced in report warnings, never verified.

Each reported number is compared across two routes; a mismatch aborts,
since it can only mean a convention bug.  Intersection numbers and ``c2``
pairings: a closed form on the ambient space against a direct integral on
the rank-one-quotient bundle carrying the small resolution.  Euler numbers:
the power identity that :func:`euler_numbers` checks in every weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import NamedTuple

from .bundles import VirtualPair
from .chow import AmbientSpace, ChowClass, proj_bundle
from .partitions import conjugate, supersets_of, syt_count
from .schur import hook_schur, schur


class GuardError(ValueError):
    """A formula was requested outside its domain of validity."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree did not; the ring conventions are broken."""


def _integer(value: int, what: str) -> int:
    """Guard at an integration boundary: a non-integral rational is a bug."""
    if value.denominator != 1:
        raise ConsistencyError(f"{what} evaluated to the non-integer {value}")
    return int(value)


class Resolution(NamedTuple):
    """The small resolution as a zero locus in the quotient bundle ``space``:
    ``normal`` is the total Chern class of its normal bundle and ``locus``
    its fundamental class, the top part of ``normal``."""

    space: AmbientSpace
    normal: ChowClass
    locus: ChowClass


class Instance:
    """One evaluation problem: ambient space, bundle pair, optional polarization."""

    def __init__(
        self,
        ambient: AmbientSpace,
        pair: VirtualPair,
        polarization: ChowClass | None = None,
    ):
        if pair.ambient is not ambient:
            raise ValueError("bundle pair lives on a different ambient space")
        if ambient.dim < 4:
            raise GuardError("the ambient space must have dimension at least 4")
        if pair.rank < 2:
            raise GuardError("the bundle rank must be at least 2")
        if polarization is not None:
            if polarization.ambient is not ambient:
                raise ValueError("polarization lives on a different ambient space")
            if not polarization.is_homogeneous(1):
                raise ValueError("polarization must be homogeneous of degree one")
        self.ambient = ambient
        self.pair = pair
        self.polarization = polarization

    @property
    def d(self) -> int:
        return self.ambient.dim

    @property
    def n(self) -> int:
        return self.pair.rank - 1

    @cached_property
    def resolution(self) -> Resolution:
        """The small resolution inside the rank-one-quotient bundle of F: the
        zero locus of the pulled-back dual of E twisted by the tautological
        class, built in one step so that its classes share one space."""
        space = proj_bundle(self.ambient, self.pair.F)
        twisted = self.pair.E.dual().pullback_to(space).twist(space.fiber_class())
        normal = twisted.total_chern()
        return Resolution(space, normal, normal.part(self.pair.rank))

    def __repr__(self):
        return f"Instance(rank {self.pair.rank} pair on {self.ambient!r})"


# -- scalar invariants -----------------------------------------------------


def euler_smooth_hypersurface(space: AmbientSpace, divisor: ChowClass) -> int:
    """Topological Euler characteristic of a smooth divisor in the given class.

    Integrates ``divisor * (1 + divisor)^(-1) * c(T)`` over the space.
    """
    if divisor.ambient is not space:
        raise ValueError("divisor class lives on a different space")
    if not divisor.is_homogeneous(1):
        raise ValueError("divisor class must be homogeneous of degree one")
    integrand = divisor * (space.one() + divisor).inverse() * space.tangent_chern
    return _integer(space.integrate(integrand), "smooth-hypersurface Euler number")


def porteous_class(inst: Instance) -> ChowClass:
    """Class of the singular locus of the determinantal hypersurface.

    By Thom-Porteous, the locus where the morphism has rank at most
    ``n - 1``: the square shape of side ``rank - (n - 1) = 2`` evaluated on
    the pair's Schur sequence.
    """
    return schur((2, 2), inst.pair.schur_seq)


def porteous_degree(inst: Instance) -> int:
    """Number of points of the singular locus when it is zero-dimensional.

    Only defined for fourfold ambients, where the singular locus has
    expected codimension exactly four.
    """
    if inst.d != 4:
        raise GuardError(
            "the singular locus is a zero-cycle only when dim M = 4; "
            "use porteous_class for the class itself"
        )
    return _integer(
        inst.ambient.integrate(porteous_class(inst)), "singular-point count"
    )


def is_calabi_yau(inst: Instance) -> bool:
    """True when the hypersurface class equals the first Chern class of the
    tangent bundle, so the hypersurface has trivial canonical class."""
    tangent_c1 = inst.ambient.tangent_chern.part(1)
    return tangent_c1 == inst.pair.hypersurface_class()


class EulerNumbers(NamedTuple):
    """Euler numbers of the hypersurface: a smooth one in the same class, the
    signed singular gap, and the small resolution, whose Euler number is the
    intersection-homology one: ``resolution = smooth + (-1)^d ih_milnor``."""

    smooth: int
    ih_milnor: int
    resolution: int


def euler_numbers(inst: Instance) -> EulerNumbers:
    """The three Euler numbers from one loop over the weights ``w = 1 .. d``.

    In weight w the three integrands are the parts of the identity
    ``D^w = s_1^w = sum_{|lam| = w} f^lam s_lam`` (Macdonald, Ch. I), where
    ``f^lam`` counts standard tableaux and the hypersurface class ``D`` is
    taken from the bundles' roots.  ``D^w`` gives the smooth number.  The
    hooks, the shapes that do not contain the 2x2 square, give the
    resolution through the closed form ``hook_schur``, with ``f = C(w-1, b)``.
    The other shapes give the gap, each by a cofactor ``schur`` on its short
    side: a shape with more rows than columns goes through its conjugate on
    the dual sequence ``chern_diff`` (dual Jacobi-Trudi), since cofactor
    expansion costs about ``2**rows``.

    The identity is checked as classes in every weight; a mismatch raises
    :class:`ConsistencyError`.  Each sum is then paired once with
    ``c_(d-w)(T)``, with sign ``(-1)^(w-1)`` for the smooth and resolution
    numbers and ``(-1)^(d+w)`` for the gap.
    """
    d = inst.d
    seq = inst.pair.schur_seq
    dual = inst.pair.chern_diff
    space = inst.ambient
    divisor = inst.pair.hypersurface_class()
    power = space.one()
    smooth = gap = resolution = 0
    for weight in range(1, d + 1):
        power = power * divisor
        if not power.is_homogeneous(weight):
            raise ConsistencyError(f"inhomogeneous power of D in weight {weight}")
        hooks = space.zero()
        for leg in range(weight):
            hook = hook_schur(weight - 1 - leg, leg, seq, dual)
            hooks = hooks + comb(weight - 1, leg) * hook
        rest = space.zero()
        for lam in supersets_of((2, 2), weight):
            if len(lam) > lam[0]:
                cls = schur(conjugate(lam), dual)
            else:
                cls = schur(lam, seq)
            if not cls.is_zero():
                rest = rest + syt_count(lam) * cls
        if power != hooks + rest:
            raise ConsistencyError(
                f"weight {weight}: D^{weight} != hooks + shapes containing (2,2)"
            )
        tangent_part = space.tangent_chern.part(d - weight)
        sign = (-1) ** (weight - 1)
        smooth += sign * space.integrate(power * tangent_part)
        resolution += sign * space.integrate(hooks * tangent_part)
        gap += (-1) ** (d + weight) * space.integrate(rest * tangent_part)
    return EulerNumbers(
        _integer(smooth, "smooth-hypersurface Euler number"),
        _integer(gap, "singular Euler gap"),
        _integer(resolution, "resolution Euler number"),
    )


def ih_milnor_number_small_dim(inst: Instance) -> int:
    """Shortcut for the singular Euler gap: ``(dim - 2)`` times the degree of
    the tangent class against the singular locus.

    Valid for fourfolds, and for fivefolds satisfying the Calabi-Yau
    condition; refused elsewhere, where no such reduction holds.
    """
    d = inst.d
    if d == 5 and not is_calabi_yau(inst):
        raise GuardError(
            "the dimension-5 shortcut needs the Calabi-Yau condition "
            "c1(T) = c1(F) - c1(E)"
        )
    if d not in (4, 5):
        raise GuardError(
            "the shortcut formula is only available for dim M = 4, or dim M = 5 "
            "with the Calabi-Yau condition; use euler_numbers instead"
        )
    integrand = (inst.ambient.tangent_chern * porteous_class(inst)).part(d)
    return _integer(
        (d - 2) * inst.ambient.integrate(integrand), "singular Euler gap shortcut"
    )


# -- intersection numbers on the resolution ---------------------------------


def intersection_numbers(inst: Instance) -> list[int]:
    """Pairings ``H^k . L^(d-1-k)`` on the resolution for ``k = 0 .. d-1``.

    ``H`` pulls back the polarization, ``L`` is the tautological class of
    the quotient bundle.  Each value is computed in closed form on the
    ambient space (``H^k`` against the complementary dual-difference Chern
    class) and again directly on the quotient bundle; the routes must agree.
    """
    if inst.polarization is None:
        raise GuardError("intersection numbers need a polarization class")
    d = inst.d
    space = inst.ambient
    seq = inst.pair.schur_seq
    hyper = inst.polarization

    bundle_space, _, locus = inst.resolution
    tautological = bundle_space.fiber_class()

    hyper_pows = [space.one()]
    taut_pows = [bundle_space.one()]
    for _ in range(d - 1):
        hyper_pows.append(hyper_pows[-1] * hyper)
        taut_pows.append(taut_pows[-1] * tautological)

    values = []
    for k in range(d):
        closed = space.integrate(hyper_pows[k] * seq[d - k])
        direct = bundle_space.integrate(
            taut_pows[d - 1 - k] * bundle_space.pullback(hyper_pows[k]) * locus
        )
        if closed != direct:
            raise ConsistencyError(
                f"intersection number k={k}: closed form {closed} != direct {direct}"
            )
        values.append(_integer(closed, f"intersection number k={k}"))
    return values


class C2Pairings(NamedTuple):
    """Pairings of the second Chern class of the resolution's tangent bundle."""

    against_polarization: int
    against_tautological: int


def c2_numbers(inst: Instance, allow_non_cy: bool = False) -> C2Pairings:
    """Pair ``c2`` of the resolution's tangent bundle with the pulled-back
    polarization and with the tautological class.

    Stated for fourfold ambients.  Under the Calabi-Yau condition the pair
    reduces to ``(c2(T).c1(dual diff).H, c2(T).c2(dual diff) - #Sing)`` on
    the ambient space; without it the general normal-sequence expansion is
    used, and callers must opt in since the simple forms no longer apply.
    Every value is recomputed directly on the quotient bundle and compared.
    """
    if inst.d != 4:
        raise GuardError("c2 pairings are defined for dim M = 4 only")
    if inst.polarization is None:
        raise GuardError("c2 pairings need a polarization class")
    cy = is_calabi_yau(inst)
    if not cy and not allow_non_cy:
        raise GuardError(
            "the Calabi-Yau condition fails; opt in to the general "
            "normal-sequence expansion (allow_non_cy=True, or "
            "flags.allow_non_cy_c2 in a config) or drop the polarization"
        )
    space = inst.ambient
    seq = inst.pair.schur_seq
    hyper = inst.polarization
    tangent = space.tangent_chern

    # Degree-two head of c(T_Z) pulled down: A + s1 * (tautological class),
    # where A comes from the normal exact sequence of the resolution.  The
    # degree-k part of c(F dual)/c(E dual) is (-1)^k chern_diff[k].
    diff = inst.pair.chern_diff
    head = tangent.part(2) - diff[1] * tangent.part(1) + diff[2]
    if cy:
        simplified = tangent.part(2) - seq[2]
        if head != simplified:
            raise ConsistencyError(
                "Calabi-Yau simplification of the c2 head does not match"
            )
    closed_h = space.integrate(((head * seq[1] + seq[1] * seq[2]) * hyper).part(4))
    closed_l = space.integrate((head * seq[2] + seq[1] * seq[3]).part(4))

    if cy:
        reduced_h = space.integrate((tangent.part(2) * seq[1] * hyper).part(4))
        reduced_l = space.integrate(
            (tangent.part(2) * seq[2]).part(4)
        ) - inst.ambient.integrate(porteous_class(inst))
        if (closed_h, closed_l) != (reduced_h, reduced_l):
            raise ConsistencyError("c2 closed forms disagree with the reduced forms")

    bundle_space, normal, locus = inst.resolution
    tautological = bundle_space.fiber_class()
    # c(T_Z) = c(T_P(F)) / c(N_Z), by the normal exact sequence
    c2_part = (bundle_space.tangent_chern * normal.inverse()).part(2)
    direct_h = bundle_space.integrate(c2_part * bundle_space.pullback(hyper) * locus)
    direct_l = bundle_space.integrate(c2_part * tautological * locus)
    if (closed_h, closed_l) != (direct_h, direct_l):
        raise ConsistencyError(
            f"c2 pairings: closed ({closed_h}, {closed_l}) != "
            f"direct ({direct_h}, {direct_l})"
        )
    return C2Pairings(
        _integer(closed_h, "c2 against polarization"),
        _integer(closed_l, "c2 against tautological class"),
    )


# -- reports ----------------------------------------------------------------

_GENERAL_WARNING = (
    "genericity of the defining morphism is an input assumption, not verified"
)
_CONNECTED_WARNING = (
    "nodality additionally assumes the hypersurface is irreducible "
    "(equivalently, the resolution is connected); not verified"
)
_DEEP_STRATUM_NOTE = (
    "deeper degeneracy strata are empty for dimension reasons "
    "(expected codimension 9 exceeds 4)"
)


def odp_report(inst: Instance) -> tuple[int, list[str]]:
    """Count of ordinary double points of the hypersurface on a fourfold.

    A generic square morphism on a fourfold yields a hypersurface whose only
    singularities are nodes, one per point of the singular locus, so the
    count is the singular-locus degree.  The accompanying warnings record
    the hypotheses this conclusion rides on.
    """
    if inst.d != 4:
        raise GuardError("the node count is defined for dim M = 4 only")
    return porteous_degree(inst), [
        _GENERAL_WARNING,
        _CONNECTED_WARNING,
        _DEEP_STRATUM_NOTE,
    ]


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
    opt-in, and raise :class:`GuardError` otherwise.
    """
    euler = euler_numbers(inst)
    cy = is_calabi_yau(inst)
    report = InvariantReport(
        dim=inst.d,
        rank=inst.pair.rank,
        calabi_yau=cy,
        ih_milnor=euler.ih_milnor,
        euler_smooth=euler.smooth,
        euler_ih=euler.resolution,
        euler_resolution=euler.resolution,
    )
    if not assume_general:
        report.warnings.append(
            "assume_general is off: every output below is conditional on genericity"
        )
    if inst.d == 4 or (inst.d == 5 and cy):
        if euler.ih_milnor != ih_milnor_number_small_dim(inst):
            raise ConsistencyError("tableau sum disagrees with the shortcut formula")
    if inst.d == 4:
        count, warnings = odp_report(inst)
        report.singular_degree = count
        report.odp_count = count
        report.warnings.extend(warnings)
    else:
        report.warnings.append(_GENERAL_WARNING)
    if inst.polarization is not None:
        report.intersection_numbers = intersection_numbers(inst)
        if inst.d == 4:
            pairings = c2_numbers(inst, allow_non_cy=allow_non_cy_c2)
            report.c2_against_polarization = pairings.against_polarization
            report.c2_against_tautological = pairings.against_tautological
            if not cy:
                report.warnings.append(
                    "c2 pairings computed through the general normal-sequence "
                    "expansion (Calabi-Yau condition fails)"
                )
    return report
