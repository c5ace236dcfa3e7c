"""Invariants of determinantal hypersurfaces cut out by square bundle morphisms.

Everything is computed on an :class:`Instance`: an ambient space of
dimension at least four, an equal-rank bundle pair (E, F), and an optional
degree-one polarization class.  The hypersurface is the divisor where a
generic morphism E -> F drops rank; its singular locus is the next
degeneracy stratum.  The quantities several invariants share are built
once, by the constructors: the pair's divisor class ``D = c1(F) - c1(E)``,
and the instance's Calabi-Yau test ``c1(T) == D``, small resolution with
its tangent class ``c(T_Z)``, and the two Chern-class sequences of the
pair on the ring the report runs on.
The functions here only read them.  All results assume the morphism is
generic in the transversality sense (each stratum smooth of expected
codimension); that assumption is surfaced in report warnings, never
verified.

A mismatch of two routes aborts, since it can only mean a convention bug.
Every comparison goes through one helper, which names each route with its
value, as in ``singular Euler gap: hooks 92, shortcut 94``.
Intersection numbers and ``c2`` pairings: a closed form on the ambient
space against a direct route through the rank-one-quotient bundle
carrying the small resolution, where each cycle is pushed down to the
ambient space and paired there (the projection formula).  The bundle is
``P(F (x) L^-1)`` for the root ``L`` that F repeats most, which shortens
its relation.  The resolution's Euler number: the hook sum of
:func:`euler_numbers` against ``chi(Z)`` integrated on that bundle.  The
direct ``chi(Z)`` and ``c2`` cycle both read ``c(T_Z) [Z]`` in the one
form of :class:`Resolution`; a relation on the bundle decides only whether
``chi(Z)`` is paired there or multiplied out.  The smooth number and the
singular gap have a second route, the shortcut of
:func:`ih_milnor_number_small_dim`, on fourfolds and Calabi-Yau fivefolds
only.  A report forms one Schur class, the 2x2 class of
:func:`porteous_class`, on fourfolds and Calabi-Yau fivefolds, else none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod
from typing import NamedTuple

from .bundles import BundleSpec, VirtualPair
from .chow import AmbientSpace, ChowClass, _pair, _pair3, divide_by_roots, proj_bundle
from .chow import restrict_to_blocks, sum_of_products
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
    """The small resolution as a zero locus in the quotient bundle ``space``:
    ``normal_roots`` are the first Chern classes ``xi - e_i`` of the summands
    of its normal bundle, ``tautological`` is ``xi = zeta + c1(L)`` on
    ``space = P(F (x) L^-1)`` with fiber class ``zeta`` (:class:`Instance`
    picks ``L``), and ``cycles`` are ``[Z] xi^j``: ``[Z]``, the roots'
    product, and every ``j < d`` when ``p > 0`` or there is a polarization.
    One rule on every bundle, with a relation or without: by the normal
    exact sequence ``c(T_Z) [Z] = Q sum_k a_k [Z] xi^k``, where the ``p``
    normal roots equal to ``xi`` (the trivial summands of E) give
    ``series``, the ``a_k`` of ``1 / (1 + t)^p`` for ``k < d`` (``[1]``
    when ``p = 0``), and only the others divide ``c(T_P(F))`` into ``Q``,
    whose parts ``0 .. d-1`` are ``tangent`` (empty when none divides).
    ``space`` is a bundle over the ring the report runs on,
    ``Instance.ring.ambient``: the block ring when there is one."""

    space: AmbientSpace
    normal_roots: tuple[ChowClass, ...]
    tangent: list[ChowClass]
    tautological: ChowClass
    cycles: list[ChowClass]
    series: list[int]


class Instance:
    """One evaluation problem: ambient space, bundle pair, optional polarization.

    ``calabi_yau`` is True when the hypersurface class equals the first
    Chern class of the tangent bundle, so the hypersurface has trivial
    canonical class; it is the pair's test.  The small resolution is
    computed here, and so are the pair's two sequences on :attr:`ring`'s
    pair; the caller's pair divides none when the ring is the block ring.

    Every report route runs on :attr:`ring`, chosen from the inputs alone.
    ``ambient``, ``pair`` and ``polarization`` stay what the caller passed;
    ``resolution`` is the ring's.
    """

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
            # O(a_1, ..., a_n) is ample exactly when every a_i >= 1; a_i is its
            # degree on a line of factor i, its coefficient on generator i
            degrees = zip(ambient.caps, ambient.coefficients(polarization))
            for i, (c, a) in enumerate(degrees):
                if c and a < 1:
                    msg = f"polarization is not ample: degree below 1 on factor {i + 1}"
                    raise ValueError(msg)
        self.ambient = ambient
        self.pair = pair
        self.polarization = polarization
        self.calabi_yau = pair.calabi_yau
        # Inputs constant on a block of P^1 factors run on the block ring.
        r = pair.rank
        restricted = restrict_to_blocks([*pair.E.roots, *pair.F.roots, polarization])
        if restricted:
            space = restricted[0].ambient
            E = BundleSpec(space, restricted[:r])
            F = BundleSpec(space, restricted[r:-1])
            self._block = Instance(space, VirtualPair(E, F), restricted[-1])
            self.resolution = self._block.resolution
            return
        self._block = None  # not self: a cycle would outlive its last reference
        pair.chern_diff, pair.schur_seq  # divided on the ring the report runs on
        # The small resolution inside the rank-one-quotient bundle of F: the
        # zero locus of E dual pulled back and twisted by the tautological
        # class xi, built in one step so that its classes share one space,
        # with its tangent class divided by one normal root at a time.
        # P(F) = P(F (x) L^-1) with xi = zeta + c1(L) (Hartshorne II.7.9), and
        # each copy of L in F drops a factor from the relation, so L is the
        # root F repeats most, and O when no root repeats or O ties it.
        F, zero = pair.F, ambient.zero()
        f = max((zero, *F.roots), key=F.roots.count)
        f = f if F.roots.count(f) > 1 else zero
        space = proj_bundle(ambient, F.twist(-f))
        xi = space.fiber_class() + space.pullback(f)
        roots = pair.E.dual().pullback_to(space).twist(xi).roots
        # Only the roots that are not xi divide c(T_P); the p that are stay
        # with [Z] as the series 1 / (1 + xi)^p, with a relation or without.
        d = ambient.dim
        divided = [m for m in roots if m != xi]
        p = len(roots) - len(divided)
        series = [(-1) ** k * comb(k + p - 1, k) for k in range(d)] if p else [1]
        tangent = divided and divide_by_roots(space.tangent_chern.parts(d - 1), divided)
        cycles = [prod(roots, start=space.one())]
        if p or polarization is not None:
            for _ in range(d - 1):
                cycles.append(cycles[-1] * xi)
        self.resolution = Resolution(space, roots, tangent, xi, cycles, series)

    @property
    def ring(self) -> "Instance":
        """The instance restricted to the block ring (``chow.block_space``)
        when the pair's roots and the polarization are constant on a block
        of two or more P^1 factors, with ``prod (n_b + 1)`` basis elements
        in place of ``2^n``; else the instance itself.  Every class a report
        builds is then symmetric in each block, so every number is the
        same on both rings."""
        return self._block or self

    @property
    def d(self) -> int:
        return self.ambient.dim

    def __repr__(self):
        return f"Instance(rank {self.pair.rank} pair on {self.ambient!r})"


# -- scalar invariants -----------------------------------------------------


def euler_smooth_hypersurface(space: AmbientSpace, divisor: ChowClass) -> int:
    """Topological Euler characteristic of a smooth divisor in the given class.

    Integrates ``D * c(T) / (1 + D)`` over the space, on a base or a bundle
    space alike: the parts of ``c(T)`` below the top degree are divided by
    the one root ``D`` (:func:`divide_by_roots`), and only ``D`` times the
    quotient's degree-``(d-1)`` part reaches the top.  On a point, where
    no degree ``d - 1`` exists, the divisor is empty and the number is 0.
    """
    if divisor.ambient is not space:
        raise ValueError("divisor class lives on a different space")
    if not divisor.is_homogeneous(1):
        raise ValueError("divisor class must be homogeneous of degree one")
    if space.dim == 0:
        return 0
    quotient = divide_by_roots(space.tangent_chern.parts(space.dim - 1), [divisor])
    return space.integrate(divisor * quotient[-1])


def porteous_class(inst: Instance) -> ChowClass:
    """Class of the singular locus of the determinantal hypersurface.

    By Thom-Porteous, the locus where the morphism has rank at most
    ``rank - 2``: the square shape of side 2 on the pair's Schur sequence,
    ``s_2 s_2 - s_1 s_3``, on ``inst.ambient``; the report routes pass
    ``inst.ring``.
    """
    s = inst.pair.schur_seq
    return sum_of_products(inst.ambient, [(1, s[2], s[2]), (-1, s[1], s[3])])


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
    inst = inst.ring
    return inst.ambient.integrate(porteous_class(inst))


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
    Each of ``D^w`` and the hooks is paired once with ``c_(d-w)(T)``, with
    sign ``(-1)^(w-1)``; from weight 4 the hooks are not formed, and
    :func:`~detcalc.schur.hook_pairing` integrates each product
    ``h_a e_(w-a) c_(d-w)(T)`` with ``chow._pair3``.  The other shapes
    give the gap, paired with sign ``(-1)^(d+w)``; as they are
    ``D^w - hooks``, the gap is ``(-1)^d (resolution - smooth)`` and no
    determinant runs.

    The resolution number is compared with ``chi(Z)``, integrated directly
    on the quotient bundle from the terms ``a_k Q_(d-1-k)`` and ``[Z] xi^k``
    of :class:`Resolution`: with no relation there, each pair is paired;
    with one, ``c_(d-1)(T_Z)``, their sum without ``[Z]``, is formed by
    Horner in ``xi`` and multiplied by the normal roots one at a time.
    In weights 1 to 3 every shape is a hook, so ``D^w == hooks`` is also
    checked as classes; that ties the roots to the pair's sequences.  A
    mismatch raises :class:`ConsistencyError`.
    """
    inst = inst.ring
    d = inst.d
    seq = inst.pair.schur_seq
    dual = inst.pair.chern_diff
    space = inst.ambient
    divisor = inst.pair.hypersurface_class
    tangent = space.tangent_chern.parts()
    power = space.one()
    smooth = resolution = 0
    low_weights = []  # (w, D^w, hooks) for w <= 3, where every shape is a hook
    for weight in range(1, d + 1):
        power = power * divisor
        if not power.is_homogeneous(weight):
            raise ConsistencyError(f"inhomogeneous power of D in weight {weight}")
        sign, t = (-1) ** (weight - 1), tangent[d - weight]
        smooth += sign * _pair(power, t)
        if weight <= 3:
            hooks = hook_sum(weight, seq, dual)
            low_weights.append((weight, power, hooks))
            resolution += sign * _pair(hooks, t)
        else:
            resolution += sign * hook_pairing(weight, seq, dual, t)
    res = inst.resolution
    if res.space.has_relation:
        # c_(d-1)(T_Z) = sum_k a_k xi^k Q_(d-1-k) by Horner in xi (Q_(d-1)
        # itself when p = 0), then times one normal root at a time
        bundle, xi, one = res.space, res.tautological, res.space.one()
        parts = res.tangent or bundle.tangent_chern.parts(d - 1)
        top, *rest = reversed(res.series)
        integrand = parts[d - 1 - len(rest)] * top
        for a, t in zip(rest, parts[d - len(rest) :]):
            integrand = sum_of_products(bundle, [(1, integrand, xi), (a, t, one)])
        direct = bundle.integrate(prod(res.normal_roots, start=integrand))
    else:
        # [Z] xi^k has degree r + k: it meets only the part d-1-k of the
        # quotient, or of the whole c(T_P) where no root is divided
        parts = res.tangent or [res.space.tangent_chern] * d
        terms = zip(res.series, res.cycles, reversed(parts))
        direct = sum(a * _pair(cycle, t) for a, cycle, t in terms)
    _agree("resolution Euler number", hooks=resolution, direct=direct)
    for weight, power, hooks in low_weights:
        _agree(f"weight {weight}", power=power, hooks=hooks)
    return EulerNumbers(smooth, (-1) ** d * (resolution - smooth), resolution)


def ih_milnor_number_small_dim(inst: Instance) -> int:
    """Shortcut for the singular Euler gap: ``(dim - 2)`` times the degree of
    the tangent class against the singular locus.

    Valid for fourfolds, where it is twice :func:`porteous_degree`, and for
    Calabi-Yau fivefolds; refused elsewhere, where no such reduction holds.
    """
    inst = inst.ring
    d = inst.d
    if d == 5 and not inst.calabi_yau:
        raise GuardError(
            "the dimension-5 shortcut needs the Calabi-Yau condition "
            "c1(T) = c1(F) - c1(E)"
        )
    if d not in (4, 5):
        raise GuardError(
            "the shortcut formula is only available for dim M = 4, or dim M = 5 "
            "with the Calabi-Yau condition; use euler_numbers instead"
        )
    return (d - 2) * _pair(inst.ambient.tangent_chern, porteous_class(inst))


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
    inst = inst.ring
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

    Stated for fourfold ambients.  Under the Calabi-Yau condition the pair
    reduces to ``(c2(T).c1(dual diff).H, c2(T).c2(dual diff) - #Sing)`` on
    the ambient space; without it the general normal-sequence expansion is
    used, and callers must opt in since the simple forms no longer apply.
    Every value is recomputed directly and compared: ``c2 . [Z]`` is formed
    once on the quotient bundle as one sum over ``k <= 2`` of ``a_k Q_(2-k)
    [Z] xi^k`` (:class:`Resolution`), with or without a relation there, and
    it and its product with the tautological class are pushed down.
    """
    _check_c2_guard(inst.d, inst.polarization, inst.calabi_yau, allow_non_cy)
    return _c2_numbers(inst, None)


def _check_c2_guard(
    d: int, polarization: ChowClass | None, calabi_yau: bool, allow_non_cy: bool
) -> None:
    """Raise :class:`GuardError` unless the c2 pairings are defined and, off
    the Calabi-Yau condition, opted into.  It reads only the inputs, so the
    command line checks it before the :class:`Instance` is built."""
    if d != 4:
        raise GuardError("c2 pairings are defined for dim M = 4 only")
    if polarization is None:
        raise GuardError("c2 pairings need a polarization class")
    if not calabi_yau and not allow_non_cy:
        raise GuardError(
            "the Calabi-Yau condition fails; opt in to the general "
            "normal-sequence expansion (allow_non_cy=True, or "
            "flags.allow_non_cy_c2 in a config) or drop the polarization"
        )


def _c2_numbers(inst: Instance, singular) -> C2Pairings:
    """:func:`c2_numbers` past its guard, given the singular-point count (an
    int, or None to compute it).  The closed and reduced forms integrate
    products of two or three ambient classes with ``_pair`` and ``_pair3``,
    which form no product."""
    inst = inst.ring
    cy = inst.calabi_yau
    space = inst.ambient
    seq = inst.pair.schur_seq
    hyper = inst.polarization
    _, t1, t2 = space.tangent_chern.parts(2)

    # Degree-two head of c(T_Z) pulled down: A + s1 * (tautological class),
    # where A comes from the normal exact sequence of the resolution.  The
    # degree-k part of c(F dual)/c(E dual) is (-1)^k chern_diff[k].
    diff = inst.pair.chern_diff
    head = t2 - diff[1] * t1 + diff[2]
    if cy:
        _agree("c2 head", normal_sequence=head, calabi_yau=t2 - seq[2])
    closed_h = _pair3(head, seq[1], hyper) + _pair3(seq[1], seq[2], hyper)
    routes = {"closed": (closed_h, _pair(head, seq[2]) + _pair(seq[1], seq[3]))}
    if cy:
        if singular is None:
            singular = porteous_degree(inst)
        routes["reduced"] = (_pair3(t2, seq[1], hyper), _pair(t2, seq[2]) - singular)

    res = inst.resolution
    bundle_space = res.space
    tangent = res.tangent or bundle_space.tangent_chern.parts(2)
    cycle = sum_of_products(bundle_space, zip(res.series, tangent[2::-1], res.cycles))
    routes["direct"] = (
        _pair(hyper, bundle_space.pushforward(cycle)),
        space.integrate(bundle_space.pushforward(cycle * res.tautological)),
    )
    return C2Pairings(*_agree("c2 pairings", **routes))


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
    opt-in, and raise :class:`GuardError` otherwise, before any invariant
    is computed.
    """
    if inst.d == 4 and inst.polarization is not None:
        _check_c2_guard(4, inst.polarization, inst.calabi_yau, allow_non_cy_c2)
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
    if inst.d == 4 or (inst.d == 5 and inst.calabi_yau):
        shortcut = ih_milnor_number_small_dim(inst)
        _agree("singular Euler gap", hooks=euler.ih_milnor, shortcut=shortcut)
    if inst.d == 4:
        count = shortcut // 2  # twice porteous_degree: one 2x2 class per report
        report.singular_degree = count
        report.odp_count = count
        report.warnings.extend(_ODP_WARNINGS)
    else:
        report.warnings.append(_GENERAL_WARNING)
    if inst.polarization is not None:
        report.intersection_numbers = intersection_numbers(inst)
        if inst.d == 4:
            pairings = _c2_numbers(inst, count)
            report.c2_against_polarization = pairings.against_polarization
            report.c2_against_tautological = pairings.against_tautological
            if not inst.calabi_yau:
                report.warnings.append(
                    "c2 pairings computed through the general normal-sequence "
                    "expansion (Calabi-Yau condition fails)"
                )
    return report
