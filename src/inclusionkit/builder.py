"""Piecewise-affine construction of solutions.

The scalar workhorse is the pyramid function of a factor set F with
0 ∈ int(co F):

    v(x) = min over f ∈ F of (⟨f; x⟩ + 1)

on the base polytope P = {x : ⟨f; x⟩ + 1 ≥ 0 for all f}.  P is bounded
exactly because the origin is interior to co F; v is affine with
gradient f on the region where f attains the min, vanishes on ∂P, is
positive inside, and peaks at value 1 over the origin.  Factors that
are never strictly active contribute empty cells; they are dropped and
reported.

A domain Ω is then filled by a greedy covering with scaled translates
c + s·P at geometrically shrinking scales, pairwise interior-disjoint,
until the uncovered measure is at most δ·|Ω|.  The solution rescales
v on each copy (v_copy(x) = s·v((x−c)/s), which keeps every gradient
exactly in F) and multiplies by a direction vector b, so the full
gradient on a cell is the rank-one matrix b⊗f.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .errors import BudgetExceeded, NotInterior
from .convexity import PointSet, in_interior_of_hull
from .feasibility import FEASIBLE, Verdict
from .geometry import (
    Polytope,
    bounding_box,
    homothet_normals,
    homothets_overlap,
    moments,
    triangulate,
    vertices,
    volume,
)
from .linalg import Mat, Vec, vec, zero_vec
from .products import tensor

DEFAULT_MAX_COPIES = 4096
MAX_SCALE_LEVELS = 48


@dataclass(frozen=True, slots=True)
class Cell:
    """One affine piece: a polytope with an exact affine map on it."""

    polytope: Polytope
    gradient: Mat
    offset: Vec
    copy: int


@dataclass(frozen=True, slots=True)
class CoverCopy:
    """A scaled translate c + s·P of the base polytope."""

    center: Vec
    scale: Fraction


@dataclass(frozen=True, slots=True)
class PiecewiseAffine:
    """A piecewise-affine function as data: cells plus coverage books.

    ``covered + residual = |Ω|`` exactly; the function is zero off the
    cells.  ``b`` is the value direction (length value_dim).
    """

    ambient: int
    value_dim: int
    operator: str | None
    b: Vec
    omega: Polytope
    base: Polytope
    copies: tuple[CoverCopy, ...]
    cells: tuple[Cell, ...]
    covered: Fraction
    residual: Fraction
    delta: Fraction


@dataclass(frozen=True, slots=True)
class PyramidSpec:
    """The min-form data of a pyramid (apex value 1): factors, base, dead factors."""

    factors: tuple[Vec, ...]
    base: Polytope
    redundant: tuple[int, ...]


def build_pyramid(factors: Sequence[Vec]) -> tuple[PyramidSpec, PiecewiseAffine]:
    """Pyramid of a factor set with 0 interior to its hull.

    Raises NotInterior when the certificate is absent (including the
    all-zero factor set, which admits no bounded base).
    """
    fs: list[Vec] = []
    for f in factors:
        if f not in fs:
            fs.append(f)
    n = len(fs[0]) if fs else 0
    nonzero = [f for f in fs if not f.is_zero()]
    if not nonzero:
        raise NotInterior("factor set has no nonzero element")
    if not in_interior_of_hull(PointSet.from_vecs(nonzero, n)):
        raise NotInterior("origin is not interior to the hull of the factors")
    base = Polytope.halfspaces([-f for f in nonzero], [Fraction(1)] * len(nonzero))
    cells: list[Cell] = []
    redundant: list[int] = []
    for idx, f in enumerate(fs):
        if f.is_zero():
            # Never strictly active: the constant term 1 is always beaten.
            redundant.append(idx)
            continue
        normals = [f - g for g in nonzero if g != f] + [-f]
        offsets = [Fraction(0)] * (len(normals) - 1) + [Fraction(1)]
        region = Polytope.halfspaces(normals, offsets)
        # Rows encode <f-g; x> <= 0 and <f; x> >= -1: the set where f
        # attains the min and v stays nonnegative.
        if volume(region) == 0:
            redundant.append(idx)
            continue
        cells.append(Cell(region, Mat(1, n, f.entries), vec(1), 0))
    vol_base = volume(base)
    pw = PiecewiseAffine(
        ambient=n,
        value_dim=1,
        operator=None,
        b=vec(1),
        omega=base,
        base=base,
        copies=(CoverCopy(zero_vec(n), Fraction(1)),),
        cells=tuple(cells),
        covered=vol_base,
        residual=Fraction(0),
        delta=Fraction(0),
    )
    spec = PyramidSpec(tuple(fs), base, tuple(redundant))
    return spec, pw


def vitali_cover(
    omega: Polytope,
    base: Polytope,
    delta: Fraction,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> tuple[CoverCopy, ...]:
    """Greedy interior-disjoint cover of Ω by scaled translates of P.

    Grid placement at scales s₀·2^{-k}, anchored at the bounding-box
    corner of Ω, fully deterministic.  Stops as soon as the uncovered
    measure is at most δ·|Ω|; raises BudgetExceeded if the copy cap (or
    the scale floor) is hit first.  δ ≥ 1 is satisfied by no copies.

    Each copy fills its own grid box, and the grids are dyadically
    nested from one anchor, so a candidate at level m can only clash
    with the copy, if any, in its ancestor box at each level k < m:
    grid index idx >> (m − k).  Two copies clash iff the difference of
    their centers lies in the interior of s₁P + s₂(−P), decided on the
    facet normals of P + (−P) (``homothet_normals``, built on the first
    ancestor found) with no LP.
    """
    if delta >= 1:
        return ()
    vol_omega = volume(omega)
    vol_base = volume(base)
    if vol_base == 0:
        raise ValueError("base polytope must have positive measure")
    target = (1 - delta) * vol_omega
    low_o, high_o = bounding_box(omega)
    low_p, high_p = bounding_box(base)
    n = omega.ambient
    widths_o = [high_o[i] - low_o[i] for i in range(n)]
    widths_p = [high_p[i] - low_p[i] for i in range(n)]
    s0 = min(wo / wp for wo, wp in zip(widths_o, widths_p))
    base_verts = vertices(base)
    omega_is_box = omega.kind == "box"
    normals: list[tuple[Vec, Fraction, Fraction]] | None = None

    placed: list[CoverCopy] = []
    by_box: dict[tuple[int, tuple[int, ...]], CoverCopy] = {}
    covered = Fraction(0)
    for level in range(MAX_SCALE_LEVELS):
        s = s0 / 2**level
        pitch = [s * wp for wp in widths_p]
        counts = [int(wo // p) for wo, p in zip(widths_o, pitch)]
        if all(c == 0 for c in counts):
            continue
        for idx in iter_product(*(range(c) for c in counts)):
            corner = Vec(tuple(low_o[i] + idx[i] * pitch[i] for i in range(n)))
            t = corner - Vec(tuple(s * low_p[i] for i in range(n)))
            if not omega_is_box:
                inside = all(omega.contains(v.scale(s) + t) for v in base_verts)
                if not inside:
                    continue
            clashes = False
            # Nearest ancestor first: the smallest box around the candidate
            # is the likeliest to hold a copy it clashes with.
            for k in reversed(range(level)):
                other = by_box.get((k, tuple(i >> (level - k) for i in idx)))
                if other is None:
                    continue
                if normals is None:
                    normals = homothet_normals(base_verts)
                if homothets_overlap(normals, other.center, other.scale, t, s):
                    clashes = True
                    break
            if clashes:
                continue
            if len(placed) >= max_copies:
                raise BudgetExceeded(
                    f"copy cap {max_copies} reached at uncovered measure "
                    f"{vol_omega - covered} (bound {delta * vol_omega})"
                )
            placed.append(CoverCopy(t, s))
            by_box[level, idx] = placed[-1]
            covered += s**n * vol_base
            if covered >= target:
                return tuple(placed)
    raise BudgetExceeded(
        f"scale floor reached at uncovered measure {vol_omega - covered} "
        f"(bound {delta * vol_omega})"
    )


def build_scalar_solution(
    factors: Sequence[Vec],
    omega: Polytope,
    delta: Fraction,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> PiecewiseAffine:
    """Scalar v ≥ 0 on Ω, zero outside a cover, gradients exactly in F.

    A factor set that is exactly {0} returns the zero function (the
    inclusion admits it trivially); any richer set must put the origin
    in the interior of its hull.
    """
    fs: list[Vec] = []
    for f in factors:
        if f not in fs:
            fs.append(f)
    n = omega.ambient
    if all(f.is_zero() for f in fs):
        return PiecewiseAffine(
            ambient=n,
            value_dim=1,
            operator=None,
            b=vec(1),
            omega=omega,
            base=omega,
            copies=(),
            cells=(),
            covered=Fraction(0),
            residual=volume(omega),
            delta=delta,
        )
    spec, pyramid = build_pyramid(fs)
    copies = vitali_cover(omega, spec.base, delta, max_copies)
    cells: list[Cell] = []
    covered = Fraction(0)
    for k, copy in enumerate(copies):
        s, c = copy.scale, copy.center
        for cell in pyramid.cells:
            poly = cell.polytope.scale_translate(s, c)
            f = cell.gradient.row(0)
            offset = vec(s - f.dot(c))
            cells.append(Cell(poly, cell.gradient, offset, k))
        covered += s**n * pyramid.covered
    return PiecewiseAffine(
        ambient=n,
        value_dim=1,
        operator=None,
        b=vec(1),
        omega=omega,
        base=spec.base,
        copies=copies,
        cells=tuple(cells),
        covered=covered,
        residual=volume(omega) - covered,
        delta=delta,
    )


def assemble_solution(
    verdict: Verdict,
    omega: Polytope,
    delta: Fraction,
    operator: str,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> PiecewiseAffine:
    """Vector solution u = v·b from a feasible verdict.

    Cell gradients become b⊗f with offsets scaled along b, so the
    gradient inclusion (or its symmetrization b∨f) lands exactly in E.
    """
    if verdict.status != FEASIBLE:
        raise ValueError("assemble_solution needs a feasible verdict")
    scalar = build_scalar_solution(verdict.factors, omega, delta, max_copies)
    b = verdict.b
    cells = tuple(
        Cell(
            cell.polytope,
            tensor(b, cell.gradient.row(0)),
            b.scale(cell.offset[0]),
            cell.copy,
        )
        for cell in scalar.cells
    )
    return replace(scalar, value_dim=len(b), operator=operator, b=b, cells=cells)


def integrate(pw: PiecewiseAffine) -> Fraction | Vec:
    """∫ u over Ω, exactly; a Fraction for scalar functions."""
    total = zero_vec(pw.value_dim)
    for cell in pw.cells:
        vol, first = moments(triangulate(cell.polytope, vertices(cell.polytope)))
        if vol:
            total = total + cell.gradient.matvec(first) + cell.offset.scale(vol)
    if pw.value_dim == 1:
        return total[0]
    return total
