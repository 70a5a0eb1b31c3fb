"""Piecewise-affine construction of solutions.

The scalar workhorse is the pyramid function of a factor set F with
0 ∈ int(co F):

    v(x) = min over f ∈ F of (⟨f; x⟩ + 1)

on the base polytope P = {x : ⟨f; x⟩ + 1 ≥ 0 for all f}.  P is bounded
exactly because the origin is interior to co F; v is affine with
gradient f on the region where f attains the min, vanishes on ∂P, is
positive inside, and peaks at value 1 over the origin.  Factors whose
row is tight on no facet of P have empty cells (``build_pyramid``);
they are dropped and reported.

A domain Ω is then filled by a greedy covering with scaled translates
c + s·P at geometrically shrinking scales, pairwise interior-disjoint,
until the uncovered measure is at most δ·|Ω|.  The solution rescales
v on each copy (v_copy(x) = s·v((x−c)/s), which keeps every gradient
exactly in F) and multiplies by a direction vector b, so the full
gradient on a cell is the rank-one matrix b⊗f.  One function builds every
solution from a feasible verdict (``assemble_solution``); b = (1) is scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from operator import mul
from typing import Sequence

from .errors import BudgetExceeded, NotInterior
from .convexity import PointSet, in_interior_of_hull
from .feasibility import FEASIBLE, Verdict
from .geometry import (
    Polytope,
    extent,
    faces,
    homothet_bounds,
    homothet_normals,
    moments,
    sign_table,
    triangulate,
)
from .linalg import Mat, Vec, unique, vec
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
    """The pyramid v(x) = min over f ∈ F of (⟨f; x⟩ + 1) on its base P: the factors,
    P and its ``geometry.extent`` (integer vertices and measure), the dead factors'
    indices, and the live factors' cells (gradient f, offset 1, copy 0).  As a
    function on P it is ``assemble_solution`` of b = (1) and F on Ω = P at δ = 0."""

    factors: tuple[Vec, ...]
    base: Polytope
    extent: tuple[tuple[list[tuple[int, ...]], int], Fraction]
    redundant: tuple[int, ...]
    cells: tuple[Cell, ...]


def build_pyramid(factors: Sequence[Vec]) -> PyramidSpec:
    """Pyramid of a factor set with 0 interior to its hull, from one ``faces``
    call on its base P.  f's cell, where f attains the min and v ≥ 0, is the
    cone from 0 over the face of P on the row ⟨−f; x⟩ ≤ 1, so f is live iff
    that row's zeros at P's vertices are a facet (the zero factor never is).

    Raises NotInterior when the certificate is absent (including the
    all-zero factor set, which admits no bounded base).
    """
    fs = list(unique(factors, lambda f: f.entries))
    n = len(fs[0]) if fs else 0
    nonzero = [f for f in fs if not f.is_zero()]
    if not nonzero:
        raise NotInterior("factor set has no nonzero element")
    if not in_interior_of_hull(PointSet.from_vecs(nonzero, n)):
        raise NotInterior("origin is not interior to the hull of the factors")
    base = Polytope.halfspaces([-f for f in nonzero], [Fraction(1)] * len(nonzero))
    points, facets = faces(base)
    table = sign_table(base.rows, points)
    tight = [{i for i, x in enumerate(row) if not x} for row in table]
    live = [f for f, t in zip(nonzero, tight) if t in facets]
    # f's cell: <f-g; x> <= 0 (f attains the min) and <f; x> >= -1 (v >= 0).
    offsets = [Fraction(0)] * (len(nonzero) - 1) + [Fraction(1)]
    cells = []
    for f in live:
        region = Polytope.halfspaces([f - g for g in nonzero if g != f] + [-f], offsets)
        cells.append(Cell(region, Mat(1, n, f.entries), vec(1), 0))
    redundant = tuple(i for i, f in enumerate(fs) if f not in live)
    measure = moments(points, triangulate(points, facets))[0]
    return PyramidSpec(tuple(fs), base, (points, measure), redundant, tuple(cells))


def vitali_cover(
    omega: Polytope,
    omega_extent: tuple[tuple[list[tuple[int, ...]], int], Fraction],
    base_extent: tuple[tuple[list[tuple[int, ...]], int], Fraction],
    delta: Fraction,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> tuple[CoverCopy, ...]:
    """Greedy interior-disjoint cover of Ω by scaled translates of P, given
    the ``geometry.extent`` (integer vertices and measure) of Ω and of P.

    Grid placement at scales s₀·2^{-k}, anchored at the bounding-box
    corner of Ω, fully deterministic.  Stops as soon as the uncovered
    measure is at most δ·|Ω|; raises BudgetExceeded if the copy cap (or
    the scale floor) is hit first, or once the copies left under the cap,
    none larger than this level's, cannot cover enough.  δ ≥ 1 is
    satisfied by no copies.
    Every grid copy lies in Ω's bounding box, so Ω's rows are read only
    when Ω does not fill that box (|Ω| below the product of its widths).
    Then t + s·P ⊂ Ω iff ⟨a; t⟩ + s·h_P(a) ≤ c on every row (a, c) of Ω,
    h_P(a) the max of ⟨a; v⟩ over P's vertices.  Along a grid line the
    last index j moves t by s·w_P, P's box width in that coordinate, so
    each row bounds j above or below, or keeps or drops the line: the
    copies that fit are one interval of j, and no other is built.

    Each copy fills its own grid box, and the grids are dyadically
    nested from one anchor, so a candidate at level m can only clash
    with the copy, if any, in its ancestor box at each level k < m:
    grid index idx >> (m − k).  Two copies clash iff the difference of
    their centers lies in the interior of s₁P + s₂(−P), decided on the
    integer facet normals a of P + (−P) (``homothet_normals``), no LP:
    a level-m center is t = low_Ω + (s_m/q)·g, g = idx∘W − L with (W, L)/q
    P's box widths and low corner, so ⟨a; t₂ − t₁⟩ against a level-k copy
    is (s_m/q)·(⟨a; g₂⟩ − 2^{m−k}⟨a; g₁⟩), compared in integers (``_clash``).
    """
    ((xs_o, d), vol_omega), ((xs_p, q), vol_base) = omega_extent, base_extent
    if delta >= 1:
        return ()
    if vol_base == 0:
        raise ValueError("base polytope must have positive measure")
    target = (1 - delta) * vol_omega
    n = omega.ambient
    # Ω's box corners over d, and P's low corner L and widths W over q.
    low_o, high_o = (list(map(f, zip(*xs_o))) for f in (min, max))
    l, high_p = (list(map(f, zip(*xs_p))) for f in (min, max))
    widths_o = [Fraction(y - x, d) for x, y in zip(low_o, high_o)]
    low_o = [Fraction(x, d) for x in low_o]
    w = [y - x for x, y in zip(l, high_p)]
    fills_box = vol_omega == prod(widths_o)
    # Ω's integer rows [a, c] with h_P(a): room // rate below is the same
    # for any positive multiple of a row.
    rows = [] if fills_box else [
        (r[:-1], r[-1], Fraction(max(sum(map(mul, r, x)) for x in xs_p), q)) for r in omega.rows
    ]
    s0 = min(wo * q / y for wo, y in zip(widths_o, w))
    normals = homothet_normals((xs_p, q))

    # Placed copies, in order, each with its ⟨a; g⟩ per normal.
    by_box: dict[tuple[int, tuple[int, ...]], tuple[CoverCopy, list[int]]] = {}
    covered = Fraction(0)
    for level in range(MAX_SCALE_LEVELS):
        s = s0 / 2**level
        left = max_copies - len(by_box)
        if covered + left * s**n * vol_base < target:
            raise BudgetExceeded(
                f"copy cap {max_copies} cannot be met: {left} more copies of scale "
                f"at most {s} leave more than the bound {delta * vol_omega} uncovered"
            )
        step = s / q
        counts = [int(wo // (step * y)) for wo, y in zip(widths_o, w)]
        # x < z·step < y iff ⌊x/step⌋ < z < ⌈y/step⌉, for an integer z.
        bounds = [
            (2 ** (level - k), [(lo // step, -(-hi // step)) for lo, hi in pair])
            for k, pair in enumerate(homothet_bounds(normals, s0 / 2**j, s) for j in range(level))
        ]
        axes = [
            [o + step * (j * y - z) for j in range(c)] for o, y, z, c in zip(low_o, w, l, counts)
        ]
        for head in iter_product(*(range(c) for c in counts[:-1])):
            lo, hi, t0 = 0, counts[-1], Vec(tuple(axis[i] for axis, i in zip(axes, (*head, 0))))
            for a, c, h in rows:
                room, rate = c - s * h - sum(map(mul, a, t0)), a[-1] * step * w[-1]
                if rate > 0:
                    hi = min(hi, room // rate + 1)
                elif rate < 0:
                    lo = max(lo, -(room // -rate))
                elif room < 0:
                    hi = 0
            for idx in ((*head, j) for j in range(lo, hi)):
                g = [i * y - z for i, y, z in zip(idx, w, l)]
                t = Vec(tuple(axis[i] for axis, i in zip(axes, idx)))
                cand = (CoverCopy(t, s), [sum(map(mul, a, g)) for a, _, _ in normals])
                # Nearest ancestor first: the smallest box around the candidate
                # is the likeliest to hold a copy it clashes with.
                boxes = ((k, tuple(i >> (level - k) for i in idx)) for k in reversed(range(level)))
                if any(b in by_box and _clash(bounds[b[0]], by_box[b], cand) for b in boxes):
                    continue
                if len(by_box) >= max_copies:
                    raise BudgetExceeded(
                        f"copy cap {max_copies} reached at uncovered measure "
                        f"{vol_omega - covered} (bound {delta * vol_omega})"
                    )
                by_box[level, idx] = cand
                covered += s**n * vol_base
                if covered >= target:
                    return tuple(copy for copy, _ in by_box.values())
    raise BudgetExceeded(
        f"scale floor reached at uncovered measure {vol_omega - covered} "
        f"(bound {delta * vol_omega})"
    )


def _clash(bounds: tuple, first: tuple, second: tuple) -> bool:
    """Whether two copies' interiors meet (``geometry.homothets_overlap``), each
    copy with its ⟨a; g⟩ per normal, ``bounds`` = (2^{m−k}, integer bounds per normal)."""
    f, limits = bounds
    return all(lo < v - u * f < hi for (lo, hi), u, v in zip(limits, first[1], second[1]))


def assemble_solution(
    verdict: Verdict,
    omega: Polytope,
    delta: Fraction,
    operator: str | None,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> PiecewiseAffine:
    """u = v·b from a feasible verdict: every ``PiecewiseAffine`` is built here.

    Cell gradients are b⊗f with offsets scaled along b, so the gradient
    inclusion (or its symmetrization b∨f) lands exactly in E.  Each cell is
    built once in its final form: on the copy c + s·P the pyramid cell with
    factor f has gradient b⊗f, formed once per pyramid cell, and offset
    (s − ⟨f; c⟩)·b; its rows f − g and −f (``build_pyramid``) get
    ⟨f; c⟩ − ⟨g; c⟩ and s − ⟨f; c⟩.
    """
    if verdict.status != FEASIBLE:
        raise ValueError("assemble_solution needs a feasible verdict")
    b, n = verdict.b, omega.ambient
    omega_extent = extent(omega)
    spec = build_pyramid(verdict.factors)
    copies = vitali_cover(omega, omega_extent, spec.extent, delta, max_copies)
    nonzero = [f for f in spec.factors if not f.is_zero()]
    index = [nonzero.index(cell.gradient.row(0)) for cell in spec.cells]
    gradients = [tensor(b, nonzero[i]) for i in index]
    cells, covered = [], Fraction(0)
    for k, copy in enumerate(copies):
        s, dots = copy.scale, [f.dot(copy.center) for f in nonzero]
        for cell, i, gradient in zip(spec.cells, index, gradients):
            offsets = [dots[i] - d for j, d in enumerate(dots) if j != i] + [s - dots[i]]
            poly = cell.polytope.with_offsets(offsets)
            cells.append(Cell(poly, gradient, b.scale(s - dots[i]), k))
        covered += s**n * spec.extent[1]
    return PiecewiseAffine(
        ambient=n,
        value_dim=len(b),
        operator=operator,
        b=b,
        omega=omega,
        base=spec.base,
        copies=copies,
        cells=tuple(cells),
        covered=covered,
        residual=omega_extent[1] - covered,
        delta=delta,
    )
