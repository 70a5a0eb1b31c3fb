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
from math import gcd, prod
from operator import mul
from typing import Iterator, Sequence

from .errors import BudgetExceeded, NotInterior
from .convexity import PointSet, in_interior_of_hull
from .feasibility import FEASIBLE, Verdict
from .geometry import (
    CoverCopy,
    Polytope,
    extent,
    faces,
    homothet_normals,
    integer_points,
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

    Grid placement at scales s = s₀·2^{-m}, anchored at the bounding-box
    corner of Ω, fully deterministic.  Stops as soon as the uncovered
    measure is at most δ·|Ω|; raises BudgetExceeded at the scale floor, or
    once the copies left under the cap, none larger than this level's, cannot
    cover enough, so no cover passes the cap.  δ ≥ 1 is satisfied by no copies.
    A candidate is its grid index idx at level m: with (W, L)/q P's box widths
    and low corner, its copy fills the grid box of idx, centered at
    t = low_Ω + (s/q)·g, g = idx∘W − L; a placed copy is t and s = sp/sq over
    d·q·sq, over their gcd.  Ω's rows are read only when Ω does not fill its box
    (|Ω| below the product of its widths), one interval per grid line (``_grid``).

    The grids are dyadically nested from one anchor, so a candidate can only
    clash with the copies in its ancestor boxes idx >> (m − k), k < m.  Each
    level maps every candidate's box to those copies, nearest first, and a
    candidate reads the entry of its nearest recorded ancestor box (a box that
    was no candidate holds no copy).  Two copies clash iff the difference of
    their centers lies in int(s₁P + s₂(−P)), decided on the integer facet
    normals a of P + (−P) (``homothet_normals``, read from level 1 on), no LP:
    over s/q, ``geometry.homothets_overlap``'s bounds on ⟨a; t − t_k⟩ against
    a level-k copy are −(2^{m−k}·H(−a) + H(a)) and 2^{m−k}·H(a) + H(−a), with
    H(a) = max⟨a; X⟩ over P's integer vertices X, and ⟨a; t − t_k⟩·q/s is
    ⟨a; g⟩ − 2^{m−k}·⟨a; g_k⟩, all integers (``_clash``).
    """
    ((xs_o, d), vol_omega), ((xs_p, q), vol_base) = omega_extent, base_extent
    if delta >= 1:
        return ()
    if vol_base == 0:
        raise ValueError("base polytope must have positive measure")
    target, n = (1 - delta) * vol_omega, omega.ambient
    # Ω's box corners over d, and P's low corner L and widths W over q.
    low_o, high_o = (list(map(f, zip(*xs_o))) for f in (min, max))
    l, high_p = (list(map(f, zip(*xs_p))) for f in (min, max))
    widths_o = [Fraction(y - x, d) for x, y in zip(low_o, high_o)]
    w = [y - x for x, y in zip(l, high_p)]
    fills_box = vol_omega == prod(widths_o)
    rows = [] if fills_box else [
        (
            tuple(map(mul, a, w)),
            Fraction((c * d - sum(map(mul, a, low_o))) * q, d),
            max(sum(map(mul, a, x)) for x in xs_p) - sum(map(mul, a, l)),
        )
        for *a, c in omega.rows
    ]
    s0 = min(wo * q / y for wo, y in zip(widths_o, w))
    normals: list[tuple[tuple[int, ...], int, int, int]] = []

    def record(level: int, idx: tuple[int, ...]) -> tuple:
        return level, idx, [sum(map(mul, aw, idx)) - al for aw, al, _, _ in normals]

    # The placed copies, and per level each candidate's box with its copy-holding
    # ancestors or itself, nearest first, as candidates (level, idx, ⟨a; g⟩ per normal a).
    copies, chains, covered = [], [], Fraction(0)
    for level in range(MAX_SCALE_LEVELS):
        s = s0 / 2**level
        unit, left = s**n * vol_base, max_copies - len(copies)
        if covered + left * unit < target:
            raise BudgetExceeded(
                f"copy cap {max_copies} cannot be met: {left} more copies of scale "
                f"at most {s} leave more than the bound {delta * vol_omega} uncovered"
            )
        if level == 1:
            # (a∘W, ⟨a; L⟩, H(a), H(−a)) per normal a of P + (−P): level 0 tests no
            # clash, so each of its candidates holds its copy and gets its ⟨a; g⟩ only now.
            normals = [
                (tuple(map(mul, a, w)), sum(map(mul, a, l)), h, h_neg)
                for a, h, h_neg in homothet_normals((xs_p, q))
            ]
            chains[0] = {box: (record(0, box),) for box in chains[0]}
        bounds = [
            (f, [(-(f * h_neg + h), f * h + h_neg) for _, _, h, h_neg in normals])
            for f in (2 ** (level - k) for k in range(level))
        ]
        # A placed copy's center low_Ω + (s/q)·g and its scale s = sp/sq, over d·q·sq.
        dsp, sq = d * s.numerator, s.denominator
        lows, den, size = [x * q * sq for x in low_o], d * q * sq, dsp * q
        here: dict[tuple[int, ...], tuple] = {}
        for idx in _grid(rows, [wo * q // (s * y) for wo, y in zip(widths_o, w)], s):
            for shift, boxes in enumerate(reversed(chains), 1):
                box = tuple([i >> shift for i in idx])
                if box in boxes:
                    chain = boxes[box]
                    break
            else:
                chain = ()
            cand = record(level, idx)
            if any(_clash(bounds[rec[0]], rec, cand) for rec in chain):
                here[idx] = chain
                continue
            shift = [x + dsp * (i * y - z) for x, i, y, z in zip(lows, idx, w, l)]
            g = gcd(den, size, *shift)
            copies.append(CoverCopy(tuple(x // g for x in shift), size // g, den // g))
            here[idx] = (cand, *chain)
            covered += unit
            if covered >= target:
                return tuple(copies)
        chains.append(here)
    raise BudgetExceeded(
        f"scale floor reached at uncovered measure {vol_omega - covered} "
        f"(bound {delta * vol_omega})"
    )


def _grid(rows: list[tuple], counts: list[int], s: Fraction) -> Iterator[tuple[int, ...]]:
    """The grid indices of scale s below ``counts``, in order, whose copies lie
    in Ω: all of them when ``rows`` is empty.  t + s·P ⊂ Ω iff
    ⟨a; t⟩ + s·h_P(a) ≤ c on every integer row [a, c] of Ω, that is iff
    ⟨a∘W; idx⟩ ≤ ⌊q·(c − ⟨a; low_Ω⟩)/s⌋ − (H(a) − ⟨a; L⟩), for each row of
    ``rows`` as (a∘W, q·(c − ⟨a; low_Ω⟩), H(a) − ⟨a; L⟩).  Along a grid line
    the last index j moves ⟨a∘W; idx⟩ by the integer rate aₙWₙ, so each row
    bounds j above or below, or keeps or drops the line: the copies that fit
    are one interval of j, and no other index is built.
    """
    limits = [(aw, room // s - h) for aw, room, h in rows]
    for head in iter_product(*(range(c) for c in counts[:-1])):
        lo, hi = 0, counts[-1]
        for aw, limit in limits:
            rest, rate = limit - sum(map(mul, aw, head)), aw[-1]
            if rate > 0:
                hi = min(hi, rest // rate + 1)
            elif rate < 0:
                lo = max(lo, -(rest // -rate))
            elif rest < 0:
                hi = 0
        for j in range(lo, hi):
            yield (*head, j)


def _clash(bounds: tuple, first: tuple, second: tuple) -> bool:
    """Whether two copies' interiors meet (``geometry.homothets_overlap``): two
    candidates (level, idx, ⟨a; g⟩ per normal), the first at level k, the
    second at level m, and ``bounds`` = (2^{m−k}, integer bounds per normal)."""
    f, limits = bounds
    for (lo, hi), u, v in zip(limits, first[2], second[2]):
        if not lo < v - u * f < hi:
            return False
    return True


def assemble_solution(
    verdict: Verdict,
    omega: Polytope,
    delta: Fraction,
    operator: str | None,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> PiecewiseAffine:
    """u = v·b from a feasible verdict: every ``PiecewiseAffine`` is built here.

    Cell gradients are b⊗f with offsets along b, so the gradient inclusion
    (or its symmetrization b∨f) lands exactly in E.  Each cell is built once
    in its final form: on the copy t + s·P the pyramid cell with factor f has
    gradient b⊗f, formed once per pyramid cell, and its integer rows pushed
    forward to the copy (``Polytope.image``); its last row, −f with offset 1
    (``build_pyramid``), moves to the offset s − ⟨f; t⟩, and the value offset
    (s − ⟨f; t⟩)·b is formed over b's one denominator.
    """
    if verdict.status != FEASIBLE:
        raise ValueError("assemble_solution needs a feasible verdict")
    b, n, ((bx,), bd) = verdict.b, omega.ambient, integer_points([verdict.b])
    omega_extent = extent(omega)
    spec = build_pyramid(verdict.factors)
    copies = vitali_cover(omega, omega_extent, spec.extent, delta, max_copies)
    gradients = [tensor(b, cell.gradient.row(0)) for cell in spec.cells]
    cells, covered = [], Fraction(0)
    for k, copy in enumerate(copies):
        for cell, gradient in zip(spec.cells, gradients):
            poly = cell.polytope.image(copy)
            offset = (Fraction(x * poly.rows[-1][-1], bd * poly.lcms[-1]) for x in bx)
            cells.append(Cell(poly, gradient, Vec(tuple(offset)), k))
        covered += Fraction(copy.size, copy.den) ** n * spec.extent[1]
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
