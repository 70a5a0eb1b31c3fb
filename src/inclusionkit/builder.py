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
A cell's affine map is only its integers [G | o] over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import gcd
from operator import mul
from typing import Iterator, Sequence

from .errors import BudgetExceeded, NotInterior
from .convexity import PointSet, in_interior_of_hull
from .feasibility import FEASIBLE, Verdict
from .geometry import CoverCopy, Extent, Polytope, extent, homothet_normals, sign_table
from .linalg import Vec, _integer_rows

DEFAULT_MAX_COPIES = 4096
MAX_SCALE_LEVELS = 48


@dataclass(frozen=True, slots=True)
class Cell:
    """One affine piece: a polytope with an exact affine map x ↦ G·x + o on it,
    as its integers in lowest terms, one form per map: ``map`` = (rows, m), one
    row [Gᵢ | oᵢ] per value coordinate, all over m > 0, gcd(m, rows) = 1."""

    polytope: Polytope
    map: tuple[tuple[tuple[int, ...], ...], int]
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
    P, its ``geometry.extent`` (integer vertices, measure and facets), the dead
    factors' indices, and the live factors' cells (map [f | 1], copy 0).  As a
    function on P it is ``assemble_solution`` of b = (1) and F on Ω = P at δ = 0."""

    factors: tuple[Vec, ...]
    base: Polytope
    extent: Extent
    redundant: tuple[int, ...]
    cells: tuple[Cell, ...]


def build_pyramid(factors: Sequence[Vec]) -> PyramidSpec:
    """Pyramid of a factor set with 0 interior to its hull, from one
    ``geometry.extent`` call on its base P, which ``PyramidSpec`` keeps.  f's
    cell, where f attains the min and v ≥ 0, is the cone from 0 over the face
    of P on the row ⟨−f; x⟩ ≤ 1, so f is live iff that row's zeros at P's
    vertices are a facet (the zero factor never is).

    Raises NotInterior when the certificate is absent (including the
    all-zero factor set, which admits no bounded base).
    """
    fs = list(dict.fromkeys(factors))
    n = len(fs[0]) if fs else 0
    nonzero = [f for f in fs if not f.is_zero()]
    if not nonzero:
        raise NotInterior("factor set has no nonzero element")
    if not in_interior_of_hull(PointSet.from_vecs(nonzero, n)):
        raise NotInterior("origin is not interior to the hull of the factors")
    base = Polytope.halfspaces([-f for f in nonzero], [Fraction(1)] * len(nonzero))
    ext = extent(base)
    points, _, facets = ext
    table = sign_table(base.rows, points)
    tight = [{i for i, x in enumerate(row) if not x} for row in table]
    live = [f for f, t in zip(nonzero, tight) if t in facets]
    # f's cell: <f-g; x> <= 0 (f attains the min) and <f; x> >= -1 (v >= 0).
    offsets = [Fraction(0)] * (len(nonzero) - 1) + [Fraction(1)]
    cells = []
    for f in live:
        region = Polytope.halfspaces([f - g for g in nonzero if g != f] + [-f], offsets)
        (x,), (l,) = _integer_rows([f])
        cells.append(Cell(region, (((*x, l),), l), 0))
    redundant = tuple(i for i, f in enumerate(fs) if f not in live)
    return PyramidSpec(tuple(fs), base, ext, redundant, tuple(cells))


def vitali_cover(
    omega: Polytope,
    omega_extent: Extent,
    base_extent: Extent,
    delta: Fraction,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> tuple[CoverCopy, ...]:
    """Greedy interior-disjoint cover of Ω by scaled translates of P, given
    the ``geometry.extent`` (integer vertices, measure and facets) of Ω and of P.

    Grid placement at scales s = s₀·2^{-m}, anchored at the bounding-box
    corner of Ω, fully deterministic.  Stops as soon as the uncovered
    measure is at most δ·|Ω|; raises BudgetExceeded at the scale floor, or
    once the copies left under the cap, none larger than this level's, cannot
    cover enough, so no cover passes the cap.  δ ≥ 1 is satisfied by no copies.
    A candidate is its grid index idx at level m: with (W, L)/q P's box widths
    and low corner, its copy fills the grid box of idx, centered at
    t = low_Ω + (s/q)·g, g = idx∘W − L; a placed copy is t and s = sp/sq over
    d·q·sq, over their gcd.  Ω's rows give one interval per grid line (``_grid``).

    The grids are dyadically nested from one anchor, so a candidate can only
    clash with the copies in its ancestor boxes idx >> (m − k), k < m.  One map
    holds per box (k, idx) its copy's candidate, or None when the box is closed,
    inside a placed copy, where no copy can go.  A candidate closes below a
    closed parent; else it probes every ancestor, nearest first (``_clash``), and
    closes if its box lies in the first copy it clashes with.  Copies clash iff
    the difference of their centers lies in int(s₁P + s₂(−P)), decided on the
    integer normals a of P + (−P) (``homothet_normals``), no LP: over s/q,
    ``homothets_overlap``'s bounds on ⟨a; t − t_k⟩ against a level-k copy are
    −(2^{m−k}·H(−a) + H(a)) and 2^{m−k}·H(a) + H(−a), H(a) = max⟨a; X⟩ over P's
    integer vertices X, and ⟨a; t − t_k⟩·q/s = ⟨a; g⟩ − 2^{m−k}·⟨a; g_k⟩ ∈ ℤ lies
    in [B(−a) − 2^{m−k}·H(−a), 2^{m−k}·H(a) − B(a)] for all a iff the box lies
    in the copy (P's facet normals are among them), B(a) = ⟨a; L⟩ + Σ(a∘W)⁺.
    """
    ((xs_o, d), vol_omega, _), ((xs_p, q), vol_base, base_facets) = omega_extent, base_extent
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
    rows = [
        (
            tuple(map(mul, a, w)),
            Fraction((c * d - sum(map(mul, a, low_o))) * q, d),
            max(sum(map(mul, a, x)) for x in xs_p) - sum(map(mul, a, l)),
        )
        for *a, c in omega.rows
    ]
    s0 = min(wo * q / y for wo, y in zip(widths_o, w))
    # (a∘W, ⟨a; L⟩, H(a), H(−a), B(a), B(−a)) per normal a of P + (−P).
    normals = [
        (aw, al, h, h_neg, al + sum(x for x in aw if x > 0), -al - sum(x for x in aw if x < 0))
        for a, h, h_neg in homothet_normals((xs_p, q), base_facets)
        for aw, al in [(tuple(map(mul, a, w)), sum(map(mul, a, l)))]
    ]
    # Each placed copy's candidate (level, idx, ⟨a; g⟩ per normal a), or None for a closed box.
    copies, boxes, covered = [], {}, Fraction(0)
    for level in range(MAX_SCALE_LEVELS):
        s = s0 / 2**level
        unit, left = s**n * vol_base, max_copies - len(copies)
        if covered + left * unit < target:
            raise BudgetExceeded(
                f"copy cap {max_copies} cannot be met: {left} more copies of scale "
                f"at most {s} leave more than the bound {delta * vol_omega} uncovered"
            )
        # This level places at most ⌈(target − covered)/unit⌉ copies, the last reaching the target.
        start, enough = len(copies), len(copies) - (covered - target) // unit
        bounds = [
            (f, [(-(f * hn + h), f * h + hn, bn - f * hn, f * h - b) for *_, h, hn, b, bn in normals])
            for f in (2 ** (level - k) for k in range(level))
        ]
        # A placed copy's center low_Ω + (s/q)·g and its scale s = sp/sq, over d·q·sq.
        dsp, sq = d * s.numerator, s.denominator
        lows, den, size = [x * q * sq for x in low_o], d * q * sq, dsp * q
        for idx in _grid(rows, [wo * q // (s * y) for wo, y in zip(widths_o, w)], s):
            outcome = 2 if boxes.get((level - 1, tuple([i >> 1 for i in idx])), ()) is None else 0
            if not outcome:
                cand = level, idx, [sum(map(mul, aw, idx)) - al for aw, al, *_ in normals]
                for k in range(level - 1, -1, -1):
                    rec = boxes.get((k, tuple([i >> (level - k) for i in idx])))
                    if rec and (outcome := _clash(bounds[k], rec, cand)):
                        break
            if outcome == 2:
                boxes[level, idx] = None
            if outcome:
                continue
            shift = [x + dsp * (i * y - z) for x, i, y, z in zip(lows, idx, w, l)]
            g = gcd(den, size, *shift)
            copies.append(CoverCopy(tuple(x // g for x in shift), size // g, den // g))
            boxes[level, idx] = cand
            if len(copies) >= enough:
                return tuple(copies)
        covered += (len(copies) - start) * unit
    raise BudgetExceeded(
        f"scale floor reached at uncovered measure {vol_omega - covered} "
        f"(bound {delta * vol_omega})"
    )


def _grid(rows: list[tuple], counts: list[int], s: Fraction) -> Iterator[tuple[int, ...]]:
    """The grid indices of scale s below ``counts``, in order, whose copies lie in Ω.
    t + s·P ⊂ Ω iff ⟨a; t⟩ + s·h_P(a) ≤ c on every integer row [a, c] of Ω, that is iff
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


def _clash(bounds: tuple, first: tuple, second: tuple) -> int:
    """2 if the second copy's grid box lies in the first copy, else whether their
    interiors meet (``geometry.homothets_overlap``), for two candidates (level, idx,
    ⟨a; g⟩ per normal) at levels k < m and ``bounds`` = (2^{m−k}, integer bounds)."""
    f, limits = bounds
    outcome = 2
    for (lo, hi, in_lo, in_hi), u, v in zip(limits, first[2], second[2]):
        x = v - u * f
        if not lo < x < hi:
            return 0
        if not in_lo <= x <= in_hi:
            outcome = 1
    return outcome


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
    its integer rows pushed forward to the copy (``Polytope.image``); its last
    row, −f with offset 1 (``build_pyramid``), moves to the offset
    c = s − ⟨f; t⟩ = x/λ.  With b = B/β and f = F/l, the map [b⊗f | c·b] is
    [λ·B⊗F | l·x·B] over β·l·λ, over the gcd of them all.
    """
    if verdict.status != FEASIBLE:
        raise ValueError("assemble_solution needs a feasible verdict")
    b, n, ((bx,), (beta,)) = verdict.b, omega.ambient, _integer_rows([verdict.b])
    omega_extent = extent(omega)
    spec = build_pyramid(verdict.factors)
    copies = vitali_cover(omega, omega_extent, spec.extent, delta, max_copies)
    cells, powers = [], {}  # Σ sizeⁿ per copy den: covered = Σ (size/den)ⁿ·|P|
    for k, copy in enumerate(copies):
        for cell in spec.cells:
            ((*fx, _),), l = cell.map
            poly = cell.polytope.image(copy)
            x, lam = poly.rows[-1][-1], poly.lcms[-1]
            rows = [[*(y * v * lam for v in fx), y * x * l] for y in bx]
            m = beta * l * lam
            g = gcd(m, *(v for r in rows for v in r))
            cells.append(Cell(poly, (tuple(tuple(v // g for v in r) for r in rows), m // g), k))
        powers[copy.den] = powers.get(copy.den, 0) + copy.size**n
    covered = sum((Fraction(x, den**n) for den, x in powers.items()), Fraction(0)) * spec.extent[1]
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
