"""Structured square background mesh, cell classification, ghost facets.

The background mesh is a uniform grid of axis-aligned square cells over a
square box given by its two corners; `translate_box` shifts the corners by a
fraction of a cell for the cut-translation sweep.  Classification against an
implicit domain takes one sub-grid lattice per mesh: a cell is cut when psi
changes sign on its own sub-grid vertices, whose values the batched clip
(`geometry.clip_cells`) reuses, so neighbours' chords meet on their common
edge and Omega_h closes.  The active mesh keeps the flat clips of its cut
cells, from which `geometry.build_cut_rules` makes the cut rules;
`ActiveMesh.clip_for` returns one cut cell's clip as a one-cell `Clips`.
Mesh objects are immutable after construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError, GeometryResolutionError
from .geometry import MAX_SUBDIV, SLIVER_FRACTION, Clips, LevelSetDomain, clip_cells, subgrid

logger = logging.getLogger(__name__)


class CellTag(IntEnum):
    OUTSIDE = 0
    INTERIOR = 1
    CUT = 2


def translate_box(box_lo, box_hi, n: int, delta: float):
    """The corners of the n-cell box shifted by delta*h along both axes.

    The geometry stays fixed; h = (box_hi[0] - box_lo[0]) / n.
    """
    if delta < 0:
        raise ConfigurationError(f"translation delta must be >= 0, got {delta}")
    s = delta * ((box_hi[0] - box_lo[0]) / n)
    return (box_lo[0] + s, box_lo[1] + s), (box_hi[0] + s, box_hi[1] + s)


class BackgroundMesh:
    """Uniform n-by-n grid of square cells with facet adjacency.

    Cells are numbered ix*n + iy (x-major); facets know their normal axis
    and their two neighbor cells (-1 outside the box).
    """

    def __init__(self, box_lo, box_hi, n: int):
        box_lo = np.asarray(box_lo, dtype=float)
        box_hi = np.asarray(box_hi, dtype=float)
        if not np.all(box_hi > box_lo):
            raise ConfigurationError("box_hi must exceed box_lo componentwise")
        ext = box_hi - box_lo
        if abs(ext[0] - ext[1]) > 1e-12 * max(ext):
            raise ConfigurationError(f"box must be square, got extents {ext.tolist()}")
        if n < 2:
            raise ConfigurationError(f"need at least 2 cells per axis, got {n}")
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.n = int(n)
        self.h = float(ext[0]) / n
        self.n_cells = n * n
        self._build_facets()

    def _build_facets(self):
        n = self.n
        # vertical facets (normal = x): grid line ix in 0..n, row iy in 0..n-1
        ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n), indexing="ij")
        ix, iy = ix.ravel(), iy.ravel()
        v_minus = np.where(ix > 0, (ix - 1) * n + iy, -1)
        v_plus = np.where(ix < n, ix * n + iy, -1)
        # horizontal facets (normal = y): column ix in 0..n-1, line iy in 0..n
        jx, jy = np.meshgrid(np.arange(n), np.arange(n + 1), indexing="ij")
        jx, jy = jx.ravel(), jy.ravel()
        h_minus = np.where(jy > 0, jx * n + (jy - 1), -1)
        h_plus = np.where(jy < n, jx * n + jy, -1)

        self.facet_axis = np.concatenate([
            np.zeros(len(v_minus), dtype=np.int8),
            np.ones(len(h_minus), dtype=np.int8),
        ])
        self.facet_cells = np.concatenate([
            np.column_stack([v_minus, v_plus]),
            np.column_stack([h_minus, h_plus]),
        ]).astype(np.int64)

    @property
    def interior_facets(self) -> np.ndarray:
        return np.flatnonzero((self.facet_cells >= 0).all(axis=1))

    def cell_origin(self, c) -> np.ndarray:
        """Lower-left corner of cell(s) c; vectorized over arrays."""
        c = np.asarray(c)
        ix, iy = c // self.n, c % self.n
        return self.box_lo + self.h * np.stack([ix, iy], axis=-1).astype(float)


def build_mesh(box_lo, box_hi, n: int) -> BackgroundMesh:
    """Uniform square background mesh; h = side/n."""
    return BackgroundMesh(box_lo, box_hi, n)


@dataclass(frozen=True)
class ActiveMesh:
    """Classification of a background mesh against an implicit domain.

    Active cells are the interior and cut ones; ghost facets are the
    interior facets with two active neighbors of which at least one is cut.
    `subdiv` is the requested sub-grid depth.  `clips` holds the clip of
    each cut cell, in `cut_cells` order; its `subdiv` is the depth of the
    mesh's lattice, above `subdiv` where classification escalated.
    `sliver_cells` are the clipped cells demoted to outside.
    """

    mesh: BackgroundMesh
    tags: np.ndarray
    active_cells: np.ndarray
    interior_cells: np.ndarray
    cut_cells: np.ndarray
    ghost_facets: np.ndarray
    subdiv: int
    clips: Clips
    sliver_cells: np.ndarray

    def clip_for(self, c: int) -> Clips | None:
        """The one-cell `Clips` of cut cell c, None for other cells."""
        i = int(np.searchsorted(self.cut_cells, c))
        if i == len(self.cut_cells) or self.cut_cells[i] != c:
            return None
        return self.clips.cell(i)


def _clip_lattice(mesh: BackgroundMesh, dom: LevelSetDomain, seeds: np.ndarray, m: int):
    """(cells, clips, consistent) at depth m of the seeds and the cells reached from them.

    A cell is reached across an edge on whose sub-grid vertices a clipped
    cell's psi changes sign: it has those vertices too, so it is cut.
    """
    n, ns = mesh.n, 2 ** m
    cells, psis, new = [seeds[:0]], [np.zeros((0, (ns + 1) ** 2))], seeds
    while len(new):
        psis.append(dom.psi(subgrid(mesh.cell_origin(new), mesh.h, m).reshape(-1, 2))
                    .reshape(len(new), -1))
        cells.append(new)
        inside = (psis[-1] < 0.0).reshape(-1, ns + 1, ns + 1)
        ix, iy = new // n, new % n
        edges = ((inside[:, 0], -n, ix > 0), (inside[:, ns], n, ix < n - 1),
                 (inside[:, :, 0], -1, iy > 0), (inside[:, :, ns], 1, iy < n - 1))
        new = np.setdiff1d(np.concatenate([(new + step)[has & e.any(axis=1) & ~e.all(axis=1)]
                                           for e, step, has in edges]), np.concatenate(cells))
    cells = np.concatenate(cells)
    order = np.argsort(cells)
    psi = np.concatenate(psis)[order]
    del psis  # the per-round arrays would add to the clip's peak memory
    return (cells[order], *clip_cells(mesh.cell_origin(cells[order]), psi, mesh.h, dom, m))


def classify(mesh: BackgroundMesh, dom: LevelSetDomain, n_probe: int = 8,
             subdiv: int = 3) -> ActiveMesh:
    """Tag every cell OUTSIDE / INTERIOR / CUT against the domain.

    An n_probe x n_probe point grid per cell screens for candidates: cells
    where psi is neither negative nor positive at every probe.  They, and
    the cells reached from them (`_clip_lattice`), are clipped at depth
    `subdiv`; when a clip is inconsistent, the whole mesh is classified and
    clipped again one depth finer, up to `MAX_SUBDIV`, and one warning names
    the final depth and the first inconsistent cell.  Clipped cells below
    the sliver tolerance of inside area are demoted to outside (one warning
    lists them), those the clip finds entirely inside are interior, and the
    others are cut.
    """
    if n_probe < 2:
        raise ConfigurationError(f"n_probe must be >= 2, got {n_probe}")
    t = np.linspace(0.0, 1.0, n_probe)
    PX, PY = np.meshgrid(t, t, indexing="ij")
    offsets = np.column_stack([PX.ravel(), PY.ravel()])  # includes corners

    origins = mesh.cell_origin(np.arange(mesh.n_cells))
    pts = (origins[:, None, :] + mesh.h * offsets[None, :, :]).reshape(-1, 2)
    psi = dom.psi(pts).reshape(mesh.n_cells, -1)
    del pts  # the probe grid is the largest array here; the clip below needs room

    tags = np.full(mesh.n_cells, CellTag.CUT, dtype=np.int8)
    tags[(psi < 0.0).all(axis=1)] = CellTag.INTERIOR
    tags[(psi > 0.0).all(axis=1)] = CellTag.OUTSIDE

    seeds, first = np.flatnonzero(tags == CellTag.CUT), None
    for m in range(subdiv, MAX_SUBDIV + 1):
        cells, clips, consistent = _clip_lattice(mesh, dom, seeds, m)
        if consistent.all():
            break
        first = cells[np.argmin(consistent)] if first is None else first
    else:
        raise GeometryResolutionError(
            f"cell at {mesh.cell_origin(cells[np.argmin(consistent)]).tolist()} (h={mesh.h}): "
            f"level set not resolved at subdivision {MAX_SUBDIV}")
    if first is not None:
        logger.warning("cell %d: level set not resolved at subdivision %d, mesh classified "
                       "and clipped at subdivision %d", first, subdiv, m)
    h2 = mesh.h * mesh.h
    sliver = clips.area < SLIVER_FRACTION * h2
    full = (np.diff(clips.seg_off) == 0) & (clips.area >= (1.0 - SLIVER_FRACTION) * h2)
    slivers = cells[sliver]
    if len(slivers):
        logger.warning("cells %s: sliver below tolerance, reclassified outside",
                       slivers.tolist())
    tags[cells] = CellTag.CUT
    tags[slivers] = CellTag.OUTSIDE
    tags[cells[full]] = CellTag.INTERIOR

    inter = mesh.interior_facets
    nb = mesh.facet_cells[inter]
    both_active = (tags[nb[:, 0]] != CellTag.OUTSIDE) & (tags[nb[:, 1]] != CellTag.OUTSIDE)
    any_cut = (tags[nb[:, 0]] == CellTag.CUT) | (tags[nb[:, 1]] == CellTag.CUT)
    return ActiveMesh(mesh=mesh, tags=tags, active_cells=np.flatnonzero(tags != CellTag.OUTSIDE),
                      interior_cells=np.flatnonzero(tags == CellTag.INTERIOR),
                      cut_cells=np.flatnonzero(tags == CellTag.CUT),
                      ghost_facets=inter[both_active & any_cut], subdiv=subdiv,
                      clips=clips.take(~(sliver | full)), sliver_cells=slivers)
