"""The suit as data: corner IDs, two-letter codes, quad adjacency, rest-mesh topology.

Corner IDs are dense integers `0..n_corners-1`. A layout may carry extra
hole-closing vertices with IDs `n_corners..n_corners+extra_vertices-1`; they
participate in meshing and inpainting but are never observed by any detector.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import AlphabetExhausted, LayoutError
from .meshes import mesh_edges

# The code symbols. Each reads one way up: no symbol may read as itself after a
# 180-degree turn (0 O 8 I H N S X Z are out), and 6 and 9, each the other
# turned, may not both appear.
SYMBOLS = "1234567ABCDEFGJKLMPQRTUVY"

__all__ = ["SuitLayout", "generate_synthetic_layout", "load_layout", "save_layout"]


class SuitLayout:
    """Corner/code structure of one suit.

    Parameters
    ----------
    n_corners : int
        Number of observable corners; IDs are 0..n_corners-1.
    quad_table : dict[str, tuple[int, int, int, int]]
        For each code, the four corner IDs clockwise from the top-left of the
        upright code.
    faces : list[list[int]]
        Rest-mesh faces (quad-dominant) over corner IDs plus any extra vertices.
    extra_vertices : int
        Count of hole-closing vertices appended after the corners; these are
        flagged never-observed.

    `quads` is the quad table as a (Q, 4) int array, row q belonging to `codes[q]`.
    """

    def __init__(self, n_corners: int, quad_table: dict, faces: list, extra_vertices: int = 0):
        self.n_corners = int(n_corners)
        self.extra_vertices = int(extra_vertices)
        self.quad_table = {str(c): tuple(int(v) for v in q) for c, q in quad_table.items()}
        self.faces = [tuple(int(v) for v in f) for f in faces]
        self.codes = sorted(self.quad_table)
        self._validate()
        self.quads = np.array([self.quad_table[c] for c in self.codes], dtype=int).reshape(-1, 4)

    # -- construction helpers ------------------------------------------------

    def _validate(self):
        seen = {}
        for code, quad in self.quad_table.items():
            if len(code) != 2:
                raise LayoutError(f"code {code!r} is not two letters")
            if len(quad) != 4 or len(set(quad)) != 4:
                raise LayoutError(f"quad for code {code} must have 4 distinct corners")
            for c in quad:
                if not 0 <= c < self.n_corners:
                    raise LayoutError(f"code {code} references corner {c} >= n_corners")
                seen.setdefault(c, []).append(code)
        for c, codes in seen.items():
            if len(codes) > 2:
                raise LayoutError(f"corner {c} adjacent to {len(codes)} codes (max 2)")
        n_total = self.n_corners + self.extra_vertices
        for f in self.faces:
            if len(f) < 3:
                raise LayoutError("faces need at least 3 vertices")
            for v in f:
                if not 0 <= v < n_total:
                    raise LayoutError(f"face vertex {v} out of range")

    # -- queries ---------------------------------------------------------------

    @property
    def total_vertices(self) -> int:
        return self.n_corners + self.extra_vertices

    def edges(self):
        """Unique undirected mesh edges as a sorted (E, 2) int array."""
        return mesh_edges(self.faces)


def generate_synthetic_layout(n_strips: int, codes_per_strip: int, code_offset: int = 0) -> SuitLayout:
    """Cylinder-topology checkerboard layout, coded from `SYMBOLS`.

    The grid has `n_strips` cell rows and `2*codes_per_strip` cell columns
    wrapping around; cells with even (row+col) parity are coded white squares.
    Corner IDs enumerate grid vertices row-major; `code_offset` shifts which
    symbol pairs are consumed so several layouts can share one alphabet.
    """
    if n_strips < 1 or codes_per_strip < 1:
        raise LayoutError("need at least one strip and one code per strip")
    n = len(SYMBOLS)
    n_codes = n_strips * codes_per_strip
    if code_offset + n_codes > n * n:
        raise AlphabetExhausted(f"{code_offset + n_codes} codes requested but alphabet yields {n * n} pairs")
    cols = 2 * codes_per_strip
    rows = n_strips + 1

    def vid(r, c):
        return r * cols + (c % cols)

    quad_table = {}
    faces = []
    next_code = code_offset
    for r in range(n_strips):
        for c in range(cols):
            quad = (vid(r, c), vid(r, c + 1), vid(r + 1, c + 1), vid(r + 1, c))
            coded = (r + c) % 2 == 0
            # a two-column cylinder folds each black cell onto its white cell;
            # keeping only the coded faces preserves a manifold mesh there
            if coded or cols > 2:
                faces.append(quad)
            if coded:
                quad_table[SYMBOLS[next_code // n] + SYMBOLS[next_code % n]] = quad
                next_code += 1
    return SuitLayout(n_corners=rows * cols, quad_table=quad_table, faces=faces)


def concat_layouts(parts: list[SuitLayout]) -> SuitLayout:
    """Disjoint union of layouts; corner IDs of later parts are offset."""
    quad_table = {}
    faces = []
    offset = 0
    for p in parts:
        if p.extra_vertices:
            raise LayoutError("concat over layouts with extra vertices is unsupported")
        for code, quad in p.quad_table.items():
            if code in quad_table:
                raise LayoutError(f"duplicate code {code} across layout parts")
            quad_table[code] = tuple(v + offset for v in quad)
        faces.extend(tuple(v + offset for v in f) for f in p.faces)
        offset += p.total_vertices
    return SuitLayout(n_corners=offset, quad_table=quad_table, faces=faces)


def load_layout(path) -> SuitLayout:
    """Read layout JSON: `{n_corners, codes:[{code, corners:[4]}], faces:[[ids]], extra_vertices}`."""
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    try:
        quad_table = {e["code"]: e["corners"] for e in raw["codes"]}
        return SuitLayout(
            n_corners=raw["n_corners"],
            quad_table=quad_table,
            faces=raw["faces"],
            extra_vertices=raw.get("extra_vertices", 0),
        )
    except (KeyError, TypeError) as e:
        raise LayoutError(f"malformed layout file {path}: {e}") from e


def save_layout(layout: SuitLayout, path) -> None:
    doc = {
        "n_corners": layout.n_corners,
        "codes": [{"code": c, "corners": list(layout.quad_table[c])} for c in layout.codes],
        "faces": [list(f) for f in layout.faces],
        "extra_vertices": layout.extra_vertices,
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc) + "\n")
