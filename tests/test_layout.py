from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suitcap.errors import AlphabetExhausted, LayoutError
from suitcap.layout import (
    SYMBOLS,
    SuitLayout,
    concat_layouts,
    generate_synthetic_layout,
    load_layout,
    save_layout,
)


def is_manifold(faces) -> bool:
    """Every undirected edge is used by at most two faces."""
    count: dict = {}
    for f in faces:
        for i in range(len(f)):
            a, b = f[i], f[(i + 1) % len(f)]
            k = (a, b) if a < b else (b, a)
            count[k] = count.get(k, 0) + 1
            if count[k] > 2:
                return False
    return True


def test_default_alphabet_is_the_25_symbol_set():
    assert SYMBOLS == "1234567ABCDEFGJKLMPQRTUVY"
    assert len(set(SYMBOLS)) == 25


def test_alphabet_rejects_self_ambiguous_symbols():
    # none reads as itself after a 180-degree turn
    assert not set(SYMBOLS) & set("0O8IHNSXZ")


def test_alphabet_rejects_six_and_nine_together():
    # 6 and 9 would read as each other
    assert not {"6", "9"} <= set(SYMBOLS)


def adjacent_codes(layout):
    """Corner id -> the codes whose quads contain it, counted from the quad table."""
    codes = defaultdict(set)
    for code, quad in layout.quad_table.items():
        for c in quad:
            codes[c].add(code)
    return codes


def test_adjacent_codes_counts():
    layout = generate_synthetic_layout(3, 4)
    adjacent = adjacent_codes(layout)
    interior = [c for c in range(layout.n_corners) if len(adjacent[c]) == 2]
    boundary = [c for c in range(layout.n_corners) if len(adjacent[c]) == 1]
    assert interior, "checkerboard interior corners must touch two codes"
    assert boundary, "top/bottom ring corners must touch one code"


def test_adjacency_counting_identity():
    layout = generate_synthetic_layout(4, 5)
    adjacent = adjacent_codes(layout)
    total = sum(len(adjacent[c]) for c in range(layout.n_corners))
    assert total == 4 * len(layout.codes)


def test_generate_scale_target():
    layout = generate_synthetic_layout(25, 25)
    assert len(layout.codes) == 625


def test_generate_minimal():
    layout = generate_synthetic_layout(1, 1)
    assert layout.n_corners == 4
    assert len(layout.codes) == 1
    assert len(layout.quad_table[layout.codes[0]]) == 4


def test_generate_exhausts_alphabet():
    with pytest.raises(AlphabetExhausted):
        generate_synthetic_layout(26, 25)


def test_label_injective_per_code():
    layout = generate_synthetic_layout(3, 6)
    assert layout.quads.shape == (len(layout.codes), 4)
    for code, quad in zip(layout.codes, layout.quads.tolist()):
        assert tuple(quad) == layout.quad_table[code]
        assert len(set(quad)) == 4


def test_redundancy_property():
    layout = generate_synthetic_layout(3, 6)
    adjacent = adjacent_codes(layout)
    for c in range(layout.n_corners):
        codes = sorted(adjacent[c])
        if len(codes) == 2:
            assert c in layout.quad_table[codes[0]] and c in layout.quad_table[codes[1]]


def test_mesh_is_manifold():
    layout = generate_synthetic_layout(4, 6)
    assert is_manifold(layout.faces)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 10))
def test_generated_layouts_satisfy_invariants(n_strips, codes_per_strip):
    layout = generate_synthetic_layout(n_strips, codes_per_strip)
    assert len(layout.codes) == n_strips * codes_per_strip
    assert layout.n_corners == (n_strips + 1) * 2 * codes_per_strip
    for quad in layout.quad_table.values():
        assert len(set(quad)) == 4
    assert is_manifold(layout.faces)
    adjacent = adjacent_codes(layout)
    assert all(1 <= len(adjacent[c]) <= 2 for c in range(layout.n_corners))
    assert sum(len(adjacent[c]) for c in range(layout.n_corners)) == 4 * len(layout.codes)


def test_layout_file_roundtrip(tmp_path):
    layout = generate_synthetic_layout(3, 4)
    path = tmp_path / "layout.json"
    save_layout(layout, path)
    back = load_layout(path)
    assert back.n_corners == layout.n_corners
    assert back.quad_table == layout.quad_table
    assert back.faces == layout.faces
    assert back.extra_vertices == layout.extra_vertices


def test_extra_vertices_flagged_never_observed():
    layout = SuitLayout(
        n_corners=4,
        quad_table={"A1": (0, 1, 2, 3)},
        faces=[(0, 1, 2, 3), (1, 2, 4)],
        extra_vertices=1,
    )
    assert layout.total_vertices == 5
    # vertex 4 closes a hole: it is in a face but in no code's quad
    assert 4 in {v for f in layout.faces for v in f}
    assert max(adjacent_codes(layout)) == 3


def test_concat_layouts_offsets_ids():
    a = generate_synthetic_layout(1, 2)
    b = generate_synthetic_layout(1, 2, code_offset=2)
    merged = concat_layouts([a, b])
    assert merged.n_corners == a.n_corners + b.n_corners
    assert len(merged.codes) == len(a.codes) + len(b.codes)
    code_b = b.codes[0]
    assert merged.quad_table[code_b] == tuple(v + a.n_corners for v in b.quad_table[code_b])


def test_rejects_corner_with_three_codes():
    with pytest.raises(LayoutError):
        SuitLayout(
            n_corners=9,
            quad_table={"AA": (0, 1, 2, 3), "AB": (0, 4, 5, 6), "AC": (0, 7, 8, 1)},
            faces=[],
        )
