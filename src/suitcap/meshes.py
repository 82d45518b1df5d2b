"""Mesh utilities shared by the body model, inpainting, and the simulator."""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "triangulate_faces", "mesh_edges", "vertex_normals", "edge_graph", "geodesic_to_sources",
    "closest_point_on_triangles", "pack_triangles", "segments_hit_triangles",
]


def triangulate_faces(faces, vertices):
    """Split polygon faces into triangles; quads split along their shorter diagonal
    at `vertices` (a tie takes the (0, 2) diagonal). Faces with more than 4
    vertices are fanned from vertex 0.
    """
    tris = []
    for f in faces:
        if len(f) == 3:
            tris.append(tuple(f))
        elif len(f) == 4:
            a, b, c, d = f
            if np.linalg.norm(vertices[a] - vertices[c]) <= np.linalg.norm(vertices[b] - vertices[d]):
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))
        else:
            for i in range(1, len(f) - 1):
                tris.append((f[0], f[i], f[i + 1]))
    return np.array(tris, dtype=int).reshape(-1, 3)


def mesh_edges(faces):
    es = set()
    for f in faces:
        for i in range(len(f)):
            a, b = f[i], f[(i + 1) % len(f)]
            es.add((a, b) if a < b else (b, a))
    return np.array(sorted(es), dtype=int).reshape(-1, 2)


def vertex_normals(vertices, triangles):
    """Area-weighted vertex normals of a triangle mesh."""
    v = np.asarray(vertices, dtype=float)
    t = np.asarray(triangles, dtype=int)
    fn = _cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    n = np.zeros_like(v)
    for k in range(3):
        np.add.at(n, t[:, k], fn)
    lens = np.linalg.norm(n, axis=1, keepdims=True)
    lens[lens == 0] = 1.0
    return n / lens


def edge_graph(vertices, edges):
    """Adjacency lists of the undirected edge graph: entry i lists (neighbour, Euclidean edge length)."""
    v = np.asarray(vertices, dtype=float)
    e = np.asarray(edges, dtype=int)
    w = np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1)
    graph = [[] for _ in range(len(v))]
    for a, b, d in zip(e[:, 0].tolist(), e[:, 1].tolist(), w.tolist()):
        graph[a].append((b, d))
        graph[b].append((a, d))
    return graph


def geodesic_to_sources(graph, sources):
    """Shortest-path distance from every vertex of `graph` (from `edge_graph`) to
    the nearest source (inf if unreachable): multi-source Dijkstra on a binary heap.
    """
    sources = np.asarray(sources, dtype=int).tolist()
    dist = [math.inf] * len(graph)
    for s in sources:
        dist[s] = 0.0
    # every source settles at 0 before any other vertex, so relax their edges
    # directly and start the heap from the vertices they reach
    heap = []
    for u in sources:
        for v, w in graph[u]:
            if w < dist[v]:
                dist[v] = w
                heap.append((w, v))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry: u was reached more cheaply after this push
        for v, w in graph[u]:
            dv = d + w
            if dv < dist[v]:
                dist[v] = dv
                push(heap, (dv, v))
    return np.array(dist)


def closest_point_on_triangles(p, tri_pts):
    """Closest point to `p` (3,), or to row t of `p` (T, 3), on each triangle t of `tri_pts` (T, 3, 3).

    Returns (points (T, 3), barycentric (T, 3)). Vectorized version of the
    standard region-based point-triangle test.
    """
    a = tri_pts[:, 0]
    b = tri_pts[:, 1]
    c = tri_pts[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a

    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    T = len(tri_pts)
    u = np.zeros(T)
    v = np.zeros(T)
    done = np.zeros(T, dtype=bool)

    # vertex regions
    m = (d1 <= 0) & (d2 <= 0)
    done |= m
    m = ~done & (d3 >= 0) & (d4 <= d3)
    u[m] = 1.0
    done |= m
    m = ~done & (d6 >= 0) & (d5 <= d6)
    v[m] = 1.0
    done |= m

    # edge AB
    vc = d1 * d4 - d3 * d2
    m = ~done & (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    denom = d1 - d3
    with np.errstate(invalid="ignore", divide="ignore"):
        t_ab = np.where(denom != 0, d1 / denom, 0.0)
    u[m] = t_ab[m]
    done |= m

    # edge AC
    vb = d5 * d2 - d1 * d6
    m = ~done & (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    denom = d2 - d6
    with np.errstate(invalid="ignore", divide="ignore"):
        t_ac = np.where(denom != 0, d2 / denom, 0.0)
    v[m] = t_ac[m]
    done |= m

    # edge BC
    va = d3 * d6 - d5 * d4
    m = ~done & (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = (d4 - d3) + (d5 - d6)
    with np.errstate(invalid="ignore", divide="ignore"):
        t_bc = np.where(denom != 0, (d4 - d3) / denom, 0.0)
    u[m] = 1.0 - t_bc[m]
    v[m] = t_bc[m]
    done |= m

    # interior
    m = ~done
    denom = va + vb + vc
    with np.errstate(invalid="ignore", divide="ignore"):
        u_in = np.where(denom != 0, vb / denom, 1 / 3)
        v_in = np.where(denom != 0, vc / denom, 1 / 3)
    u[m] = u_in[m]
    v[m] = v_in[m]

    w = 1.0 - u - v
    pts = w[:, None] * a + u[:, None] * b + v[:, None] * c
    bary = np.stack([w, u, v], axis=1)
    return pts, bary


def _cross(a, b):
    return np.stack(
        [
            a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
            a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ],
        axis=-1,
    )


def pack_triangles(tri_pts):
    """Precompute Moller-Trumbore data (v0, e1, e2) for repeated segment queries."""
    tri_pts = np.asarray(tri_pts, dtype=float)
    v0 = tri_pts[:, 0]
    return v0, tri_pts[:, 1] - v0, tri_pts[:, 2] - v0


def segments_hit_triangles(origins, targets, pack):
    """For each segment origin->target, does it hit any of the triangles `pack`
    (from `pack_triangles`) before 1 - 1e-6 of its length?

    Watertight enough for visibility work: Moller-Trumbore with an epsilon on
    the determinant, vectorized over segments x triangles.
    """
    o = np.asarray(origins, dtype=float)
    d = np.asarray(targets, dtype=float) - o
    v0, e1, e2 = pack

    hit = np.zeros(len(o), dtype=bool)
    # segments x triangles, chunked over segments to bound memory
    chunk = max(1, int(4_000_000 / max(len(v0), 1)))
    for s in range(0, len(o), chunk):
        oo = o[s : s + chunk][:, None, :]
        dd = d[s : s + chunk][:, None, :]
        pvec = _cross(dd, e2[None, :, :])
        det = np.einsum("stk,tk->st", pvec, e1)
        with np.errstate(invalid="ignore", divide="ignore"):
            inv_det = np.where(np.abs(det) > 1e-12, 1.0 / det, 0.0)
        tvec = oo - v0[None, :, :]
        u = np.einsum("stk,stk->st", tvec, pvec) * inv_det
        qvec = _cross(tvec, e1[None, :, :])
        v = np.einsum("stk,stk->st", qvec, dd) * inv_det
        t = np.einsum("stk,tk->st", qvec, e2) * inv_det
        ok = (
            (np.abs(det) > 1e-12)
            & (u >= 0.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (t > 1e-9)
            & (t < 1.0 - 1e-6)
        )
        hit[s : s + chunk] = np.any(ok, axis=1)
    return hit
