"""Undirected graphs in compressed sparse row form, plus generators and loaders.

Every graph in the package is simple (no self loops, no parallel edges) and
undirected: each edge {u, v} is stored twice, once in each row. Neighbor
rows are sorted ascending so membership tests can binary-search.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ParseError
from .rng import make_rng

logger = logging.getLogger(__name__)

__all__ = [
    "Graph",
    "LoadReport",
    "GraphSource",
    "gen_er",
    "gen_ws",
    "load_graph",
    "load_graph_with_report",
    "save_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Immutable CSR adjacency structure.

    Attributes
    ----------
    n : int
        Number of vertices, ids 0..n-1.
    offsets : np.ndarray
        int64 array of length n+1; row i spans offsets[i]:offsets[i+1].
    neighbors : np.ndarray
        int32 array of length 2*edge_count; each row sorted ascending.
    degrees : np.ndarray
        int32 array of length n, degrees[i] == offsets[i+1]-offsets[i].
    """

    n: int
    offsets: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    max_degree: int = field(default=0)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph from an (m, 2) integer array, taken as it is, or
        from any other iterable of (u, v) pairs.

        Pairs are symmetrized and deduplicated; self loops are rejected
        here (loaders drop them before calling). Vertex ids must lie in
        [0, n).
        """
        if n < 0:
            raise ParameterError(f"vertex count must be >= 0, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ParameterError("edge endpoint out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ParameterError("self loops are not allowed")
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            canon = np.unique(lo * np.int64(n) + hi)
            lo, hi = canon // n, canon % n
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        degrees = np.bincount(src, minlength=n).astype(np.int32)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return Graph(
            n=n,
            offsets=offsets,
            neighbors=dst.astype(np.int32),
            degrees=degrees,
            max_degree=int(degrees.max()) if n else 0,
        )

    @property
    def edge_count(self) -> int:
        return int(self.neighbors.shape[0]) // 2

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a view, do not mutate)."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors_of(u)
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and int(row[i]) == v

    def memo(self, name: str, build):
        """``build()``, computed once per graph and kept on it; the graph
        is immutable, so the value never goes stale."""
        cached = self.__dict__.get(name)
        if cached is None:
            cached = build()
            # frozen dataclass, so route the memo around __setattr__
            object.__setattr__(self, name, cached)
        return cached

    def key(self) -> str:
        """Stable content hash, used to deduplicate graphs in caches."""

        def digest() -> str:
            h = hashlib.sha256()
            h.update(str(self.n).encode())
            h.update(self.offsets.tobytes())
            h.update(self.neighbors.tobytes())
            return h.hexdigest()

        return self.memo("_key", digest)

    def adjacency(self) -> list[list[int]]:
        """Neighbor rows as Python int lists, for per-move loops that
        would pay a NumPy scalar conversion per element (do not mutate).
        Built once per graph by slicing one ``tolist()`` of ``neighbors``."""

        def build() -> list[list[int]]:
            flat = self.neighbors.tolist()
            offsets = self.offsets.tolist()
            return [flat[offsets[v]:offsets[v + 1]] for v in range(self.n)]

        return self.memo("_adjacency", build)


ER_BLOCK_PAIRS = 1 << 20


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic per seed.

    Each of the n*(n-1)/2 pairs is included independently with
    probability p, one uniform draw per pair in ascending (i, j) order.
    The draws for a block of consecutive rows, about ``ER_BLOCK_PAIRS``
    pairs (at least one row), come from one ``rng.random`` call: the
    generator yields the same stream whether it is read in one call or
    row by row, so the block size never changes the graph.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must be in [0, 1], got {p}")
    rng = make_rng(seed)
    # starts[i] is where row i's pairs (i, i+1..n-1) begin in the stream
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))))
    blocks = []
    lo = 0
    while lo < n - 1:
        hi = max(int(np.searchsorted(starts, starts[lo] + ER_BLOCK_PAIRS, side="right")) - 1,
                 lo + 1)
        hit = np.flatnonzero(rng.random(int(starts[hi] - starts[lo])) < p) + starts[lo]
        rows = np.searchsorted(starts, hit, side="right") - 1
        blocks.append(np.stack([rows, hit - starts[rows] + rows + 1], axis=1))
        lo = hi
    edges = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(n, edges)


def gen_ws(n: int, k: int, beta: float, seed: int) -> Graph:
    """Watts-Strogatz small-world graph with exactly n*k/2 edges.

    Starts from a ring lattice where each vertex connects to its k/2
    nearest neighbors on each side, then rewires the far endpoint of each
    lattice edge with probability beta to a uniformly random vertex,
    skipping choices that would create a self loop or duplicate edge.
    Rewiring replaces edges one for one, so the count is preserved.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if k < 0 or k % 2 != 0:
        raise ParameterError(f"k must be even and >= 0, got {k}")
    if k >= n and n > 0:
        raise ParameterError(f"k must be < n, got k={k} n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta must be in [0, 1], got {beta}")
    rng = make_rng(seed)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for step in range(1, k // 2 + 1):
            adjacency[i].add((i + step) % n)
            adjacency[(i + step) % n].add(i)
    for i in range(n):
        for step in range(1, k // 2 + 1):
            j = (i + step) % n
            if rng.random() >= beta:
                continue
            if j not in adjacency[i]:
                continue  # already rewired away by the partner loop
            # Rewire (i, j) -> (i, m). Resample until simple; bail out if
            # the vertex is saturated.
            if len(adjacency[i]) >= n - 1:
                continue
            while True:
                m = int(rng.integers(0, n))
                if m != i and m not in adjacency[i]:
                    break
            adjacency[i].discard(j)
            adjacency[j].discard(i)
            adjacency[i].add(m)
            adjacency[m].add(i)
    edges = [(i, j) for i in range(n) for j in adjacency[i] if i < j]
    return Graph.from_edges(n, edges)


@dataclass
class LoadReport:
    """What a loader had to clean up; counts are per input file."""

    self_loops_dropped: int = 0
    duplicate_entries: int = 0


def _parse_edge_list(text: str, path: str) -> tuple[list[tuple[int, int]], int, LoadReport]:
    edges: list[tuple[int, int]] = []
    report = LoadReport()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"{path}:{lineno}: negative vertex id in {raw!r}")
        max_id = max(max_id, u, v)
        if u == v:
            report.self_loops_dropped += 1
            continue
        edges.append((u, v))
    return edges, max_id + 1, report


def _parse_matrix_market(text: str, path: str) -> tuple[list[tuple[int, int]], int, LoadReport]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError(f"{path}:1: missing MatrixMarket header")
    header = lines[0].split()
    if len(header) < 5 or header[1].lower() != "matrix" or header[2].lower() != "coordinate":
        raise ParseError(f"{path}:1: only 'matrix coordinate' files are supported")
    value_kind = header[3].lower()
    symmetry = header[4].lower()
    if value_kind not in ("pattern", "real", "integer"):
        raise ParseError(f"{path}:1: unsupported value type {value_kind!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"{path}:1: unsupported symmetry {symmetry!r}")
    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise ParseError(f"{path}: missing size line")
    size_parts = lines[idx].split()
    if len(size_parts) != 3:
        raise ParseError(f"{path}:{idx + 1}: expected 'rows cols nnz'")
    try:
        rows, cols, nnz = (int(x) for x in size_parts)
    except ValueError:
        raise ParseError(f"{path}:{idx + 1}: non-integer size line") from None
    if rows != cols:
        raise ParseError(f"{path}:{idx + 1}: adjacency matrix must be square, got {rows}x{cols}")
    report = LoadReport()
    edges: list[tuple[int, int]] = []
    seen = 0
    for lineno in range(idx + 1, len(lines)):
        line = lines[lineno].strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        want = 2 if value_kind == "pattern" else 3
        if len(parts) < 2:
            raise ParseError(f"{path}:{lineno + 1}: malformed entry {line!r}")
        if value_kind != "pattern" and len(parts) != want:
            raise ParseError(f"{path}:{lineno + 1}: expected {want} fields, got {len(parts)}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno + 1}: non-integer index in {line!r}") from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(f"{path}:{lineno + 1}: index out of bounds in {line!r}")
        seen += 1
        if i == j:
            report.self_loops_dropped += 1
            continue
        edges.append((i - 1, j - 1))
    if seen != nnz:
        raise ParseError(f"{path}: header promises {nnz} entries, found {seen}")
    return edges, rows, report


def load_graph_with_report(path: str, fmt: str | None = None) -> tuple[Graph, LoadReport]:
    """Load a graph plus a report of dropped/cleaned entries.

    ``fmt`` is 'edgelist' or 'mtx'; when None it is sniffed from the
    extension ('.mtx' means Matrix Market, everything else edge list).
    Input is symmetrized either way; self loops are dropped with a
    logged warning.
    """
    if fmt is None:
        fmt = "mtx" if path.endswith(".mtx") else "edgelist"
    if fmt not in ("edgelist", "mtx"):
        raise ParameterError(f"unknown graph format {fmt!r}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "mtx":
        edges, n, report = _parse_matrix_market(text, path)
    else:
        edges, n, report = _parse_edge_list(text, path)
    raw = len(edges)
    g = Graph.from_edges(n, edges)
    report.duplicate_entries = raw - g.edge_count
    if report.self_loops_dropped:
        logger.warning("%s: dropped %d self loop(s)", path, report.self_loops_dropped)
    return g, report


def load_graph(path: str, fmt: str | None = None) -> Graph:
    return load_graph_with_report(path, fmt)[0]


def save_edge_list(g: Graph, path: str) -> None:
    """Write one 'u v' line per edge, u < v, ascending.

    The format cannot express trailing isolated vertices (vertex count is
    inferred as max id + 1 on load); a warning is logged when that loses
    information.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vertices: {g.n}, edges: {g.edge_count}\n")
        for u in range(g.n):
            row = g.neighbors_of(u)
            for v in row[row > u]:
                fh.write(f"{u} {v}\n")
    if g.n and (g.edge_count == 0 or g.degrees[g.n - 1] == 0):
        logger.warning("%s: trailing isolated vertices will not survive a reload", path)


@dataclass(frozen=True)
class GraphSource:
    """A reproducible recipe for one graph: generator kind, params, seed."""

    kind: str
    params: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.kind == "er":
            if len(self.params) != 2:
                raise ParameterError("er takes (n, p)")
        elif self.kind == "ws":
            if len(self.params) != 3:
                raise ParameterError("ws takes (n, k, beta)")
        else:
            raise ParameterError(f"unknown graph source kind {self.kind!r}")
        for x in self.params[:len(self.params) - 1]:  # n, and ws's k
            if not (float(x).is_integer() and x >= 0):
                raise ParameterError(f"{self.kind} sizes must be whole numbers >= 0, got {x!r}")

    def build(self) -> Graph:
        if self.kind == "er":
            n, p = self.params
            return gen_er(int(n), float(p), self.seed)
        n, k, beta = self.params
        return gen_ws(int(n), int(k), float(beta), self.seed)

    @staticmethod
    def parse(text: str) -> "GraphSource":
        """Parse 'er:n,p:seed=S' / 'ws:n,k,beta:seed=S'."""
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("seed="):
            raise ParameterError(f"bad graph source {text!r}, want kind:params:seed=N")
        kind = parts[0]
        try:
            params = tuple(float(x) for x in parts[1].split(",") if x)
        except ValueError:
            raise ParameterError(f"bad params in {text!r}, want numbers") from None
        try:
            seed = int(parts[2][len("seed="):])
        except ValueError:
            raise ParameterError(f"bad seed in {text!r}") from None
        return GraphSource(kind=kind, params=params, seed=seed)
