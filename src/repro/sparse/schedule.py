"""Cached level schedules for sparse triangular kernels.

SpTRSV's row-to-row dependences put it on the critical path of every
PCG iteration (Sec. II-A): row ``i`` cannot be solved before every row
``j < i`` it references.  Level-set (wavefront) scheduling is the
standard way to expose the parallelism that remains — rows at the same
dependence depth are independent, so each *level* can be executed as
one batched gather/segment-reduce instead of a Python row loop.

This module computes that structure **once per factor** and caches it
on the matrix object:

* :class:`TriangularSchedule` — validation (triangularity), the
  dependence level sets, and a per-level execution plan
  (row sets, flat off-diagonal position/column arrays grouped by row,
  ``np.add.reduceat`` segment starts) for forward or backward
  substitution.
* :class:`IC0Schedule` — the symbolic side of a vectorized IC(0)
  factorization: every strict lower entry is grouped by
  ``(level, position-in-row)`` so entries with satisfied dependences
  are updated in one batched step, with flat update-pair position
  arrays replacing the reference implementation's per-entry merged row
  scans.

Schedules depend only on the matrix *structure* (``indptr`` /
``indices``); numeric values are gathered from ``data`` at execution
time, so in-place value updates never invalidate a cached schedule.
Replacing the structure arrays (or building a new matrix) does.

A triangular schedule's ``levels`` are the only dependence levels in
``repro``: the mapping's temporal quantiles
(:mod:`repro.core.quantiles`) and the GPU and analytic Azul models
read them too, so one cached schedule per factor serves mapping,
solving and verification.

Error behavior matches the reference row loops in
``tests/oracles/kernels.py`` — same exception classes and messages,
raised for the first offending row in reference iteration order — with
one documented exception: a non-triangular row has no schedule, so it
is reported eagerly at schedule build, before any zero pivot the
reference sweep would have hit in an earlier row.  A row without a
stored diagonal does not stop the build (its level is defined by the
strict triangle alone, which is all the level readers need); a solve
reports it, or an earlier zero pivot, in reference order.

Layer contract: ``schedule`` sits above ``csr`` and below ``ops``
(see ``tools/check_layers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import NotTriangularError, SingularMatrixError
from repro.sparse.csr import CSRMatrix

#: Attribute under which schedules are memoized on a CSRMatrix.
_CACHE_ATTR = "_kernel_schedules"


def _structure_token(matrix: CSRMatrix) -> Tuple[int, int, int]:
    """Identity of the matrix's *structure* arrays.

    Values (``data``) are deliberately excluded: schedules are purely
    structural and numeric values are re-gathered on every execution,
    so in-place value mutation stays coherent.  Replacing ``indptr`` or
    ``indices`` (any structural change built the normal way produces
    new arrays) invalidates the cached schedule.
    """
    return (id(matrix.indptr), id(matrix.indices), matrix.nnz)


def cached_on(matrix: CSRMatrix, key: tuple, builder):
    """Memoize ``builder()`` on the matrix, keyed by structure identity.

    For anything computed from the structure alone: the level
    schedules here, the transpose the backward solve of a factor reads
    (:func:`repro.sparse.ops.level_sptrsv_transposed`) and the weighted
    critical path (:func:`repro.graph.levels.critical_path_ops`).
    """
    cache: Dict[tuple, tuple] = getattr(matrix, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(matrix, _CACHE_ATTR, cache)
    token = _structure_token(matrix)
    hit = cache.get(key)
    if hit is not None and hit[0] == token:
        return hit[1]
    built = builder()
    cache[key] = (token, built)
    return built


# ----------------------------------------------------------------------
# Segment sums
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Segments:
    """Precomputed ``np.add.reduceat`` plan over variable-length segments.

    ``reduceat`` mishandles empty segments (it returns the element at
    the repeated start instead of 0 and rejects a start equal to the
    array length), so empty segments are dropped from ``starts`` at
    build time and their sums are defined to be zero; ``nonempty``
    scatters the reduced values back to the full segment list.
    """

    n_segments: int
    starts: np.ndarray          # reduceat starts of the non-empty segments
    nonempty: Optional[np.ndarray]  # segment ids of ``starts`` (None = all)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-segment sums of ``values`` (zeros for empty segments)."""
        if self.nonempty is None:
            if self.n_segments == 0:
                return np.zeros(0, dtype=np.float64)
            return np.add.reduceat(values, self.starts)
        out = np.zeros(self.n_segments, dtype=np.float64)
        if len(self.starts):
            out[self.nonempty] = np.add.reduceat(values, self.starts)
        return out


def _make_segments(starts: np.ndarray, counts: np.ndarray) -> _Segments:
    """Build a :class:`_Segments` plan from segment starts and lengths."""
    n_segments = len(counts)
    nonempty = np.nonzero(counts > 0)[0]
    if len(nonempty) == n_segments:
        return _Segments(n_segments, starts.astype(np.int64), None)
    return _Segments(
        n_segments, starts[nonempty].astype(np.int64), nonempty
    )


# ----------------------------------------------------------------------
# Triangular level schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LevelStep:
    """One wavefront of the substitution: rows solvable in parallel."""

    rows: np.ndarray       # row indices of this level
    nz_lo: int             # slice of the flat off-diagonal arrays
    nz_hi: int
    cols: np.ndarray       # off-diagonal columns, grouped by row
    segments: _Segments    # per-row segment sums over the slice
    diag: Optional[np.ndarray]  # data positions of the rows' diagonals


@dataclass(frozen=True)
class TriangularSchedule:
    """Dependence level sets plus a batched execution plan for SpTRSV.

    Built once per (factor structure, direction, diagonal mode) by
    :func:`triangular_schedule` and cached on the matrix; numeric
    values are gathered from ``data`` at :meth:`execute` time.
    """

    n: int
    is_lower: bool
    unit_diagonal: bool
    levels: np.ndarray          # dependence depth of each row
    n_levels: int
    off_pos: np.ndarray         # data positions of strict off-diag entries,
                                # grouped by row in execution order,
                                # ascending column within each row
    diag_pos: Optional[np.ndarray]  # data position of each row's diagonal
                                    # (-1: not stored)
    diag_complete: bool         # every row stores its diagonal
    plan: Tuple[_LevelStep, ...] = field(repr=False)

    def level_sizes(self) -> np.ndarray:
        """Rows per level (the solve's parallelism profile)."""
        return np.bincount(self.levels, minlength=self.n_levels)

    # ------------------------------------------------------------------
    def execute(self, data: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Run the substitution against the current ``data`` values.

        Raises :class:`SingularMatrixError` on a missing diagonal or a
        zero pivot, matching the reference row loop's message and row
        choice (the first singular row in reference iteration order).
        """
        values = data[self.off_pos]
        if not self.unit_diagonal:
            assert self.diag_pos is not None
            if not (self.diag_complete and np.all(data[self.diag_pos])):
                self._raise_singular(data)
        x = np.empty(self.n, dtype=np.float64)
        for step in self.plan:
            acc = b[step.rows]
            if step.nz_hi > step.nz_lo:
                products = values[step.nz_lo:step.nz_hi] * x[step.cols]
                acc = acc - step.segments.sums(products)
            if step.diag is None:
                x[step.rows] = acc
            else:
                x[step.rows] = acc / data[step.diag]
        return x

    def _raise_singular(self, data: np.ndarray) -> None:
        """Raise for the first row, in reference iteration order, that
        stores no diagonal or a zero one."""
        stored = self.diag_pos >= 0
        singular = ~stored
        singular[stored] = data[self.diag_pos[stored]] == 0.0
        rows = np.nonzero(singular)[0]
        i = int(rows[0] if self.is_lower else rows[-1])
        if not stored[i]:
            raise SingularMatrixError(f"missing diagonal entry in row {i}")
        raise SingularMatrixError(f"zero pivot in row {i}")


def _strict_structure(matrix: CSRMatrix, is_lower: bool,
                      unit_diagonal: bool):
    """Validate triangularity; return the strict structure.

    Returns ``(off_pos, off_cols, row_ptr, diag_pos)`` where the
    off-diagonal arrays are in row-major, ascending-column order and
    ``diag_pos`` is None for unit-diagonal factors, else each row's
    diagonal data position (-1 where the row stores none).
    """
    n = matrix.n_rows
    indptr, indices = matrix.indptr, matrix.indices
    rows_of = np.repeat(np.arange(n, dtype=np.int64), matrix.row_nnz())
    strict = indices < rows_of if is_lower else indices > rows_of
    wrong_side = indices > rows_of if is_lower else indices < rows_of
    on_diag = indices == rows_of

    bad_tri = np.zeros(n, dtype=bool)
    bad_tri[rows_of[wrong_side]] = True
    if bad_tri.any():
        # Report the first offending row in reference iteration order;
        # a row before it without a stored diagonal comes first.
        has_diag = np.zeros(n, dtype=bool)
        has_diag[rows_of[on_diag]] = True
        missing = ~has_diag if not unit_diagonal else np.zeros(n, dtype=bool)
        bad = np.nonzero(bad_tri | missing)[0]
        i = int(bad[0] if is_lower else bad[-1])
        if bad_tri[i]:
            row_cols = indices[indptr[i]:indptr[i + 1]]
            if is_lower:
                raise NotTriangularError(
                    f"row {i} has entry in column {int(row_cols[-1])} "
                    "above the diagonal"
                )
            raise NotTriangularError(
                f"row {i} has entry in column {int(row_cols[0])} "
                "below the diagonal"
            )
        raise SingularMatrixError(f"missing diagonal entry in row {i}")

    off_pos = np.nonzero(strict)[0].astype(np.int64)
    off_cols = indices[off_pos]
    counts = np.bincount(rows_of[strict], minlength=n)
    row_ptr = np.concatenate(
        ([0], np.cumsum(counts))
    ).astype(np.int64)
    if unit_diagonal:
        diag_pos = None
    else:
        diag_pos = np.full(n, -1, dtype=np.int64)
        stored = np.nonzero(on_diag)[0]
        diag_pos[rows_of[stored]] = stored
    return off_pos, off_cols, row_ptr, diag_pos


def _row_levels(off_cols: np.ndarray, row_ptr: np.ndarray, n: int,
                is_lower: bool) -> np.ndarray:
    """Dependence depth of each row (longest chain ending at the row)."""
    levels = [0] * n
    cols = off_cols.tolist()
    ptr = row_ptr.tolist()
    order = range(n) if is_lower else range(n - 1, -1, -1)
    for i in order:
        depth = -1
        for k in range(ptr[i], ptr[i + 1]):
            level = levels[cols[k]]
            if level > depth:
                depth = level
        levels[i] = depth + 1
    return np.asarray(levels, dtype=np.int64)


def _gather_segments(src_ptr: np.ndarray, order: np.ndarray):
    """Flat gather indices that regroup row segments into ``order``.

    Returns ``(index, new_ptr)``: ``flat[new_ptr[k]:new_ptr[k+1]]`` of
    any array indexed by ``index`` is the segment of ``order[k]``.
    """
    lengths = (src_ptr[1:] - src_ptr[:-1])[order]
    new_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    total = int(new_ptr[-1])
    index = (
        np.repeat(src_ptr[order], lengths)
        + np.arange(total, dtype=np.int64)
        - np.repeat(new_ptr[:-1], lengths)
    )
    return index, new_ptr


def _build_triangular(matrix: CSRMatrix, is_lower: bool,
                      unit_diagonal: bool) -> TriangularSchedule:
    n = matrix.n_rows
    off_pos, off_cols, row_ptr, diag_pos = _strict_structure(
        matrix, is_lower, unit_diagonal
    )
    levels = _row_levels(off_cols, row_ptr, n, is_lower)
    n_levels = int(levels.max()) + 1 if n else 0
    order = np.argsort(levels, kind="stable").astype(np.int64)
    level_counts = np.bincount(levels, minlength=n_levels)
    level_ptr = np.concatenate(([0], np.cumsum(level_counts)))

    gather, ordered_ptr = _gather_segments(row_ptr, order)
    off_pos_ordered = off_pos[gather]
    off_cols_ordered = off_cols[gather]

    plan: List[_LevelStep] = []
    for level in range(n_levels):
        row_lo, row_hi = int(level_ptr[level]), int(level_ptr[level + 1])
        rows = order[row_lo:row_hi]
        nz_lo, nz_hi = int(ordered_ptr[row_lo]), int(ordered_ptr[row_hi])
        starts = ordered_ptr[row_lo:row_hi] - nz_lo
        counts = ordered_ptr[row_lo + 1:row_hi + 1] - ordered_ptr[row_lo:row_hi]
        plan.append(_LevelStep(
            rows=rows,
            nz_lo=nz_lo,
            nz_hi=nz_hi,
            cols=off_cols_ordered[nz_lo:nz_hi],
            segments=_make_segments(starts, counts),
            diag=None if diag_pos is None else diag_pos[rows],
        ))
    return TriangularSchedule(
        n=n,
        is_lower=is_lower,
        unit_diagonal=unit_diagonal,
        levels=levels,
        n_levels=n_levels,
        off_pos=off_pos_ordered,
        diag_pos=diag_pos,
        diag_complete=diag_pos is None or bool(np.all(diag_pos >= 0)),
        plan=tuple(plan),
    )


def triangular_schedule(matrix: CSRMatrix, is_lower: bool = True,
                        unit_diagonal: bool = False) -> TriangularSchedule:
    """The (cached) level schedule of a triangular matrix.

    Memoized on the matrix object, keyed by structure identity plus
    ``(is_lower, unit_diagonal)``; see the module docstring for the
    invalidation rules.
    """
    return cached_on(
        matrix, ("tri", is_lower, unit_diagonal),
        lambda: _build_triangular(matrix, is_lower, unit_diagonal),
    )


# ----------------------------------------------------------------------
# IC(0) symbolic schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _IC0Step:
    """One batched update: all entries at ``(level, position-in-row)``.

    Each target entry ``(i, j)`` receives ``(A[i,j] - sum_k
    L[i,k] L[j,k]) / L[j,j]``; the pair arrays hold the data positions
    of every ``(L[i,k], L[j,k])`` product, grouped per target in
    ascending ``k`` order (the reference merge order).
    """

    targets: np.ndarray     # data positions of the entries to compute
    pivots: np.ndarray      # data positions of each target's L[j,j]
    pair_a: np.ndarray      # data positions of L[i,k]
    pair_b: np.ndarray      # data positions of L[j,k]
    segments: _Segments     # per-target sums over the pair products


@dataclass(frozen=True)
class IC0Schedule:
    """Symbolic plan for the level-batched IC(0) factorization.

    ``steps[level]`` is the in-row-position sequence of batched entry
    updates for that level; after a level's steps, its rows' diagonals
    are closed with one batched sqrt via the embedded triangular
    schedule's per-level slices.
    """

    tri: TriangularSchedule
    steps: Tuple[Tuple[_IC0Step, ...], ...] = field(repr=False)

    # ------------------------------------------------------------------
    def attempt(self, lower: CSRMatrix,
                diag_shift: float) -> Optional[np.ndarray]:
        """One numeric IC(0) attempt; None on breakdown.

        Breakdown — a zero pivot or a non-positive diagonal — returns
        ``None`` so the caller can retry with a larger diagonal shift.
        """
        tri = self.tri
        data = lower.data.copy()
        diag_pos = tri.diag_pos
        assert diag_pos is not None  # tri was built with a stored diagonal
        if diag_shift != 0.0:
            data[diag_pos] *= 1.0 + diag_shift
        for level, level_steps in enumerate(self.steps):
            for step in level_steps:
                pivots = data[step.pivots]
                if not np.all(pivots):
                    return None
                acc = data[step.targets]
                if len(step.pair_a):
                    products = data[step.pair_a] * data[step.pair_b]
                    acc = acc - step.segments.sums(products)
                data[step.targets] = acc / pivots
            # Close the level's diagonals: d_i = sqrt(A_ii - sum L_ik^2).
            tri_step = tri.plan[level]
            assert tri_step.diag is not None
            acc = data[tri_step.diag]
            if tri_step.nz_hi > tri_step.nz_lo:
                row_values = data[tri.off_pos[tri_step.nz_lo:tri_step.nz_hi]]
                acc = acc - tri_step.segments.sums(row_values * row_values)
            if np.any(acc <= 0.0):
                return None
            data[tri_step.diag] = np.sqrt(acc)
        return data


def _build_ic0(lower: CSRMatrix) -> IC0Schedule:
    tri = _build_triangular(lower, is_lower=True, unit_diagonal=False)
    if not tri.diag_complete:
        missing = int(np.nonzero(tri.diag_pos < 0)[0][0])
        raise SingularMatrixError(f"missing diagonal entry in row {missing}")
    n = lower.n_rows
    indptr, indices = lower.indptr, lower.indices
    rows_of = np.repeat(np.arange(n, dtype=np.int64), lower.row_nnz())
    strict = indices < rows_of
    ent_pos = np.nonzero(strict)[0].astype(np.int64)
    ent_row = rows_of[ent_pos]
    ent_col = indices[ent_pos]
    # Strict entries of a sorted lower-triangular row precede the
    # diagonal, so the in-row position is just the offset from indptr.
    ent_q = ent_pos - indptr[ent_row]
    ent_level = tri.levels[ent_row]
    diag_pos = tri.diag_pos
    assert diag_pos is not None  # tri was built with a stored diagonal

    # ---- update pairs, generated column by column ---------------------
    # Two strict entries (j, k) and (i, k) of the same column k with
    # j < i contribute the product L[i,k] * L[j,k] to entry (i, j) —
    # when (i, j) is in the pattern (IC(0) drops it otherwise).
    col_order = np.argsort(ent_col, kind="stable")
    c_pos = ent_pos[col_order]
    c_row = ent_row[col_order]
    col_counts = np.bincount(ent_col, minlength=n)
    col_ptr = np.concatenate(([0], np.cumsum(col_counts)))
    pair_chunks_a: List[np.ndarray] = []   # positions of L[i,k]
    pair_chunks_b: List[np.ndarray] = []   # positions of L[j,k]
    row_chunks_i: List[np.ndarray] = []
    row_chunks_j: List[np.ndarray] = []
    for k in range(n):
        lo, hi = int(col_ptr[k]), int(col_ptr[k + 1])
        if hi - lo < 2:
            continue
        # Rows are ascending within a column (stable sort of row-major
        # order), so index pairs (a < b) give j = rows[a] < i = rows[b].
        a_idx, b_idx = np.triu_indices(hi - lo, k=1)
        pair_chunks_a.append(c_pos[lo + b_idx])
        pair_chunks_b.append(c_pos[lo + a_idx])
        row_chunks_i.append(c_row[lo + b_idx])
        row_chunks_j.append(c_row[lo + a_idx])
    if pair_chunks_a:
        pair_a = np.concatenate(pair_chunks_a)
        pair_b = np.concatenate(pair_chunks_b)
        pair_i = np.concatenate(row_chunks_i)
        pair_j = np.concatenate(row_chunks_j)
        # Keep only pairs whose target entry (i, j) exists.  The keys
        # of all stored entries are ascending in row-major CSR order,
        # so one searchsorted resolves the target data positions.
        keys = rows_of * np.int64(n) + indices
        cand = pair_i * np.int64(n) + pair_j
        loc = np.searchsorted(keys, cand)
        valid = (loc < len(keys)) & (keys[np.minimum(loc, len(keys) - 1)]
                                     == cand)
        pair_a = pair_a[valid]
        pair_b = pair_b[valid]
        pair_target = loc[valid].astype(np.int64)
    else:
        pair_a = np.zeros(0, dtype=np.int64)
        pair_b = np.zeros(0, dtype=np.int64)
        pair_target = np.zeros(0, dtype=np.int64)

    # ---- group targets and pairs by (level, position-in-row) ----------
    ent_sort = np.lexsort((ent_pos, ent_q, ent_level))
    s_pos = ent_pos[ent_sort]
    s_col = ent_col[ent_sort]
    s_q = ent_q[ent_sort]
    s_level = ent_level[ent_sort]

    # Pairs follow their target's chunk; ascending k within a target
    # preserves the reference merge order (k = column of L[j,k], and
    # pair_b positions within one target row j are ascending in k).
    tgt_level = tri.levels[rows_of[pair_target]]
    tgt_q = pair_target - indptr[rows_of[pair_target]]
    pair_sort = np.lexsort((pair_b, pair_target, tgt_q, tgt_level))
    p_a = pair_a[pair_sort]
    p_b = pair_b[pair_sort]
    p_target = pair_target[pair_sort]
    p_level = tgt_level[pair_sort]
    p_q = tgt_q[pair_sort]

    max_q = int(ent_q.max()) + 1 if len(ent_q) else 0
    chunk_key = s_level * max_q + s_q if max_q else s_level
    pair_key = p_level * max_q + p_q if max_q else p_level
    steps: List[List[_IC0Step]] = [[] for _ in range(tri.n_levels)]
    if len(s_pos):
        boundaries = np.concatenate((
            [0], np.nonzero(np.diff(chunk_key))[0] + 1, [len(s_pos)]
        ))
        for c in range(len(boundaries) - 1):
            lo, hi = int(boundaries[c]), int(boundaries[c + 1])
            targets = s_pos[lo:hi]
            level = int(s_level[lo])
            key = int(chunk_key[lo])
            p_lo, p_hi = np.searchsorted(pair_key, [key, key + 1])
            chunk_pair_target = p_target[p_lo:p_hi]
            counts = (
                np.searchsorted(chunk_pair_target, targets, side="right")
                - np.searchsorted(chunk_pair_target, targets, side="left")
            )
            starts = np.concatenate(([0], np.cumsum(counts[:-1])))
            steps[level].append(_IC0Step(
                targets=targets,
                pivots=diag_pos[s_col[lo:hi]],
                pair_a=p_a[p_lo:p_hi],
                pair_b=p_b[p_lo:p_hi],
                segments=_make_segments(starts, counts),
            ))
    return IC0Schedule(
        tri=tri, steps=tuple(tuple(level) for level in steps)
    )


def ic0_schedule(lower: CSRMatrix) -> IC0Schedule:
    """The (cached) symbolic IC(0) schedule of a lower factor pattern."""
    return cached_on(lower, ("ic0",), lambda: _build_ic0(lower))
