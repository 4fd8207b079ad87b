"""Zero-copy decode of Arrow list columns into numpy matrices.

``.to_pylist()`` on an embedding column costs a Python-object round trip
per value; Arrow list arrays already store their values as one flat
contiguous buffer, so a batch decodes with a single (optional) cast and
a reshape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def list_column_to_matrix(col) -> np.ndarray:
    """(n, d) float64 ndarray from a ``list<T>`` /
    ``fixed_size_list<T, d>`` column whose rows all have the same
    length. Single flat-buffer view + one cast — no per-value Python
    objects."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    if pa.types.is_fixed_size_list(arr.type):
        d = arr.type.list_size
        flat = arr.values.slice(arr.offset * d, n * d)
        out = np.asarray(flat)
    else:
        offsets = np.asarray(arr.offsets, dtype=np.int64)
        widths = np.diff(offsets)
        d = int(widths[0]) if len(widths) else 0
        if len(widths) and not (widths == d).all():
            raise ValueError("ragged list column cannot form a matrix")
        flat = arr.values.slice(int(offsets[0]), n * d)
        out = np.asarray(flat)
    return out.astype(np.float64, copy=False).reshape(n, d)


def matrix_to_list_column(mat: np.ndarray):
    """Inverse: (n, d) ndarray -> float64 FixedSizeListArray without
    tolist()."""
    mat = np.ascontiguousarray(mat)
    values = pa.array(mat.ravel(), type=pa.float64())
    return pa.FixedSizeListArray.from_arrays(values, mat.shape[1])


def matrix_to_binary_column(mat: np.ndarray):
    """(n, d) ndarray -> variable binary column of d*itemsize-byte rows.

    Arrow's hash join rejects nested (list) payload columns; a binary
    blob carries the same bytes and joins fine."""
    mat = np.ascontiguousarray(mat)
    n, d = mat.shape
    width = d * mat.itemsize
    values = pa.py_buffer(mat.tobytes())
    offsets = pa.array(np.arange(0, (n + 1) * width, width,
                                 dtype=np.int32), pa.int32())
    return pa.BinaryArray.from_buffers(pa.binary(), n,
                                       [None, offsets.buffers()[1], values])


def binary_column_to_matrix(col, dtype, d: int) -> np.ndarray:
    """Inverse of :func:`matrix_to_binary_column`: uniform-width binary
    column -> (n, d) ndarray via one buffer view (no per-row bytes)."""
    arr = col
    if isinstance(arr, pa.ChunkedArray):
        # combine_chunks copies even a single chunk
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty((0, d), dtype=dtype)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset:arr.offset + n + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    width = int(offsets[1] - offsets[0])
    if not (np.diff(offsets) == width).all():
        raise ValueError("ragged binary column cannot form a matrix")
    flat = data[offsets[0]:offsets[-1]]
    return flat.view(dtype).reshape(n, d)


def member_bboxes(col):
    """Per-geometry planar bboxes of a list<fixed_size_list<f64, 2>>
    vertex column in ONE vectorized pass: (xmin, ymin, xmax, ymax)
    float64 arrays via segmented min/max (``np.minimum.reduceat`` over
    the Arrow list offsets) — no per-member Python loop.  Empty
    geometries get NaN bboxes (they can never pass an overlap gate)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        e = np.empty(0, dtype=np.float64)
        return e, e, e, e
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    inner = arr.flatten()
    if pa.types.is_fixed_size_list(inner.type):
        flat = np.asarray(inner.values.slice(inner.offset * 2,
                                             len(inner) * 2))
    else:
        flat = np.asarray(inner.flatten())
    flat = flat.astype(np.float64, copy=False).reshape(-1, 2)
    rel = offsets - offsets[0]
    starts = rel[:-1]
    lens = np.diff(rel)
    nonempty = lens > 0
    xmin = np.full(n, np.nan)
    ymin = np.full(n, np.nan)
    xmax = np.full(n, np.nan)
    ymax = np.full(n, np.nan)
    if nonempty.all():
        xmin = np.minimum.reduceat(flat[:, 0], starts)
        ymin = np.minimum.reduceat(flat[:, 1], starts)
        xmax = np.maximum.reduceat(flat[:, 0], starts)
        ymax = np.maximum.reduceat(flat[:, 1], starts)
    elif nonempty.any():
        # reduceat misbehaves on empty segments (returns the element at
        # the boundary); reduce only the nonempty ones
        s = starts[nonempty]
        xmin[nonempty] = np.minimum.reduceat(flat[:, 0], s)
        ymin[nonempty] = np.minimum.reduceat(flat[:, 1], s)
        xmax[nonempty] = np.maximum.reduceat(flat[:, 0], s)
        ymax[nonempty] = np.maximum.reduceat(flat[:, 1], s)
    return xmin, ymin, xmax, ymax


def nested_vertices_to_arrays(col) -> list:
    """list<fixed_size_list<double, 2>> column -> list of (n_i, 2)
    float64 views over one flat decode (per-geometry vertex arrays)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return []
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    inner = arr.flatten()  # fixed_size_list(2) / list(2) of float64
    if pa.types.is_fixed_size_list(inner.type):
        flat = np.asarray(inner.values.slice(inner.offset * 2,
                                             len(inner) * 2))
    else:
        flat = np.asarray(inner.flatten())
    flat = flat.astype(np.float64, copy=False).reshape(-1, 2)
    rel = offsets - offsets[0]
    return [flat[rel[i]:rel[i + 1]] for i in range(len(arr))]
