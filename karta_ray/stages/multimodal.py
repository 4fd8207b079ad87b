"""Multimodal (image/audio) columns: opaque binary payloads decoded by
map_batches stages.

Decoding is REAL for the container formats that need no external
libraries — both fully specified, parseable with numpy alone:

- images: binary PPM (``P6``, RGB) and PGM (``P5``, grayscale)
- audio:  RIFF/WAVE PCM16 (mono or interleaved stereo)

Video has no decoder: container demuxing needs ffmpeg, and
:func:`media_decode_stats` rejects any other media type.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa


def decode_ppm(payload: bytes) -> np.ndarray:
    """Binary PPM (P6) -> (h, w, 3) uint8; PGM (P5) -> (h, w) uint8."""
    if payload[:2] not in (b"P6", b"P5"):
        raise ValueError("not a binary PPM/PGM payload")
    # header tokens: magic, width, height, maxval (comments start '#')
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(payload) and payload[i:i + 1].isspace():
            i += 1
        if payload[i:i + 1] == b"#":
            while i < len(payload) and payload[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(payload) and not payload[j:j + 1].isspace():
            j += 1
        tokens.append(int(payload[i:j]))
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if maxval > 255:
        raise ValueError("16-bit PPM not supported")
    ch = 3 if payload[:2] == b"P6" else 1
    arr = np.frombuffer(payload, dtype=np.uint8, count=w * h * ch, offset=i)
    return arr.reshape(h, w, 3) if ch == 3 else arr.reshape(h, w)


def encode_ppm(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        header = b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    else:
        header = b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    return header + arr.tobytes()


def decode_wav(payload: bytes):
    """RIFF/WAVE PCM16 -> (samples int16 (n,) or (n, channels), rate)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4:pos + 8])
        body = payload[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError("missing fmt/data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 1 or bits != 16:
        raise ValueError("only PCM16 supported")
    samples = np.frombuffer(data, dtype="<i2")
    if channels > 1:
        samples = samples.reshape(-1, channels)
    return samples, rate


def encode_wav(samples: np.ndarray, rate: int) -> bytes:
    samples = np.asarray(samples, dtype="<i2")
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    data = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate,
                      rate * channels * 2, channels * 2, 16)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def media_decode_stats(batch: pa.Table) -> pa.Table:
    """map_batches stage: decode each payload with the REAL decoders and
    emit integer-exact stats of the decoded array — the oracle-checkable
    witness that encode -> bytes -> decode reproduces every value.
    -1 sentinels where a field does not apply to the media type."""
    ids = batch.column("media_id").to_numpy()
    types = batch.column("media_type").to_pylist()
    payloads = batch.column("payload").to_pylist()
    n = len(ids)
    width = np.full(n, -1, dtype=np.int64)
    height = np.full(n, -1, dtype=np.int64)
    nval = np.empty(n, dtype=np.int64)
    vsum = np.empty(n, dtype=np.int64)
    vmin = np.empty(n, dtype=np.int64)
    vmax = np.empty(n, dtype=np.int64)
    for i, (p, t) in enumerate(zip(payloads, types)):
        if t == "image":
            arr = decode_ppm(p)
            height[i], width[i] = arr.shape[:2]
            flat = arr.astype(np.int64).ravel()
        elif t == "audio":
            samples, _rate = decode_wav(p)
            flat = samples.astype(np.int64).ravel()
        else:
            raise ValueError(f"media_type {t} has no real decoder")
        nval[i] = len(flat)
        vsum[i] = int(flat.sum())
        vmin[i] = int(flat.min())
        vmax[i] = int(flat.max())
    return pa.table({
        "media_id": pa.array(ids.astype(np.int64)),
        "media_type": pa.array(types, pa.string()),
        "width": pa.array(width),
        "height": pa.array(height),
        "n_values": pa.array(nval),
        "sum_values": pa.array(vsum),
        "min_value": pa.array(vmin),
        "max_value": pa.array(vmax),
        "mean_value": pa.array(vsum.astype(np.float64)
                               / nval.astype(np.float64)),
    })
