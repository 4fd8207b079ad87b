"""Multimodal (image/audio/video) columns: opaque binary payloads with
typed metadata, processed by map_batches stages.

Decoding is REAL for the container formats that need no external
libraries — both fully specified, parseable with numpy alone:

- images: binary PPM (``P6``, RGB) and PGM (``P5``, grayscale)
- audio:  RIFF/WAVE PCM16 (mono or interleaved stereo)

``video`` payloads remain STUBBED behind a clearly-marked
``NotImplementedError`` (container demuxing needs ffmpeg, absent here);
a deterministic hash-seeded fake keeps the Ray-side plumbing — schema,
batch sizing, output layout — real and testable, and ``frame_sample``
shows the intended decode shape on a sequence of PPM frames.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),       # "image" | "audio" | "video"
    ("payload", pa.binary()),          # encoded bytes (opaque)
    ("width", pa.int32()),             # metadata (nullable where n/a)
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


# ---------------------------------------------------------------------------
# Real decoders (numpy only)
# ---------------------------------------------------------------------------

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


def resize_image(arr: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbor resize (the reference's resample-nearest
    semantics applied to image pixels)."""
    h, w = arr.shape[:2]
    ii = np.minimum((np.arange(height) * h) // height, h - 1)
    jj = np.minimum((np.arange(width) * w) // width, w - 1)
    return arr[ii][:, jj]


def frame_sample(frames: list) -> list:
    """Video frame sampling shape (on decoded frame sequences): every
    second frame."""
    return frames[::2]


def _decode_video_real(payload: bytes):
    raise NotImplementedError(
        "video demuxing requires ffmpeg, not present in this "
        "environment — wire a decoder here when available")


def _features_fake(payload: bytes, dim: int) -> np.ndarray:
    """Deterministic stand-in features for the stubbed video path:
    blake2b(payload) expanded to `dim` floats in [0, 1)."""
    h = hashlib.blake2b(payload, digest_size=8).digest()
    seed = int.from_bytes(h, "little") % (2 ** 32)
    rng = np.random.RandomState(seed)
    return rng.rand(dim)


def _features_image(arr: np.ndarray, dim: int) -> np.ndarray:
    if arr.ndim == 2:
        arr = arr[:, :, None].repeat(3, axis=2)
    f = np.zeros(dim)
    lum = arr.astype(np.float64).mean(axis=2)
    stats = [arr.shape[1], arr.shape[0],
             *(arr[:, :, c].mean() for c in range(3)),
             *(arr[:, :, c].std() for c in range(3))]
    grid = resize_image(lum, 3, 3).ravel() / 255.0
    vals = np.asarray(stats + grid.tolist())
    f[:min(dim, len(vals))] = vals[:dim]
    return f


def _features_audio(samples: np.ndarray, rate: int, dim: int) -> np.ndarray:
    mono = samples.astype(np.float64)
    if mono.ndim > 1:
        mono = mono.mean(axis=1)
    mono /= 32768.0
    f = np.zeros(dim)
    zc = float(np.mean(np.abs(np.diff(np.sign(mono))) > 0)) if len(mono) > 1 else 0.0
    head = [len(mono), rate, float(np.sqrt(np.mean(mono ** 2))), zc]
    bands = np.array_split(mono, 8)
    energies = [float(np.sqrt(np.mean(b ** 2))) if len(b) else 0.0
                for b in bands]
    vals = np.asarray(head + energies)
    f[:min(dim, len(vals))] = vals[:dim]
    return f


class MediaFeatureExtractor:
    """map_batches stage: payload -> fixed-dim feature vector.

    Setup (the "model/codec load") happens once per worker; batches
    should be small because payloads are heavy (MEDIA_BATCH_SIZE x
    payload_bytes must fit the worker heap).
    """

    def __init__(self, dim: int = 32):
        self.dim = dim
        self._ready = True  # stand-in for model/codec initialization

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.arrays import matrix_to_list_column

        payloads = batch.column("payload").to_pylist()
        types = batch.column("media_type").to_pylist()
        feats = np.empty((len(payloads), self.dim))
        for i, (p, t) in enumerate(zip(payloads, types)):
            if t == "image":
                feats[i] = _features_image(decode_ppm(p), self.dim)
            elif t == "audio":
                feats[i] = _features_audio(*decode_wav(p), self.dim)
            else:  # video: decoder stubbed (see _decode_video_real)
                feats[i] = _features_fake(p, self.dim)
        out = batch.drop_columns(["payload"])  # shed heavy bytes early
        return out.append_column("features",
                                 matrix_to_list_column(feats))


# rows per feature-extraction batch: deliberately small, payloads are
# heavy binary
MEDIA_BATCH_SIZE = 64


def extract_media_features(media_ds, *, dim: int = 32):
    """Feature extraction over a media Dataset. Task-based; the
    extractor is built once per worker process (state/worker.py)."""
    from ..state.worker import cached

    def fn(batch: pa.Table) -> pa.Table:
        return cached(MediaFeatureExtractor, dim)(batch)

    return media_ds.map_batches(fn, batch_format="pyarrow",
                                batch_size=MEDIA_BATCH_SIZE,
                                zero_copy_batch=True)


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


def synth_media_table(n: int) -> pa.Table:
    """Deterministic media rows with REAL payloads: PPM images and
    PCM16 WAV clips (video rows carry opaque bytes for the stub)."""
    rng = np.random.RandomState(0)
    rows = {"media_id": [], "media_type": [], "payload": [],
            "width": [], "height": [], "duration_ms": []}
    for i in range(n):
        kind = ("image", "audio", "video")[i % 3]
        if kind == "image":
            w, h = 32 + (i % 4) * 8, 24 + (i % 3) * 8
            img = rng.randint(0, 255, (h, w, 3)).astype(np.uint8)
            payload = encode_ppm(img)
            width, height, dur = w, h, None
        elif kind == "audio":
            rate = 8000
            t = np.arange(rate // 4)
            freq = 200 + 50 * (i % 7)
            wave = (10000 * np.sin(2 * np.pi * freq * t / rate))
            payload = encode_wav(wave.astype(np.int16), rate)
            width = height = None
            dur = 250
        else:
            payload = rng.bytes(256 + (i % 5) * 128)
            width, height, dur = 64, 48, 1000 + i
        rows["media_id"].append(i)
        rows["media_type"].append(kind)
        rows["payload"].append(payload)
        rows["width"].append(width)
        rows["height"].append(height)
        rows["duration_ms"].append(dur)
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "media_type": pa.array(rows["media_type"], pa.string()),
        "payload": pa.array(rows["payload"], pa.binary()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
        "duration_ms": pa.array(rows["duration_ms"], pa.int32()),
    })
