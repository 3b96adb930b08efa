"""Multimodal columns: image/audio/video as opaque ``binary`` columns with
typed metadata, processed by actor-pool map_batches stages.

The decode libraries (PIL/ffmpeg/torchaudio) are NOT in this container, so the
decode kernels are STUBBED behind a deterministic fake (``fake=True``, used by
tests/bench) or a clearly-marked NotImplementedError. Everything around them —
schema contract, batch sizing, actor signatures, output layout — is real and
tested; swapping in a real decoder touches only ``_decode_*_real``.

Schema contract:
    image:  (id: int64, media: binary, media_type: string,
             width: int32, height: int32)  [+ decoded columns added by stages]
    audio:  (id: int64, media: binary, media_type: string,
             sample_rate: int32, n_samples: int64)

Batch-size guidance (memory-aware): large binary payloads → small
``batch_size`` (e.g. 32-256) so batch × concurrency fits worker heap; keep
``batch_format="pyarrow"`` (binary columns don't round-trip pandas well).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _fake_pixels(payload: bytes, width: int, height: int) -> np.ndarray:
    """Deterministic fake decode: pixels derived from the payload digest."""
    seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")
    rng = np.random.RandomState(seed % (2**32))
    return rng.randint(0, 256, size=(height, width, 3), dtype=np.uint8)


class DecodeImage:
    """binary → pixel features. Actor-pool stage: decoder initialized once.

    Adds: ``pix_mean: float32``, ``pix_std: float32``, ``decoded_w: int32``,
    ``decoded_h: int32``, ``decoded_ok: bool``.

    ``fake=False`` is a REAL decode: PIL when importable, else the pure-stdlib
    PNG codec (wrangler_ray.ops.png) for ``image/png`` payloads. Rows whose
    bytes fail to decode get ``decoded_ok=False`` and null features — decode
    errors are per-row data errors, not stage crashes. ``fake=True`` keeps the
    deterministic digest-derived pixels (no imaging dependency at all)."""

    def __init__(self, media_col: str = "media", fake: bool = True):
        self.media_col = media_col
        self.fake = fake
        self.pil = None
        if not fake:
            try:
                from PIL import Image  # optional fast path

                self.pil = Image
            except ImportError:
                self.pil = None  # pure-Python PNG fallback

    def _decode_real(self, payload: bytes):
        if self.pil is not None:
            import io

            img = self.pil.open(io.BytesIO(payload))
            return np.asarray(img.convert("RGB"))
        from wrangler_ray.ops.png import png_decode

        return png_decode(payload)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.media_col).to_pylist()
        widths = batch.column("width").to_pylist() if "width" in batch.column_names else None
        heights = batch.column("height").to_pylist() if "height" in batch.column_names else None
        means, stds, oks, dws, dhs = [], [], [], [], []
        for i, p in enumerate(payloads):
            px = None
            if p is not None:
                if self.fake:
                    w = (widths[i] if widths else 16) or 16
                    h = (heights[i] if heights else 16) or 16
                    px = _fake_pixels(bytes(p), w, h)
                else:
                    try:
                        px = self._decode_real(bytes(p))
                    except Exception:
                        px = None
            if px is None:
                means.append(None)
                stds.append(None)
                dws.append(None)
                dhs.append(None)
                oks.append(False)
                continue
            means.append(float(px.mean()))
            stds.append(float(px.std()))
            dhs.append(int(px.shape[0]))
            dws.append(int(px.shape[1]))
            oks.append(True)
        batch = batch.append_column("pix_mean", pa.array(means, pa.float32()))
        batch = batch.append_column("pix_std", pa.array(stds, pa.float32()))
        batch = batch.append_column("decoded_w", pa.array(dws, pa.int32()))
        batch = batch.append_column("decoded_h", pa.array(dhs, pa.int32()))
        return batch.append_column("decoded_ok", pa.array(oks, pa.bool_()))


class ResizeImage:
    """Resize stage. ``real=True`` decodes PNG payloads (pure-stdlib codec),
    nearest-neighbor resizes with numpy fancy indexing, and re-encodes to a
    ``resized_media`` PNG column. ``real=False`` (default) keeps the metadata
    stub: records target size + the byte-length a raw RGB buffer would have.
    Both add ``resized_w/resized_h/resized_nbytes``."""

    def __init__(self, width: int, height: int, media_col: str = "media",
                 real: bool = False):
        self.width = width
        self.height = height
        self.media_col = media_col
        self.real = real

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        batch = batch.append_column("resized_w", pa.array([self.width] * n, pa.int32()))
        batch = batch.append_column("resized_h", pa.array([self.height] * n, pa.int32()))
        payloads = batch.column(self.media_col).to_pylist()
        if not self.real:
            nb = [
                self.width * self.height * 3 if v is not None else None
                for v in payloads
            ]
            return batch.append_column("resized_nbytes", pa.array(nb, pa.int64()))
        from wrangler_ray.ops.png import png_decode, png_encode, resize_nearest

        out_media, nb = [], []
        for p in payloads:
            try:
                px = png_decode(bytes(p))
                if px.shape[2] != 3:  # grey/alpha → RGB for re-encode
                    px = px[:, :, :1].repeat(3, axis=2) if px.shape[2] < 3 else px[:, :, :3]
                enc = png_encode(resize_nearest(px, self.width, self.height))
                out_media.append(enc)
                nb.append(len(enc))
            except Exception:
                out_media.append(None)
                nb.append(None)
        batch = batch.append_column("resized_media", pa.array(out_media, pa.binary()))
        return batch.append_column("resized_nbytes", pa.array(nb, pa.int64()))


class VideoFrames:
    """Video frame-sampling + per-frame features. ``fake=False`` REALLY
    decodes uncompressed-DIB AVI payloads with the pure-stdlib RIFF codec
    (ops/avi.py — the video analog of ops/png.py / the ``wave`` module) and
    computes statistics over every ``stride``-th frame (cap ``max_frames``,
    the shape an ffmpeg-based sampler has); undecodable rows get
    ``video_ok=False`` and null features. ``fake=True`` derives the same
    columns deterministically from metadata + payload digest.

    Adds: ``n_frames_decoded: int32``, ``n_sampled: int32``,
    ``frame_mean: float32`` (mean pixel value over the sampled frames),
    ``fps: int32``, ``video_ok: bool``."""

    def __init__(self, media_col: str = "media", stride: int = 2,
                 max_frames: int = 4, fake: bool = True):
        self.media_col = media_col
        self.stride = stride
        self.max_frames = max_frames
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from wrangler_ray.ops.avi import avi_decode

        payloads = batch.column(self.media_col).to_pylist()
        meta_nf = (
            batch.column("n_frames").to_pylist()
            if "n_frames" in batch.column_names
            else [0] * batch.num_rows
        )
        nfd, nsm, fmean, fpss, oks = [], [], [], [], []
        for p, mnf in zip(payloads, meta_nf):
            if p is None:
                nfd.append(None); nsm.append(None); fmean.append(None)
                fpss.append(None); oks.append(False)
                continue
            if self.fake:
                seed = int.from_bytes(
                    hashlib.blake2b(bytes(p), digest_size=8).digest(), "little"
                )
                rng = np.random.RandomState(seed % (2**32))
                nf = int(mnf) or 1
                picked = list(range(0, nf, self.stride))[: self.max_frames]
                nfd.append(nf); nsm.append(len(picked))
                fmean.append(float(rng.randint(0, 256)))
                fpss.append(30); oks.append(True)
                continue
            try:
                frames, fps, _w, _h = avi_decode(bytes(p))
                picked = frames[:: self.stride][: self.max_frames]
                nfd.append(len(frames)); nsm.append(len(picked))
                fmean.append(
                    float(np.mean([f.mean(dtype=np.float64) for f in picked]))
                    if picked else None
                )
                fpss.append(int(fps)); oks.append(True)
            except Exception:
                nfd.append(None); nsm.append(None); fmean.append(None)
                fpss.append(None); oks.append(False)
        batch = batch.append_column("n_frames_decoded", pa.array(nfd, pa.int32()))
        batch = batch.append_column("n_sampled", pa.array(nsm, pa.int32()))
        batch = batch.append_column("frame_mean", pa.array(fmean, pa.float32()))
        batch = batch.append_column("fps", pa.array(fpss, pa.int32()))
        return batch.append_column("video_ok", pa.array(oks, pa.bool_()))


def wav_encode(samples: np.ndarray, sample_rate: int = 8000) -> bytes:
    """Encode an int16 mono sample array as RIFF/WAVE bytes with the stdlib
    ``wave`` module (no audio lib needed)."""
    import io
    import wave as _wave

    buf = io.BytesIO()
    with _wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(np.ascontiguousarray(samples, np.int16).tobytes())
    return buf.getvalue()


def wav_decode(payload: bytes) -> tuple:
    """Decode RIFF/WAVE bytes with the stdlib ``wave`` module. Returns
    ``(samples_float, sample_rate, n_frames)`` where samples are normalized
    to [-1, 1) (all channels interleaved, as read)."""
    import io
    import wave as _wave

    with _wave.open(io.BytesIO(payload), "rb") as w:
        sr = w.getframerate()
        nf = w.getnframes()
        width = w.getsampwidth()
        raw = w.readframes(nf)
    if width == 2:
        x = np.frombuffer(raw, "<i2").astype(np.float64) / 32768.0
    elif width == 1:  # 8-bit WAV is unsigned
        x = (np.frombuffer(raw, np.uint8).astype(np.float64) - 128.0) / 128.0
    elif width == 4:
        x = np.frombuffer(raw, "<i4").astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"unsupported WAV sample width {width}")
    return x, sr, nf


class AudioFeatures:
    """Audio feature stage. ``fake=False`` REALLY decodes RIFF/WAVE payloads
    with the stdlib ``wave`` module (same approach as ops/png.py for images:
    no external audio lib needed) and computes waveform stats; undecodable
    rows get ``audio_ok=False`` and null features. ``fake=True`` keeps the
    deterministic digest-derived stats for payloads that are not real audio.

    Adds: ``rms: float32``, ``duration_s: float32``, ``audio_ok: bool``."""

    def __init__(self, media_col: str = "media", fake: bool = True):
        self.media_col = media_col
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.media_col).to_pylist()
        srs = (
            batch.column("sample_rate").to_pylist()
            if "sample_rate" in batch.column_names
            else [16000] * batch.num_rows
        )
        ns = (
            batch.column("n_samples").to_pylist()
            if "n_samples" in batch.column_names
            else [0] * batch.num_rows
        )
        rms, dur, oks = [], [], []
        for p, sr, n in zip(payloads, srs, ns):
            if p is None:
                rms.append(None)
                dur.append(None)
                oks.append(False)
                continue
            if self.fake:
                seed = int.from_bytes(
                    hashlib.blake2b(bytes(p), digest_size=8).digest(), "little"
                )
                rng = np.random.RandomState(seed % (2**32))
                wave = rng.randn(min(int(n) or 1000, 10_000)).astype(np.float32)
                rms.append(float(np.sqrt((wave**2).mean())))
                dur.append(float((n or 0) / (sr or 16000)))
                oks.append(True)
                continue
            try:
                x, real_sr, nf = wav_decode(bytes(p))
                rms.append(float(np.sqrt((x**2).mean())) if len(x) else 0.0)
                dur.append(float(nf / real_sr) if real_sr else None)
                oks.append(True)
            except Exception:
                rms.append(None)
                dur.append(None)
                oks.append(False)
        batch = batch.append_column("rms", pa.array(rms, pa.float32()))
        batch = batch.append_column("duration_s", pa.array(dur, pa.float32()))
        return batch.append_column("audio_ok", pa.array(oks, pa.bool_()))


def make_fake_image_table(n: int = 64, seed: int = 9) -> pa.Table:
    """Deterministic synthetic multimodal fixture (binary payload + metadata)."""
    rng = np.random.RandomState(seed)
    payloads = [rng.bytes(int(rng.randint(200, 2000))) for _ in range(n)]
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "media": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["image/png"] * n, pa.string()),
            "width": pa.array(rng.randint(8, 64, n), pa.int32()),
            "height": pa.array(rng.randint(8, 64, n), pa.int32()),
        }
    )


def make_real_png_table(n: int = 64, seed: int = 9) -> pa.Table:
    """Deterministic REAL-PNG fixture: image i is a solid color (i % 256) at
    deterministic dims width=8+(i%57), height=8+((3*i)%57) — every metadata
    and pixel statistic is predictable in closed form, so a SQL oracle can
    check the decoded output exactly."""
    from wrangler_ray.ops.png import png_encode

    payloads, widths, heights = [], [], []
    for i in range(n):
        w, h = 8 + i % 57, 8 + (3 * i) % 57
        px = np.full((h, w, 3), i % 256, np.uint8)
        payloads.append(png_encode(px))
        widths.append(w)
        heights.append(h)
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "media": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["image/png"] * n, pa.string()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
        }
    )


def make_real_wav_table(n: int = 64, seed: int = 9) -> pa.Table:
    """Deterministic REAL-WAV fixture: clip i is a CONSTANT-amplitude int16
    mono signal with amplitude (i % 100 + 1) * 250 and n_samples
    1600 + 37*i at 8 kHz — rms (= amplitude / 32768, exact for a constant
    signal) and duration have closed forms, so the whole decode stage is
    SQL-oracle-checkable."""
    payloads, n_samples = [], []
    sr = 8000
    for i in range(n):
        amp = (i % 100 + 1) * 250
        ns = 1600 + 37 * i
        payloads.append(wav_encode(np.full(ns, amp, np.int16), sr))
        n_samples.append(ns)
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "media": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["audio/wav"] * n, pa.string()),
            "sample_rate": pa.array([sr] * n, pa.int32()),
            "n_samples": pa.array(n_samples, pa.int64()),
        }
    )


def make_real_avi_table(n: int = 64, seed: int = 9) -> pa.Table:
    """Deterministic REAL-AVI fixture: clip i has 4 + i%13 frames at
    width=8+i%16, height=8+(3*i)%16, 10 fps, and frame f is the solid color
    (i*7 + f*11) % 256 — so the sampled-frame count and the mean pixel value
    over frames [0::stride][:max_frames] both have closed forms a SQL oracle
    can compute with a lateral range() join."""
    from wrangler_ray.ops.avi import avi_encode

    payloads, n_frames = [], []
    for i in range(n):
        w, h = 8 + i % 16, 8 + (3 * i) % 16
        nf = 4 + i % 13
        frames = [
            np.full((h, w, 3), (i * 7 + f * 11) % 256, np.uint8) for f in range(nf)
        ]
        payloads.append(avi_encode(frames, fps=10))
        n_frames.append(nf)
    return pa.table(
        {
            "id": pa.array(range(n), pa.int64()),
            "media": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["video/avi"] * n, pa.string()),
            "n_frames": pa.array(n_frames, pa.int32()),
        }
    )


def video_pipeline(ds, batch_size: int = 32, concurrency: int | None = None,
                   fake: bool = True, stride: int = 2, max_frames: int = 4):
    """Frame-sample + per-frame features as an actor-pool map_batches stage
    (video payloads are the largest of the media types — keep ``batch_size``
    small so batch × pool width fits worker heaps). ``fake=False`` runs the
    real stdlib AVI decoder."""
    return ds.map_batches(
        VideoFrames, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size,
        fn_constructor_kwargs={"fake": fake, "stride": stride,
                               "max_frames": max_frames},
        concurrency=_default_pool(concurrency), num_cpus=0.5,
    )


def audio_pipeline(ds, batch_size: int = 64, concurrency: int | None = None,
                   fake: bool = True):
    """Audio feature extraction as an actor-pool map_batches stage (same
    shape and sizing rules as image_pipeline). ``fake=False`` runs the real
    stdlib-``wave`` decoder."""
    return ds.map_batches(
        AudioFeatures, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, fn_constructor_kwargs={"fake": fake},
        concurrency=_default_pool(concurrency), num_cpus=0.5,
    )


def _default_pool(concurrency: int | None) -> int:
    """Actor-pool width for decode stages: scale with the cluster instead of
    a fixed pin (at num_cpus=0.5 a width of CPUs/1 leaves half the cores for
    the read/sink stages)."""
    if concurrency:
        return concurrency
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(2, cpus)


def image_pipeline(ds, batch_size: int = 64, concurrency: int | None = None,
                   fake: bool = True):
    """decode → resize as actor-pool stages with small batches (binary-heavy).
    num_cpus=0.5 per actor so the two pools share the node with the read
    stage instead of starving it (pool CPUs must stay < session CPUs).
    ``fake=False`` runs the REAL decode/resize kernels (PIL or the stdlib
    PNG codec)."""
    kw = {"concurrency": _default_pool(concurrency), "num_cpus": 0.5}
    ds = ds.map_batches(
        DecodeImage, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, fn_constructor_kwargs={"fake": fake}, **kw,
    )
    return ds.map_batches(
        ResizeImage, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size,
        fn_constructor_kwargs={"width": 224, "height": 224, "real": not fake},
        **kw,
    )
