"""FBP — filtered back-projection, the analytic reference reconstruction.

Implements the classical parallel-beam FBP: ramp-filter every view's
projection in Fourier space (Ram-Lak with optional Hann apodisation),
then back-project with the adjoint operator.  Iterative methods are
compared against FBP both for image quality (examples) and to show the
SpMV-heavy methods' quality advantage under few views/noise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.geometry.parallel_beam import ParallelBeamGeometry
from repro.recon.linops import ProjectionOperator, safe_reciprocal
from repro.utils.arrays import check_1d, ensure_dtype


def ramp_filter(num_bins: int, *, window: str = "ramlak") -> np.ndarray:
    """Frequency response of the ramp filter over an FFT of ``2*num_bins``.

    ``window`` is ``"ramlak"`` (pure ramp) or ``"hann"`` (apodised).
    """
    size = 2 * int(num_bins)
    if size < 2:
        raise ValidationError("num_bins must be >= 1")
    freqs = np.fft.fftfreq(size)
    filt = 2.0 * np.abs(freqs)
    if window == "hann":
        filt *= 0.5 * (1.0 + np.cos(2.0 * np.pi * freqs))
    elif window != "ramlak":
        raise ValidationError("window must be 'ramlak' or 'hann'")
    return filt


def filter_sinogram(
    sinogram: np.ndarray, geom: ParallelBeamGeometry, *, window: str = "ramlak"
) -> np.ndarray:
    """Apply the ramp filter view by view (zero-padded FFT)."""
    y = np.asarray(sinogram, dtype=np.float64).reshape(geom.num_views, geom.num_bins)
    filt = ramp_filter(geom.num_bins, window=window)
    padded = np.zeros((geom.num_views, filt.size))
    padded[:, : geom.num_bins] = y
    spectrum = np.fft.fft(padded, axis=1) * filt[None, :]
    filtered = np.real(np.fft.ifft(spectrum, axis=1))[:, : geom.num_bins]
    return filtered.reshape(-1)


def fbp_reconstruct(
    op: ProjectionOperator,
    sinogram: np.ndarray,
    geom: ParallelBeamGeometry,
    *,
    window: str = "ramlak",
    nonneg: bool = True,
) -> np.ndarray:
    """FBP through the *matrix* adjoint (matched discretisation).

    Using ``A^T`` as the back-projector keeps FBP consistent with the
    iterative solvers' operator, at the price of the adjoint's pixel
    weighting; the angular step scaling follows the Radon inversion
    formula ``pi / (2 * num_views)``.
    """
    m, _ = op.shape
    y = ensure_dtype(check_1d(sinogram, m, "sinogram"), op.dtype, "sinogram")
    filtered = filter_sinogram(y, geom, window=window).astype(op.dtype)
    img = op.adjoint(filtered).astype(np.float64)
    img *= np.pi / (2.0 * geom.num_views)
    # undo the adjoint's per-pixel weight (sum of column entries)
    col_sums = np.asarray(
        op.adjoint(np.ones(m, dtype=op.dtype)), dtype=np.float64
    )
    scale = safe_reciprocal(col_sums, geom.num_views * geom.pixel_size)
    img *= scale
    if nonneg:
        np.maximum(img, 0, out=img)
    return img.astype(op.dtype)
