"""Randomized-input builders, term values, a measurement writer, a text
comparison and a memory probe shared by the test modules."""

import math
import tracemalloc
from pathlib import Path

import numpy as np

from walfcal import MeasurementSet, ModelKind, Terrain
from walfcal.basis import _CHUNK_ROWS
from walfcal.cli import MEASUREMENT_HEADER

ALL_KINDS = tuple(ModelKind)
WI_KINDS = tuple(kind for kind in ModelKind if kind is not ModelKind.W_BERT)
# agreement in dB between two evaluations of one fit
TOL_DB = 1e-9
FRACTIONS = tuple(round(0.05 * k, 2) for k in range(1, 19))  # of the curvature limit
NEAR_LIMIT_GAPS = tuple(10.0**-k for k in range(2, 10))  # 1 - d^2 / (17 dh_tx)


def random_terrain(rng, f_lo=150.0, f_hi=2000.0) -> Terrain:
    return Terrain(
        f_mhz=rng.uniform(f_lo, f_hi),
        w_m=rng.uniform(5.0, 40.0),
        b_m=rng.uniform(10.0, 60.0),
        phi_deg=rng.uniform(0.0, 55.0),
        dh_rx_m=rng.uniform(2.0, 20.0),
        dh_tx_m=rng.uniform(4.0, 40.0),
    )


def random_distances(rng, terrain, n, margin=0.9) -> np.ndarray:
    # stay inside the Walfisch-Bertoni curvature domain with headroom
    d_max = margin * math.sqrt(17.0 * terrain.dh_tx_m)
    return rng.uniform(0.1, d_max, n)


def random_campaign(rng, n_lo=30, n_hi=300):
    """Random terrain plus noisy smooth-trend measurements, WB-domain safe."""
    terrain = random_terrain(rng)
    n = int(rng.integers(n_lo, n_hi + 1))
    d = random_distances(rng, terrain, n)
    trend = rng.uniform(100.0, 140.0) + rng.uniform(20.0, 40.0) * np.log10(d)
    noisy = trend + rng.normal(0.0, rng.uniform(0.5, 6.0), size=n)
    return terrain, MeasurementSet(d, np.maximum(noisy, 1.0))


def term_values(basis, d) -> np.ndarray:
    """Every term of basis at every distance in d, one row per distance: Φ(d) @ M."""
    return basis.features(np.array(d, float, ndmin=1)) @ basis.weights


def row_major_fold(basis, d, p=None) -> np.ndarray:
    """The R that calib._fold returns, folded in row-major blocks: the R of
    each [R; Φ(block) | p_block] stacked as numpy stacks it by default."""
    k = len(basis.weights)
    r = np.empty((0, k if p is None else k + 1))
    for start in range(0, d.size, _CHUNK_ROWS):
        block = basis.features(d[start : start + _CHUNK_ROWS])
        if p is not None:
            block = np.column_stack([block, p[start : start + _CHUNK_ROWS]])
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    return r[:k]


def save_measurements(meas: MeasurementSet, path) -> None:
    """Write a measurement set; load_measurements round-trips it exactly."""
    lines = [MEASUREMENT_HEADER]
    lines += [f"{float(d)!r},{float(p)!r}" for d, p in zip(meas.distances_km, meas.pathloss_db)]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def assert_same_text(actual, expected) -> None:
    """Exact equality of two texts or byte strings.

    A difference is reported by its first differing line, with both versions
    of that line, rather than by a diff of the whole texts, which takes
    minutes on a report of some 10 000 lines.
    """
    if actual == expected:
        return
    ours, theirs = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    line = next(
        (n for n, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs))
    )
    found = ours[line] if line < len(ours) else "<end of text>"
    wanted = theirs[line] if line < len(theirs) else "<end of text>"
    raise AssertionError(
        f"texts differ first at line {line + 1} of {len(ours)} (expected {len(theirs)}): "
        f"{found!r} != {wanted!r}"
    )


def traced_peak(fn, *args, **kwargs):
    """(fn's result, the peak of the memory traced while it ran, in bytes).

    tracemalloc sees every Python allocation, numpy's array buffers included,
    but not memory that native code such as LAPACK allocates for itself.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
