"""Randomized-input builders and a text comparison shared by the test modules."""

import math

import numpy as np

from walfcal import MeasurementSet, ModelKind, Terrain

ALL_KINDS = tuple(ModelKind)
WI_KINDS = tuple(kind for kind in ModelKind if kind is not ModelKind.W_BERT)


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
