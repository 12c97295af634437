"""Machine-speed probe that the benchmark's reported times are scaled by.

On a shared 2-vCPU virtual machine, a fixed pure-Python loop was seen to take
anywhere from 0.24 to 0.40 s from one second to the next, with no steal time
reported: other tenants change how fast the core runs.  Raw wall times of a
30 s run then move by 30% between runs of identical code.  So the benchmark
runs a probe right before and right after every timed op: a fixed slice of
work of the same kind as the workload's, which never touches walfcal.  An
op's reported time is its wall time scaled by REFERENCE_S / (mean probe time
per unit of the two samples), i.e. the time it would have taken at the speed
where one probe unit takes REFERENCE_S.
A change to walfcal moves the op and not the probe, so it still shows in full.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

# Seconds per probe unit at the reference speed: about the probe's median on a
# shared 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4.
REFERENCE_S = {"python": 0.0011, "files": 0.0017, "numpy": 0.0095}
MIN_PROBE_S = 0.003  # shortest probe on each side of an op
PROBE_SHARE = 0.05  # probe for this share of the op on each side, if longer


class Probe:
    """Fixed work of one kind: "python" (report formatting and a small solve),
    "files" (the same plus a small file written to `scratch` and removed) or
    "numpy" (a tall design matrix and its least-squares solve)."""

    def __init__(self, kind: str, scratch: Path):
        self.kind = kind
        self.path = scratch / "probe.csv"
        rng = np.random.default_rng(0)
        rows = 40000 if kind == "numpy" else 3000
        self.values = rng.uniform(0.0, 200.0, 1500).tolist()
        self.columns = [rng.uniform(1.0, 2.0, rows) for _ in range(13)]
        self.rhs = rng.uniform(0.0, 1.0, rows)

    def unit(self) -> None:
        if self.kind != "numpy":
            text = ",".join(f"{v:.4f}" for v in self.values)
            if self.kind == "files":
                self.path.write_text(text)
                self.path.unlink()
        np.linalg.lstsq(np.column_stack(self.columns), self.rhs, rcond=1e-10)

    def sample(self, seconds: float) -> float:
        """Run whole units for at least `seconds`; return seconds per unit."""
        units = 0
        start = time.perf_counter()
        while True:
            self.unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / units

    def around(self, op_seconds: float) -> float:
        """The probe sample to take next to an op of about the given length."""
        return self.sample(max(MIN_PROBE_S, PROBE_SHARE * op_seconds))

    def scale(self, before: float, after: float) -> float:
        """Factor from wall time to reference-speed time for an op between two samples."""
        return REFERENCE_S[self.kind] / ((before + after) / 2.0)
