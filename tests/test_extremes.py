"""Numeric extremes end every command in exit status 0 or 1, never in a
traceback or a warning.

Each Terrain field is drawn over the positive doubles, subnormals and 1e308
included, and phi_deg over its domain [0, 55].  The sample campaign's
measured pathloss and distances are each multiplied by a factor up to 1e308.
calibrate, nominal predict of every model and rank over the grid and over
the measurements then run through main: a WalfcalError is the only error
main turns into a status, so any other exception fails the test, and the
suite's filterwarnings = ["error"] turns every warning into one.  The cases
that once ended in a numpy warning or an error naming an internal are
pinned as examples.  The runs are derandomized so that the suite gives the
same verdict every time.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from walfcal.cli import MEASUREMENT_HEADER, main

SAMPLE = Path(__file__).resolve().parent.parent / "sample"
SAMPLE_TERRAIN = {
    "f_mhz": 900.0, "w_m": 20.0, "b_m": 30.0, "phi_deg": 30.0, "dh_rx_m": 12.0, "dh_tx_m": 6.0
}
MODELS = ("CWI-M", "CWI-SU", "ITWI-M", "ITWI-SU", "W-BERT")
GRID = "d_min_km = 0.1\nd_max_km = 4.5\nd_step_km = 0.1\n"
NOT_FINITE = re.compile(r"\b(inf|nan)\b", re.IGNORECASE)


def _sample_rows():
    lines = (SAMPLE / "measurements.csv").read_text().splitlines()[1:]
    return [tuple(float(cell) for cell in line.split(",")) for line in lines]


SAMPLE_ROWS = _sample_rows()

positive_doubles = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# each field keeps its sample value or takes a drawn one, so that extremes
# meet both plain and extreme values of the other fields
terrains = st.fixed_dictionaries(
    {
        name: st.one_of(
            st.just(value), st.floats(0.0, 55.0) if name == "phi_deg" else positive_doubles
        )
        for name, value in SAMPLE_TERRAIN.items()
    }
)
scales = st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1e308, exclude_min=True))


def _with(**changes):
    return {**SAMPLE_TERRAIN, **changes}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(terrain=terrains, loss_scale=scales, distance_scale=scales)
@example(terrain=SAMPLE_TERRAIN, loss_scale=1.0, distance_scale=1.0)
@example(terrain=_with(f_mhz=1e299), loss_scale=1.0, distance_scale=1.0)
@example(terrain=_with(f_mhz=1e300), loss_scale=1.0, distance_scale=1.0)
@example(terrain=_with(f_mhz=1e308), loss_scale=1.0, distance_scale=1.0)
@example(terrain=_with(b_m=1e308), loss_scale=1.0, distance_scale=1.0)
@example(terrain=_with(dh_rx_m=5e-324), loss_scale=1.0, distance_scale=1.0)
@example(terrain=_with(dh_tx_m=5e-324), loss_scale=1.0, distance_scale=1.0)
@example(terrain=SAMPLE_TERRAIN, loss_scale=1e298, distance_scale=1.0)
@example(terrain=SAMPLE_TERRAIN, loss_scale=1e305, distance_scale=1.0)
@example(terrain=SAMPLE_TERRAIN, loss_scale=1e306, distance_scale=1.0)
@example(terrain=SAMPLE_TERRAIN, loss_scale=1.0, distance_scale=1e300)
@example(terrain=SAMPLE_TERRAIN, loss_scale=1.91011351141689e304, distance_scale=1.91011351141689e304)
@example(terrain=SAMPLE_TERRAIN, loss_scale=1.0, distance_scale=5e-324)
def test_every_command_exits_0_or_1(terrain, loss_scale, distance_scale):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "campaign.cfg"
        config.write_text(
            "".join(f"{name} = {value!r}\n" for name, value in terrain.items())
            + f"models = {', '.join(MODELS)}\n"
            + GRID
        )
        measurements = Path(tmp) / "measurements.csv"
        # Python floats, so an overflow is an inf cell that the parser rejects
        rows = [f"{d * distance_scale!r},{p * loss_scale!r}" for d, p in SAMPLE_ROWS]
        measurements.write_text("\n".join([MEASUREMENT_HEADER, *rows]) + "\n")
        common = ["--config", str(config)]
        out_dir = Path(tmp) / "out"
        fit = ["--measurements", str(measurements), "--output-dir", str(out_dir)]
        runs = [
            ["calibrate", *common, *fit],
            *(["predict", *common, "--model", model] for model in MODELS),
            ["rank", *common],
            ["rank", *common, "--measurements", str(measurements)],
        ]
        for argv in runs:
            status, out, err = _run(argv)
            assert status in (0, 1), argv
            # every line on stderr is one of the CLI's own
            assert all(line.startswith(("error: ", "warning: ")) for line in err.splitlines())
            # and no statistic or prediction overflowed to inf or came out nan
            assert not NOT_FINITE.search(out), argv
        for report in out_dir.glob("*.csv"):
            assert not NOT_FINITE.search(report.read_text()), report.name
