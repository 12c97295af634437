"""The three benchmark workloads, each a closed loop in one client.

An op starts only after the previous one and its checks have finished.  Its
wall time covers the calls into walfcal and nothing the benchmark does around
them (input generation, checks, clean-up).  Every op's outputs are checked; an
op that raises or fails a check counts as failed.

- drive_large: op = one `walfcal calibrate` process on a 100 000-row drive test.
- site_sweep: op = one in-process model fit (calibrate, predict_basic,
  MetricsReport.from_series) on a 200 000-row campaign; no files.
- campaign_batch: op = `main calibrate` plus `main predict --coefficients` on
  one small campaign, in-process.

Untraced runs bracket each op with machine-speed probes (probe.py).  Traced
runs alternate a traced and an untraced op per input; the traced ops of the
first pass over the inputs give the per-layer counts and self times, and the
untraced ones the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import verify
from inputs import MODELS, Campaign
from probe import Probe
from tracing import Tracer

HERE = Path(__file__).resolve().parent
CLI = "import sys; from walfcal.cli import main; sys.exit(main())"


@dataclass
class OpResult:
    seconds: float
    problems: list
    rows: int  # measurement rows fitted, counting each model once
    digest: str
    emitted: tuple = (0, 0, 0)  # report (bytes, rows, files)


@dataclass
class Outcome:
    op_s: list = field(default_factory=list)  # wall time of the untraced timed ops
    scaled_s: list = field(default_factory=list)  # the same, at the probe's reference speed
    traced_op_s: list = field(default_factory=list)
    pass_traced_s: float = 0.0  # wall time of the traced ops whose spans count
    rows: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    inputs_rss_mb: float = 0.0
    digests: dict = field(default_factory=dict)  # op index -> report digest
    emitted: list = field(default_factory=lambda: [0, 0, 0])
    dumps: list = field(default_factory=list)  # tracer dumps, one per process
    pass_ops: int = 0
    injected: int = 0  # beyond-limit campaigns in the traced pass

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for index in sorted(self.digests):
            digest.update(f"{index}:{self.digests[index]}\n".encode())
        return digest.hexdigest()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Inputs, one op, and the loop that drives it."""

    in_process = True
    probe_kind = "python"

    def __init__(self, campaigns: list[Campaign], work: Path):
        self.campaigns = campaigns
        self.work = work
        self.tracer: Tracer | None = None
        self.serial = 0  # distinct id for every op run
        self.probe: Probe | None = None
        self.probe_after = 0.0
        self.first_pass: set = set()  # serials of the traced ops whose spans count

    def pass_size(self) -> int:
        return len(self.campaigns)

    def injected(self, index: int) -> bool:
        return self.campaigns[index % len(self.campaigns)].injected

    def op(self, index: int, traced: bool) -> OpResult:
        raise NotImplementedError

    def _run(self, index: int, traced: bool, outcome: Outcome) -> OpResult | None:
        self.serial += 1
        if self.tracer is not None:
            self.tracer.op = self.serial
        outcome.attempted += 1
        try:
            result = self.op(index, traced)
        except (Exception, SystemExit):
            outcome.failures.append(f"op {index}: raised\n{traceback.format_exc()}")
            return None
        previous = outcome.digests.setdefault(index % self.pass_size(), result.digest)
        if previous != result.digest:
            result.problems.append("report bytes differ from an earlier run of the same input")
        if result.problems:
            outcome.failures.append(f"op {index}: " + "; ".join(result.problems))
        return result

    def run(self, seconds: float, trace: bool) -> Outcome:
        """Closed loop for `seconds`; untraced runs also probe the machine's speed."""
        outcome = Outcome(pass_ops=self.pass_size())
        if self.in_process:
            outcome.inputs_rss_mb = _rss_mb()
            self._run(0, False, outcome)  # warm-up: lazy set-up, first-call paths
        if trace:
            self.tracer = Tracer()
        else:
            self.probe = Probe(self.probe_kind, self.work)
        start = time.perf_counter()
        index, last = 0, 0.0
        while time.perf_counter() - start < seconds or (trace and index < self.pass_size()):
            # traced and untraced runs of an input take turns going first
            if trace and index % 2 == 0:
                self._traced(index, outcome)
            before = self.probe.around(last) if self.probe else 0.0
            result = self._run(index, False, outcome)
            if result is not None:
                outcome.op_s.append(result.seconds)
                outcome.rows += result.rows
                if self.probe:
                    outcome.scaled_s.append(
                        result.seconds * self.probe.scale(before, self.probe_after))
                last = result.seconds
            if trace and index % 2 == 1:
                self._traced(index, outcome)
            index += 1
        if self.in_process:
            outcome.peak_rss_mb = _rss_mb()
        if trace and self.in_process:
            outcome.dumps.append(self.tracer.dump(self.first_pass))
        return outcome

    def _timed(self, seconds: float) -> None:
        """Called by op() right after its timed calls, before any checks."""
        if self.probe is not None:
            self.probe_after = self.probe.around(seconds)

    def _traced(self, index: int, outcome: Outcome) -> None:
        """A traced run of op `index`; the first pass over the inputs gives the counts."""
        if self.in_process:
            self.tracer.install()
        try:
            result = self._run(index, True, outcome)
        finally:
            self.tracer.uninstall()
        if result is not None:
            outcome.traced_op_s.append(result.seconds)
        if index < self.pass_size():
            self.first_pass.add(self.serial)
            outcome.injected += self.injected(index)
            if result is not None:
                outcome.pass_traced_s += result.seconds
                outcome.emitted = [a + b for a, b in zip(outcome.emitted, result.emitted)]

    def _out_dir(self) -> Path:
        return self.work / f"op{self.serial}"


def _check_reports(out: Path, camp: Campaign, status, stdout, stderr) -> tuple:
    problems = verify.check_calibration(out, camp, status, stdout, stderr)
    return problems, verify.fingerprint(out), verify.emitted(out)


class DriveLarge(Workload):
    """One large drive test; each op is a fresh `walfcal calibrate` process."""

    in_process = False

    def __init__(self, campaigns, work, inputs: Path):
        super().__init__(campaigns, work)
        self.inputs = inputs
        self.dumps: dict = {}  # serial -> dump of a traced op
        self.peak_rss_mb = 0.0

    def op(self, index: int, traced: bool) -> OpResult:
        camp = self.campaigns[0]
        out = self._out_dir()
        argv = ["calibrate", "--config", str(self.inputs / f"{camp.name}.cfg"),
                "--measurements", str(self.inputs / f"{camp.name}.csv"),
                "--output-dir", str(out)]
        spans = self.work / f"spans{self.serial}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(self.serial), *argv]
        else:
            cmd = [sys.executable, "-c", CLI, *argv]
        stdout, stderr = self.work / "stdout.txt", self.work / "stderr.txt"
        seconds, status, rss_mb = _spawn(cmd, stdout, stderr)
        self._timed(seconds)
        try:
            problems, digest, emitted = _check_reports(
                out, camp, status, stdout.read_text(), stderr.read_text())
            if traced:
                self.dumps[self.serial] = json.loads(spans.read_text())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return OpResult(seconds, problems, camp.d.size * len(camp.models), digest, emitted)

    def run(self, seconds: float, trace: bool) -> Outcome:
        outcome = super().run(seconds, trace)
        outcome.peak_rss_mb = self.peak_rss_mb
        outcome.inputs_rss_mb = _rss_mb()
        outcome.dumps = [self.dumps[s] for s in sorted(self.first_pass) if s in self.dumps]
        return outcome


def _spawn(cmd, stdout: Path, stderr: Path):
    """Run a command to completion: (wall seconds, exit status, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


class CampaignBatch(Workload):
    """Many small campaigns: calibrate, then replay one saved coefficient file."""

    probe_kind = "files"

    def __init__(self, campaigns, work, inputs: Path):
        super().__init__(campaigns, work)
        import walfcal.cli

        self.cli = walfcal.cli  # main is looked up per call, so tracing sees it
        self.inputs = inputs

    def op(self, index: int, traced: bool) -> OpResult:
        camp = self.campaigns[index % len(self.campaigns)]
        out = self._out_dir()
        config = str(self.inputs / f"{camp.name}.cfg")
        predict = out / "predict.csv"
        calibrate_argv = ["calibrate", "--config", config,
                          "--measurements", str(self.inputs / f"{camp.name}.csv"),
                          "--output-dir", str(out)]
        predict_argv = ["predict", "--config", config, "--model", camp.replay,
                        "--coefficients", str(out / f"coefficients_{camp.replay}.csv"),
                        "--output", str(predict)]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                status = self.cli.main(calibrate_argv)
                replay_status = self.cli.main(predict_argv)
                seconds = time.perf_counter() - start
            self._timed(seconds)
            problems, digest, emitted = _check_reports(
                out, camp, status, stdout.getvalue(), stderr.getvalue())
            if replay_status != 0:
                problems.append(f"predict exit status {replay_status}, expected 0")
            verify.check_predict(predict, camp, camp.replay, problems)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return OpResult(seconds, problems, camp.d.size * len(camp.models), digest, emitted)


class SiteSweep(Workload):
    """Large campaigns fitted through the library API; one op is one model fit."""

    probe_kind = "numpy"

    def __init__(self, campaigns, work):
        super().__init__(campaigns, work)
        import walfcal

        self.walfcal = walfcal  # functions are looked up per call, so tracing sees them
        self.terrains = [walfcal.Terrain(**c.terrain) for c in campaigns]
        self.sets = [walfcal.MeasurementSet(c.d, c.p) for c in campaigns]
        self.kinds = [walfcal.ModelKind.from_label(m) for m in MODELS]
        self.rmse: dict = {}

    def pass_size(self) -> int:
        return len(self.campaigns) * len(MODELS)

    def op(self, index: int, traced: bool) -> OpResult:
        w = self.walfcal
        c, m = divmod(index % self.pass_size(), len(MODELS))
        camp, terrain, meas, kind = self.campaigns[c], self.terrains[c], self.sets[c], self.kinds[m]
        start = time.perf_counter()
        cal = w.calibrate(kind, terrain, meas)
        basic = w.predict_basic(kind, terrain, meas.distances_km)
        report = w.MetricsReport.from_series(meas.pathloss_db, cal.fitted_db, basic)
        seconds = time.perf_counter() - start
        self._timed(seconds)

        model, problems = MODELS[m], []
        name = f"{camp.name} {model}"
        want_rank = 3 if model == "W-BERT" else 2
        if cal.rank != want_rank:
            problems.append(f"{name}: rank {cal.rank}, expected {want_rank}")
        cells = [f"{v:.4f}".replace("-0.0000", "0.0000") for v in
                 (report.rmse_basic_db, report.mpe_basic_db, report.rmse_db, report.mpe_db,
                  report.improvement_pct)]
        if cells[3] != "0.0000":
            problems.append(f"{name}: calibrated MPE prints as {cells[3]}")
        expected = verify.reference_predict(camp.beta(model), meas.distances_km, camp.dh_tx_m)
        verify.compare(name, "fitted_db", cal.fitted_db, expected, verify.TOLERANCE_DB, problems)
        verify.compare(name, "calibrated RMSE", report.rmse_db, camp.rmse(model),
                       verify.TOLERANCE_DB, problems)
        if m == 0:
            self.rmse = {}
        self.rmse[model] = cells[2]
        if m == len(MODELS) - 1 and len(self.rmse) == len(MODELS):
            verify.check_rmse_order(self.rmse, camp.name, problems)
        digest = hashlib.sha256(",".join([camp.name, model, *cells]).encode()).hexdigest()
        return OpResult(seconds, problems, meas.distances_km.size, digest)


def make(name: str, campaigns: list[Campaign], work: Path, inputs: Path) -> Workload:
    if name == "drive_large":
        return DriveLarge(campaigns, work, inputs)
    if name == "site_sweep":
        return SiteSweep(campaigns, work)
    return CampaignBatch(campaigns, work, inputs)

