"""Report files of a calibration run: per-model profile, disaggregation and
coefficient files, the summary, and predict's table.

_write_reports writes every file of a run once all models are fitted, and
_write_table writes predict's table.  Report cells use 4 decimals (negative
zero prints as 0.0000), and identical inputs give byte-identical files.
numpy encodes cells a block at a time into byte slots; a cell numpy cannot
round with certainty (not finite, 1e7 or more, or next to a .5 tie) takes
its text from _db, so every cell reads as f"{v:.4f}" does.  A row packs its
slot columns cut to the bytes their cells use; written, it loses its few
NULs, which bytes.replace finds by memchr.  Blocks are sized by cells, so
the encoder's temporaries stay in cache.  One walk over parts of the report
axis writes every disagg and profile file: each model takes one column sum
per part, and one encode of the part feeds both of its files, the profile's
basic and calibrated cells being the disagg's two totals.
"""

from __future__ import annotations

import contextlib
import functools
import math
from pathlib import Path

import numpy as np

from .calib import MeasurementSet, _loss_table
from .models import _model_distances


def _db(value: float) -> str:
    """A report cell: value to 4 decimals, with negative zero as 0.0000."""
    cell = f"{value:.4f}"
    return "0.0000" if cell == "-0.0000" else cell


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", newline="\n")


# A slot is a bytes string whose nonzero bytes are a cell's text and ",".
# numpy's 16-byte slots have the integer digits right-aligned at bytes 0..7
# with the sign before the leading one, "." at 8, four decimals at 9..12 and
# "," at 13.  A text from _db starts at byte 0, and one too long for 16 bytes
# widens the slots of its block.  A blank (measured) cell, _BLANK, has its ","
# where numpy's cells have theirs, so it widens no column of packed rows.
_SLOT = np.dtype("S16")
_BLANK = b"\0" * 13 + b","
# _LEAD[lead + 8 · negative], subtracted from a slot's first word of digits,
# turns its "0" bytes before byte lead into NULs, but a negative cell's at
# lead - 1 into "-" ("0" - "-" is 3)
_LEAD = np.array(
    [int.from_bytes(b"0" * (lead - s) + b"\3" * s, "little") for s in (0, 1) for lead in range(8)],
    dtype="<u8",
)
# below this magnitude q = rint(v·1e4) < 1e11: at most 7 integer digits, so a
# minus sign always has a byte in front of them
_SLOT_MAX = 9_999_999.9999
# cells per encoded block: _encode's per-cell cost about doubles once its
# temporaries outgrow a core's L2 cache, as an 8192 × 11 block's do
_BLOCK_CELLS = 32_768


def _block_rows(width: int) -> int:
    """Rows per block of a table width cells wide: at most _BLOCK_CELLS cells, at least 1."""
    return max(1, _BLOCK_CELLS // width)


@functools.cache
def _digit_tables():
    """By 4-digit group k, built on first use: k's ASCII digits as a
    little-endian word, and the digit count of an integer part whose low or
    whose high group k is.

    These are 40 kB and 10 kB.  An 80 kB table, made once the fits had grown
    the heap, raised the peak RSS of a 100 000-row run by 2.5 MB.
    """
    k = np.arange(10_000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    quad = (digits + ord("0")).astype(np.uint8).view("<u4").ravel()
    low_count = (1 + (k >= 10) + (k >= 100) + (k >= 1000)).astype(np.uint8)
    high_count = np.where(k > 0, low_count + 4, 0).astype(np.uint8)
    return quad, low_count, high_count


def _encode(block: np.ndarray) -> np.ndarray:
    """Slots, (n, c) of _SLOT or wider, of an (n, c) float block's cells as
    _db prints them.

    numpy rounds a cell with |v| < _SLOT_MAX whose v·1e4 lies more than a few
    ulp off a .5 tie: v·1e4 is computed to within |v·1e4|·2^-53, so there
    rint rounds it as the exact decimal value of v rounds.  Any other cell
    (a tie, not finite, or larger) takes its text from _db.  Each temporary
    is freed once spent.
    """
    scaled = np.abs(block)
    odd = ~(scaled < _SLOT_MAX)
    if odd.any():
        scaled[odd] = 0.0
    scaled *= 1e4
    q = np.rint(scaled)
    margin = scaled * 2.0**-50
    scaled -= q
    np.abs(scaled, out=scaled)
    scaled += margin
    odd |= scaled >= 0.5
    del scaled, margin
    # a cell that rounds to zero has no sign
    negative = (block < 0.0) & (q > 0.0)
    # q < 1e11 is an integer, so a quotient below is off the next integer
    # by 1e-4 or more and its floor is exact
    whole = q / 1e4
    np.floor(whole, out=whole)
    q -= whole * 1e4
    frac = q.astype(np.intp)
    del q
    high = whole / 1e4
    np.floor(high, out=high)
    whole -= high * 1e4
    hi, lo = high.astype(np.intp), whole.astype(np.intp)
    del whole, high
    quad, low_count, high_count = _digit_tables()
    words = np.empty(block.shape + (2,), dtype="<u8")
    decimals = quad[frac].astype("<u8")
    del frac
    decimals <<= 8
    decimals |= ord(".") | ord(",") << 40
    words[..., 1] = decimals
    del decimals
    halves = words.view("<u4")
    halves[..., 0] = quad[hi]
    halves[..., 1] = quad[lo]
    lead = 8 - np.maximum(high_count[hi], low_count[lo])
    del hi, lo
    words[..., 0] -= _LEAD[lead + 8 * negative]
    slots = words.view(_SLOT)[..., 0]
    if odd.any():
        texts = [_db(v) + "," for v in block[odd].tolist()]
        width = max(map(len, texts))
        if width > _SLOT.itemsize:  # only then, since astype copies the block
            slots = slots.astype(f"S{width}")
        slots[odd] = texts
    return slots


def _cut(slots: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The positions in a row of slots.view(np.uint8) of the bytes that any
    cell of (n, c) cell slots uses, from one OR over the slots' words, and
    the c + 1 offsets where each column's positions start."""
    used = np.bitwise_or.reduce(slots.view(f"<u{math.gcd(slots.itemsize, 8)}"), axis=0)
    positions = np.flatnonzero(used.view(np.uint8))
    starts = np.arange(slots.shape[1] + 1) * slots.itemsize
    return positions, np.searchsorted(positions, starts).tolist()


def _rows(slots: np.ndarray, columns=None, cut=None, lines: bool = True) -> np.ndarray:
    """(n, L) byte rows of (n, c) cell slots: the bytes that cut (by default
    _cut(slots)) keeps of the column ranges [(lo, hi), ...], by default all
    columns, side by side; with lines, the last column's "," is "\n"."""
    positions, starts = _cut(slots) if cut is None else cut
    columns = columns or [(0, slots.shape[1])]
    kept = np.concatenate([positions[starts[lo] : starts[hi]] for lo, hi in columns])
    rows = slots.view(np.uint8)[:, kept]
    if lines:
        hi = columns[-1][1]
        last = rows[:, rows.shape[1] - (starts[hi] - starts[hi - 1]) :]
        last[last == ord(",")] = ord("\n")
    return rows


def _write_table(out, header: str, d: np.ndarray, columns_of) -> None:
    """Write a header line, then one row per distance in d, its cells as _db
    formats them: the distance, then that row of columns_of(d), which is
    evaluated on one _block_rows block of d at a time, never on all of d."""
    out.write(header + "\n")
    step = _block_rows(header.count(",") + 1)
    for start in range(0, d.size, step):
        chunk = d[start : start + step]
        block = np.column_stack([chunk, columns_of(chunk)])
        out.write(str(_rows(_encode(block)).tobytes().replace(b"\0", b""), "ascii"))


def _report_axis(d: np.ndarray, grid: np.ndarray):
    """The report axis, the sorted distinct distances of measured d ∪ grid,
    and the axis index and measured sample (-1 for none) of each profile row.

    Rows are sorted by distance, duplicate measured distances keep their
    input order, and a grid point equal to a measured distance is not
    repeated.  Each temporary is freed once spent.
    """
    n, size = d.size, d.size + grid.size
    keys = np.concatenate([d, grid])
    order = np.argsort(keys)
    keys = keys[order]
    head = np.concatenate([[True], keys[1:] != keys[:-1]])
    axis = keys[head]
    del keys
    # axis index · size + entry is unique, so a plain sort orders each run of
    # equal distances by entry: its samples in input order, then its grid
    # entries, which get a row only if the run has no sample
    entry = np.cumsum(head, dtype=np.intp)
    entry -= 1
    entry *= size
    entry += order
    del order
    entry.sort()
    unmeasured = entry[head] % size >= n
    del head
    rows = entry // size
    entry %= size
    keep = entry < n
    keep |= unmeasured[rows]
    rows = rows[keep]
    sample = entry[keep]
    del entry, keep
    sample[sample >= n] = -1
    return axis, rows, sample


def _write_axis_files(
    out_dir: Path, axis: np.ndarray, axis_rows, axis_sample, meas: MeasurementSet, cals
) -> None:
    """Write the disagg and profile files of the fitted models in one walk
    over axis, the report axis, with each profile row's axis index and
    sample as _report_axis gives them.

    A part of _block_rows points holds each model's cells as [d | disagg
    values], zeros past the end of its _model_distances: the column sum Φ·C,
    with C its _loss_table, as group_losses forms it.  One _encode and one
    _cut take the part: each disagg file packs its columns, and the profile
    rows, in chunks of one measured-cell _encode each, lay down their distance
    and measured bytes once, then each model's two totals, packed once a part.
    With no fitted model there is no file.
    """
    if not cals:
        return
    tables = [_loss_table(cal) for cal in cals]
    bounds = np.cumsum([0] + [1 + table.shape[1] for table in tables]).tolist()
    # each model's two totals, the last cells of the halves of its disagg values
    pair = [((lo + hi) // 2, hi - 1) for lo, hi in zip(bounds, bounds[1:])]
    ends = [_model_distances(cal.kind, cal.terrain, axis)[0].size for cal in cals]
    row_ends = np.searchsorted(axis_rows, ends).tolist()
    total, step = max(ends), _block_rows(bounds[-1])
    block = np.empty((min(total, step), bounds[-1]))
    with contextlib.ExitStack() as stack:
        kinds = [cal.kind.value for cal in cals]
        disaggs, profiles = (
            [stack.enter_context(open(out_dir / f"{name}_{kind}.csv", "wb")) for kind in kinds]
            for name in ("disagg", "profile")
        )
        for cal, disagg, profile in zip(cals, disaggs, profiles):
            groups = (*cal.basis.groups, "total")
            sides = [f"{side}_{g}_db" for side in ("basic", "calibrated") for g in groups]
            disagg.write(",".join(["distance_km", *sides]).encode("ascii") + b"\n")
            profile.write(b"distance_km,measured_db,basic_db,calibrated_db\n")
        for start in range(0, total, step):
            d = axis[start : min(start + step, total)]
            part = block[: d.size]
            counts = [min(max(end - start, 0), d.size) for end in ends]
            for cal, table, lo, hi, n in zip(cals, tables, bounds, bounds[1:], counts):
                part[:, lo] = d
                part[:n, lo + 1 : hi] = cal.basis._sum(d[:n], table).T
                part[n:, lo + 1 : hi] = 0.0
            slots = _encode(part)
            cut = _cut(slots)
            for out, lo, hi, n in zip(disaggs, bounds, bounds[1:], counts):
                out.write(_rows(slots[:n], [(lo, hi)], cut).tobytes().replace(b"\0", b""))
            # by axis point, the distance and each model's two totals
            distance = _rows(slots, [(0, 1)], cut, lines=False)
            totals = [_rows(slots, [(b, b + 1), (c, c + 1)], cut) for b, c in pair]
            width = max(pair_rows.shape[1] for pair_rows in totals)
            lo_row, hi_row = np.searchsorted(axis_rows, [start, start + d.size]).tolist()
            for a in range(lo_row, hi_row, _block_rows(4)):
                local = axis_rows[a : min(a + _block_rows(4), hi_row)] - start
                sample = axis_sample[a : a + local.size]
                blank = sample < 0
                measured = _encode(np.where(blank, 0.0, meas.pathloss_db[sample])[:, None])
                measured[blank] = _BLANK
                near = [np.take(distance, local, axis=0), _rows(measured, lines=False)]
                row = np.hstack([*near, np.empty((local.size, width), np.uint8)])
                prefix = row.shape[1] - width
                rows = [min(max(end - a, 0), local.size) for end in row_ends]
                for count, out, pair_rows in zip(rows, profiles, totals):
                    end = prefix + pair_rows.shape[1]
                    row[:count, prefix:end] = np.take(pair_rows, local[:count], axis=0)
                    out.write(row[:count, :end].tobytes().replace(b"\0", b""))


def _write_coefficients(path, cal) -> None:
    lines = [f"# model={cal.kind.value} rank={cal.rank} n_functions={len(cal.basis)}"]
    lines.append("index,label,group,coefficient")
    for index, ((label, group, _, _), a) in enumerate(zip(cal.basis.terms, cal.alpha)):
        lines.append(f"{index},{label},{group},{float(a)!r}")
    _write_text(path, lines)


def _write_summary(path, runs) -> None:
    lines = ["model,rmse_basic_db,mpe_basic_db,rmse_calibrated_db,mpe_calibrated_db,improvement_pct"]
    for run in runs:
        if not run.ok:
            continue
        m = run.metrics
        gain = "" if m.improvement_pct is None else _db(m.improvement_pct)
        lines.append(
            f"{run.kind.value},{_db(m.rmse_basic_db)},{_db(m.mpe_basic_db)},"
            f"{_db(m.rmse_db)},{_db(m.mpe_db)},{gain}"
        )
    _write_text(path, lines)


def _write_reports(out_dir: Path, meas: MeasurementSet, grid: np.ndarray, runs) -> None:
    """Write the report files of a calibration run into out_dir: each fitted
    model's coefficient, disagg and profile files, over the report axis of
    measured ∪ grid distances, and the summary of every run."""
    cals = [run.calibration for run in runs if run.ok]
    for cal in cals:
        _write_coefficients(out_dir / f"coefficients_{cal.kind.value}.csv", cal)
    axis, rows, sample = _report_axis(meas.distances_km, grid)
    _write_axis_files(out_dir, axis, rows, sample, meas, cals)
    _write_summary(out_dir / "summary.csv", runs)
