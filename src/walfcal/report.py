"""Report files of a calibration run: per-model profile, disaggregation and
coefficient files, the summary, and predict's table.

_write_reports writes every file of a run once all models are fitted, and
_write_table writes predict's table.  Report cells use 4 decimals (negative
zero prints as 0.0000), and identical inputs give byte-identical files.
numpy encodes cells a block at a time into fixed-width byte slots; a cell it
cannot round with certainty (not finite, 1e7 or more, or next to a .5 tie)
takes its text from _db, so every cell reads as f"{v:.4f}" does, and rows
with a cell too long for its slot go cell by cell through _db_rows.  Blocks
are sized by cells, so the encoder's temporaries stay in cache.  One walk
over parts of the report axis writes every disagg and profile file: each
model takes one column sum per part, and one encode of the part feeds both of
its files, the profile taking its basic and calibrated cells from the
disagg's two totals, which are the model's basic and calibrated predictions.
"""

from __future__ import annotations

import contextlib
import functools
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


# A report cell is encoded in a 16-byte slot: integer digits right-aligned at
# bytes 0..7 with the sign in the byte before the leading one, "." at 8, four
# decimals at 9..12 and the separator at _SEP.  The cell's text is the slot
# from its start byte through _SEP; _KEEP[first] is the keep mask of a
# slot's bytes first.._SEP, and _KEEP[_SEP], the separator alone, that of a
# blank cell.
_SLOT = np.dtype("V16")
_SEP = 13
_BYTE = np.arange(16)
_KEEP = ((_BYTE >= _BYTE[:, None]) & (_BYTE <= _SEP)).view(_SLOT)[:, 0]
# _MINUS[lead] turns the "0" at byte lead - 1 of a slot's first word into
# "-"; _MINUS[0] changes nothing
_MINUS = np.array([0] + [(ord("0") - ord("-")) << 8 * byte for byte in range(7)], dtype="<u8")
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


def _encode(block: np.ndarray):
    """Slots, (n, c) of _SLOT, of an (n, c) float block's cells as _db prints
    them, and each one's text start byte; None if a text is too long for a slot.

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
    words[..., 0] -= _MINUS[lead * negative]
    slots, first = words.view(_SLOT)[..., 0], lead - negative
    if odd.any():
        texts = [_db(v) for v in block[odd].tolist()]
        if max(map(len, texts)) > _SEP:
            return None
        # right-aligned before the separator, whatever the layout of the text
        slots[odd] = np.array([f"{t:>{_SEP}}," for t in texts], dtype="S16").view(_SLOT)
        first[odd] = [_SEP - len(t) for t in texts]
    return slots, first


def _row_bytes(slots: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept bytes of (n, c) cell slots, each row ending in a newline."""
    data = slots.view(np.uint8).reshape(*slots.shape, _SLOT.itemsize)
    data[:, -1, _SEP] = ord("\n")
    return data[keep.view(bool).reshape(data.shape)]


def _db_rows(values: np.ndarray, blank=None) -> bytes:
    """Rows of values formatted cell by cell through _db, each ending in a
    newline; a cell where the mask blank is set is left empty."""
    shown = np.ones(values.shape, dtype=bool) if blank is None else ~blank
    cells = np.full(values.shape, "", dtype=object)
    cells[shown] = [_db(v) for v in values[shown].tolist()]
    return "".join(",".join(row) + "\n" for row in cells.tolist()).encode("ascii")


def _write_table(out, header: str, d: np.ndarray, columns_of) -> None:
    """Write a header line, then one row per distance in d, its cells as _db
    formats them: the distance, then that row of columns_of(d).

    columns_of is evaluated on one _block_rows block of d at a time, so no
    value array over all of d is built.
    """
    out.write(header + "\n")
    step = _block_rows(header.count(",") + 1)
    for start in range(0, d.size, step):
        chunk = d[start : start + step]
        block = np.column_stack([chunk, columns_of(chunk)])
        cells = _encode(block)
        rows = _db_rows(block) if cells is None else _row_bytes(cells[0], _KEEP[cells[1]])
        out.write(str(rows, "ascii"))


def _profile_rows(axis: np.ndarray, inverse: np.ndarray, meas: MeasurementSet):
    """Axis index and measured sample (-1 for none) of each profile row.

    Rows are sorted by distance, duplicate measured distances keep their
    input order, and a grid point equal to a measured distance is not
    repeated.  axis and inverse are what np.unique returns, with
    return_inverse, for the measured distances followed by the grid.
    """
    n = len(meas)
    counts = np.bincount(inverse[:n], minlength=axis.size)
    sampled = counts > 0
    # the other axis points are grid points, one row per grid entry
    on_grid = inverse[n:]
    np.add.at(counts, on_grid[~sampled[on_grid]], 1)
    rows = np.repeat(np.arange(axis.size), counts)
    del counts
    # axis index · n + sample is unique, so a plain sort orders the samples
    # by axis index and, within one, by input order
    order = inverse[:n] * n
    order += np.arange(n)
    order.sort()
    np.remainder(order, n, out=order)
    sample = np.full(rows.size, -1)
    sample[sampled[rows]] = order
    return rows, sample


def _write_axis_files(
    out_dir: Path, axis: np.ndarray, inverse: np.ndarray, meas: MeasurementSet, cals
) -> None:
    """Write the disagg and profile files of the fitted models in one walk
    over axis, the report axis, with inverse as _profile_rows takes it.

    A part of _block_rows points holds each model's cells as [d | disagg
    values], zeros past the end of its _model_distances: the column sum Φ·C,
    with C its _loss_table, as group_losses forms it.  One _encode takes the
    part; a disagg file takes its rows from its columns, and a profile row,
    four slots with a blank measured cell kept as its separator alone, takes
    its distance slot and, as its basic and calibrated slots, those of the
    disagg's two totals, by axis index.  The part's rows go in chunks, one
    _encode of their measured cells each.  A part with a cell too long for its slot
    goes cell by cell through _db_rows, its profile rows too, and so does a
    chunk with such a measured cell.  With no fitted model there is no file.
    """
    if not cals:
        return
    tables = [_loss_table(cal) for cal in cals]
    bounds = np.cumsum([0] + [1 + table.shape[1] for table in tables]).tolist()
    # each model's two totals, the last cells of the halves of its disagg values
    pair = np.array([[(lo + hi) // 2, hi - 1] for lo, hi in zip(bounds, bounds[1:])])
    ends = [_model_distances(cal.kind, cal.terrain, axis)[0].size for cal in cals]
    axis_rows, axis_sample = _profile_rows(axis, inverse, meas)
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
            cells = _encode(part)
            if cells is None:
                for out, lo, hi, n in zip(disaggs, bounds, bounds[1:], counts):
                    out.write(_db_rows(part[:n, lo:hi]))
            else:
                slots, keep = cells[0], _KEEP[cells[1]]
                for out, lo, hi, n in zip(disaggs, bounds, bounds[1:], counts):
                    out.write(_row_bytes(slots[:n, lo:hi], keep[:n, lo:hi]))
                # by axis point the slots, then masks, of the distance and of
                # each model's two totals
                distance = np.stack([slots[:, 0], keep[:, 0]])
                pairs = np.stack([slots[:, pair], keep[:, pair]]).transpose(2, 0, 1, 3)
            lo_row, hi_row = np.searchsorted(axis_rows, [start, start + d.size]).tolist()
            for a in range(lo_row, hi_row, _block_rows(4)):
                local = axis_rows[a : min(a + _block_rows(4), hi_row)] - start
                sample = axis_sample[a : a + local.size]
                blank = sample < 0
                measured = np.where(blank, 0.0, meas.pathloss_db[sample])
                rows = [min(max(end - a, 0), local.size) for end in row_ends]
                shown = None if cells is None else _encode(measured[:, None])
                if shown is None:
                    values = np.column_stack([part[local, 0], measured, np.empty((local.size, 2))])
                    blanks = blank[:, None] & (np.arange(4) == 1)
                    for m, (count, out) in enumerate(zip(rows, profiles)):
                        values[:count, 2:] = part[local[:count, None], pair[m]]
                        out.write(_db_rows(values[:count], blanks[:count]))
                    continue
                # slots in row[0], masks in row[1]: distance, measured, basic, calibrated
                row = np.empty((2, local.size, 4), dtype=_SLOT)
                row[:, :, 0] = np.take(distance, local, axis=1)
                row[0, :, 1] = shown[0][:, 0]
                row[1, :, 1] = _KEEP[np.where(blank, _SEP, shown[1][:, 0])]
                for m, (count, out) in enumerate(zip(rows, profiles)):
                    row[:, :count, 2:] = np.take(pairs[m], local[:count], axis=1)
                    out.write(_row_bytes(row[0, :count], row[1, :count]))


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
    # the report axis: the sorted distinct distances of measured ∪ grid
    axis, inverse = np.unique(np.concatenate([meas.distances_km, grid]), return_inverse=True)
    _write_axis_files(out_dir, axis, inverse, meas, cals)
    _write_summary(out_dir / "summary.csv", runs)
