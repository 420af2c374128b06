"""Result files for deployment studies.

Three artifacts per study: a per-point CSV (one row per run and grid
point), an ECDF CSV of the 2D errors for plotting, and an aggregate
JSON report. CSV floats are written at 1 µm (``"%.6f"``, NaN as
``nan``) and never as ``-0.000000``; the ECDF CSV is the 2D-error
quantile function at the 1,001 levels p = k/1000, whatever the number
of runs. The report keeps full precision, and no timestamps are
recorded, so identical runs produce byte-identical files. Every JSON
result of the toolkit, the report included, is encoded by
``json_text``, which refuses NaN and infinities.

Both CSVs are written through one formatter, ``_fixed6``, which turns
an (m, k) float array into an (m, W) ``uint8`` matrix of text in which
byte 0 marks an absent byte. A value below 1,000 in magnitude is three
4-byte words from 1,000-entry tables: its integer part, ".ddd" and
"ddd,", from its micrometres ``rint(|x| * 1e6)``, half to even, with a
minus sign only where they are not zero. Every other value is formatted
one at a time by ``"%.6f"``, which writes the correctly rounded decimal
of the exact binary value: NaN, infinities, |x| >= 1,000, micrometres
that round up to 10**9, and the rare ties, values whose product was
rounded onto a half and so may lie on either side of it. The presets'
files send no value there at c = 0.1, and 2-3% at c = 0, the diverged
solves. A file is the matrix's non-zero bytes, which ``bytes.translate``
picks out.

``points.csv`` is written run by run in blocks of ``_BLOCK`` grid
points: the run number, the ``px,py,pz`` text, the five value fields
and the conditions text side by side, then one ``write``, so a block
never spans two runs. The position and conditions text is built once
per study, the latter by gathering a table of one line per link
signature (``RunStatistics.labels``) by each point's ``signature_of``;
apart from it the writer's memory is bounded by the block, not by the
number of runs.

Every file the toolkit writes, these three and a command's ``--out``, is
a new file (``new_file``): a writable regular file at the path is removed
first, so the new one takes default permissions, not the old file's. A
symlink is written through; a FIFO, a device or a file we may not write
is left to ``open``. Truncating a file in place makes ext4 flush it at
close, 40-90 ms a file on a 2-vCPU cloud VM. The report is encoded
before anything is removed.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import nullcontext

import numpy as np

from .errors import DataError
from .scenarios import scenario_to_dict
from .simulator import RunStatistics, Scenario

POINTS_CSV = "points.csv"
ECDF_CSV = "ecdf.csv"
REPORT_JSON = "report.json"

_POINTS_HEADER = b"run,px,py,pz,ex,ey,ez,err2d_m,err3d_m,conditions\n"
# Grid points per block of points.csv. A block costs about 30 numpy calls; from
# 256 to 4,096 points the writer's time and peak RSS stayed within noise.
_BLOCK = 1024


def _words(template: bytes) -> np.ndarray:
    """``template % i`` for i < 1000 as 4-byte words, spaces made absent bytes."""
    return np.frombuffer((template * 1000 % tuple(range(1000))).replace(b" ", b"\0"), np.uint32)


# An integer part below 1,000 is one word without leading zeros; its byte 0 is
# always absent, so a sign fits there. Every larger one is "%.6f" text.
_LEAD = _words(b"%4d")
_MILLI, _MICRO = _words(b".%03d"), _words(b"%03d,")  # the six decimals and the comma
_MINUS = np.frombuffer(b"-\0\0\0", np.uint32)[0]


def json_text(payload) -> str:
    """``payload`` as indented, key-sorted JSON text ending in a newline;
    DataError if it holds NaN or an infinity, which JSON cannot express."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError("a result is not finite and cannot be written as JSON") from exc


def new_file(path: str) -> str:
    """``path``, after removing the writable regular file there, if any, so
    that ``open(path, "w")`` creates a file instead of truncating one. Any
    other file, or one that cannot be removed, is left for ``open``."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass  # nothing there, or not ours to remove: open() writes it or says why not
    return path


def _fixed6(values: np.ndarray) -> np.ndarray:
    """The ``"%.6f"`` text of an (m, k) float array as an (m, W) ``uint8``
    matrix: row i holds the k fields of ``values[i]``, each followed by a
    comma, and byte 0 marks an absent byte. Equal to ``"%.6f" % v`` for
    every float, except that a value that rounds to zero is written
    ``0.000000``, never ``-0.000000``."""
    x = np.asarray(values, dtype=np.float64)
    m, k = x.shape
    a = np.abs(x)
    wild = ~(a < 1000.0)  # nan, inf, and integer parts of 1,000 or more
    a[wild] = 0.0
    p = a * 1e6
    n = np.rint(p)  # the micrometres, half to even
    wild |= (n == 1e9) | (np.abs(p - n) == 0.5)  # rounded up to 1,000, or onto a half
    n[wild] = 0.0
    text = np.array([b"%.6f" % v for v in x[wild].tolist()], dtype="S")
    text[text == b"-0.000000"] = b"0.000000"
    micro = n.astype(np.int64)
    whole = micro // 1_000_000
    frac = micro - whole * 1_000_000
    milli = frac // 1000
    # the integer word, ".ddd" and "ddd," last; wide enough for the text and its comma
    out = np.zeros((m, k, max(3, text.itemsize // 4 + 1)), np.uint32)
    out[..., -3] = _LEAD[whole] + np.where(np.copysign(n, x) < 0.0, _MINUS, np.uint32(0))
    out[..., -2] = _MILLI[milli]
    out[..., -1] = _MICRO[frac - milli * 1000]
    fields = out.view(np.uint8).reshape(m, k, -1)
    if text.size:
        fields[wild] = 0
        fields[wild, :text.itemsize] = text.view(np.uint8).reshape(text.size, -1)
        fields[wild, -1] = ord(",")
    return fields.reshape(m, -1)


def write_points_csv(stats: RunStatistics, path: str) -> None:
    n_runs, n_points = stats.err2d.shape
    blocks = [slice(lo, lo + _BLOCK) for lo in range(0, n_points, _BLOCK)]
    lines = np.array([label.encode() + b"\n" for label in stats.labels])
    conditions = lines.view(np.uint8).reshape(len(lines), -1)[stats.signature_of]
    positions = [_fixed6(stats.grid[block]) for block in blocks]
    with open(new_file(path), "wb") as out:
        out.write(_POINTS_HEADER)
        for run in range(n_runs):
            prefix = np.frombuffer(b"%d," % run, np.uint8)
            for block, position in zip(blocks, positions):
                values = np.column_stack(
                    (stats.estimates[run, block], stats.err2d[run, block], stats.err3d[run, block]))
                text = np.concatenate((np.broadcast_to(prefix, (len(position), prefix.size)),
                                       position, _fixed6(values), conditions[block]), axis=1)
                out.write(text.tobytes().translate(None, b"\0"))


def write_ecdf_csv(stats: RunStatistics, path: str) -> None:
    agg = stats.aggregate_2d
    text = _fixed6(np.column_stack((agg.ecdf_values, agg.ecdf_probs)))
    text[:, -1] = ord("\n")
    with open(new_file(path), "wb") as out:
        out.write(b"err2d_m,cum_prob\n")
        out.write(text.tobytes().translate(None, b"\0"))


def write_report_json(stats: RunStatistics, scenario: Scenario, path: str) -> str:
    """Write the report; returns its text, the bytes of the file."""
    n_runs, n_points = stats.err2d.shape
    text = json_text({
        "scenario": scenario_to_dict(scenario),
        "grid_points": n_points,
        "runs": n_runs,
        "solves": n_runs * n_points,
        "failed_solves": stats.n_failed,
        "error_2d_m": stats.aggregate_2d.to_dict(),
        "error_3d_m": stats.aggregate_3d.to_dict(),
    })
    with open(new_file(path), "w", encoding="utf-8", newline="\n") as out:
        out.write(text)
    return text


def write_outputs(stats: RunStatistics, scenario: Scenario, outdir: str, timed=nullcontext) -> str:
    """Write all three artifacts into ``outdir``; returns the report's text.

    The report goes first, so a report that cannot be encoded leaves no
    artifact behind and a previous study's files as they were.
    ``timed(stage)`` is entered around each artifact's writer: the CLI's
    ``--timings`` passes a stopwatch, and the default does nothing.
    """
    os.makedirs(outdir, exist_ok=True)
    with timed("report"):
        text = write_report_json(stats, scenario, os.path.join(outdir, REPORT_JSON))
    with timed("points.csv"):
        write_points_csv(stats, os.path.join(outdir, POINTS_CSV))
    with timed("ecdf.csv"):
        write_ecdf_csv(stats, os.path.join(outdir, ECDF_CSV))
    return text
