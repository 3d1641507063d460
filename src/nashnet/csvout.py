"""CSV serialization: traces, metrics, plot data, oracle reports and sweep
summaries.

Every CSV the package writes comes from one formatter, with a fixed header
and 17-significant-digit floats so reimports are bit-faithful. Its bytes
are those of Python's `%`: numeric chunks are formatted in numpy, each
value proven to match `%` or handed to it, in the calling process.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import dataclass

import numpy as np

from .engine import Trace
from .metrics import MetricsSeries
from .stepsizes import distinct_columns

FLOAT_FMT = "%.17g"

# values per chunk: bounds each chunk's table and text. A chunk's
# temporaries, about 0.75 MB here, stay below what glibc keeps on the heap
# between the chunks of a streamed run; at 8192 values reproduce 1 took
# three times the page faults (2-core x86-64 host, glibc malloc defaults)
CSV_CHUNK = 4096
# plot_grid: the early transient at every k, the tail about 1.6% apart on
# a log axis, so a 100k-iteration run keeps 1,323 values of k
PLOT_DENSE_K = 1024
PLOT_STEP_DIVISOR = 64


@dataclass(frozen=True)
class Written:
    """What a CSV writer given a stream returns: ``len()`` is the number of
    characters it wrote, the length of the text it returns without one."""

    chars: int

    def __len__(self):
        return self.chars


def _csv(out, header: str | None, *parts) -> str | Written:
    """The one formatter that turns numbers into CSV text: the header line,
    unless `header` is None, then the parts.

    Each part is ``(template, blocks, columns)``: `blocks` are 2-D arrays
    with one row per `template`, and their columns, left to right, are
    numbered from 0. `columns` is the column index: one entry per `%`
    field of the template, the column that fills it. A column may fill
    many fields (k fills one in each row group of a trace, a homogeneous
    rule's one stepsize column every agent's), and it is formatted once
    per row. A chunk of the template's rows, at most CSV_CHUNK fields, is
    gathered from the blocks only when it is formatted
    (:func:`_format_chunk`) and is written to the text stream `out` at
    once, in chunk order, so the whole text is never held. Without a
    stream the text goes to a buffer and comes back as a ``str``; with
    one, a :class:`Written`.
    """
    stream = io.StringIO() if out is None else out
    chars = 0 if header is None else stream.write(header + "\n")
    for template, blocks, columns in parts:
        rows = max(1, CSV_CHUNK // len(columns))
        for start in range(0, len(blocks[0]), rows):
            chars += stream.write(_format_chunk(template, blocks, columns, start, start + rows))
    return stream.getvalue() if out is None else Written(chars)


def _format_chunk(template: str, blocks, columns: tuple, start: int, stop: int) -> str:
    """``(template * rows) % values`` for rows `start`:`stop` of `blocks`,
    field f of each row taking column ``columns[f]``.

    The blocks' rows are gathered with one ``concatenate``. A float table
    whose template has only ``%.17g`` fields is formatted in numpy: each
    distinct column in one pass of :func:`_format_g` into byte slots, which
    one gather by `columns` copies into the fields of a byte table that
    :func:`_layout` lays out with NUL padding, and one NUL compress makes
    the text. So the number of numpy calls grows neither with the template
    nor with the rows. The k columns are written this way too: each k is a
    whole number far below 10**17, which ``%.17g`` writes as ``%d`` does.
    Every other chunk goes through `%` whole.
    """
    table = np.concatenate([b[start:stop] for b in blocks], axis=1)
    row = _layout(template) if table.dtype == np.float64 else None
    if row is None or len(row) != len(columns):
        return (template * len(table)) % tuple(table[:, columns].ravel().tolist())
    rows = len(table)
    text = bytearray(rows * row.size)
    buf = np.frombuffer(text, np.uint8).reshape(rows, *row.shape)
    buf[:] = row
    slots = _format_g(table.ravel()).reshape(rows, table.shape[1], _SLOT)
    buf[:, :, :_SLOT] = slots[:, columns]
    return bytes(text).translate(None, b"\0").decode("utf-8")


@functools.lru_cache(maxsize=64)
def _layout(template: str) -> np.ndarray | None:
    """The (fields, width) bytes of one row of `template`, or None if `%`
    must format it.

    A row is one piece per field, all of one width: the field's NUL slot,
    then the text up to the next field. A template must begin with a field
    and hold no field but ``%.17g``, and no NUL.
    """
    first, *texts = template.split(FLOAT_FMT)
    if first or any("%" in text or "\0" in text for text in texts):
        return None
    texts = [text.encode("utf-8") for text in texts]
    row = np.zeros((len(texts), _SLOT + max(map(len, texts))), np.uint8)
    for piece, text in enumerate(texts):
        row[piece, _SLOT:_SLOT + len(text)] = np.frombuffer(text, np.uint8)
    row.setflags(write=False)
    return row


# A formatted cell is a slot of _SLOT bytes at the start of six 8-byte
# words, each character at a fixed place and NUL where none is written:
#   word 0     sign, the "0.000" of fixed notation below 1, digit 0, point
#   words 1-4  digits 1-16, each followed by the place of a decimal point
#   word 5     the exponent, "e+05" or "e-308"
_SLOT = 45
_DOT_SPILL = 47  # a byte past the slot that takes the dot of a value without one
_S_MIN, _S_MAX = -292, 340  # 16 - E over the finite nonzero doubles
# %.17g writes the 17 significant digits D of |x|, correctly rounded with
# ties to even, and the decimal exponent E of D * 10**(E - 16): fixed
# notation for -4 <= E <= 16 with the fraction's trailing zeros dropped,
# else d.dddde+XX. With s = 16 - E, t = |x| * 10**s is computed as p + r in
# double-double arithmetic (see _format_g), off by at most 16 t 2**-106,
# below 2**-45 while D < 10**17. D = round(t) is proven when t is farther
# than PROOF_MARGIN from a half-integer, and E when 10**16 - 0.04 <= t and
# D < 10**17: from 10**16 - 0.05 up the rounding carry gives the text of E.
# Every other value goes through `%`.
PROOF_MARGIN = 2.0 ** -40
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _words(byte_rows) -> np.ndarray:
    """Rows of bytes as unsigned words of the same width, bytes in memory order."""
    rows = np.ascontiguousarray(byte_rows, dtype=np.uint8)
    return rows.view(np.dtype(f"u{rows.shape[1]}")).ravel()


def _split(v):
    """Veltkamp's split: v == hi + lo exactly, each half of 26 bits."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


def _scaled_pow10(s: int):
    """(hi, lo, c): 10**s == (hi + lo) * 2**c to about 2**-106, 1 <= hi < 2,
    hi and lo each correctly rounded."""
    if s >= 0:
        num, den = 10 ** s, 1
        c = num.bit_length() - 1
        den <<= c
    else:
        num, den = 1, 10 ** -s
        c = -den.bit_length()
        num <<= -c
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b), c


@functools.cache
def _tables() -> dict:
    """Lookup tables of the vectorised formatters, built on first use."""
    s = np.arange(_S_MIN, _S_MAX + 1)
    hi, lo, scale = (np.array(v) for v in zip(*map(_scaled_pow10, s.tolist())))
    e = 16 - s
    fixed = (e >= -4) & (e <= 16)
    g = np.arange(10000)
    digits = 48 + g[:, None] // np.array([1000, 100, 10, 1]) % 10
    spread = np.zeros((10000, 8), int)
    spread[:, 0::2] = digits
    # a group's last nonzero digit, counted from 1; -99 for 0
    sig = np.where(g % 10, 4, np.where(g % 100, 3, np.where(g % 1000, 2, np.where(g, 1, -99))))
    # word k keeps digits 4k-3 .. 4k while fewer than `keep` come before
    keep = np.arange(18)[:, None] - np.arange(1, 17)[None, :] > 0
    masks = np.zeros((4, 18, 8), int)
    masks[:, :, 0::2] = 255 * keep.reshape(18, 4, 4).transpose(1, 0, 2)
    prefix = np.zeros((2, len(s), 8), int)  # unsigned, then with the sign
    prefix[1, :, 0] = ord("-")
    for zeros in range(4):
        prefix[:, e == -1 - zeros, 1:3 + zeros] = list(b"0." + b"0" * zeros)
    suffix = np.zeros((len(s), 8), int)
    x = np.abs(e)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    suffix[:, 2:5] = 48 + x[:, None] // np.array([100, 10, 1]) % 10
    suffix[x < 100, 2] = 0
    suffix[fixed] = 0
    # the digit the point follows (fixed notation: the last of the integer
    # part), and its byte when a kept digit comes after it
    point = np.where(fixed, np.where(e >= 0, e, 99), 0)
    place = np.where(np.arange(18)[None, :] > point[:, None] + 1, 7 + 2 * point[:, None],
                     _DOT_SPILL)
    return {
        "hi": hi, "lo": lo, "scale": scale, "hi_split": _split(hi),
        "sig": sig.astype(np.int8),
        "spread": _words(spread),
        "masks": [_words(m) for m in masks],
        "d0": _words(np.pad(np.arange(10)[:, None] + 48, ((0, 0), (6, 1)))),
        "prefix": _words(prefix.reshape(-1, 8)),
        "suffix": _words(suffix),
        # digits kept before the exponent: the integer part in fixed notation
        "need": np.where(fixed, e + 1, 0).astype(np.int8),
        "place": place.ravel().astype(np.int16),
    }


def _format_g(values: np.ndarray) -> np.ndarray:
    """(N, _SLOT) byte slots of ``'%.17g' % v`` for float64 `values`.

    The values PROOF_MARGIN leaves undecided, the zeros and the non-finite
    ones are formatted by one batched `%` call.
    """
    t = _tables()
    n = len(values)
    neg = np.signbit(values)
    a = np.abs(values)
    ok = np.isfinite(a) & (a != 0)
    if not ok.all():
        a[~ok] = 1.0
    # E, one too high or low next to a power of ten (the range check below
    # catches that), and s = 16 - E as an index
    E = np.floor(np.log10(a)).astype(np.intp)
    s = 16 - _S_MIN - E
    # |x| = m * 2**k and 10**s = (hi + lo) * 2**c, so t = m * (hi + lo) * 2**(k + c):
    # p = fl(m * hi) and its error, exact by Dekker's product, plus m * lo
    m, k = np.frexp(a)
    hi = t["hi"][s]
    p = m * hi
    mh, ml = _split(m)
    hh, hl = t["hi_split"][0][s], t["hi_split"][1][s]
    r = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * t["lo"][s]
    k += t["scale"][s]
    p, r = np.ldexp(p, k), np.ldexp(r, k)  # exact: p is an integer near t
    near = np.rint(r)
    frac = r - near
    D = p.astype(np.int64) + near.astype(np.int64)
    proven = (np.abs(frac) < 0.5 - PROOF_MARGIN) & ((D - 10 ** 16) + frac >= -0.04)
    proven &= (D < 10 ** 17) & ok
    del a, m, k, hi, p, mh, ml, hh, hl, r, near, frac

    d0 = D // 10 ** 16
    rest = D - d0 * 10 ** 16
    hi8 = rest // 10 ** 8
    lo8 = rest - hi8 * 10 ** 8
    g1, g3 = hi8 // 10 ** 4, lo8 // 10 ** 4
    groups = (g1, hi8 - g1 * 10 ** 4, g3, lo8 - g3 * 10 ** 4)
    sig = t["sig"]
    keep = t["need"][s]
    np.maximum(keep, 1, out=keep)
    for k, G in enumerate(groups):
        np.maximum(keep, sig[G] + (4 * k + 1), out=keep)
    keep = keep.astype(np.intp)
    out = np.empty((n, 6), np.uint64)
    np.bitwise_or(t["prefix"][s + len(t["hi"]) * neg], t["d0"][d0], out=out[:, 0])
    for k, G in enumerate(groups):
        np.bitwise_and(t["spread"][G], t["masks"][k][keep], out=out[:, k + 1])
    out[:, 5] = t["suffix"][s]
    slots = out.view(np.uint8)
    slots.reshape(-1)[t["place"][s * 18 + keep] + 48 * np.arange(n)] = ord(".")

    if not proven.all():
        rest = np.flatnonzero(~proven)
        text = ("%-24.17g" * len(rest)) % tuple(values[rest].tolist())  # padded to 24
        chars = np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(rest), 24)
        out[rest] = 0
        slots[rest, :24] = np.where(chars == 32, 0, chars)
    return slots[:, :_SLOT]


def _header(data, names) -> str | None:
    """The header line of a CSV whose rows `data` (a trace or metrics
    series) holds: None for a segment after the first, so that a run's
    segments written in k order make the file of the whole run."""
    return names if data.start == 0 else None


def trace_to_csv(trace: Trace, out=None) -> str | Written:
    """Long-format rows (k, agent, subnet, states..., applied stepsize);
    the rows at k = K leave the stepsize empty. The state columns
    number max(m1, m2), the block dimensions of ``trace.x`` and ``trace.y``;
    the smaller block leaves its extra columns empty. A segment of a run
    (``engine.run``) gives its own rows, the header only when it starts at
    k = 0.

    The blocks are k, each side's states as one (rows, n m) table and each
    side's distinct stepsize columns (``stepsizes.distinct_columns``), of
    which agent i reads column i % width: one under a homogeneous rule, so
    gamma_k is formatted once per iteration and side, as k is once per
    iteration."""
    m = max(trace.x.shape[2], trace.y.shape[2])
    rows, steps = len(trace.x), len(trace.alpha)
    k = np.arange(trace.start, trace.start + rows)[:, None]
    states = [v.reshape(rows, -1) for v in (trace.x, trace.y)]
    tables = [distinct_columns(a) for a in (trace.alpha, trace.beta)]

    def part(span, last):
        blocks = [k[span]] + [v[span] for v in states] + ([] if last else tables)
        first = np.cumsum([0] + [b.shape[1] for b in blocks]).tolist()
        fields, columns = "", []
        for side, v in enumerate((trace.x, trace.y)):
            dim = v.shape[2]
            for i in range(v.shape[1]):
                fields += (f"{FLOAT_FMT},{i + 1},{side + 1}," + ",".join([FLOAT_FMT] * dim)
                           + "," * (m - dim) + ("," if last else "," + FLOAT_FMT) + "\n")
                state = first[1 + side] + i * dim
                columns += [0] + list(range(state, state + dim))
                if not last:
                    columns.append(first[3 + side] + i % blocks[3 + side].shape[1])
        return fields, blocks, tuple(columns)

    cols = ["k", "agent", "subnet"] + [f"s{d}" for d in range(m)] + ["stepsize"]
    return _csv(out, _header(trace, ",".join(cols)),
                part(slice(0, steps), False), part(slice(steps, rows), True))


def metrics_to_csv(metrics: MetricsSeries, out=None) -> str | Written:
    """One row per k of the series, a segment's header only at k = 0 (see
    :func:`trace_to_csv`)."""
    k = np.arange(metrics.start, metrics.start + len(metrics.h1))
    series = (k, metrics.h1, metrics.h2, metrics.nash_error, metrics.saddle_residual)
    return _csv(out, _header(metrics, "k,h1,h2,nash_error,saddle_residual"),
                (",".join([FLOAT_FMT] * 5) + "\n", [v[:, None] for v in series], tuple(range(5))))


def plot_grid(iterations: int) -> np.ndarray:
    """The iterations plot data keeps: every k up to min(K, PLOT_DENSE_K),
    then each next k is min(K, k + k // PLOT_STEP_DIVISOR), so K comes
    last. Integer arithmetic only, so the grid is the same everywhere.
    Every k but K is a point of the same sequence for any K, so the grid
    of a longer run only adds points past K."""
    ks = list(range(min(iterations, PLOT_DENSE_K) + 1))
    k = ks[-1]
    while k < iterations:
        k = min(iterations, k + k // PLOT_STEP_DIVISOR)
        ks.append(k)
    return np.array(ks)


def plotdata_to_csv(trace: Trace, metrics: MetricsSeries, out=None) -> str | Written:
    """Plot-ready long format: k, series, value, for k on
    :func:`plot_grid`; the trace CSV holds every k. A segment of a run
    gives the grid's points among its rows, so the segments written in k
    order make the file of the whole run: ``plot_grid(trace.iterations)``
    agrees with the run's grid below the segment's end and holds K only
    for the final segment. The blocks are k and each series as a column,
    k formatted once per row group."""
    ks = plot_grid(trace.iterations)
    ks = ks[(ks >= trace.start) & (ks < trace.start + len(trace.x))]
    rows = ks - trace.start
    blocks = [ks[:, None]] + [v[rows].reshape(len(ks), v[0].size) for v in (trace.x, trace.y)]
    tags = []
    for name, states in (("x", trace.x), ("y", trace.y)):
        for i in range(states.shape[1]):
            for d in range(states.shape[2]):
                tags.append(f"{name}{i + 1}" if states.shape[2] == 1 else f"{name}{i + 1}[{d}]")
    tags.append("nash_error")
    blocks.append(metrics.nash_error[rows, None])
    fields = "".join(f"{FLOAT_FMT},{tag},{FLOAT_FMT}\n" for tag in tags)
    columns = tuple(c for series in range(1, len(tags) + 1) for c in (0, series))
    return _csv(out, _header(trace, "k,series,value"), (fields, blocks, columns))


def report_to_csv(report, out=None) -> str | Written:
    """Key-value rows of a :class:`~nashnet.saddle.SaddleReport`."""
    keys = ([f"x_star[{d}]" for d in range(len(report.x_star))]
            + [f"y_star[{d}]" for d in range(len(report.y_star))] + ["value", "minimax_gap"])
    row = (*report.x_star, *report.y_star, report.value, report.minimax_gap,
           report.grid_resolution)
    fields = "".join(f"{key},{FLOAT_FMT}\n" for key in keys) + "grid_resolution,%d\n"
    return _csv(out, "key,value",
                (fields, [np.array([row], dtype=object)], tuple(range(len(row)))))


def sweep_summary_to_csv(param: str, results, out=None) -> str | Written:
    """One row per sweep job: (value, final nash error, metrics file path).
    A path that holds a comma, a quote or a line break is quoted as the csv
    module quotes it, each quote doubled."""
    rows = [(v, err, '"' + path.replace('"', '""') + '"' if re.search('[,"\r\n]', path) else path)
            for v, err, path in results]
    return _csv(out, f"{param},final_nash_error,metrics_file",
                (f"{FLOAT_FMT},{FLOAT_FMT},%s\n", [np.array(rows, dtype=object)], (0, 1, 2)))
