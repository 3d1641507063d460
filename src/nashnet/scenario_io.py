"""Scenario files, bundled examples, and trace/metrics serialization.

Scenario documents are YAML: nested key-value sections with matrix literals
as lists of lists and objectives in prefix notation (see ``exprs.parse_expr``).
Loading validates structure and the weight rule; connectivity checks over
one period and convexity sampling attach warnings without failing the load.
Every CSV the package writes (traces, metrics, plot data, oracle reports,
sweep summaries) comes from one formatter, with a fixed header and
17-significant-digit floats so reimports are bit-faithful. Its bytes are
those of Python's `%`: numeric chunks are formatted in numpy, each value
proven to match `%` or handed to it, in the calling process.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np
import yaml

from .digraph import GraphSequenceSpec, check_jointly_bipartite, check_ujsc, validate_weight_rule
from .engine import Scenario, Trace
from .errors import ParseError, ValidationError
from .exprs import BoxSet, expr_keys, format_expr, parse_expr, sample_convexity
from .metrics import MetricsSeries
from .stepsizes import GammaSchedule, StepsizeRule, distinct_columns

BUNDLED = ("example1", "example2", "example3", "perron_weighted", "shared_saddle")

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read scenario file {str(path)!r}: {reason}") from None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (see :func:`loads_scenario`)."""
    return loads_scenario(_read(path))


def load_graph(path) -> GraphSequenceSpec:
    """The switching graph of a scenario file alone: no other section is
    read, no assumption is checked and no limit vector is derived, so
    ``nashnet graph-check`` can report every verdict itself."""
    return _from_doc(_graph_from_doc, _document(_read(path)))


def _document(text: str) -> dict:
    try:
        # libyaml's parser when pyyaml was built with it: the same safe
        # resolver and constructor, so the same document, several times faster
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"scenario parse error{where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")
    return doc


def _from_doc(build, doc: dict):
    """`build(doc)`, a document of the wrong shape a ValidationError."""
    try:
        return build(doc)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"scenario document malformed: {exc!r}") from None


def loads_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Weight-rule violations fail the load, and so does an
    ``oracle_heterogeneous`` rule on a graph that has no limit vectors (they
    are derived at run); connectivity findings over one period and
    convexity findings are collected in the returned scenario's
    ``warnings`` field, each distinct objective sampled once and its
    findings repeated for every agent that holds it.
    """
    scenario = _from_doc(_scenario_from_doc, _document(text))
    g = scenario.graph
    problems = validate_weight_rule(g)
    connected = [check_ujsc(mats, g.period) for mats in (g.a1, g.a2)]
    if scenario.rule.variant == "oracle_heterogeneous" and (problems or not all(connected)):
        raise ValidationError("oracle limit vectors exist only on a jointly strongly connected "
                              "graph that meets the weight rule")
    if problems:
        raise ValidationError(
            "weight rule violated: " + "; ".join(str(v) for v in problems[:10]))
    warnings = [f"subnet {subnet} not jointly strongly connected within one period"
                for subnet, ok in zip((1, 2), connected) if not ok]
    if not check_jointly_bipartite(g, g.period):
        warnings.append("cross layer leaves isolated nodes within one period")
    # one sample per distinct objective, keyed as WeightedObjective.compiled
    # keys it (exprs.expr_keys), so -0.0 and 0.0 stay apart
    exprs = [e for e, _ in tuple(scenario.objectives1) + tuple(scenario.objectives2)]
    labels = [f"subnet1[{i}]" for i in range(g.n1)] + [f"subnet2[{i}]" for i in range(g.n2)]
    found = {}
    for label, e, key in zip(labels, exprs, expr_keys(exprs)):
        if key not in found:
            found[key] = sample_convexity(e, scenario.box_x, scenario.box_y, trials=200)
        warnings += [f"{label}: {w}" for w in found[key]]
    object.__setattr__(scenario, "warnings", tuple(warnings))
    return scenario


def _scenario_from_doc(doc: dict) -> Scenario:
    meta = doc.get("meta", {})
    box_x, box_y = (BoxSet(*(tuple(_floats(doc["boxes"][side][end], f"boxes.{side}.{end}"))
                             for end in ("lower", "upper"))) for side in "xy")

    trees = {}  # expr text -> its tree, which every agent holding the text shares

    def agents(section):
        out = []
        for entry in section:
            text = entry["expr"]
            if text not in trees:
                trees[text] = parse_expr(text)
            sel = {_integer(k, "selection key"): float(v)
                   for k, v in (entry.get("selections") or {}).items()}
            out.append((trees[text], sel))
        return tuple(out)

    obj1 = agents(doc["agents"]["subnet1"])
    obj2 = agents(doc["agents"]["subnet2"])
    graph = _graph_from_doc(doc)
    rule = _rule_from_doc(doc["stepsize"])
    run_doc = doc.get("run", {})
    oracle = run_doc.get("oracle") or {}
    return Scenario(
        name=str(meta.get("name", "unnamed")), objectives1=obj1, objectives2=obj2, graph=graph,
        box_x=box_x, box_y=box_y, rule=rule,
        x0=_floats(doc["initial"]["x"], "initial.x"),
        y0=_floats(doc["initial"]["y"], "initial.y"),
        iterations=_integer(run_doc.get("iterations", 1000), "run.iterations"),
        oracle_x=tuple(oracle["x_star"]) if "x_star" in oracle else None,
        oracle_y=tuple(oracle["y_star"]) if "y_star" in oracle else None,
        oracle_provenance=str(oracle.get("provenance", "")))


def _graph_from_doc(doc: dict) -> GraphSequenceSpec:
    """The graph, its cross layers sized by the agent lists."""
    phases = doc["graph"]["phases"]
    n1, n2 = len(doc["agents"]["subnet1"]), len(doc["agents"]["subnet2"])
    keys = [f"graph.phases[{p}]" for p in range(len(phases))]
    return GraphSequenceSpec(
        a1=tuple(_floats(ph["a1"], f"{key}.a1") for ph, key in zip(phases, keys)),
        a2=tuple(_floats(ph["a2"], f"{key}.a2") for ph, key in zip(phases, keys)),
        cross1=tuple(_cross_matrix(ph.get("cross_to_1", []), n1, n2, f"{key}.cross_to_1")
                     for ph, key in zip(phases, keys)),
        cross2=tuple(_cross_matrix(ph.get("cross_to_2", []), n2, n1, f"{key}.cross_to_2")
                     for ph, key in zip(phases, keys)))


def _cross_matrix(edges, n_to, n_from, key: str) -> np.ndarray:
    """Edge list [source, target, weight] -> (n_to, n_from) weight matrix;
    `key` names the list in error messages."""
    C = np.zeros((n_to, n_from))
    for e, (src, dst, w) in enumerate(edges):
        src, dst = _integer(src, "cross edge source"), _integer(dst, "cross edge target")
        if not (0 <= dst < n_to and 0 <= src < n_from):
            raise ValidationError(f"{key}[{e}]: cross edge {[src, dst, w]} names a missing agent")
        try:
            C[dst, src] = float(w)
        except (TypeError, ValueError):
            raise ValidationError(f"{key}[{e}][2] must be a number, got {w!r}") from None
    return C


def _floats(value, key: str) -> np.ndarray:
    """``np.asarray(value, dtype=float)``; an entry that is not a number is a
    ValidationError naming its key, such as ``boxes.x.lower[0]``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        if isinstance(value, list):
            for i, v in enumerate(value):
                _floats(v, f"{key}[{i}]")
        else:
            raise ValidationError(f"{key} must be a number, got {value!r}") from None
        raise  # every entry is a number: the lists are ragged


def _integer(value, what: str) -> int:
    """An integer field: an int, or a float with no fraction such as 100000.0;
    a bool or a fractional number is an error, not what ``int`` makes of it."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _rule_from_doc(sdoc: dict) -> StepsizeRule:
    gdoc = sdoc.get("gamma", {})
    for key in gdoc:  # refused, not ignored: the run would take the default in its place
        if key not in ("c", "b", "eps"):
            raise ValidationError(f"stepsize.gamma.{key} is not a parameter of the schedule "
                                  "c / (k + b)^(1/2 + eps)")
    return StepsizeRule(sdoc["variant"], GammaSchedule(**{k: float(v) for k, v in gdoc.items()}))


# ---------------------------------------------------------------------------
# saving
# ---------------------------------------------------------------------------

def scenario_to_doc(s: Scenario) -> dict:
    g = s.graph
    phases = []
    for ph in range(g.period):
        phases.append({
            "a1": [[float(v) for v in row] for row in g.a1[ph]],
            "a2": [[float(v) for v in row] for row in g.a2[ph]],
            "cross_to_1": _edges(g.cross1[ph]),
            "cross_to_2": _edges(g.cross2[ph]),
        })
    doc = {
        "meta": {"name": s.name},
        "boxes": {"x": {"lower": list(s.box_x.lower), "upper": list(s.box_x.upper)},
                  "y": {"lower": list(s.box_y.lower), "upper": list(s.box_y.upper)}},
        "agents": {
            "subnet1": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives1],
            "subnet2": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives2],
        },
        "graph": {"phases": phases},
        "stepsize": {"variant": s.rule.variant, "gamma": asdict(s.rule.schedule)},
        "initial": {"x": [[float(v) for v in row] for row in s.x0],
                    "y": [[float(v) for v in row] for row in s.y0]},
        "run": {"iterations": s.iterations},
    }
    if s.oracle_x is not None:
        doc["run"]["oracle"] = {"x_star": [float(v) for v in s.oracle_x],
                                "y_star": [float(v) for v in s.oracle_y],
                                "provenance": s.oracle_provenance}
    return doc


def _selections_doc(sel):
    """The selections that differ from the default +0.0, -0.0 included."""
    return {int(k): float(v) for k, v in sel.items() if v != 0.0 or repr(float(v)) == "-0.0"}


def _edges(C):
    out = []
    for dst in range(C.shape[0]):
        for src in range(C.shape[1]):
            if C[dst, src] > 0:
                out.append([int(src), int(dst), float(C[dst, src])])
    return out


def save_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_doc(s), fh, sort_keys=False)


def bundled_scenario(name: str) -> Scenario:
    """Load one of the packaged experiment scenarios by name."""
    if name not in BUNDLED:
        raise ValidationError(f"no bundled scenario {name!r}; choose from {BUNDLED}")
    text = resources.files("nashnet.scenarios").joinpath(f"{name}.yaml").read_text()
    return loads_scenario(text)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

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
    zero = np.zeros((2, 8), int)
    zero[:, 6] = ord("0")
    zero[1, 0] = ord("-")
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
        "zero": _words(zero),
    }


def _format_g(values: np.ndarray) -> np.ndarray:
    """(N, _SLOT) byte slots of ``'%.17g' % v`` for float64 `values`.

    The values PROOF_MARGIN leaves undecided, and the non-finite ones, are
    formatted by one batched `%` call.
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

    zero = values == 0
    if zero.any():
        out[zero] = 0
        out[zero, 0] = t["zero"][neg[zero].astype(np.intp)]
        proven |= zero
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
