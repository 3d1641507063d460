"""Scenario files, bundled examples, and trace/metrics serialization.

Scenario documents are YAML: nested key-value sections with matrix literals
as lists of lists and objectives in prefix notation (see ``exprs.parse_expr``).
Loading validates structure and the weight rule; connectivity-window checks
and convexity sampling attach warnings without failing the load. Every CSV
the package writes (traces, metrics, plot data, oracle reports, sweep
summaries) comes from one formatter, with a fixed header and
17-significant-digit floats so reimports are bit-faithful. Its bytes are
those of Python's `%`: numeric chunks are formatted in numpy, each value
proven to match `%` or handed to it, in the calling process.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np
import yaml

from .digraph import GraphSequenceSpec, check_jointly_bipartite, check_ujsc, validate_weight_rule
from .engine import Scenario, Trace
from .errors import ParseError, ValidationError
from .exprs import BoxSet, format_expr, parse_expr, sample_convexity
from .metrics import MetricsSeries
from .stepsizes import (AdaptiveCommonEigvec, AdaptivePeriodic, GammaSchedule,
                        Homogeneous, OracleHeterogeneous)

BUNDLED = ("example1", "example2", "example3", "perron_weighted", "shared_saddle")

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def load_scenario(path, check_assumptions: bool = True) -> Scenario:
    """Parse and validate a scenario file (see :func:`loads_scenario`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read scenario file {str(path)!r}: {reason}") from None
    return loads_scenario(text, check_assumptions=check_assumptions)


def loads_scenario(text: str, check_assumptions: bool = True) -> Scenario:
    """Parse and validate a scenario document.

    Weight-rule violations fail the load; window and convexity findings are
    collected on the returned scenario's ``warnings`` attribute. With
    `check_assumptions` false no assumption is checked at all: the caller
    runs every check itself (``nashnet graph-check`` reports them).
    """
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
    try:
        scenario = _scenario_from_doc(doc)
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"scenario document malformed: {exc!r}") from None

    warnings = []
    if check_assumptions:
        g = scenario.graph
        problems = validate_weight_rule(g, g.eta)
        if problems:
            raise ValidationError(
                "weight rule violated: " + "; ".join(str(v) for v in problems[:10]))
        if not check_ujsc(g, 1, g.t1):
            warnings.append(f"subnet 1 not jointly strongly connected within window {g.t1}")
        if not check_ujsc(g, 2, g.t2):
            warnings.append(f"subnet 2 not jointly strongly connected within window {g.t2}")
        if not check_jointly_bipartite(g, g.t_cross):
            warnings.append(f"cross layer leaves isolated nodes within window {g.t_cross}")
        for label, (e, s) in zip(
                [f"subnet1[{i}]" for i in range(g.n1)] + [f"subnet2[{i}]" for i in range(g.n2)],
                tuple(scenario.objectives1) + tuple(scenario.objectives2)):
            for w in sample_convexity(e, scenario.box_x, scenario.box_y, trials=200):
                warnings.append(f"{label}: {w}")
    object.__setattr__(scenario, "warnings", tuple(warnings))
    return scenario


def _scenario_from_doc(doc: dict) -> Scenario:
    meta = doc.get("meta", {})
    dims = doc["dimensions"]
    m1, m2 = _integer(dims["m1"], "dimensions.m1"), _integer(dims["m2"], "dimensions.m2")
    box_x = BoxSet(tuple(doc["boxes"]["x"]["lower"]), tuple(doc["boxes"]["x"]["upper"]))
    box_y = BoxSet(tuple(doc["boxes"]["y"]["lower"]), tuple(doc["boxes"]["y"]["upper"]))

    def agents(section):
        out = []
        for entry in section:
            e = parse_expr(entry["expr"])
            sel = {_integer(k, "selection key"): float(v)
                   for k, v in (entry.get("selections") or {}).items()}
            out.append((e, sel))
        return tuple(out)

    obj1 = agents(doc["agents"]["subnet1"])
    obj2 = agents(doc["agents"]["subnet2"])

    gdoc = doc["graph"]
    phases = gdoc["phases"]
    n1, n2 = len(obj1), len(obj2)
    a1, a2, c1, c2 = [], [], [], []
    for ph in phases:
        a1.append(np.asarray(ph["a1"], dtype=float))
        a2.append(np.asarray(ph["a2"], dtype=float))
        c1.append(_cross_matrix(ph.get("cross_to_1", []), n1, n2))
        c2.append(_cross_matrix(ph.get("cross_to_2", []), n2, n1))
    windows = gdoc.get("windows", {})
    t1, t2, t_cross = (_integer(windows.get(t, 1), f"windows.{t}") for t in ("t1", "t2", "t_cross"))
    graph = GraphSequenceSpec(
        n1=n1, n2=n2, period=_integer(gdoc["period"], "graph.period"),
        a1=tuple(a1), a2=tuple(a2), cross1=tuple(c1), cross2=tuple(c2),
        eta=float(gdoc["eta"]),
        t1=t1, t2=t2, t_cross=t_cross)

    rule = _rule_from_doc(doc["stepsize"], graph)
    run_doc = doc.get("run", {})
    oracle = run_doc.get("oracle") or {}
    return Scenario(
        name=str(meta.get("name", "unnamed")), m1=m1, m2=m2,
        objectives1=obj1, objectives2=obj2, graph=graph,
        box_x=box_x, box_y=box_y, rule=rule,
        x0=np.asarray(doc["initial"]["x"], dtype=float),
        y0=np.asarray(doc["initial"]["y"], dtype=float),
        iterations=_integer(run_doc.get("iterations", 1000), "run.iterations"),
        oracle_x=tuple(oracle["x_star"]) if "x_star" in oracle else None,
        oracle_y=tuple(oracle["y_star"]) if "y_star" in oracle else None,
        oracle_provenance=str(oracle.get("provenance", "")))


def _cross_matrix(edges, n_to, n_from) -> np.ndarray:
    """Edge list [source, target, weight] -> (n_to, n_from) weight matrix."""
    C = np.zeros((n_to, n_from))
    for src, dst, w in edges:
        src, dst = _integer(src, "cross edge source"), _integer(dst, "cross edge target")
        if not (0 <= dst < n_to and 0 <= src < n_from):
            raise ValidationError(f"cross edge {[src, dst, w]} names a missing agent")
        C[dst, src] = float(w)
    return C


def _integer(value, what: str) -> int:
    """An integer field: an int, or a float with no fraction such as 100000.0;
    a bool or a fractional number is an error, not what ``int`` makes of it."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _rule_from_doc(sdoc: dict, graph: GraphSequenceSpec):
    gdoc = sdoc.get("gamma", {})
    if "table" in gdoc:
        schedule = GammaSchedule(table=tuple(gdoc["table"]))
    else:
        schedule = GammaSchedule(c=float(gdoc.get("c", 1.0)),
                                 b=float(gdoc.get("b", 1.0)),
                                 eps=float(gdoc.get("eps", 0.5)))
    variant = sdoc["variant"]
    if variant == "homogeneous":
        return Homogeneous(schedule)
    if variant == "oracle_heterogeneous":
        if "phi1" in sdoc:
            return OracleHeterogeneous(schedule=schedule, period=graph.period,
                                       phi1=tuple(tuple(v) for v in sdoc["phi1"]),
                                       phi2=tuple(tuple(v) for v in sdoc["phi2"]))
        if validate_weight_rule(graph, graph.eta) or not all(check_ujsc(graph, s, graph.period) for s in (1, 2)):
            raise ValidationError("oracle limit vectors exist only on a jointly strongly connected "
                                  "graph that meets the weight rule; store phi1 and phi2 otherwise")
        from .stepsizes import oracle_heterogeneous_build
        return oracle_heterogeneous_build(graph, schedule)
    if variant == "adaptive_common":
        return AdaptiveCommonEigvec(schedule)
    if variant == "adaptive_periodic":
        return AdaptivePeriodic(schedule,
                                p1=_integer(sdoc.get("p1", graph.period), "stepsize.p1"),
                                p2=_integer(sdoc.get("p2", graph.period), "stepsize.p2"))
    raise ValidationError(f"unknown stepsize variant {variant!r}")


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
    sdoc = {"variant": _variant_name(s.rule), "gamma": _gamma_doc(s.rule.schedule)}
    if isinstance(s.rule, OracleHeterogeneous):
        sdoc["phi1"] = [[float(v) for v in vec] for vec in s.rule.phi1]
        sdoc["phi2"] = [[float(v) for v in vec] for vec in s.rule.phi2]
    if isinstance(s.rule, AdaptivePeriodic):
        sdoc["p1"], sdoc["p2"] = s.rule.p1, s.rule.p2
    doc = {
        "meta": {"name": s.name,
                 "determinism": "runs are seed-free and bit-identical"},
        "dimensions": {"m1": s.m1, "m2": s.m2},
        "boxes": {"x": {"lower": list(s.box_x.lower), "upper": list(s.box_x.upper)},
                  "y": {"lower": list(s.box_y.lower), "upper": list(s.box_y.upper)}},
        "agents": {
            "subnet1": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives1],
            "subnet2": [{"expr": format_expr(e), "selections": _selections_doc(sel)}
                        for e, sel in s.objectives2],
        },
        "graph": {"eta": g.eta, "period": g.period,
                  "windows": {"t1": g.t1, "t2": g.t2, "t_cross": g.t_cross},
                  "phases": phases},
        "stepsize": sdoc,
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


def _variant_name(rule):
    return {Homogeneous: "homogeneous", OracleHeterogeneous: "oracle_heterogeneous",
            AdaptiveCommonEigvec: "adaptive_common",
            AdaptivePeriodic: "adaptive_periodic"}[type(rule)]


def _gamma_doc(schedule: GammaSchedule):
    if schedule.table is not None:
        return {"table": list(schedule.table)}
    return {"c": schedule.c, "b": schedule.b, "eps": schedule.eps}


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

CSV_CHUNK = 8192  # values per chunk: bounds each chunk's table and text
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


def _csv(out, header: str, *parts) -> str | Written:
    """The one formatter that turns numbers into CSV text.

    Each part is ``(template, blocks)``: `blocks` are 2-D arrays with one
    row per `template`, whose columns, left to right, fill the template's
    `%` fields. A chunk of at most CSV_CHUNK values is gathered from the
    blocks only when it is formatted (:func:`_format_chunk`) and is
    written to the text stream `out` at once, in chunk order, so the whole
    text is never held. Without a stream the text goes to a buffer and
    comes back as a ``str``; with one, a :class:`Written`.
    """
    stream = io.StringIO() if out is None else out
    chars = stream.write(header + "\n")
    for template, blocks in parts:
        rows = max(1, CSV_CHUNK // sum(b.shape[1] for b in blocks))
        for start in range(0, len(blocks[0]), rows):
            chars += stream.write(_format_chunk(template, blocks, start, start + rows))
    return stream.getvalue() if out is None else Written(chars)


def _format_chunk(template: str, blocks, start: int, stop: int) -> str:
    """``(template * rows) % values`` for rows `start`:`stop` of `blocks`.

    A float table whose template has only ``%.17g`` and ``%d`` fields is
    formatted in numpy: every ``%.17g`` cell in one pass (:func:`_format_g`),
    every ``%d`` cell in another (:func:`_format_d`), each into a slot of a
    byte table that :func:`_layout` lays out with NUL padding, and one NUL
    compress makes the text. So the number of numpy calls does not grow
    with the template. Every other chunk, and one with a ``%d`` value
    outside the int64 range, goes through `%` whole.
    """
    table = np.concatenate([b[start:stop] for b in blocks], axis=1)
    layout = _layout(template) if table.dtype == np.float64 else None
    ints = None
    if layout is not None and len(layout.row) == table.shape[1]:
        ints = _format_d(table[:, layout.dcols].ravel())
    if ints is None:
        return (template * len(table)) % tuple(table.ravel().tolist())
    floats = _format_g(table[:, layout.gcols].ravel())
    rows = len(table)
    text = bytearray(rows * layout.row.size)
    buf = np.frombuffer(text, np.uint8).reshape(rows, *layout.row.shape)
    buf[:] = layout.row
    buf[:, layout.dcols, :_SLOT] = ints.reshape(rows, len(layout.dcols), _SLOT)
    buf[:, layout.gcols, :_SLOT] = floats.reshape(rows, len(layout.gcols), _SLOT)
    del buf, floats, ints
    return bytes(text).translate(None, b"\0").decode("utf-8")


class _Layout(NamedTuple):
    row: np.ndarray  # (fields, width) bytes of one template row, slots NUL
    gcols: np.ndarray  # the fields, and so table columns, of %.17g
    dcols: np.ndarray  # and of %d


@functools.lru_cache(maxsize=64)
def _layout(template: str) -> _Layout | None:
    """The byte layout of one row of `template`, or None if `%` must format it.

    A row is one piece per field, all of one width: the field's slot, then
    the text up to the next field. A template must begin with a field and
    hold no field but ``%.17g`` and ``%d``, and no NUL.
    """
    parts = re.split(r"(%\.17g|%d)", template)
    if parts[0] or any("%" in text or "\0" in text for text in parts[2::2]):
        return None
    texts = [text.encode("utf-8") for text in parts[2::2]]
    row = np.zeros((len(texts), _SLOT + max(map(len, texts))), np.uint8)
    for piece, text in enumerate(texts):
        row[piece, _SLOT:_SLOT + len(text)] = np.frombuffer(text, np.uint8)
    row.setflags(write=False)
    kinds = np.array(parts[1::2])
    return _Layout(row, np.flatnonzero(kinds == FLOAT_FMT), np.flatnonzero(kinds == "%d"))


# A formatted cell is a slot of _SLOT bytes at the start of six 8-byte
# words, each character at a fixed place and NUL where none is written:
#   word 0     sign, the "0.000" of fixed notation below 1, digit 0, point
#   words 1-4  digits 1-16, each followed by the place of a decimal point
#   word 5     the exponent, "e+05" or "e-308"
# A %d cell: sign, then 20 digits with NUL for the leading zeros.
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
    width = 1 + (g >= 10) + (g >= 100) + (g >= 1000)
    lead = np.where(np.arange(4) >= 4 - width[:, None], digits, 0)  # "0" for 0
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
        "digits": _words(digits), "lead": _words(lead),
        "minus32": _words([[ord("-"), 0, 0, 0]])[0],
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


def _format_d(values: np.ndarray) -> np.ndarray | None:
    """(N, _SLOT) byte slots of ``'%d' % v`` for float64 `values`, which
    `%` truncates toward zero; None if one is not finite or |v| >= 2**63."""
    a = np.abs(values)
    if not (a < 2.0 ** 63).all():  # NaN too
        return None
    t = _tables()
    ints = values.astype(np.int64)
    q = np.abs(ints)
    groups = []
    for _ in range(5):
        q, G = np.divmod(q, 10 ** 4)
        groups.append(G)
        if not q.any():
            break
    out = np.zeros((len(values), 6), np.uint64)
    cols = out.view(np.uint32)
    cols[ints < 0, 0] = t["minus32"]
    started = np.zeros(len(values), bool)
    for k, G in enumerate(reversed(groups), 6 - len(groups)):
        lead = t["lead"][G]
        if k < 5:
            lead = np.where(G == 0, 0, lead)
        cols[:, k] = np.where(started, t["digits"][G], lead)
        started |= G != 0
    return out.view(np.uint8)[:, :_SLOT]


def trace_to_csv(trace: Trace, m1: int, m2: int, out=None) -> str | Written:
    """Long-format rows (k, agent, subnet, states..., applied stepsize);
    the last iteration's rows leave the stepsize empty."""
    m = max(m1, m2)
    K = trace.iterations
    k = np.arange(K + 1)[:, None]
    sides = ((1, trace.x, trace.alpha), (2, trace.y, trace.beta))

    def part(rows, last):
        fields, blocks = "", []
        for subnet, states, steps in sides:
            dim = states.shape[2]
            for i in range(states.shape[1]):
                fields += (f"%d,{i + 1},{subnet}," + ",".join([FLOAT_FMT] * dim)
                           + "," * (m - dim) + ("," if last else "," + FLOAT_FMT) + "\n")
                blocks += [k[rows], states[rows, i]] + ([] if last else [steps[rows, i:i + 1]])
        return fields, blocks

    cols = ["k", "agent", "subnet"] + [f"s{d}" for d in range(m)] + ["stepsize"]
    return _csv(out, ",".join(cols), part(slice(0, K), False), part(slice(K, K + 1), True))


def metrics_to_csv(metrics: MetricsSeries, out=None) -> str | Written:
    series = (np.arange(len(metrics.h1)), metrics.h1, metrics.h2, metrics.nash_error,
              metrics.saddle_residual)
    return _csv(out, "k,h1,h2,nash_error,saddle_residual",
                ("%d" + f",{FLOAT_FMT}" * 4 + "\n", [v[:, None] for v in series]))


def plot_grid(iterations: int) -> np.ndarray:
    """The iterations plot data keeps: every k up to min(K, PLOT_DENSE_K),
    then each next k is min(K, k + k // PLOT_STEP_DIVISOR), so K comes
    last. Integer arithmetic only, so the grid is the same everywhere."""
    ks = list(range(min(iterations, PLOT_DENSE_K) + 1))
    k = ks[-1]
    while k < iterations:
        k = min(iterations, k + k // PLOT_STEP_DIVISOR)
        ks.append(k)
    return np.array(ks)


def plotdata_to_csv(trace: Trace, metrics: MetricsSeries | None, out=None) -> str | Written:
    """Plot-ready long format: k, series, value, for k on
    :func:`plot_grid`; the trace CSV holds every k."""
    ks = plot_grid(trace.iterations)
    k = ks[:, None]
    fields, blocks = "", []
    for name, states in (("x", trace.x), ("y", trace.y)):
        for i in range(states.shape[1]):
            for d in range(states.shape[2]):
                tag = f"{name}{i + 1}" if states.shape[2] == 1 else f"{name}{i + 1}[{d}]"
                fields += f"%d,{tag},{FLOAT_FMT}\n"
                blocks += [k, states[ks, i, d:d + 1]]
    if metrics is not None:
        fields += f"%d,nash_error,{FLOAT_FMT}\n"
        blocks += [k, metrics.nash_error[ks, None]]
    return _csv(out, "k,series,value", (fields, blocks))


def report_to_csv(report, out=None) -> str | Written:
    """Key-value rows of a :class:`~nashnet.saddle.SaddleReport`."""
    keys = ([f"x_star[{d}]" for d in range(len(report.x_star))]
            + [f"y_star[{d}]" for d in range(len(report.y_star))] + ["value", "minimax_gap"])
    row = (*report.x_star, *report.y_star, report.value, report.minimax_gap,
           report.grid_resolution)
    fields = "".join(f"{key},{FLOAT_FMT}\n" for key in keys) + "grid_resolution,%d\n"
    return _csv(out, "key,value", (fields, [np.array([row], dtype=object)]))


def sweep_summary_to_csv(param: str, results, out=None) -> str | Written:
    """One row per sweep job: (value, final nash error, metrics file path)."""
    return _csv(out, f"{param},final_nash_error,metrics_file",
                (f"{FLOAT_FMT},{FLOAT_FMT},%s\n", [np.array(results, dtype=object)]))
