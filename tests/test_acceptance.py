"""Acceptance gate: the nine release criteria, one test each.

Criteria 1-3 reproduce the bundled experiments against the grid oracle;
4-5 exercise the unbalanced failure mode and the shared-saddle positive
case; 6 runs eight randomized property suites of at least 1000 trials each;
7-9 check the disagreement recursion, the saddle-residual sign, and
byte-identical determinism on every bundled trace. Each test prints one
pass line with the measured numbers.
"""

import hashlib
import time
from importlib import resources

import numpy as np
import pytest
import yaml

from canonical_reference import (CATALOG, disagreement_span, ergodicity_coefficient,
                                 evaluate, geometric_rate_bound, lipschitz_bound, project,
                                 subgradient_x, subgradient_y, verify_saddle)
from nashnet.digraph import (build_cycle_matrix, limiting_stochastic_vector,
                             perron_vector, transition_product)
from nashnet.engine import run
from nashnet.errors import NumericError
from nashnet.exprs import BoxSet, abs_nodes, check_selection
from nashnet.metrics import compute_metrics
from nashnet.saddle import (SaddleReport, WeightedObjective, grid_minimax,
                            unit_weighted)
from nashnet.csvout import metrics_to_csv, plotdata_to_csv, trace_to_csv
from nashnet.scenario_io import bundled_scenario, loads_scenario, scenario_to_doc
from nashnet.stepsizes import learner_readouts, oracle_heterogeneous_build

BUNDLED = ("example1", "example2", "example3", "perron_weighted", "shared_saddle")
BOX5 = BoxSet((-5.0,), (5.0,))
X_STAR, Y_STAR = 0.61025310, 0.88440690


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scenarios():
    return {name: bundled_scenario(name) for name in BUNDLED}


@pytest.fixture(scope="module")
def traces(scenarios):
    out = {}
    for name, s in scenarios.items():
        t0 = time.perf_counter()
        out[name] = (run(s), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def grid_saddle(scenarios):
    s = scenarios["example1"]
    return grid_minimax(unit_weighted(s.objectives1), s.box_x, s.box_y)


# ---------------------------------------------------------------------------
# criteria 1-3: experiment reproduction
# ---------------------------------------------------------------------------

def _final_errors(trace, saddle):
    ex = np.abs(trace.x[-1].ravel() - saddle.x_star[0]).max()
    ey = np.abs(trace.y[-1].ravel() - saddle.y_star[0]).max()
    return max(ex, ey)


def test_criterion_1_balanced_homogeneous(traces, grid_saddle):
    trace, seconds = traces["example1"]
    assert grid_saddle.x_star[0] == pytest.approx(X_STAR, abs=5e-3)
    assert grid_saddle.y_star[0] == pytest.approx(Y_STAR, abs=5e-3)
    err = _final_errors(trace, grid_saddle)
    assert trace.iterations == 100_000
    assert err < 5e-2
    assert seconds < 5.0
    print(f"\nPASS criterion 1: example1 max final error {err:.2e} < 5e-2 "
          f"after 1e5 iterations in {seconds:.2f}s")


def test_criterion_2_unbalanced_oracle_stepsizes(scenarios, traces, grid_saddle):
    phi1, phi2 = oracle_heterogeneous_build(scenarios["example2"].graph)
    for got, want in ((phi1[1], (0.5336, 0.1525, 0.3139)),
                      (phi1[0], (0.5336, 0.3408, 0.1256)),
                      (phi2[0], (0.8889, 0.1111))):
        np.testing.assert_allclose(got, want, atol=1e-4)
    trace, _ = traces["example2"]
    err = _final_errors(trace, grid_saddle)
    assert trace.iterations == 100_000
    assert err < 5e-2
    print(f"\nPASS criterion 2: example2 limit vectors match published "
          f"values; max final error {err:.2e} < 5e-2")


def test_criterion_3_adaptive_periodic_learners(scenarios, traces, grid_saddle):
    s = scenarios["example3"]
    trace, _ = traces["example3"]
    phi1, phi2 = oracle_heterogeneous_build(s.graph)
    gam = s.rule.schedule.values(202)
    worst = 0.0
    for k in (200, 201):  # the readouts the run divided gamma_k by
        worst = max(worst,
                    np.abs(gam[k] / trace.alpha[k] - phi1[(k + 1) % 2]).max(),
                    np.abs(gam[k] / trace.beta[k] - phi2[(k + 1) % 2]).max())
    assert worst < 1e-8
    err = _final_errors(trace, grid_saddle)
    assert err < 5e-2
    print(f"\nPASS criterion 3: learner readouts within {worst:.2e} of the "
          f"oracle vectors at k=200; max final error {err:.2e} < 5e-2")


# ---------------------------------------------------------------------------
# criteria 4-5: weighting effects
# ---------------------------------------------------------------------------

def test_criterion_4_unbalanced_failure_mode(scenarios, traces):
    s = scenarios["perron_weighted"]
    trace, _ = traces["perron_weighted"]
    mu = perron_vector(s.graph.a1[0])
    np.testing.assert_allclose(mu, [2 / 9, 4 / 9, 3 / 9], atol=1e-9)
    weighted = grid_minimax(
        WeightedObjective(tuple((m, e) for m, (e, _) in zip(mu, s.objectives1))),
        s.box_x, s.box_y, resolution=2001)
    unit = grid_minimax(unit_weighted(s.objectives1), s.box_x, s.box_y,
                        resolution=2001)
    separation = float(np.hypot(weighted.x_star[0] - unit.x_star[0],
                                weighted.y_star[0] - unit.y_star[0]))
    assert separation > 0.1  # otherwise the test functions must be redesigned
    fx, fy = trace.x[-1].ravel(), trace.y[-1].ravel()
    err_weighted = max(np.abs(fx - weighted.x_star[0]).max(),
                       np.abs(fy - weighted.y_star[0]).max())
    dist_unit = float(np.hypot(fx - unit.x_star[0], fy - unit.y_star[0]).min())
    assert err_weighted < 5e-2
    assert dist_unit > separation / 2
    # compute_metrics plateau against the unit-weight reference: summed over
    # agents it equals (n1 + n2) / 2 * separation^2 for mirrored subnets
    m = compute_metrics(trace, s, unit)
    plateau = (s.n1 + s.n2) / 2 * separation ** 2
    assert m.nash_error[-1] == pytest.approx(plateau, rel=0.1)
    print(f"\nPASS criterion 4: converged to the Perron-weighted saddle "
          f"(error {err_weighted:.2e}); distance {dist_unit:.3f} to the "
          f"unit-weight saddle exceeds separation/2 = {separation / 2:.3f}")


def test_criterion_5_shared_saddle_positive_case(traces):
    trace, _ = traces["shared_saddle"]
    err = max(np.abs(trace.x[-1] - 1.0).max(), np.abs(trace.y[-1] + 0.5).max())
    assert err < 1e-2
    print(f"\nPASS criterion 5: shared-saddle scenario within {err:.2e} of "
          f"(1, -0.5) on an unbalanced periodic graph")


# ---------------------------------------------------------------------------
# criterion 6: property suites, >= 1000 randomized trials each
# ---------------------------------------------------------------------------

TRIALS = 1000


def _random_stochastic(rng, n, eta=0.05):
    """Row-stochastic with positive diagonal and entries >= eta where > 0."""
    A = rng.uniform(0.0, 1.0, (n, n))
    A[A < 0.35] = 0.0
    np.fill_diagonal(A, rng.uniform(0.5, 1.0, n))
    A = A / A.sum(axis=1, keepdims=True)
    A[(A > 0) & (A < eta)] = eta
    return A / A.sum(axis=1, keepdims=True)


def test_criterion_6a_projection_nonexpansive():
    rng = np.random.default_rng(60)
    for _ in range(TRIALS):
        dim = int(rng.integers(1, 5))
        lo = rng.uniform(-3, 0, dim)
        hi = lo + rng.uniform(0.1, 4, dim)
        box = BoxSet(tuple(lo), tuple(hi))
        u, v = rng.uniform(-10, 10, dim), rng.uniform(-10, 10, dim)
        assert (np.linalg.norm(project(u, box) - project(v, box))
                <= np.linalg.norm(u - v) + 1e-12)
    print(f"\nPASS criterion 6a: projection non-expansiveness, {TRIALS} trials")


def test_criterion_6b_ergodicity_contraction():
    rng = np.random.default_rng(61)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 6))
        A = _random_stochastic(rng, n)
        x = rng.uniform(-5, 5, (n, int(rng.integers(1, 3))))
        lhs = disagreement_span(A @ x)
        rhs = ergodicity_coefficient(A) * disagreement_span(x)
        assert lhs <= rhs + 1e-10
    print(f"\nPASS criterion 6b: ergodicity contraction, {TRIALS} trials")


def test_criterion_6c_perron_roundtrip():
    rng = np.random.default_rng(62)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 7))
        mu = rng.uniform(0.05, 1.0, n)
        mu = mu / mu.sum()
        B = build_cycle_matrix(mu, b11=float(rng.uniform(0.1, 0.9)))
        back = perron_vector(B)
        assert np.abs(back - mu).max() < 1e-9
    print(f"\nPASS criterion 6c: Perron round-trip within 1e-9, {TRIALS} trials")


def test_criterion_6d_geometric_rate_envelope():
    rng = np.random.default_rng(63)
    checked = 0
    while checked < TRIALS:
        n = int(rng.integers(2, 5))
        period = int(rng.integers(1, 4))
        mats = tuple(_random_stochastic(rng, n, eta=0.1) for _ in range(period))
        # every matrix here has full support floor via the diagonal; use T
        # equal to the window in which the union is complete
        eta = min(float(A[A > 0].min()) for A in mats)
        bound = geometric_rate_bound(n, n * period, eta)
        for s in range(period):
            try:
                phi = limiting_stochastic_vector(mats, s)
            except NumericError:
                break  # not UJSC for this draw; resample
            for k in (s, s + 3, s + 11, s + 25):
                P = transition_product(mats, k, s)
                envelope = bound.C * bound.rho ** (k - s)
                assert np.abs(P - phi).max() <= envelope + 1e-9
                checked += 1
    print(f"\nPASS criterion 6d: geometric-rate envelope, {checked} sampled "
          f"(k, s) positions")


def test_criterion_6e_learner_row_identity():
    rng = np.random.default_rng(64)
    trials = 0
    while trials < TRIALS:
        n = int(rng.integers(2, 5))
        period = int(rng.integers(1, 4))
        mats = [_random_stochastic(rng, n) for _ in range(period)]
        K = int(rng.integers(2, 12))
        readouts = learner_readouts(mats, (0,), K + 1)
        # after K steps the learner holds the backward product from time 0
        P = transition_product(mats, K - 1, 0)
        for agent in range(n):
            assert abs(readouts[K, agent] - P[agent, agent]) < 1e-12
            trials += 1
    print(f"\nPASS criterion 6e: learner readout = Phi(K-1, 0) diagonal within 1e-12, "
          f"{trials} trials")


def test_criterion_6f_learner_stochasticity():
    rng = np.random.default_rng(65)
    trials = 0
    while trials < TRIALS:
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        K = int(rng.integers(p + 1, 15))
        mats = [_random_stochastic(rng, n) for _ in range(K)]
        readouts = learner_readouts(mats, tuple(range(1, p + 1)), K + 1)
        for nu in range(p):
            # bank nu's last readout within the K steps, at k = nu (mod p)
            k = nu + (K - nu) // p * p
            if k <= nu + 1:
                continue  # not yet past its start time nu + 1
            P = transition_product(mats, k - 1, nu + 1)
            assert readouts[k].tobytes() == np.diagonal(P).tobytes()
            assert P.min() >= 0.0
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
            assert 0.0 < readouts[k].min() and readouts[k].max() <= 1.0 + 1e-12
            trials += 1
    print(f"\nPASS criterion 6f: learner stochasticity preserved, "
          f"{trials} banks checked")


def test_criterion_6g_subgradient_inequality():
    rng = np.random.default_rng(66)
    per_entry = TRIALS // len(CATALOG) + 1
    total = 0
    for ent in CATALOG.values():
        xb = min(ent.y_concavity_x_bound, 5.0)
        for _ in range(per_entry):
            # convexity in x: valid on the whole box
            y = [float(rng.uniform(-5, 5))]
            u, v = [float(rng.uniform(-5, 5))], [float(rng.uniform(-5, 5))]
            g = subgradient_x(ent.expr, u, y, ent.selection)[0]
            assert (evaluate(ent.expr, v, y)
                    >= evaluate(ent.expr, u, y) + g * (v[0] - u[0]) - 1e-9)
            # concavity in y: valid where the coupling keeps its sign
            x = [float(rng.uniform(-xb, xb))]
            uy, vy = [float(rng.uniform(-5, 5))], [float(rng.uniform(-5, 5))]
            gy = subgradient_y(ent.expr, x, uy, ent.selection)[0]
            assert (evaluate(ent.expr, x, vy)
                    <= evaluate(ent.expr, x, uy) + gy * (vy[0] - uy[0]) + 1e-9)
            total += 2
    print(f"\nPASS criterion 6g: subgradient inequalities within 1e-9, "
          f"{total} trials")


def test_criterion_6h_finite_difference_agreement():
    rng = np.random.default_rng(67)
    h = 1e-6
    total = 0
    while total < TRIALS:
        ent = list(CATALOG.values())[int(rng.integers(len(CATALOG)))]
        x = [float(rng.uniform(-5, 5))]
        y = [float(rng.uniform(-5, 5))]
        # stay away from the kinks (arguments of every |.| node)
        if abs(x[0] - 1.0) < 1e-3 or abs(y[0]) < 1e-3:
            continue
        for side, grad in (("x", subgradient_x), ("y", subgradient_y)):
            g = grad(ent.expr, x, y, ent.selection)[0]
            if side == "x":
                fp = evaluate(ent.expr, [x[0] + h], y)
                fm = evaluate(ent.expr, [x[0] - h], y)
            else:
                fp = evaluate(ent.expr, x, [y[0] + h])
                fm = evaluate(ent.expr, x, [y[0] - h])
            fd = (fp - fm) / (2 * h)
            assert abs(fd - g) <= 1e-6 * max(1.0, abs(g))
            total += 1
    print(f"\nPASS criterion 6h: finite-difference agreement within 1e-6 "
          f"relative, {total} trials")


# ---------------------------------------------------------------------------
# criteria 7-9: trace-level guarantees
# ---------------------------------------------------------------------------

def test_criterion_7_disagreement_recursion(scenarios, traces):
    for name in BUNDLED:
        s = scenarios[name]
        trace, _ = traces[name]
        ref = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
        m = compute_metrics(trace, s, ref)
        for subnet, (h, n, T, lam) in enumerate((
                (m.h1, s.n1, s.graph.period, trace.alpha.max(axis=1)),
                (m.h2, s.n2, s.graph.period, trace.beta.max(axis=1))), 1):
            Tl = (n * (n - 2) + 1) * T
            objs = s.objectives1 if subnet == 1 else s.objectives2
            L = max(lipschitz_bound(e, s.box_x, s.box_y, sel=sel)
                    for e, sel in objs)
            csum = np.concatenate([[0.0], np.cumsum(lam)])
            starts = np.arange(0, len(h) - Tl)
            lhs = h[starts + Tl]
            rhs = ((1 - s.graph.eta ** Tl) * h[starts]
                   + 2 * L * (csum[starts + Tl] - csum[starts]))
            worst = float((lhs - rhs).max())
            assert worst <= 1e-12, (name, subnet, worst)
    print("\nPASS criterion 7: disagreement recursion holds at every window "
          "position on all five bundled traces")


def test_criterion_8_saddle_residual_nonnegative(scenarios, traces):
    worst = np.inf
    for name in BUNDLED:
        s = scenarios[name]
        trace, _ = traces[name]
        cert = verify_saddle(unit_weighted(s.objectives1),
                             (s.oracle_x, s.oracle_y), s.box_x, s.box_y)
        assert cert <= 1e-6, (name, cert)  # reference certified on samples
        m = compute_metrics(trace, s,
                            SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0))
        worst = min(worst, float(m.saddle_residual.min()))
    assert worst >= -1e-9
    print(f"\nPASS criterion 8: saddle residual >= -1e-9 on all bundled "
          f"traces (min {worst:.2e})")


# SHA-256 of trace_to_csv for each bundled scenario's full run. The bytes
# follow from the canonical arithmetic order, IEEE doubles and the platform
# libm pow; a mismatch means one of those changed. example2's stepsizes
# divide by limit vectors, so its three digests were re-pinned when those
# came to be read off squarings of one period's product.
TRACE_DIGESTS = {
    "example1": "855f5dec2f5384dbb609d5bf5eee0a5236d24b896fbc7f5f441503caf4d7db2d",
    "example2": "d8710803f2662ebbff14a621f5e655dba776b5e6011da61d746b867de2db2ba0",
    "example3": "435ae43af7f44747c4ee60ca744a7a06d88a6303a5a1a9228e665f09264659be",
    "perron_weighted": "338b18ed0085d050a2f2559693c4a9765dd2ec73f23a0f66eb5ba047c0a2f6e0",
    "shared_saddle": "e1c589cf6bde0fd45c4af7bac7fd4547c7b2e22f866706476173858205d3cf85",
}


# SHA-256 of metrics_to_csv and plotdata_to_csv for the same runs, scored
# against each scenario's stored saddle reference. Plot data keeps only the
# k on csvout.plot_grid; its digests were re-pinned when that grid
# replaced one row per k, and each new file is the old one's grid rows.
METRICS_DIGESTS = {
    "example1": "45290e2856e93c94c4e14fb5092af1d27e07094751ad94b01d832eb8977ae4df",
    "example2": "53f8df5c96a8f35be8e35d236a4d8a95bc23ecccf55bba89e96897dde8a76402",
    "example3": "0090206f30a88a7b4628fe45b31a59c9e74b550fbb8cb616b73577703a4472ad",
    "perron_weighted": "79c671f5bccbc03af725e963050d76ef280cff228baecce5c2d8044cf002485f",
    "shared_saddle": "29b494cb9ee9243bf0820397f83e2da7d073fa66aa039d72430cbd30a14d6475",
}
PLOTDATA_DIGESTS = {
    "example1": "bf465268fea80ebcc28f6f234809ea310c02f718072c4f4a3149d10c172df24a",
    "example2": "3edddff382edb8bc1f635ddcebb6ff8e9fffe16d300aaeee1d5fcf03be229946",
    "example3": "cce30018e49db2d495ad719a7b82ef25246c2cdf3bd5e7cbf5f4a59892866e11",
    "perron_weighted": "4d3180f9c0190fdd906682cbb51850fe632022135aa769229ff36f2502a34282",
    "shared_saddle": "9947214ac0a6d8ecf24ffc7219569a10d5d466c3b988688cf08ae8fd1e1df6a7",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _power_loop() -> str:
    """The SIMD target numpy dispatches float64 ``power`` to. The metrics
    digests were pinned where it is X86_V4 (AVX512): the residual's
    ``(x0 - 1) ** 4`` runs that loop, and other loops move the last bit of
    a few saddle_residual cells."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "numpy float64 power loop: not reported before numpy 2.0; digests pinned on X86_V4"
    loops = opt_func_info(func_name="^power$", signature="float64").get("power", {})
    current = [loop.get("current") for loop in loops.values()]
    return f"numpy float64 power loop: {', '.join(map(str, current))}; digests pinned on X86_V4"


def test_bundled_trace_digests_pinned(scenarios, traces):
    for name in BUNDLED:
        s = scenarios[name]
        csv = trace_to_csv(traces[name][0])
        assert _sha256(csv) == TRACE_DIGESTS[name], name
    print("\nPASS trace digests: all five bundled traces match the pinned SHA-256")


def test_stale_learner_bank_counts_run_the_bundled_learner():
    """example3 with the bank counts ``stepsize.p1: 1, p2: 3``, which once
    chose learners that miss the equilibrium, runs one bank per phase of
    the graph's period and writes the pinned example3 trace."""
    text = resources.files("nashnet.scenarios").joinpath("example3.yaml").read_text()
    doc = yaml.safe_load(text)
    doc["stepsize"].update(p1=1, p2=3)
    trace = run(loads_scenario(yaml.safe_dump(doc, sort_keys=False)))
    assert _sha256(trace_to_csv(trace)) == TRACE_DIGESTS["example3"]


def test_stale_connectivity_windows_run_the_bundled_graph():
    """example1 with ``graph.windows: {t1: 1, t2: 1, t_cross: 2}``, whose
    t1 and t2 claims are false, loads with no connectivity warning, as the
    checks take one period, and writes the pinned example1 trace."""
    text = resources.files("nashnet.scenarios").joinpath("example1.yaml").read_text()
    doc = yaml.safe_load(text)
    doc["graph"]["windows"] = {"t1": 1, "t2": 1, "t_cross": 2}
    s = loads_scenario(yaml.safe_dump(doc, sort_keys=False))
    assert s.warnings == bundled_scenario("example1").warnings
    assert _sha256(trace_to_csv(run(s))) == TRACE_DIGESTS["example1"]


def _stale_document(name: str, variant: str) -> dict:
    """A bundled document with the keys the loader once read, and now
    derives, put back: ``meta.determinism``, ``dimensions`` and
    ``graph.period``. "contradicting" declares sizes the data does not
    have. "phi" is the document as the old ``save_scenario`` wrote it, with
    the limit vectors ``stepsize.phi1`` and ``phi2`` stored; "uniform phi"
    replaces phi1 by uniform vectors."""
    s = bundled_scenario(name)
    doc = (scenario_to_doc(s) if variant.endswith("phi") else
           yaml.safe_load(resources.files("nashnet.scenarios").joinpath(f"{name}.yaml").read_text()))
    declared = (s.m1 + 1, s.m2 + 2, s.graph.period + 1) if variant == "contradicting" else (
        s.m1, s.m2, s.graph.period)
    doc["meta"]["determinism"] = "runs are seed-free and bit-identical"
    doc["dimensions"] = {"m1": declared[0], "m2": declared[1]}
    doc["graph"] = {"period": declared[2], **doc["graph"]}
    if variant.endswith("phi"):
        phi1, phi2 = oracle_heterogeneous_build(s.graph)
        doc["stepsize"]["phi1"] = [v.tolist() for v in phi1]
        doc["stepsize"]["phi2"] = [v.tolist() for v in phi2]
    if variant == "uniform phi":
        doc["stepsize"]["phi1"] = [[1.0 / s.n1] * s.n1] * s.graph.period
    return doc


@pytest.mark.parametrize("name, variant", [(name, "declared") for name in BUNDLED] + [
    ("example1", "contradicting"), ("example2", "phi"), ("example2", "uniform phi")])
def test_declared_sizes_and_limit_vectors_are_ignored(name, variant):
    """The block dimensions, the period and the limit vectors follow from
    the boxes and the graph: a document that still declares them, truly or
    not, loads the bundled scenario and writes its pinned trace."""
    doc = _stale_document(name, variant)
    trace = run(loads_scenario(yaml.safe_dump(doc, sort_keys=False)))
    assert _sha256(trace_to_csv(trace)) == TRACE_DIGESTS[name]


def test_bundled_metrics_and_plotdata_digests_pinned(scenarios, traces):
    for name in BUNDLED:
        s = scenarios[name]
        trace = traces[name][0]
        m = compute_metrics(trace, s, SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0))
        assert _sha256(metrics_to_csv(m)) == METRICS_DIGESTS[name], (name, _power_loop())
        assert _sha256(plotdata_to_csv(trace, m)) == PLOTDATA_DIGESTS[name], (name, _power_loop())
    print("\nPASS metrics and plot-data digests: all five bundled runs match "
          "the pinned SHA-256")


@pytest.mark.parametrize("name", BUNDLED)
def test_streamed_reproduce_files_match_the_pinned_digests(name, tmp_path, monkeypatch):
    """``nashnet reproduce --trust-bundled`` streams each run to its three
    files in segments, here of 997 or 831 iterations (5 or 6 agents): the
    files are the pinned ones of the whole run, byte for byte."""
    from nashnet import engine
    from nashnet.cli import main
    monkeypatch.setattr(engine, "SEGMENT_VALUES", 4987)
    assert main(["reproduce", name, "--trust-bundled", "--out", str(tmp_path)]) == 0
    for kind, digests in (("trace", TRACE_DIGESTS), ("metrics", METRICS_DIGESTS),
                          ("plotdata", PLOTDATA_DIGESTS)):
        text = (tmp_path / f"{name}_{kind}.csv").read_text(encoding="utf-8")
        assert _sha256(text) == digests[name], (kind, _power_loop())


def test_criterion_9_byte_identical_determinism(scenarios, traces):
    for name in BUNDLED:
        s = scenarios[name]
        first, _ = traces[name]
        again = run(s)
        ref = SaddleReport(s.oracle_x, s.oracle_y, 0.0, 0.0, 0)
        assert trace_to_csv(first) == trace_to_csv(again), name
        assert (metrics_to_csv(compute_metrics(first, s, ref))
                == metrics_to_csv(compute_metrics(again, s, ref))), name
    print("\nPASS criterion 9: repeated runs of all five bundled scenarios "
          "produce byte-identical trace and metrics files")
