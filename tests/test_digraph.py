"""Stochastic matrices, graph sequences, transition products and their
limits."""

import inspect
import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canonical_reference import (GeometricRateBound, backward_product, canonical_dot,
                                 canonical_matmul, disagreement_span,
                                 ergodicity_coefficient, geometric_rate_bound,
                                 many_agents_doc)
from nashnet import digraph
from nashnet.digraph import (SUM_TERMS_PER_STATEMENT, GraphSequenceSpec,
                             build_cycle_matrix, canonical_mix_code,
                             check_jointly_bipartite, check_ujsc, is_weight_balanced,
                             limiting_stochastic_vector, perron_vector,
                             reachability, strongly_connected,
                             transition_product, validate_weight_rule)
from nashnet.errors import NumericError, ValidationError
from nashnet.scenario_io import bundled_scenario, load_graph


# --- reference matrices -----------------------------------------------------

A1_EVEN_BAL = np.array([[0.6, 0.4, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
A1_ODD_BAL = np.array([[1.0, 0.0, 0.0], [0.0, 0.7, 0.3], [0.0, 0.3, 0.7]])
A2_EVEN_BAL = np.array([[0.9, 0.1], [0.1, 0.9]])
A1_EVEN_UNB = np.array([[0.8, 0.2, 0.0], [0.7, 0.3, 0.0], [0.0, 0.6, 0.4]])
STATIC_UNB = np.array([[0.5, 0.5, 0.0], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])


def _spec_of(mats) -> GraphSequenceSpec:
    """Subnet 1 runs the phases `mats`; subnet 2 is one agent."""
    n, period = len(mats[0]), len(mats)
    return GraphSequenceSpec(a1=tuple(mats), a2=(np.eye(1),) * period,
                             cross1=(np.zeros((n, 1)),) * period,
                             cross2=(np.zeros((1, n)),) * period)


def clauses(A):
    """Clauses of the weight rule that the period-1 sequence of `A` breaks,
    one per violation."""
    return [v.clause for v in validate_weight_rule(_spec_of([A]))]


def test_stochastic_violations():
    assert clauses(A1_EVEN_BAL) == []
    assert clauses(np.array([[0.5, 0.4], [0.5, 0.5]])) == ["weight-rule (ii)"]  # bad row
    assert clauses(np.array([[0.0, 1.0], [0.5, 0.5]])) == ["weight-rule (i)"]  # no loop
    assert "weight-rule (ii)" in clauses(np.array([[1.5, -0.5], [0.5, 0.5]]))
    assert clauses(A1_EVEN_UNB) == []
    # a NaN weight in a strongly connected pattern: its row's sum is NaN
    nan_row = [[0.4, 0.3, 0.3], [math.nan, 0.5, 0.5], [0.5, 0.0, 0.5]]
    for bad in ([[0.9, 0.0], [0.0, 1.0]], np.zeros((2, 2)), np.full((2, 3), 1 / 3), [0.5, 0.5],
                nan_row):
        with pytest.raises(ValidationError):
            perron_vector(bad)


def test_weight_balance():
    for A in (A1_EVEN_BAL, A1_ODD_BAL, A2_EVEN_BAL):
        assert is_weight_balanced(A)
    assert not is_weight_balanced(A1_EVEN_UNB)
    assert not is_weight_balanced(STATIC_UNB)


def test_ergodicity_coefficient_values():
    # row pair minima: rows of a positive matrix overlap heavily
    A = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert ergodicity_coefficient(A) == pytest.approx(1.0 - (0.25 + 0.5))
    assert ergodicity_coefficient(np.eye(2)) == 1.0
    assert ergodicity_coefficient(np.full((3, 3), 1 / 3)) == pytest.approx(0.0)


def test_disagreement_span():
    assert disagreement_span([1.0, 4.0, 2.0]) == 3.0
    assert disagreement_span([[0.0, 0.0], [3.0, 4.0]]) == 5.0
    assert disagreement_span([[1.0, 1.0]]) == 0.0


def test_strongly_connected():
    assert strongly_connected(A1_EVEN_BAL + A1_ODD_BAL > 0)
    assert not strongly_connected(A1_EVEN_BAL > 0)  # node 2 isolated
    assert strongly_connected(STATIC_UNB > 0)
    # entry (i, j): node i hears node j; node 2 hears 0 and 1, nobody hears 2
    assert reachability(A1_EVEN_UNB > 0).tolist() == [[True, True, False],
                                                      [True, True, False],
                                                      [True, True, True]]


# --- graph sequences ---------------------------------------------------------

@pytest.fixture(scope="module")
def balanced():
    return bundled_scenario("example1").graph


@pytest.fixture(scope="module")
def unbalanced():
    return bundled_scenario("example2").graph


def test_spec_shape_validation():
    """The four layers are the whole constructor: the agent counts are the
    cross layers' row counts and the period the phase count, and a layer
    that disagrees with them, an empty phase list or an agent count of
    zero is refused."""
    assert list(inspect.signature(GraphSequenceSpec).parameters) == ["a1", "a2", "cross1",
                                                                     "cross2"]
    spec = GraphSequenceSpec(a1=(np.eye(2),) * 3, a2=(np.eye(1),) * 3,
                             cross1=(np.ones((2, 1)),) * 3, cross2=(np.ones((1, 2)) / 2,) * 3)
    assert (spec.n1, spec.n2, spec.period) == (2, 1, 3)
    with pytest.raises(ValidationError, match="subnet-2 matrix has 2 phases, a1 1"):
        GraphSequenceSpec(a1=(np.eye(2),), a2=(np.eye(1),) * 2,
                          cross1=(np.ones((2, 1)),) * 2, cross2=(np.ones((1, 2)) / 2,) * 2)
    with pytest.raises(ValidationError, match=r"subnet-1 matrix shape \(3, 3\) != \(2, 2\)"):
        GraphSequenceSpec(a1=(np.eye(3),), a2=(np.eye(1),),
                          cross1=(np.ones((2, 1)),), cross2=(np.ones((1, 2)) / 2,))
    with pytest.raises(ValidationError, match="at least one phase"):
        GraphSequenceSpec(a1=(), a2=(), cross1=(), cross2=())
    # a subnetwork without agents, whose cross layer has no rows, is named
    # before the shape checks, whatever its matrices
    for n1, n2, a2, empty in ((2, 0, np.zeros((0, 0)), 2), (2, 0, np.eye(2), 2),
                              (0, 2, np.eye(2), 1), (0, 0, np.eye(1), 1)):
        with pytest.raises(ValidationError, match=f"^subnet {empty} has no agents$"):
            GraphSequenceSpec(a1=(np.eye(n1),), a2=(a2,), cross1=(np.zeros((n1, n2)),),
                              cross2=(np.zeros((n2, n1)),))


@st.composite
def _weight_specs(draw):
    """GraphSequenceSpecs of 1-3 agents a side and 1-3 phases whose weights
    mix zeros, negatives, subnormals and ordinary floats in all four layers,
    with no row condition imposed."""
    n1, n2, period = (draw(st.integers(1, 3)) for _ in range(3))
    weight = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300]),
                       st.floats(-2.0, 2.0))

    def layer(rows, cols):
        return tuple(np.array(draw(st.lists(weight, min_size=rows * cols, max_size=rows * cols)))
                     .reshape(rows, cols) for _ in range(period))
    return GraphSequenceSpec(a1=layer(n1, n1), a2=layer(n2, n2), cross1=layer(n1, n2),
                             cross2=layer(n2, n1))


@settings(max_examples=200, deadline=None)
@given(_weight_specs())
@example(GraphSequenceSpec(a1=(np.zeros((2, 2)),), a2=(-np.eye(1),),
                           cross1=(np.zeros((2, 1)),), cross2=(np.zeros((1, 2)),)))
def test_eta_is_the_least_positive_weight_of_all_layers(spec):
    """The floor is derived over every phase of a1, a2, cross1 and cross2;
    a spec without a positive weight still constructs, with floor 1.0."""
    weights = np.concatenate([m.ravel() for m in spec.a1 + spec.a2 + spec.cross1 + spec.cross2])
    positive = weights[weights > 0]
    assert spec.eta == (positive.min() if positive.size else 1.0)


def test_weight_rule_clean_graphs(balanced, unbalanced):
    assert validate_weight_rule(balanced) == []
    assert validate_weight_rule(unbalanced) == []
    assert balanced.eta == unbalanced.eta == 0.1


def test_weight_rule_violations(balanced):
    bad_a1 = list(balanced.a1)
    bad_a1[0] = np.array([[0.5, 0.4, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
    spec = GraphSequenceSpec(a1=tuple(bad_a1), a2=balanced.a2,
                             cross1=balanced.cross1, cross2=balanced.cross2)
    problems = validate_weight_rule(spec)
    assert any(v.clause == "weight-rule (ii)" and v.phase == 0 and v.node == 0
               for v in problems)


def test_ujsc_windows(balanced):
    assert check_ujsc(balanced.a1, 2)
    assert not check_ujsc(balanced.a1, 1)  # single phases are disconnected
    assert check_ujsc(balanced.a2, 2)
    assert check_jointly_bipartite(balanced, 1)


def test_ujsc_never_connected_node():
    A = np.array([[1.0, 0.0], [0.5, 0.5]])  # node 0 never listens to node 1
    spec = _spec_of([A])
    assert not check_ujsc(spec.a1, 1)
    assert not check_ujsc(spec.a1, 7)
    assert not check_jointly_bipartite(spec, 3)


def test_transition_product_is_backward(balanced):
    P = transition_product(balanced.a1, 1, 0)
    np.testing.assert_allclose(P, A1_ODD_BAL @ A1_EVEN_BAL)
    np.testing.assert_allclose(transition_product(balanced.a1, 0, 0), A1_EVEN_BAL)
    assert clauses(transition_product(balanced.a1, 9, 2)) == []
    with pytest.raises(ValueError):
        transition_product(balanced.a1, 1, 2)


def test_canonical_matmul_is_the_canonical_sum():
    rng = np.random.default_rng(3)
    for n, cols in ((1, 1), (3, 4), (7, 2), (12, 12)):
        A = np.where(rng.random((n, n)) < 0.5, rng.normal(size=(n, n)), 0.0)
        A[0] = 0.0  # a row without weights sums to 0.0
        B = rng.normal(size=(n, cols))
        want = [[canonical_dot(row, col) for col in B.T.tolist()] for row in A.tolist()]
        assert canonical_matmul(A, B).tobytes() == np.array(want).tobytes()
        assert canonical_matmul(A, B[:, 0]).tobytes() == np.array(want)[:, 0].tobytes()


@st.composite
def _phase_lists(draw):
    """1-3 sparse stochastic n x n phases, n 1-8: rows of small whole
    weights, normalized, with positive diagonals. Phase 0 holds a tree of
    arcs from node 0, so every agent hears node 0 and the products have a
    limit."""
    n, period = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    mats = []
    for ph in range(period):
        W = np.array(draw(st.lists(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]),
                                            min_size=n, max_size=n),
                                   min_size=n, max_size=n)), dtype=float)
        np.fill_diagonal(W, np.diag(W) + 1.0)
        if ph == 0:
            for i in range(1, n):
                W[i, draw(st.integers(0, i - 1))] += 1.0
        mats.append(W / W.sum(axis=1, keepdims=True))
    return mats


@settings(max_examples=150, deadline=None)
@given(_phase_lists(), st.integers(0, 4), st.integers(0, 12))
def test_planned_products_are_the_reference_products(mats, extra, steps):
    """transition_product, started at or beyond one period, is a chain of
    the reference canonical_matmul byte for byte, and the limit vector is
    the one read off the reference squarings of one period's chain at the
    first spread within LIMIT_TOL."""
    s = len(mats) + extra
    want = backward_product(mats, s + steps, s)
    assert transition_product(mats, s + steps, s).tobytes() == want.tobytes()
    P = backward_product(mats, s + len(mats) - 1, s)
    while float((P.max(axis=0) - P.min(axis=0)).max()) > digraph.LIMIT_TOL:
        P = canonical_matmul(P, P)
    phi = P.mean(axis=0)
    assert limiting_stochastic_vector(mats, s).tobytes() == (phi / phi.sum()).tobytes()


def test_planned_product_of_an_empty_row_is_zero():
    """A factor row without weights comes out as 0.0, as the reference
    gives it, and the other rows as the reference's canonical sums."""
    B = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.3, 0.7]])
    A = np.array([[0.2, 0.0, 0.8], [0.0, 0.0, 0.0], [0.1, 0.6, 0.3]])
    P = transition_product([B, A], 1, 0)
    assert P.tobytes() == canonical_matmul(A, B).tobytes()
    assert P[1].tobytes() == np.zeros(3).tobytes()


def test_canonical_mix_code_bounds_statement_length():
    """A sum far longer than the compiler's nesting limit compiles, in
    statements of bounded length, to the same canonical sum."""
    n = 5000
    w = np.random.default_rng(4).uniform(0.1, 1.0, (1, n))
    w[0, ::7] = 0.0
    lines = canonical_mix_code(w, [["t"]], [[f"v[{j}]"] for j in range(n)])
    assert all(ln.count(" * ") <= SUM_TERMS_PER_STATEMENT for ln in lines)
    env = {}
    exec("def f(v):\n" + "\n".join("    " + ln for ln in lines) + "\n    return t", env)
    v = np.random.default_rng(5).normal(size=n).tolist()
    assert env["f"](v) == canonical_dot(w[0], v)
    assert canonical_mix_code(np.zeros((1, 2)), [["t"]], [["a"], ["b"]]) == ["t = 0.0"]


def test_limit_vectors_balanced_are_uniform(balanced):
    for start in (0, 1):
        phi = limiting_stochastic_vector(balanced.a1, start)
        np.testing.assert_allclose(phi, np.full(3, 1 / 3), atol=1e-8)
        phi2 = limiting_stochastic_vector(balanced.a2, start)
        np.testing.assert_allclose(phi2, np.full(2, 1 / 2), atol=1e-8)


def test_limit_vectors_unbalanced_known_values(unbalanced):
    np.testing.assert_allclose(limiting_stochastic_vector(unbalanced.a1, 0),
                               [0.5336, 0.3408, 0.1256], atol=1e-4)
    np.testing.assert_allclose(limiting_stochastic_vector(unbalanced.a1, 1),
                               [0.5336, 0.1525, 0.3139], atol=1e-4)
    for start in (0, 1):
        np.testing.assert_allclose(limiting_stochastic_vector(unbalanced.a2, start),
                                   [0.8889, 0.1111], atol=1e-4)


def test_limit_vector_floor(unbalanced):
    # every component is at least eta^((n-1) T)
    floor = unbalanced.eta ** (2 * unbalanced.period)
    for mats in (unbalanced.a1, unbalanced.a2):
        for start in (0, 1):
            assert limiting_stochastic_vector(mats, start).min() >= floor


def test_geometric_rate_bound_values():
    b = geometric_rate_bound(3, 2, 0.1)
    assert b.M == 4
    assert b.rho == pytest.approx((1 - 0.1 ** 4) ** 0.25)
    assert b.C == pytest.approx(2 * (1 + 0.1 ** -4) / (1 - 0.1 ** 4))
    # no rate in (0, 1): eta^M is 1, or so small that its inverse overflows
    assert geometric_rate_bound(2, 1, 1.0) == GeometricRateBound(C=math.inf, rho=0.0, M=1)
    assert geometric_rate_bound(100, 4, 0.1) == GeometricRateBound(C=math.inf, rho=1.0, M=396)
    assert geometric_rate_bound(2, 1, 1e-17) == GeometricRateBound(C=2e17, rho=1.0, M=1)


def _counting_products(monkeypatch) -> list:
    """Wrap digraph's one product helper; the list it returns grows by one
    entry per canonical product."""
    calls, product = [], digraph._planned_product

    def counted(plan, P):
        calls.append(P.shape)
        return product(plan, P)
    monkeypatch.setattr(digraph, "_planned_product", counted)
    return calls


def test_slowly_mixing_limit_vector_takes_few_squarings(monkeypatch):
    """A pair that mixes at 2e-7 per step needs about 1e8 steps, which 27
    squarings reach; a floor of 1e-17, where the paper's envelope has no
    rate in (0, 1), converges to the node every agent hears."""
    a = 1e-7
    calls = _counting_products(monkeypatch)
    phi = limiting_stochastic_vector((np.array([[1 - a, a], [a, 1 - a]]),), 0)
    np.testing.assert_allclose(phi, [0.5, 0.5], atol=1e-9)
    assert len(calls) == 27
    np.testing.assert_allclose(limiting_stochastic_vector((np.array([[1.0, 1e-17], [0.5, 0.5]]),), 0),
                               [1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("A", [[[1.0, 1e-300], [1e-300, 1.0]],
                               [[1.0 + 5e-13, 1e-300], [1e-300, 1.0 + 5e-13]]],
                         ids=["no mixing", "overflow"])
def test_a_pair_that_cannot_mix_fails_after_the_cap(A, monkeypatch):
    """An off-diagonal of 1e-300 does not mix within 2**MAX_SQUARINGS
    periods: NumericError after that many squarings and no numpy warning,
    also where the products overflow to inf and NaN."""
    calls = _counting_products(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="did not reach spread 1e-09 within 2"):
            limiting_stochastic_vector((np.array(A),), 0)
    assert len(calls) == digraph.MAX_SQUARINGS


def test_rows_that_decay_before_they_mix_are_refused():
    """Rows summing to 1 - 9e-13 (within STOCHASTIC_TOL) that mix at
    3e-16 per step decay to zero long before they mix, so their spread is
    met by rows that sum to about 0, not to one: NumericError, where the
    row-normalized chain's vector is (2/3, 1/3). Rows of 0.333333333333,
    1e-12 short of one, settle at once and keep their vector."""
    with pytest.raises(NumericError, match="lose mass faster than they mix"):
        limiting_stochastic_vector((np.array([[1 - 9e-13, 1e-16], [2e-16, 1 - 9e-13]]),), 0)
    np.testing.assert_allclose(limiting_stochastic_vector((np.full((3, 3), 0.333333333333),), 0),
                               [1 / 3] * 3, atol=1e-15)


def test_many_agents_limit_vectors_meet_the_limit_identity(monkeypatch, tmp_path):
    """On the benchmark's seed-1 many-agents graph (100 + 100 agents,
    period 2), each of the four limit vectors sums to one, meets the
    limit identity phi(s)^T = phi(s+1)^T A(s) (Phi(k, s) = Phi(k, s+1) A(s))
    and costs at most p - 1 + MAX_SQUARINGS canonical products."""
    path = tmp_path / "many_agents.yaml"
    path.write_text(yaml.safe_dump(many_agents_doc(1)), encoding="utf-8")
    graph = load_graph(path)
    calls = _counting_products(monkeypatch)
    for mats in (graph.a1, graph.a2):
        p = len(mats)
        assert (p, len(mats[0])) == (2, 100)
        phis = []
        for s in range(p):
            calls.clear()
            phis.append(limiting_stochastic_vector(mats, s))
            assert len(calls) <= p - 1 + digraph.MAX_SQUARINGS
            assert phis[-1].sum() == pytest.approx(1.0, abs=1e-12)
        for s in range(p):
            assert np.abs(phis[(s + 1) % p] @ mats[s] - phis[s]).max() <= 1e-9


def test_rootless_limit_vector_fails_before_any_product(monkeypatch):
    """A period whose union graph has no node that every agent hears has no
    limit, so it raises before the first factor; a rooted union that is not
    strongly connected still converges to the bytes of the full product."""
    rootless = (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.0, 0.7]]),)
    rooted = (np.array([[1.0, 0.0], [0.5, 0.5]]),)
    want = limiting_stochastic_vector(rooted, 0)
    assert want.tolist() == [1 - 2 ** -33, 2 ** -33]  # read off A^32

    def refused(*args):
        raise AssertionError("a rootless product was multiplied")
    monkeypatch.setattr(digraph, "_product_plan", refused)
    with pytest.raises(AssertionError, match="multiplied"):
        limiting_stochastic_vector(rooted, 0)  # the refusal is on the factor path
    with pytest.raises(NumericError, match="no node that every agent hears"):
        limiting_stochastic_vector(rootless, 0)


GOOD3 = [[0.5, 0.5, 0.0], [0.2, 0.6, 0.2], [0.0, 0.5, 0.5]]


@pytest.mark.parametrize("mats, phase", [
    ([[[0.0]]], 0),
    ([GOOD3, [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.3, 0.3, 0.4]]], 1),
    ([GOOD3, [[1.2, -0.2, 0.0], [0.2, 0.6, 0.2], [0.0, 0.5, 0.5]]], 1),
    ([[[0.0, 1.0], [1.0, 0.0]]], 0),
    ([GOOD3, [[0.5, 0.5, 0.0], [math.nan, 0.5, 0.5], [0.3, 0.3, 0.4]]], 1),
], ids=["1x1 zero", "all-zero row", "negative weight", "swap", "nan weight"])
def test_limit_vector_of_a_non_stochastic_phase_is_a_validation_error(mats, phase, monkeypatch):
    """A phase with a row that does not sum to one, such as a 1x1 zero or
    an all-zero row whose products decay to zero though the union graph
    has a root, or a NaN weight, with a negative weight, or with a zero
    diagonal entry, such as the swap whose products alternate forever, has
    no limit vector computed: from every start, ValidationError naming the
    phase, before any product and without a numpy warning."""
    mats = [np.array(A) for A in mats]

    def refused(*args):
        raise AssertionError("a non-stochastic product was multiplied")
    monkeypatch.setattr(digraph, "_product_plan", refused)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in range(len(mats)):
            with pytest.raises(ValidationError, match=f"^phase {phase} is not row-stochastic"):
                limiting_stochastic_vector(mats, s)


def test_perron_vector_static_unbalanced():
    np.testing.assert_allclose(perron_vector(STATIC_UNB), [2 / 9, 4 / 9, 3 / 9], atol=1e-9)
    with pytest.raises(ValidationError):
        perron_vector(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_build_cycle_matrix_roundtrip():
    mu = np.array([0.2, 0.5, 0.3])
    B = build_cycle_matrix(mu, b11=0.5)
    assert clauses(B) == []
    np.testing.assert_allclose(mu @ B, mu, atol=1e-12)
    # cycle + self-loops only
    assert (B > 0).sum() <= 2 * len(mu)
    with pytest.raises(ValidationError):
        build_cycle_matrix([0.5, 0.5], b11=1.0)
    with pytest.raises(ValidationError):
        build_cycle_matrix([0.7, 0.4])
