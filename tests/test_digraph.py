"""Stochastic matrices, graph sequences, transition products and their
limits."""

import numpy as np
import pytest

from canonical_reference import (canonical_dot, disagreement_span,
                                 ergodicity_coefficient)
from nashnet.digraph import (SUM_TERMS_PER_STATEMENT, GraphSequenceSpec,
                             build_cycle_matrix, canonical_matmul,
                             canonical_mix_code, check_jointly_bipartite,
                             check_ujsc, geometric_rate_bound, is_weight_balanced,
                             limiting_stochastic_vector, perron_vector,
                             require_stochastic, stochastic_violations,
                             strongly_connected, transition_product,
                             validate_weight_rule)
from nashnet.errors import ValidationError
from nashnet.scenario_io import bundled_scenario


# --- reference matrices -----------------------------------------------------

A1_EVEN_BAL = np.array([[0.6, 0.4, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
A1_ODD_BAL = np.array([[1.0, 0.0, 0.0], [0.0, 0.7, 0.3], [0.0, 0.3, 0.7]])
A2_EVEN_BAL = np.array([[0.9, 0.1], [0.1, 0.9]])
A1_EVEN_UNB = np.array([[0.8, 0.2, 0.0], [0.7, 0.3, 0.0], [0.0, 0.6, 0.4]])
STATIC_UNB = np.array([[0.5, 0.5, 0.0], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])


def test_stochastic_violations():
    assert stochastic_violations(A1_EVEN_BAL) == []
    assert stochastic_violations(np.array([[0.5, 0.4], [0.5, 0.5]]))  # bad row
    assert stochastic_violations(np.array([[0.0, 1.0], [0.5, 0.5]]))  # no loop
    assert stochastic_violations(np.array([[1.5, -0.5], [0.5, 0.5]]))
    assert stochastic_violations(A1_EVEN_UNB, eta=0.3)  # 0.2 below floor
    assert stochastic_violations(A1_EVEN_UNB, eta=0.1) == []
    with pytest.raises(ValidationError):
        require_stochastic([[0.9, 0.0], [0.0, 1.0]])


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


# --- graph sequences ---------------------------------------------------------

@pytest.fixture(scope="module")
def balanced():
    return bundled_scenario("example1").graph


@pytest.fixture(scope="module")
def unbalanced():
    return bundled_scenario("example2").graph


def test_spec_shape_validation():
    with pytest.raises(ValidationError):
        GraphSequenceSpec(n1=2, n2=1, period=2, a1=(np.eye(2),), a2=(np.eye(1),) * 2,
                          cross1=(np.ones((2, 1)),) * 2, cross2=(np.ones((1, 2)) / 2,) * 2,
                          eta=0.1, t1=1, t2=1, t_cross=1)
    with pytest.raises(ValidationError):
        GraphSequenceSpec(n1=2, n2=1, period=1, a1=(np.eye(3),), a2=(np.eye(1),),
                          cross1=(np.ones((2, 1)),), cross2=(np.ones((1, 2)) / 2,),
                          eta=0.1, t1=1, t2=1, t_cross=1)


def test_weight_rule_clean_graphs(balanced, unbalanced):
    assert validate_weight_rule(balanced, 0.1) == []
    assert validate_weight_rule(unbalanced, 0.1) == []


def test_weight_rule_violations(balanced):
    bad_a1 = list(balanced.a1)
    bad_a1[0] = np.array([[0.5, 0.4, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
    spec = GraphSequenceSpec(n1=3, n2=2, period=2, a1=tuple(bad_a1), a2=balanced.a2,
                             cross1=balanced.cross1, cross2=balanced.cross2,
                             eta=0.1, t1=2, t2=2, t_cross=1)
    problems = validate_weight_rule(spec, 0.1)
    assert any(v.clause == "weight-rule (ii)" and v.phase == 0 and v.node == 0
               for v in problems)
    # floor violation reported under clause (i)
    problems = validate_weight_rule(balanced, 0.5)
    assert any(v.clause == "weight-rule (i)" for v in problems)


def test_ujsc_windows(balanced):
    assert check_ujsc(balanced, 1, 2)
    assert not check_ujsc(balanced, 1, 1)  # single phases are disconnected
    assert check_ujsc(balanced, 2, 2)
    assert check_jointly_bipartite(balanced, 1)


def test_ujsc_never_connected_node():
    A = np.array([[1.0, 0.0], [0.5, 0.5]])  # node 0 never listens to node 1
    spec = GraphSequenceSpec(n1=2, n2=1, period=1, a1=(A,), a2=(np.eye(1),),
                             cross1=(np.zeros((2, 1)),), cross2=(np.zeros((1, 2)),),
                             eta=0.5, t1=1, t2=1, t_cross=1)
    assert not check_ujsc(spec, 1, 1)
    assert not check_ujsc(spec, 1, 7)
    assert not check_jointly_bipartite(spec, 3)


def test_transition_product_is_backward(balanced):
    P = transition_product(balanced, 1, 1, 0)
    np.testing.assert_allclose(P, A1_ODD_BAL @ A1_EVEN_BAL)
    np.testing.assert_allclose(transition_product(balanced, 1, 0, 0), A1_EVEN_BAL)
    assert stochastic_violations(transition_product(balanced, 1, 9, 2)) == []
    with pytest.raises(ValueError):
        transition_product(balanced, 1, 1, 2)


def test_canonical_matmul_is_the_canonical_sum():
    rng = np.random.default_rng(3)
    for n, cols in ((1, 1), (3, 4), (7, 2), (12, 12)):
        A = np.where(rng.random((n, n)) < 0.5, rng.normal(size=(n, n)), 0.0)
        A[0] = 0.0  # a row without weights sums to 0.0
        B = rng.normal(size=(n, cols))
        want = [[canonical_dot(row, col) for col in B.T.tolist()] for row in A.tolist()]
        assert canonical_matmul(A, B).tobytes() == np.array(want).tobytes()
        assert canonical_matmul(A, B[:, 0]).tobytes() == np.array(want)[:, 0].tobytes()


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
        lv = limiting_stochastic_vector(balanced, 1, start)
        np.testing.assert_allclose(lv.phi, np.full(3, 1 / 3), atol=1e-8)
        lv2 = limiting_stochastic_vector(balanced, 2, start)
        np.testing.assert_allclose(lv2.phi, np.full(2, 1 / 2), atol=1e-8)


def test_limit_vectors_unbalanced_known_values(unbalanced):
    np.testing.assert_allclose(limiting_stochastic_vector(unbalanced, 1, 0).phi,
                               [0.5336, 0.3408, 0.1256], atol=1e-4)
    np.testing.assert_allclose(limiting_stochastic_vector(unbalanced, 1, 1).phi,
                               [0.5336, 0.1525, 0.3139], atol=1e-4)
    for start in (0, 1):
        np.testing.assert_allclose(limiting_stochastic_vector(unbalanced, 2, start).phi,
                                   [0.8889, 0.1111], atol=1e-4)


def test_limit_vector_floor(unbalanced):
    # every component is at least eta^((n-1) T)
    floor = unbalanced.eta ** (2 * unbalanced.t1)
    for subnet in (1, 2):
        for start in (0, 1):
            assert limiting_stochastic_vector(unbalanced, subnet, start).phi.min() >= floor


def test_geometric_rate_bound_values():
    b = geometric_rate_bound(3, 2, 0.1)
    assert b.M == 4
    assert b.rho == pytest.approx((1 - 0.1 ** 4) ** 0.25)
    assert b.C == pytest.approx(2 * (1 + 0.1 ** -4) / (1 - 0.1 ** 4))


def test_perron_vector_static_unbalanced():
    lv = perron_vector(STATIC_UNB)
    np.testing.assert_allclose(lv.phi, [2 / 9, 4 / 9, 3 / 9], atol=1e-9)
    with pytest.raises(ValidationError):
        perron_vector(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_build_cycle_matrix_roundtrip():
    mu = np.array([0.2, 0.5, 0.3])
    B = build_cycle_matrix(mu, b11=0.5)
    assert stochastic_violations(B) == []
    np.testing.assert_allclose(mu @ B, mu, atol=1e-12)
    # cycle + self-loops only
    assert (B > 0).sum() <= 2 * len(mu)
    with pytest.raises(ValidationError):
        build_cycle_matrix([0.5, 0.5], b11=1.0)
    with pytest.raises(ValidationError):
        build_cycle_matrix([0.7, 0.4])
