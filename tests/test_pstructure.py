import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from pfluid import pstructure
from pfluid.cli import DEFAULT_PROPERTY_GRID
from pfluid.pstructure import (
    ConjugateSolveError, DegenerateGradientError, RATIO_NAMES, StressModel,
    equivalence_envelope, equivalence_ratios, quasi_norm_lower_bound_ratio,
    sym_components, sym_dot, sym_norm,
)

import fem_reference
from fem_reference import stress, stress_jacobian, sym_part, tensor_norm


def rand_tensors(n, seed, scale=2.0, dim=2):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, dim, dim))


def test_model_validation():
    StressModel(2.0, 0.0)
    StressModel(1.01, 5.0)
    with pytest.raises(ValueError):
        StressModel(2.5, 1.0)
    with pytest.raises(ValueError):
        StressModel(1.0, 1.0)
    with pytest.raises(ValueError):
        StressModel(1.8, -0.1)


def test_stress_hand_value():
    # diag(2,0) is symmetric with |A| = 2, so S = (0+2)^(p-2) A
    model = StressModel(1.5, 0.0)
    A = np.array(sym_components(np.diag([2.0, 0.0])))
    t = sym_norm(*A)
    assert t == 2.0
    assert np.allclose(model.weight(t) * A, [np.sqrt(2.0), 0.0, 0.0], atol=1e-14)
    assert np.allclose(model.f_weight(t) * A, [2.0 ** 0.75, 0.0, 0.0], atol=1e-14)


def test_stress_p2_identity():
    model = StressModel(2.0, 0.7)
    t = sym_norm(*sym_components(rand_tensors(5, 0)))
    assert np.all(model.weight(t) == 1.0) and np.all(model.f_weight(t) == 1.0)


def test_stress_only_sees_symmetric_part():
    """The components, their norm and inner product reproduce the 2 x 2
    forms of sym P, and the component stress agrees with the tensor
    reference."""
    model = StressModel(1.6, 0.2)
    P, Q = rand_tensors(7, 1), rand_tensors(7, 2)
    A, B = sym_part(P), sym_part(Q)
    a, b, c = sym_components(P)
    assert np.array_equal(np.stack([a, b, c]), np.stack(sym_components(A)))
    assert np.array_equal(a, A[:, 0, 0]) and np.array_equal(b, A[:, 1, 1])
    assert np.array_equal(c, A[:, 0, 1]) and np.array_equal(c, A[:, 1, 0])
    np.testing.assert_allclose(sym_norm(a, b, c), tensor_norm(A), rtol=1e-15)
    dot = np.sum(A * B, axis=(-1, -2))
    np.testing.assert_allclose(sym_dot(sym_components(P), sym_components(Q)), dot,
                               rtol=0, atol=1e-14 * np.abs(dot).max())
    S = stress(model, P)
    np.testing.assert_allclose(model.weight(sym_norm(a, b, c)) * np.stack([a, b, c]),
                               np.stack([S[:, 0, 0], S[:, 1, 1], S[:, 0, 1]]),
                               rtol=1e-14)


def test_phi_hand_values():
    # p=3/2, delta=0: phi'(t) = sqrt(t), so phi(1) = 2/3
    assert abs(StressModel(1.5, 0.0).phi(1.0) - 2.0 / 3.0) < 1e-14
    # p=3/2, delta=1: int_0^1 s/sqrt(1+s) ds = (4 - 2 sqrt(2)) / 3
    assert abs(
        StressModel(1.5, 1.0).phi(1.0) - (4.0 - 2.0 * np.sqrt(2.0)) / 3.0
    ) < 1e-14


@pytest.mark.parametrize("p,delta,a", [
    (1.3, 0.0, 0.0), (1.5, 0.01, 0.3), (1.8, 1.0, 0.0), (2.0, 0.5, 2.0),
])
def test_phi_matches_quadrature_of_derivative(p, delta, a):
    sh = StressModel(p, delta).shifted(a)
    for t in (0.2, 1.0, 3.7):
        ref, err = quad(sh.derivative, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert abs(sh.value(t) - ref) < 1e-10 + 10 * err


def test_conjugate_p2_closed_form():
    # p=2, a=0, delta=0: phi(t)=t^2/2 is self-conjugate
    sh = StressModel(2.0, 0.0).shifted(0.0)
    s = np.array([0.0, 0.5, 1.0, 4.0])
    assert np.allclose(sh.conjugate(s), s**2 / 2.0, atol=1e-12)


@pytest.mark.parametrize("p,delta,a", [(1.5, 0.1, 0.0), (1.8, 0.0, 0.7)])
def test_conjugate_matches_grid_search(p, delta, a):
    sh = StressModel(p, delta).shifted(a)
    tgrid = np.linspace(0.0, 60.0, 300001)
    phis = sh.value(tgrid)
    for s in (0.1, 0.9, 2.5):
        ref = np.max(s * tgrid - phis)
        assert abs(sh.conjugate(s) - ref) < 1e-6


def test_conjugate_young_equality():
    sh = StressModel(1.6, 0.05).shifted(0.3)
    ts = np.linspace(0.05, 4.0, 40)
    s = sh.derivative(ts)
    gap = ts * s - sh.value(ts) - sh.conjugate(s)
    assert np.max(np.abs(gap)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1.05, 2.0),
    delta=st.floats(0.0, 2.0),
    a=st.floats(0.0, 2.0),
    t=st.floats(0.0, 50.0),
    s=st.floats(0.0, 50.0),
)
def test_fenchel_young_property(p, delta, a, t, s):
    sh = StressModel(p, delta).shifted(a)
    lhs = t * s
    rhs = sh.value(t) + sh.conjugate(s)
    assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1.05, 2.0),
    delta=st.floats(0.0, 2.0),
    a=st.floats(0.0, 2.0),
    t=st.floats(1e-8, 30.0),
)
def test_delta2_property(p, delta, a, t):
    # phi_a(2t) <= 4 phi_a(t) for p <= 2, uniformly in the shift
    sh = StressModel(p, delta).shifted(a)
    assert sh.value(2.0 * t) <= 4.0 * sh.value(t) * (1.0 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(1.05, 2.0),
    delta=st.floats(0.0, 2.0),
    t1=st.floats(0.0, 20.0),
    t2=st.floats(0.0, 20.0),
)
def test_phi_prime_monotone(p, delta, t1, t2):
    model = StressModel(p, delta)
    lo, hi = sorted((t1, t2))
    assert model.phi_prime(lo) <= model.phi_prime(hi) + 1e-12


def test_jacobian_matches_finite_differences():
    model = StressModel(1.7, 0.3)
    rng = np.random.default_rng(3)
    P = rng.standard_normal((2, 2))
    J = stress_jacobian(model, P)
    eps = 1e-7
    for k in range(2):
        for l in range(2):
            dP = np.zeros((2, 2))
            dP[k, l] = eps
            fd = (stress(model, P + dP) - stress(model, P - dP)) / (2 * eps)
            assert np.allclose(J[..., :, :, k, l], fd, atol=5e-7)


def test_jacobian_major_symmetry():
    model = StressModel(1.6, 0.4)
    P = rand_tensors(6, 4)
    J = stress_jacobian(model, P)
    assert np.allclose(J, np.transpose(J, (0, 3, 4, 1, 2)), atol=1e-13)


def test_jacobian_degenerate_raises():
    model = StressModel(1.5, 0.0)
    with pytest.raises(DegenerateGradientError):
        stress_jacobian(model, np.zeros((2, 2)))
    # regularized model is fine at the origin
    J = stress_jacobian(StressModel(1.5, 0.1), np.zeros((2, 2)))
    assert np.all(np.isfinite(J))


def test_equivalence_ratio_names_fixed():
    assert RATIO_NAMES == (
        "increment_vs_f_sq",
        "increment_vs_shifted",
        "increment_vs_second",
        "dissipation_vs_phi",
        "stress_diff_vs_shifted_prime",
    )


def test_equivalence_p2_delta0_first_ratio_is_one():
    model = StressModel(2.0, 0.0)
    P = rand_tensors(50, 5)
    Q = rand_tensors(50, 6)
    ratios, degenerate = equivalence_ratios(model, P, Q)
    vals = ratios["increment_vs_f_sq"][~degenerate]
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_equivalence_ratios_positive_and_bounded():
    for p, delta in [(1.3, 0.0), (1.5, 0.01), (1.8, 1.0), (2.0, 0.01)]:
        model = StressModel(p, delta)
        P = rand_tensors(200, 7)
        Q = rand_tensors(200, 8)
        ratios, degenerate = equivalence_ratios(model, P, Q)
        for name in RATIO_NAMES:
            vals = ratios[name][~degenerate]
            vals = vals[np.isfinite(vals)]
            assert np.all(vals > 0.0)
            assert np.max(vals) / np.min(vals) <= 100.0


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1.1, 2.0),
    delta=st.floats(0.0, 1.0),
    entries=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
    log_eps=st.floats(-10.0, -6.0),
)
def test_equivalence_ratios_near_coincident_pairs(p, delta, entries, log_eps):
    """Pairs at relative offsets 1e-10..1e-6 keep every ratio finite and positive."""
    P = np.reshape(entries[:4], (2, 2))
    E = sym_part(np.reshape(entries[4:], (2, 2)))
    tp, te = tensor_norm(sym_part(P)), tensor_norm(E)
    assume(tp > 1e-3 and te > 1e-3)
    Q = P + 10.0 ** log_eps * (delta + tp) * E / te
    ratios, degenerate = equivalence_ratios(StressModel(p, delta), P[None], Q[None])
    assert not degenerate[0]
    for name in RATIO_NAMES:
        assert np.isfinite(ratios[name][0]) and ratios[name][0] > 0.0, name


def test_equivalence_ratios_match_tensor_reference():
    """On the CLI's default property grid and draws (seed 42, 10^4 pairs
    from [-2, 2]) the component ratios equal the 2 x 2 reference."""
    for p in DEFAULT_PROPERTY_GRID[0]:
        for delta in DEFAULT_PROPERTY_GRID[1]:
            model = StressModel(p, delta)
            rng = np.random.default_rng(42)
            P = rng.uniform(-2.0, 2.0, size=(10**4, 2, 2))
            Q = rng.uniform(-2.0, 2.0, size=(10**4, 2, 2))
            ratios, degenerate = equivalence_ratios(model, P, Q)
            ref = fem_reference.equivalence_ratios(model, P, Q)
            assert not np.any(degenerate)
            for name in RATIO_NAMES:
                np.testing.assert_allclose(ratios[name], ref[name], rtol=1e-12,
                                           atol=0, err_msg=f"{name} p={p} delta={delta}")


def degenerate_pairs(n, seed):
    """{case: (P, Q)} at the degenerate limits: sym Q = 0 (Q skew),
    Q = -P, and |sym Q| = 1e-8 |sym P|."""
    P, E = rand_tensors(n, seed), rand_tensors(n, seed + 1)
    tp, te = tensor_norm(sym_part(P)), tensor_norm(sym_part(E))
    skew = np.zeros_like(E)
    skew[:, 0, 1] = E[:, 0, 1]
    skew[:, 1, 0] = -E[:, 0, 1]
    return {
        "sym Q = 0": (P, skew),
        "Q = -P": (P, -P),
        "tiny sym Q": (P, 1e-8 * (tp / te)[:, None, None] * sym_part(E)),
    }


@pytest.mark.parametrize("p", [1.3, 1.8, 2.0])
@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_equivalence_ratios_degenerate_limits(p, delta):
    """At sym Q = 0 the dissipation ratio is 0/0 and NaN (the envelope
    drops it); every other ratio of every limit is finite, positive and
    equal to the 2 x 2 reference, with the closed-form values
    increment_vs_f_sq = 1 at Q = -P and dissipation_vs_phi -> p
    (delta = 0) or 2 (delta > 0) as sym Q -> 0."""
    model = StressModel(p, delta)
    for case, (P, Q) in degenerate_pairs(20, 9).items():
        ratios, degenerate = equivalence_ratios(model, P, Q)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = fem_reference.equivalence_ratios(model, P, Q)
        assert not np.any(degenerate), case
        for name in RATIO_NAMES:
            vals = ratios[name]
            if case == "sym Q = 0" and name == "dissipation_vs_phi":
                assert np.all(np.isnan(vals))
                continue
            assert np.all(np.isfinite(vals) & (vals > 0.0)), (case, name)
            np.testing.assert_allclose(vals, ref[name], rtol=1e-12, atol=0,
                                       err_msg=f"{case} {name}")
        if case == "Q = -P":
            np.testing.assert_allclose(ratios["increment_vs_f_sq"], 1.0, rtol=1e-13)
        if case == "tiny sym Q":
            limit = p if delta == 0.0 else 2.0
            np.testing.assert_allclose(ratios["dissipation_vs_phi"], limit, rtol=1e-5)


def test_equivalence_envelope_excludes_degenerate_pairs(monkeypatch):
    """Pairs with sym P = sym Q and the NaN ratio of sym Q = 0 leave the
    envelope finite, and its dissipation bounds as without them."""
    model = StressModel(1.5, 0.0)
    clean = equivalence_envelope(model, n_samples=500, seed=0)
    P, skew = degenerate_pairs(5, 11)["sym Q = 0"]
    real = pstructure.equivalence_ratios

    def with_degenerate(model, P_draw, Q_draw):
        return real(model, np.concatenate([P_draw, P, P]),
                    np.concatenate([Q_draw, P, skew]))

    monkeypatch.setattr(pstructure, "equivalence_ratios", with_degenerate)
    env = equivalence_envelope(model, n_samples=500, seed=0)
    assert env["dissipation_vs_phi"] == clean["dissipation_vs_phi"]
    for lo, hi in env.values():
        assert 0.0 < lo <= hi < np.inf


def test_equivalence_envelope_shape():
    env = equivalence_envelope(StressModel(1.5, 0.1), n_samples=500, seed=0)
    assert set(env) == set(RATIO_NAMES)
    for lo, hi in env.values():
        assert 0.0 < lo <= hi < np.inf


def test_quasi_norm_ratio_degenerate_pair():
    model = StressModel(1.8, 0.1)
    assert quasi_norm_lower_bound_ratio(model, 1.0, 0.0, 0.0) == np.inf
    r = quasi_norm_lower_bound_ratio(model, 1.0, 0.5, 0.25)
    assert np.isfinite(r) and r > 0.0
