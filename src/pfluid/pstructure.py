"""Constitutive algebra for shear-thinning stress laws.

The extra stress is S(P) = (delta + |sym P|)^(p-2) sym P with exponent
p in (1, 2] and regularization delta >= 0.  Everything that only depends
on the scalar structure (the generating function phi, its shifted
variants, conjugates) lives here too, together with the nonlinear
quantity F(P) = (delta + |sym P|)^((p-2)/2) sym P whose increments
control the natural error distance of the discretization.

A symmetric tensor [[a, c], [c, b]] is held as its components (a, b, c)
of shape (...), passed separately or as one triple such as a (3, ...)
array; scalar arguments have shape (...).  ``sym_components`` reduces a
full 2 x 2 tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


class DegenerateGradientError(ValueError):
    """Stress derivative needed where it is singular: sym P = 0 with
    delta = 0."""


class ConjugateSolveError(RuntimeError):
    """Root bracketing for the conjugate N-function failed."""


def sym_components(P):
    """Components (a, b, c) of sym P = [[a, c], [c, b]] for 2 x 2
    tensors P of shape (..., 2, 2)."""
    P = np.asarray(P, dtype=float)
    return P[..., 0, 0], P[..., 1, 1], 0.5 * (P[..., 0, 1] + P[..., 1, 0])


def sym_norm(a, b, c):
    """Frobenius norm of the symmetric tensor [[a, c], [c, b]]."""
    return np.sqrt(a * a + b * b + 2.0 * c * c)


def sym_dot(A, B):
    """Frobenius inner product of the symmetric tensors with components
    A = (a1, b1, c1) and B = (a2, b2, c2): a1 a2 + b1 b2 + 2 c1 c2."""
    return A[0] * B[0] + A[1] * B[1] + 2.0 * A[2] * B[2]


def _safe_pow(base, expo):
    # base >= 0; returns 0 where base == 0 so that 0 * inf never appears
    base = np.asarray(base, dtype=float)
    out = np.where(base > 0.0, base, 1.0) ** expo
    return np.where(base > 0.0, out, 0.0)


@dataclass
class StressModel:
    """Shear-thinning stress law with exponent ``p`` and shift ``delta``.

    Parameters
    ----------
    p : float
        Power-law exponent, required to lie in (1, 2].
    delta : float
        Regularization parameter, required to be nonnegative.
    """

    p: float
    delta: float

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p <= 2.0):
            raise ValueError(f"exponent p must lie in (1, 2], got {p}")
        if not (float(self.delta) >= 0.0):
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        self.p = p
        self.delta = float(self.delta)

    # -- stress weights ------------------------------------------------

    def weight(self, t):
        """(delta + t)^(p-2), so that S(P) = weight(|sym P|) sym P."""
        return _safe_pow(self.delta + np.asarray(t, dtype=float), self.p - 2.0)

    def f_weight(self, t):
        """(delta + t)^((p-2)/2), so that F(P) = f_weight(|sym P|) sym P."""
        return _safe_pow(self.delta + np.asarray(t, dtype=float), 0.5 * (self.p - 2.0))

    # -- scalar N-function ---------------------------------------------

    def phi(self, t):
        """Generating N-function, antiderivative of (delta+s)^(p-2) s."""
        return self.shifted(0.0).value(t)

    def phi_prime(self, t):
        return self.shifted(0.0).derivative(t)

    def shifted(self, a) -> "ShiftedNFunction":
        """Shifted N-function phi_a with phi_a'(t) = (delta+a+t)^(p-2) t."""
        if np.any(np.asarray(a) < 0.0):
            raise ValueError("shift a must be nonnegative")
        return ShiftedNFunction(self, float(a) if np.ndim(a) == 0 else a)


@dataclass
class ShiftedNFunction:
    """Shifted N-function phi_a(t) = int_0^t (delta+a+s)^(p-2) s ds.

    The antiderivative is available in closed form; with c = delta + a,

        phi_a(t) = (c+t)^p / p - c (c+t)^(p-1) / (p-1)
                   + c^p / (p-1) - c^p / p.

    ``conjugate`` evaluates the convex conjugate by inverting the
    strictly increasing derivative with a bracketed bisection.
    """

    model: StressModel
    a: float

    def _c(self):
        return self.model.delta + self.a

    def value(self, t):
        """phi_a(t), broadcasting t against an array shift a."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("N-function argument must be nonnegative")
        p = self.model.p
        c = self._c()
        ct = c + t
        if p == 2.0:
            return 0.5 * t * t
        # c^p terms vanish for c = 0 and _safe_pow keeps 0^(p-1) finite
        cp = _safe_pow(c, p)
        closed = (
            _safe_pow(ct, p) / p
            - c * _safe_pow(ct, p - 1.0) / (p - 1.0)
            + cp / (p - 1.0)
            - cp / p
        )
        # the closed form cancels catastrophically for t << c; switch to
        # the series c^(p-2) sum_k binom(p-2,k) t^(k+2) / ((k+2) c^k).
        # Never taken where c = 0.
        small = t < 1e-2 * c
        if not np.any(small):
            return closed
        ratio = t / np.where(c > 0.0, c, 1.0)
        series = np.zeros_like(ratio)
        coeff = 1.0
        for k in range(8):
            series = series + coeff * ratio**k / (k + 2.0)
            coeff *= (p - 2.0 - k) / (k + 1.0)
        series = series * _safe_pow(c, p - 2.0) * t * t
        return np.where(small, series, closed)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("N-function argument must be nonnegative")
        return _safe_pow(self._c() + t, self.model.p - 2.0) * t

    def conjugate(self, s, rtol=1e-13, max_doublings=200):
        """Convex conjugate (phi_a)*(s) = sup_t (s t - phi_a(t)).

        The supremum is attained at the unique root of phi_a'(t) = s,
        located by doubling an upper bracket and bisecting.  Vectorized
        over s; raises ConjugateSolveError if bracketing fails.
        """
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise ValueError("conjugate argument must be nonnegative")
        scalar = s.ndim == 0
        s = np.atleast_1d(s).astype(float)
        tstar = self._invert_derivative(s, rtol=rtol, max_doublings=max_doublings)
        out = s * tstar - self.value(tstar)
        out = np.maximum(out, 0.0)  # clip roundoff at s = 0
        return float(out[0]) if scalar else out

    def _invert_derivative(self, s, rtol=1e-13, max_doublings=200):
        p = self.model.p
        c = self._c()
        lo = np.zeros_like(s)
        # phi_a'(t) >= (c+t)^(p-2) t >= t^(p-1) for t >= ... ; start from a
        # generous guess and double until the bracket holds
        hi = np.maximum.reduce(
            [np.full_like(s, 1.0), np.full_like(s, c), s, _safe_pow(s, 1.0 / (p - 1.0))]
        )
        for _ in range(max_doublings):
            short = self.derivative(hi) < s
            if not np.any(short):
                break
            hi = np.where(short, 2.0 * hi, hi)
        else:
            raise ConjugateSolveError("failed to bracket phi_a' inverse")
        for _ in range(110):
            mid = 0.5 * (lo + hi)
            go_up = self.derivative(mid) < s
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
            if np.all(hi - lo <= rtol * np.maximum(1.0, hi)):
                break
        return 0.5 * (lo + hi)


# -- equivalence machinery ---------------------------------------------

RATIO_NAMES = (
    "increment_vs_f_sq",
    "increment_vs_shifted",
    "increment_vs_second",
    "dissipation_vs_phi",
    "stress_diff_vs_shifted_prime",
)


def equivalence_ratios(model: StressModel, P, Q):
    """Vectorized equivalence ratios for tensor pair batches.

    For each pair the numerator (S(P)-S(Q)) : (P-Q) is compared against
    |F(P)-F(Q)|^2, phi_{|sym P|}(|sym P - sym Q|) and the second
    derivative surrogate; additionally S(Q) : Q / phi(|sym Q|) and the
    stress-increment ratio |S(P)-S(Q)| / phi'_{|sym P|}(|sym P - sym Q|).

    P and Q have shape (..., 2, 2); S, F and every difference are formed
    on the components of sym P and sym Q.

    Returns (ratios, degenerate) where ratios maps the names in
    RATIO_NAMES to arrays and degenerate flags pairs with sym P = sym Q
    (the four increment quantities vanish there; their ratios are NaN).
    At sym Q = 0, S(Q) : Q and phi(|sym Q|) both vanish and
    dissipation_vs_phi is NaN.
    """
    A = np.stack(sym_components(P))
    B = np.stack(sym_components(Q))
    ta = sym_norm(*A)
    tb = sym_norm(*B)
    diff = A - B
    tdiff = sym_norm(*diff)
    degenerate = tdiff == 0.0

    gb = model.weight(tb)
    SP = model.weight(ta) * A
    SQ = gb * B
    dS = SP - SQ
    increment = sym_dot(dS, diff)
    f_sq = sym_norm(*(model.f_weight(ta) * A - model.f_weight(tb) * B)) ** 2

    shifted = model.shifted(ta)
    shifted_val = shifted.value(tdiff)
    shifted_prime = shifted.derivative(tdiff)
    p = model.p
    ssum = ta + tb
    second_exact = _safe_pow(model.delta + ssum, p - 3.0) * (
        model.delta + (p - 1.0) * ssum
    )

    dissipation = gb * tb**2
    phi_b = model.phi(tb)
    stress_diff = sym_norm(*dS)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = {
            "increment_vs_f_sq": increment / f_sq,
            "increment_vs_shifted": increment / shifted_val,
            "increment_vs_second": increment / (second_exact * tdiff**2),
            "dissipation_vs_phi": dissipation / phi_b,
            "stress_diff_vs_shifted_prime": stress_diff / shifted_prime,
        }
    return ratios, degenerate


def equivalence_envelope(model: StressModel, n_samples, seed, scale=2.0):
    """Sampled min/max of each equivalence ratio over random pairs.

    The pairs are 2x2 tensors drawn uniformly from [-scale, scale].  A
    ratio is left out where the pair is degenerate (sym P = sym Q) or the
    ratio is not finite, as dissipation_vs_phi is at sym Q = 0; neither
    occurs almost surely under the draw.  Returns a dict name -> (min, max).
    """
    rng = np.random.default_rng(seed)
    P = rng.uniform(-scale, scale, size=(n_samples, 2, 2))
    Q = rng.uniform(-scale, scale, size=(n_samples, 2, 2))
    ratios, degenerate = equivalence_ratios(model, P, Q)
    out = {}
    for name, vals in ratios.items():
        ok = np.isfinite(vals) & ~degenerate
        if not np.any(ok):
            raise ValueError("all sampled pairs degenerate")
        out[name] = (float(np.min(vals[ok])), float(np.max(vals[ok])))
    return out


def quasi_norm_lower_bound_ratio(model: StressModel, norm_du_p, norm_diff_p, f_dist_sq):
    """Ratio of ||F(Du)-F(Dv)||_2^2 to its Lebesgue-norm lower bound.

    The bound reads c (delta + ||Du||_p + ||Du-Dv||_p)^(p-2)
    ||Du-Dv||_p^2; the returned ratio is the admissible constant c for
    the given fields.  Infinite when the difference vanishes.
    """
    if norm_diff_p == 0.0:
        return np.inf
    base = model.delta + norm_du_p + norm_diff_p
    bound = _safe_pow(base, model.p - 2.0) * norm_diff_p**2
    return float(f_dist_sq / bound)
