"""Closed forms for the low-density energy expansion of the two-component
Fermi gas.

The density correction beyond the mean-field term is a^2 * rho_up^(7/3)
* F(rho_down/rho_up) with a universal function F evaluated here in two
independent ways: F_closed is the explicit three-group formula, F_from_f
reassembles F from the auxiliary one-sided function f via
F(x) = (4/pi)(6 pi^2)^(1/3) (f(x) + x^(7/3) f(1/x)).
"""

import math
from dataclasses import dataclass

_NEAR_ONE = 1e-4

# the largest float x whose x^(7/3) is a float; 1.285771548238104e132,
# the rounded (float max)^(3/7), already overflows
_X_MAX = 1.285771548238101e132


def _refuse_overflow(x, reciprocal=False):
    """Raise OverflowError naming x, before any arithmetic on it, when
    x^(7/3) (with reciprocal, also x^(-7/3)) lies beyond the float range."""
    if x > _X_MAX or reciprocal and 1.0 / x > _X_MAX:
        sign = "-" if x < 1.0 else ""
        raise OverflowError(
            f"x^({sign}7/3) lies beyond the float range at x = {x}")


def _F_groups(x, t, sing):
    """F from t = x^(1/3) and the branch's log-singular group: the
    prefactor times the polynomial, logarithmic and singular groups."""
    pref = (6.0 * math.pi ** 2) ** (1.0 / 3.0) / 35.0
    poly = 6.0 * (15.0 * t - 4.0 * t ** 2 + 33.0 * t ** 3 + 33.0 * t ** 4
                  - 4.0 * t ** 5 + 15.0 * t ** 6)
    logs = 16.0 * t ** 7 * math.log(x) - 48.0 * (t ** 7 + 1.0) * math.log1p(t)
    return pref * (poly + logs + sing)


def F_closed(x):
    """The universal second-order function F on [0, infinity).

    Continuous, increasing, F(0) = 0, and F(1/x) = x^(-7/3) F(x). The
    log-singular group has a quadruple zero at x = 1 and is evaluated
    there from its factored form; far beyond x = 1 the reflection rule
    maps the argument back into the well-conditioned window.
    """
    if x < 0.0:
        raise ValueError(f"density ratio must be nonnegative, got {x}")
    _refuse_overflow(x)
    if x == 0.0:
        return 0.0
    if x > 8.0:
        return x ** (7.0 / 3.0) * F_closed(1.0 / x)
    if abs(x - 1.0) < _NEAR_ONE:
        # s = t - 1 via expm1 keeps the quadruple zero of P accurate;
        # P(t) = s^4 (t^3 + 4t^2 + 4t + 1) and s^4 ln|s| -> 0
        s = math.expm1(math.log(x) / 3.0)
        t = 1.0 + s
        Q = t ** 3 + 4.0 * t ** 2 + 4.0 * t + 1.0
        lns = s ** 4 * math.log(abs(s)) if s != 0.0 else 0.0
        return _F_groups(x, t, 21.0 * Q * (lns - s ** 4 * math.log1p(t)))
    t = x ** (1.0 / 3.0)
    P = (1.0 - 6.0 * t ** 2 + 5.0 * t ** 3 + 5.0 * t ** 4 - 6.0 * t ** 5
         + t ** 7)
    return _F_groups(x, t, 21.0 * P * (math.log(abs(1.0 - t)) - math.log1p(t)))


def _f_head(t):
    """The polynomial head (9/14)t + (99/70)t^3 - (6/35)t^5 of f_aux and
    its psi(t), the same in both branches."""
    return ((9.0 / 14.0) * t + (99.0 / 70.0) * t ** 3 - (6.0 / 35.0) * t ** 5,
            9.0 / 28.0 - 0.9 * t ** 2 + 0.75 * t ** 4)


def f_aux(x):
    """One-sided auxiliary function entering the symmetric form of F.

    Defined only up to A*(x^(7/3) - 1), which cancels in F_from_f; this
    is the choice A = 0. The logarithmic coefficients conspire to a simple
    zero at x = 1, handled by the same factored-branch policy as F_closed.
    """
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    if abs(x - 1.0) < _NEAR_ONE:
        s = math.expm1(math.log(x) / 3.0)
        t = 1.0 + s
        head, psi = _f_head(t)
        # psi - (6/35) t^7 factored through its zero at t = 1
        h = (-0.9 * (t + 1.0)
             + 0.75 * (t ** 3 + t ** 2 + t + 1.0)
             - (6.0 / 35.0) * (t ** 6 + t ** 5 + t ** 4 + t ** 3
                               + t ** 2 + t + 1.0))
        lns = s * h * math.log(abs(s)) if s != 0.0 else 0.0
        val = (head + lns
               - (psi + (6.0 / 35.0) * t ** 7) * math.log1p(t)
               + (12.0 / 35.0) * t ** 7 * math.log(t))
        return math.pi * val
    t = x ** (1.0 / 3.0)
    head, psi = _f_head(t)
    val = (head + psi * (math.log(abs(1.0 - t)) - math.log1p(t))
           + (6.0 / 35.0) * t ** 7 * (2.0 * math.log(t)
                                      - math.log(abs(1.0 - t * t))))
    return math.pi * val


def F_from_f(x):
    """Symmetric reassembly (4/pi)(6 pi^2)^(1/3) (f(x) + x^(7/3) f(1/x)),
    in which f's gauge term A*(x^(7/3) - 1) cancels."""
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    _refuse_overflow(x, reciprocal=True)
    pref = (4.0 / math.pi) * (6.0 * math.pi ** 2) ** (1.0 / 3.0)
    return pref * (f_aux(x) + x ** (7.0 / 3.0) * f_aux(1.0 / x))


@dataclass(frozen=True)
class FermiParams:
    """Densities of the two spin components."""

    rho_up: float
    rho_down: float

    def __post_init__(self):
        for name in ("rho_up", "rho_down"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got "
                                 f"{getattr(self, name)}")


@dataclass(frozen=True)
class HYEnergyBreakdown:
    """Energy density split into kinetic, mean-field, and second-order
    parts; the unresolved remainder scales as rho^error_order_exponent."""

    kinetic: float
    mean_field: float
    huang_yang: float
    total: float
    error_order_exponent: float = 7.0 / 3.0 + 1.0 / 9.0


def _kinetic(params):
    return 0.6 * (6.0 * math.pi ** 2) ** (2.0 / 3.0) * (
        params.rho_up ** (5.0 / 3.0) + params.rho_down ** (5.0 / 3.0))


def _refuse_density_overflow(params):
    """Raise OverflowError naming both densities, before any arithmetic on
    them, when the larger one's rho^(7/3) lies beyond the float range;
    below that bound every power of a density that hy_energy takes fits."""
    if max(params.rho_up, params.rho_down) > _X_MAX:
        raise OverflowError(
            f"rho^(7/3) lies beyond the float range at rho_up = "
            f"{params.rho_up}, rho_down = {params.rho_down}")


def hy_energy(params, a):
    """Three-term upper-bound energy density for scattering length a.

    The second-order term is routed through the majority component so
    that swapping the densities returns bit-identical results. A density
    whose power overflows raises OverflowError naming both densities.
    """
    if not a >= 0.0:
        raise ValueError(f"scattering length must be nonnegative, got {a}")
    _refuse_density_overflow(params)
    # as a Python float, a product that overflows is inf and a power
    # raises OverflowError, where a numpy scalar would warn first
    a = float(a)
    kin = _kinetic(params)
    mf = 8.0 * math.pi * a * params.rho_up * params.rho_down
    hi, lo = max(params.rho_up, params.rho_down), min(params.rho_up,
                                                      params.rho_down)
    hy = a * a * hi ** (7.0 / 3.0) * F_closed(lo / hi) if hi > 0.0 else 0.0
    return HYEnergyBreakdown(kinetic=kin, mean_field=mf, huang_yang=hy,
                             total=kin + mf + hy)


def hy_energy_error(params, a, a_error):
    """Error in hy_energy's total that an error a_error in a carries: its
    derivative in a, 8*pi*rho_up*rho_down + 2a*rho_max^(7/3)*F(x), times
    a_error, with the same majority routing and overflow refusal as
    hy_energy."""
    _refuse_density_overflow(params)
    hi, lo = max(params.rho_up, params.rho_down), min(params.rho_up,
                                                      params.rho_down)
    slope = 8.0 * math.pi * params.rho_up * params.rho_down
    if hi > 0.0:
        slope += 2.0 * a * hi ** (7.0 / 3.0) * F_closed(lo / hi)
    return slope * a_error


def baseline_energies(params, a, Vhat0):
    """First-order reference energies (lss, ffg).

    lss uses the scattering length, ffg the bare V-hat(0); for a
    nonnegative potential ffg >= lss since 8*pi*a never exceeds the
    Born value.
    """
    if not a >= 0.0:
        raise ValueError(f"scattering length must be nonnegative, got {a}")
    kin = _kinetic(params)
    pair = params.rho_up * params.rho_down
    return kin + 8.0 * math.pi * a * pair, kin + Vhat0 * pair
