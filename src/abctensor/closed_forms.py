"""Closed-form spectral radii for the extremal families.

Each value is either an explicit radical or the largest real root of a
low-degree polynomial.  A root is the largest real eigenvalue of the
polynomial's companion matrix, refined by bisection to adjacent floats,
so it is accurate to float resolution for the float coefficients.  Either
way the value is a bare float with no error bound; callers compare it
with a tolerance.  Coefficients are rational expressions in the edge
count m, rounded to floats on demand.

``CLOSED_FORMS`` pairs each value with the hypergraph that attains it,
the weighting and the parameter domain; every caller reads it.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Mapping, Optional

import numpy as np

from . import generators as gen
from .hypergraph import UniformHypergraph
from .spectral import _is_int
from .tensor import Weighting


@dataclass(frozen=True)
class PolynomialSpec:
    """Real polynomial (ascending coefficients) whose largest real root is
    wanted."""

    name: str
    coeffs: tuple[float, ...]

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


class RootBracketError(ValueError):
    """p has no real root, or no sign change at its largest one."""


def largest_real_root(p: PolynomialSpec) -> float:
    """Largest real root of p, to adjacent floats.

    The roots are the eigenvalues of p's companion matrix (``np.roots``);
    the largest real one is refined by bisecting the sign change of p
    within 1e-9 relative of it until the ends are adjacent floats, and
    the end where |p| is smaller is returned.
    """
    roots = np.roots(p.coeffs[::-1])
    real = [z.real for z in roots if abs(z.imag) <= 1e-7 * max(1.0, abs(z))]
    if not real:
        raise RootBracketError(f"{p.name}: no real root")
    r = float(max(real))
    d = 1e-9 * max(1.0, abs(r))
    lo, hi = r - d, r + d
    hi_positive = p(hi) > 0.0
    if (p(lo) > 0.0) == hi_positive:
        raise RootBracketError(f"{p.name}: no sign change at {r!r}")
    while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
        if (p(mid) > 0.0) == hi_positive:
            hi = mid
        else:
            lo = mid
    return lo if abs(p(lo)) <= abs(p(hi)) else hi


# ----------------------------------------------------------------------
# Named polynomials (coefficients ascending).


def eta_poly(m: int) -> PolynomialSpec:
    """Cubic whose largest root b_m is rho_abc(S_{m,3;m-3,1,1})^3 (m >= 4)."""
    d = 4.0 * (m - 2)
    return PolynomialSpec(
        name=f"eta[m={m}]",
        coeffs=(
            -((m - 3) ** 2) / d,
            (4 * m * m - 23 * m + 34) / d,
            -(4 * m * m - 19 * m + 27) / d,
            1.0,
        ),
    )


def linear_unicyclic_poly(m: int) -> PolynomialSpec:
    """Cubic whose largest root a_m is rho_abc(U_{m,3}) for the 2-uniform
    base (m >= 3); a_m <= sqrt(m-1), with equality at m = 3."""
    r2 = math.sqrt(2.0)
    return PolynomialSpec(
        name=f"linear_unicyclic[m={m}]",
        coeffs=(
            r2 * (m * m - 5 * m + 6) / (2.0 * (m - 1)),
            -(m * m - 4 * m + 5) / (m - 1.0),
            -r2 / 2.0,
            1.0,
        ),
    )


def t_poly(m: int, idx: int) -> PolynomialSpec:
    """Cubic whose largest root is rho_abc(T_{m,idx})^3 (3-uniform)."""
    d = float(m - 3)
    if idx == 1:
        coeffs = (
            -(2 * m * m - 16 * m + 32) / (3 * d),
            (11 * m * m - 84 * m + 164) / (6 * d),
            -(3 * m * m - 18 * m + 31) / (3 * d),
            1.0,
        )
    elif idx == 2:
        coeffs = (
            -(m * m - 9 * m + 20) / (4 * d),
            (2 * m * m - 17 * m + 37) / (2 * d),
            -(4 * m * m - 29 * m + 60) / (4 * d),
            1.0,
        )
    elif idx == 3:
        coeffs = (
            -(2 * m * m - 15 * m + 29) / (8 * d),
            (11 * m * m - 82 * m + 158) / (8 * d),
            -(8 * m * m - 49 * m + 83) / (8 * d),
            1.0,
        )
    elif idx == 4:
        # (2t-1)(4(m-3)t^2 - (4m^2-27m+50)t + 4m^2-32m+64) / (8(m-3))
        a2 = 4.0 * (m - 3)
        a1 = -(4 * m * m - 27 * m + 50)
        a0 = 4 * m * m - 32 * m + 64
        coeffs = (
            -a0 / (8 * d),
            (2 * a0 - a1) / (8 * d),
            (2 * a1 - a2) / (8 * d),
            2 * a2 / (8 * d),
        )
    else:
        raise ValueError("idx must be in {1,2,3,4}")
    return PolynomialSpec(
        name=f"t{idx}[m={m}]",
        coeffs=coeffs,
    )


def quartic_s4_poly(m: int) -> PolynomialSpec:
    """Quartic whose largest root is rho_abc(S_{m,4;m-4,1,1,1})^4 (m >= 5)."""
    d = 8.0 * (m - 3)
    return PolynomialSpec(
        name=f"s4_1111[m={m}]",
        coeffs=(
            (m * m - 8 * m + 16) / d,
            -(6 * m * m - 47 * m + 93) / d,
            (6 * m * m - 45 * m + 87) / (4.0 * (m - 3)),
            -(8 * m * m - 51 * m + 91) / d,
            1.0,
        ),
    )


# ----------------------------------------------------------------------
# Closed-form radii.


def rho_abc_hyperstar(m: int, k: int) -> float:
    """rho_abc(S_{m,k}) = (m-1)^(1/k)."""
    return (m - 1) ** (1.0 / k)


def rho_abc_double_star1(m: int, k: int) -> float:
    """rho_abc(D_{m,1}^k): explicit radical, m >= 3."""
    rad = (m * m - 3 * m + 3 + math.sqrt((m - 1) ** 2 + (m - 2) ** 4)) / (2.0 * (m - 1))
    return rad ** (1.0 / k)


def rho_adj_double_star2(m: int, k: int) -> float:
    """rho_adj(D_{m,2}^k): explicit radical, m >= 5."""
    rad = (m + math.sqrt(m * m - 8 * m + 24)) / 2.0
    return rad ** (1.0 / k)


def rho_abc_u2(m: int, k: int) -> float:
    """rho_abc(U_{m,2}^(k)) = (m - 1 + 2/m)^(1/k), m >= 2."""
    return (m - 1 + 2.0 / m) ** (1.0 / k)


def rho_abc_u3(m: int, k: int) -> float:
    """rho_abc(U_{m,3}^(k)) = a_m^(2/k), a_m the largest root of the
    linear-unicyclic cubic, m >= 3."""
    a_m = largest_real_root(linear_unicyclic_poly(m))
    return a_m ** (2.0 / k)


def rho_abc_s311(m: int, k: int) -> float:
    """rho_abc(S_{m,k;m-3,1,1}) = b_m^(1/k), m >= 4, k >= 3."""
    b_m = largest_real_root(eta_poly(m))
    return b_m ** (1.0 / k)


def rho_abc_t(m: int, idx: int) -> float:
    """rho_abc(T_{m,idx}) for the 3-uniform T families."""
    return largest_real_root(t_poly(m, idx)) ** (1.0 / 3.0)


def rho_abc_s4_1111(m: int, k: int = 4) -> float:
    """rho_abc(S_{m,k;m-4,1,1,1}) = t0^(1/k) with t0 the largest root of
    the quartic for the 4-uniform base (k >= 4)."""
    t0 = largest_real_root(quartic_s4_poly(m))
    return t0 ** (1.0 / k)


def rho_abc_hyperpath(m: int, k: int) -> float:
    """rho_abc(P_{m,k}) = (2 cos^2(pi/(m+2)))^(1/k), m >= 2.

    Every edge of the 2-uniform path P_{m,2} has abc weight sqrt(1/2)
    (degree pairs (1,2) and (2,2) both give radicand 1/2), so its abc
    matrix is sqrt(1/2) times the path adjacency matrix with spectral
    radius 2 cos(pi/(m+2)); powering lifts the value by the exponent 2/k.
    """
    if m < 2:
        raise ValueError("hyperpath closed form needs m >= 2")
    return (2.0 * math.cos(math.pi / (m + 2)) ** 2) ** (1.0 / k)


def rho_abc_complete_bound(n: int, k: int) -> float:
    """(k C(n-1,k-1) - k)^(1/k), attained by K_n^(k)."""
    return (k * math.comb(n - 1, k - 1) - k) ** (1.0 / k)


# ----------------------------------------------------------------------
# Registry: one record per closed form, keyed by its command-line name.


def _padded(k: int, *head: int):
    """The composition ``head`` then zeros, k entries in all, as a lazy
    iterable: the generators check the vertex count before they read it,
    so a huge k ends in that check, not in a k-long tuple."""
    return itertools.chain(head, itertools.repeat(0, k - len(head)))


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form radius with the hypergraph that attains it.

    ``value(**p)`` is the spectral radius of ``graph(**p)`` under
    ``weighting`` wherever the condition ``domain`` holds.  The parameter
    names, and the defaults of those a caller may omit, are those of
    ``value``.
    """

    value: Callable[..., float]
    graph: Callable[..., UniformHypergraph]
    domain: str
    weighting: Weighting = Weighting.ABC
    signature: inspect.Signature = field(init=False, repr=False, compare=False)
    _domain_code: CodeType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The signature and the compiled domain, taken once per record.
        object.__setattr__(self, "signature", inspect.signature(self.value))
        object.__setattr__(self, "_domain_code", compile(self.domain, "<domain>", "eval"))

    @property
    def params(self) -> tuple[str, ...]:
        """Parameter names, in the order ``value`` takes them."""
        return tuple(self.signature.parameters)

    def admits(self, **params: int) -> bool:
        """Whether the parameter values satisfy ``domain``."""
        # ``domain`` is a constant of this module, never caller input.
        return bool(eval(self._domain_code, {"__builtins__": {}}, params))


CLOSED_FORMS: dict[str, ClosedForm] = {
    "hyperstar": ClosedForm(rho_abc_hyperstar, gen.hyperstar, "m >= 1 and k >= 2"),
    "double-star-1": ClosedForm(rho_abc_double_star1,
                                lambda m, k: gen.power(gen.double_star(m, 1), k),
                                "m >= 3 and k >= 2"),
    "double-star-2-adj": ClosedForm(rho_adj_double_star2,
                                    lambda m, k: gen.power(gen.double_star(m, 2), k),
                                    "m >= 5 and k >= 2", Weighting.ADJACENCY),
    "u2": ClosedForm(rho_abc_u2,
                     lambda m, k: gen.unicyclic_family(m, k, 2, _padded(k, m - 2)),
                     "m >= 2 and k >= 3"),
    "u3": ClosedForm(rho_abc_u3,
                     lambda m, k: gen.unicyclic_family(m, k, 3, _padded(k, m - 3)),
                     "m >= 3 and k >= 3"),
    "s311": ClosedForm(rho_abc_s311,
                       lambda m, k: gen.s_composition(m, k, _padded(k, m - 3, 1, 1)),
                       "m >= 4 and k >= 3"),
    "t-family": ClosedForm(rho_abc_t, gen.t_family,
                           "idx in (1, 2, 3, 4) and m >= (6 if idx == 1 else 5)"),
    "s4-1111": ClosedForm(rho_abc_s4_1111,
                          lambda m, k: gen.s_composition(m, k, _padded(k, m - 4, 1, 1, 1)),
                          "m >= 5 and k >= 4"),
    "hyperpath": ClosedForm(rho_abc_hyperpath, gen.hyperpath, "m >= 2 and k >= 2"),
    "complete-bound": ClosedForm(rho_abc_complete_bound, gen.complete, "n > k >= 2"),
}


def _bind(name: str, params: Mapping[str, Optional[int]]) -> tuple[ClosedForm, dict[str, int]]:
    """The record for ``name`` and its parameters, defaults filled in;
    ValueError when the name is unknown or a parameter is missing, not an
    integer (a bool is not one) or out of the domain.  Parameters the form
    does not take are ignored."""
    if name not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {name!r}; known: {sorted(CLOSED_FORMS)}")
    form = CLOSED_FORMS[name]
    signature = form.signature
    given = {p: params[p] for p in signature.parameters if params.get(p) is not None}
    for p, value in given.items():
        if not _is_int(value):
            raise ValueError(f"{p} must be an integer, not {value!r}")
    try:
        bound = signature.bind(**given)
    except TypeError:
        flags = ", ".join(f"--{p}" for p, q in signature.parameters.items() if q.default is q.empty)
        raise ValueError(f"closed form {name!r} requires {flags}") from None
    bound.apply_defaults()
    if not form.admits(**bound.arguments):
        raise ValueError(f"closed form {name!r} needs {form.domain}; got {bound.arguments}")
    return form, bound.arguments


def _evaluate(name: str, params: Mapping[str, Optional[int]], part: str):
    """``CLOSED_FORMS[name].<part>`` at ``params``, OverflowError as ValueError."""
    form, values = _bind(name, params)
    try:
        return getattr(form, part)(**values)
    except OverflowError:
        raise ValueError(f"closed form {name!r} at {values} does not fit a float") from None


def closed_form(name: str, **params: Optional[int]) -> float:
    """Value of the named closed form at ``params``."""
    return _evaluate(name, params, "value")


def closed_form_graph(name: str, **params: Optional[int]) -> UniformHypergraph:
    """The hypergraph whose radius under ``CLOSED_FORMS[name].weighting``
    the named closed form gives at ``params``."""
    return _evaluate(name, params, "graph")
