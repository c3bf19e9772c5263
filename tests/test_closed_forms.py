"""Closed forms: root extraction, known factorizations, root bounds,
orderings, and agreement with the solver."""

import math

import numpy as np
import pytest

from abctensor import closed_forms as cf
from abctensor import generators as gen
from abctensor.spectral import spectral_radius
from abctensor.tensor import Weighting

ABC = Weighting.ABC
ADJ = Weighting.ADJACENCY


def oracle(G, w=ABC):
    return spectral_radius(G, w).rho


def test_largest_real_root_simple():
    p = cf.PolynomialSpec(name="t2-1", coeffs=(-1.0, 0.0, 1.0))
    assert cf.largest_real_root(p) == pytest.approx(1.0, abs=1e-11)


def test_largest_real_root_takes_largest():
    # (t-1)(t-2)(t-3): three real roots.
    p = cf.PolynomialSpec(name="3roots", coeffs=(-6.0, 11.0, -6.0, 1.0))
    assert cf.largest_real_root(p) == pytest.approx(3.0, abs=1e-11)


def test_largest_real_root_expands_past_root_at_hi():
    # t^2 - 4, whose largest root 2 is a float.
    p = cf.PolynomialSpec(name="athi", coeffs=(-4.0, 0.0, 1.0))
    assert cf.largest_real_root(p) == pytest.approx(2.0, abs=1e-11)


def test_largest_real_root_separates_a_close_pair():
    # (t-1)(t-3)(t-3.0001) and (t-0.5)(t-2)(t-2.001): the largest root
    # lies 1e-4 and 1e-3 above the next one.
    p = cf.PolynomialSpec(name="pair3", coeffs=(-9.0003, 15.0004, -7.0001, 1.0))
    assert cf.largest_real_root(p) == pytest.approx(3.0001, rel=1e-9)
    p = cf.PolynomialSpec(name="pair2", coeffs=(-2.001, 6.0025, -4.501, 1.0))
    assert cf.largest_real_root(p) == pytest.approx(2.001, rel=1e-9)


def test_largest_real_root_without_a_real_root_raises():
    with pytest.raises(cf.RootBracketError, match="no real root"):
        cf.largest_real_root(cf.PolynomialSpec(name="t2+1", coeffs=(1.0, 0.0, 1.0)))


def test_root_forms_are_finite_where_m_minus_6_and_m_minus_4_round_together():
    # At m = 10^17 the floats m-6 and m-4 are equal.
    assert math.isfinite(cf.closed_form("t-family", m=10**17, idx=1))
    assert math.isfinite(cf.closed_form("s4-1111", m=10**17, k=4))


def test_linear_unicyclic_cubic_at_m3_factors():
    # m=3: t(t^2 - (sqrt2/2) t - 1), largest root sqrt 2.
    a3 = cf.largest_real_root(cf.linear_unicyclic_poly(3))
    assert a3 == pytest.approx(math.sqrt(2), abs=1e-10)


def test_eta_coefficients_at_m4():
    assert cf.eta_poly(4).coeffs == pytest.approx((-0.125, 0.75, -1.875, 1.0))


def test_eta_b_m_increasing():
    roots = [cf.largest_real_root(cf.eta_poly(m)) for m in range(4, 13)]
    assert all(b < c for b, c in zip(roots, roots[1:]))


def test_t_poly_m5_known_factorizations():
    # T_{5,2} ~ T_{5,3} ~ T_{5,4}: all three cubics share the largest
    # root (15 + sqrt 97)/16.
    want = (15 + math.sqrt(97)) / 16
    for idx in (2, 3, 4):
        assert cf.largest_real_root(cf.t_poly(5, idx)) == pytest.approx(want, abs=1e-9)


def test_t4_poly_m6_root_is_two():
    assert cf.largest_real_root(cf.t_poly(6, 4)) == pytest.approx(2.0, abs=1e-9)


def test_t_poly_root_brackets_large_m():
    for m in (7, 8, 9, 10):
        for idx in (1, 2, 3, 4):
            r = cf.largest_real_root(cf.t_poly(m, idx))
            assert m - 6 < r < m - 4


def test_quartic_m5_root():
    # h(t) = (4t-1)(4t^3-8t^2+4t-1)/16 at m=5; largest root in (1,2).
    r = cf.largest_real_root(cf.quartic_s4_poly(5))
    assert 1.0 < r < 2.0
    assert r == pytest.approx(1.4196433776070023, abs=1e-9)
    for m in (7, 8, 9, 10):
        rr = cf.largest_real_root(cf.quartic_s4_poly(m))
        assert m - 5 < rr < m - 4


def test_linear_unicyclic_bracket_behavior():
    # The upper bound sqrt(m-1) always holds; the lower bound sqrt(m-2)
    # holds only for m in {3,4,5} and fails from m=6 on.
    for m in range(3, 13):
        a_m = cf.largest_real_root(cf.linear_unicyclic_poly(m))
        assert a_m <= math.sqrt(m - 1) + 1e-9
        if m in (4, 5):
            assert a_m > math.sqrt(m - 2)
        if m >= 6:
            assert a_m < math.sqrt(m - 2)


# ---- explicit radical values ----


def test_rho_abc_hyperstar_values():
    assert cf.rho_abc_hyperstar(1, 3) == 0.0
    assert cf.rho_abc_hyperstar(5, 3) == pytest.approx(1.5874010519681994)
    assert cf.rho_abc_hyperstar(9, 2) == pytest.approx(math.sqrt(8))


def test_rho_abc_double_star1_values():
    assert cf.rho_abc_double_star1(5, 2) == pytest.approx(math.sqrt((13 + math.sqrt(97)) / 8))
    assert cf.rho_abc_double_star1(5, 3) == pytest.approx(((13 + math.sqrt(97)) / 8) ** (1 / 3))


def test_rho_adj_double_star2_values():
    assert cf.rho_adj_double_star2(5, 2) == pytest.approx(2.0)
    assert cf.rho_adj_double_star2(6, 3) == pytest.approx(((6 + math.sqrt(12)) / 2) ** (1 / 3))


def test_rho_abc_u2_values():
    assert cf.rho_abc_u2(2, 3) == pytest.approx(2 ** (1 / 3))
    assert cf.rho_abc_u2(5, 3) == pytest.approx(4.4 ** (1 / 3))


def test_rho_abc_u3_m3():
    assert cf.rho_abc_u3(3, 3) == pytest.approx(2 ** (1 / 3), rel=1e-15, abs=0)


def test_rho_abc_hyperpath_values():
    assert cf.rho_abc_hyperpath(6, 3) == pytest.approx((2 * math.cos(math.pi / 8) ** 2) ** (1 / 3))
    assert cf.rho_abc_hyperpath(12, 4) == pytest.approx((2 * math.cos(math.pi / 14) ** 2) ** (1 / 4))
    assert cf.rho_abc_hyperpath(2, 3) == pytest.approx(1.0)


def test_rho_abc_complete_bound_values():
    assert cf.rho_abc_complete_bound(4, 3) == pytest.approx(6 ** (1 / 3))
    assert cf.rho_abc_complete_bound(5, 2) == pytest.approx(math.sqrt(6))


# ---- oracle agreement (spot checks; the full grid runs in acceptance) ----


def test_closed_forms_match_oracle_spot():
    assert cf.rho_abc_s311(4, 3) == pytest.approx(
        oracle(gen.s_composition(4, 3, (1, 1, 1))), abs=1e-8
    )
    assert cf.rho_abc_s311(6, 4) == pytest.approx(
        oracle(gen.s_composition(6, 4, (3, 1, 1, 0))), abs=1e-8
    )
    assert cf.rho_abc_u3(4, 3) == pytest.approx(
        oracle(gen.unicyclic_family(4, 3, 3, (1, 0, 0))), abs=1e-8
    )
    assert cf.rho_abc_double_star1(5, 3) == pytest.approx(
        oracle(gen.power(gen.double_star(5, 1), 3)), abs=1e-8
    )
    assert cf.rho_adj_double_star2(5, 2) == pytest.approx(
        oracle(gen.double_star(5, 2), ADJ), abs=1e-8
    )
    assert cf.rho_abc_s4_1111(5) == pytest.approx(
        oracle(gen.s_composition(5, 4, (1, 1, 1, 1))), abs=1e-8
    )
    assert cf.rho_abc_hyperpath(6, 3) == pytest.approx(oracle(gen.hyperpath(6, 3)), abs=1e-8)
    assert cf.rho_abc_complete_bound(4, 3) == pytest.approx(oracle(gen.complete(4, 3)), abs=1e-8)


def test_s311_same_base_root_across_k():
    b6 = cf.largest_real_root(cf.eta_poly(6))
    assert cf.rho_abc_s311(6, 3) == pytest.approx(b6 ** (1 / 3))
    assert cf.rho_abc_s311(6, 4) == pytest.approx(b6 ** (1 / 4))


# Each named polynomial with the least m of its closed form's domain.
NAMED_POLYNOMIALS = (
    (cf.eta_poly, 4),
    (cf.linear_unicyclic_poly, 3),
    (lambda m: cf.t_poly(m, 1), 6),
    (lambda m: cf.t_poly(m, 2), 5),
    (lambda m: cf.t_poly(m, 3), 5),
    (lambda m: cf.t_poly(m, 4), 5),
    (cf.quartic_s4_poly, 5),
)


def test_largest_real_roots_match_50_digit_roots():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for poly, first_m in NAMED_POLYNOMIALS:
            for m in range(first_m, 41):
                p = poly(m)
                # The roots of the float coefficients, read exactly.
                roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(p.coeffs)],
                                         maxsteps=200, extraprec=200)
                want = max(r.real for r in roots if abs(r.imag) <= 1e-30 * max(1, abs(r)))
                got = cf.largest_real_root(p)
                assert abs(got - want) <= 4e-16 * max(1, abs(want)), p.name


# ---- strict orderings ----


def test_t_family_below_s311():
    for m in range(5, 11):
        top = cf.rho_abc_s311(m, 3)
        idxs = (1, 2, 3, 4) if m >= 6 else (2, 3, 4)
        for idx in idxs:
            assert cf.rho_abc_t(m, idx) < top - 1e-9


def test_s4_1111_below_s311():
    for m in range(5, 11):
        assert cf.rho_abc_s4_1111(m) < cf.rho_abc_s311(m, 4) - 1e-9


def test_double_star_below_hyperstar():
    for m in range(3, 11):
        for k in (2, 3, 4):
            assert cf.rho_abc_double_star1(m, k) < cf.rho_abc_hyperstar(m, k) - 1e-9


def test_closed_form_dispatch():
    assert cf.closed_form("hyperstar", m=5, k=3) == cf.rho_abc_hyperstar(5, 3)
    assert cf.closed_form("s4-1111", m=6, k=5) == cf.rho_abc_s4_1111(6, 5)
    with pytest.raises(ValueError):
        cf.closed_form("hyperstar", m=5)
    with pytest.raises(ValueError):
        cf.closed_form("nope", m=1, k=2)


@pytest.mark.parametrize("m", [True, 2.5, "5"])
def test_closed_form_parameters_are_integers(m):
    for part in (cf.closed_form, cf.closed_form_graph):
        with pytest.raises(ValueError, match=f"m must be an integer, not {m!r}"):
            part("hyperstar", m=m, k=3)
    assert cf.closed_form("hyperstar", m=np.int64(5), k=3) == cf.rho_abc_hyperstar(5, 3)
