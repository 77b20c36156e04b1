import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

import qcurv.cnc as cnc
from qcurv import JET_BLOCK
from qcurv.cnc import (
    _apply_jet_table,
    _jet_table,
    CurvatureJet,
    ExactArray,
    PolynomialMetric,
    blowup_metric,
    cnc_identity_suite,
    contracted_first_derivative,
    contracted_first_derivative_display,
    contracted_second_derivative,
    contracted_second_derivative_display,
    d_inverse_metric,
    d_inverse_metric_display,
    DEGREE,
    inverse_metric_taylor,
    log_det_poly,
    metric_taylor_from_jet,
    poly_diff,
    poly_mul,
    poly_truncate,
    product_defect,
    random_conformal_normal_jet,
    ricci_of,
    scale_jet,
)
from qcurv.fields import (
    Box,
    COORDS,
    ConstantField,
    DegenerateMetricError,
    DerivativeOrderError,
    _taylor,
)


def test_zero_jet_gives_identity_metric():
    jet = CurvatureJet.constant_curvature(0)
    mt = metric_taylor_from_jet(jet)
    assert mt.comps.shape == (4, 4, 35)
    for a in range(4):
        for b in range(4):
            assert mt.comps[a, b, 0] == (a == b)
            assert _is_zero(mt.comps[a, b, 1:])


def test_constant_curvature_quadratic_coefficient():
    K = Fraction(3, 2)
    jet = CurvatureJet.constant_curvature(K)
    mt = metric_taylor_from_jet(jet)
    x = np.array([0.3, -0.1, 0.2, 0.4])
    r2 = float(x @ x)
    for a in range(4):
        for b in range(4):
            quad = _apply_jet_table(*_jet_table(mt.comps[a, b] * (DEGREE == 2), 0), x)[0][0]
            expected = float(K) / 3.0 * (x[a] * x[b] - (r2 if a == b else 0.0))
            assert abs(float(quad) - expected) < 1e-12


def test_inverse_flips_sign_and_product_is_exact():
    jet = CurvatureJet.constant_curvature(Fraction(1))
    mt = metric_taylor_from_jet(jet)
    inv = inverse_metric_taylor(mt)
    x = np.array([0.2, 0.1, -0.3, 0.05])
    for a in range(4):
        for b in range(4):
            q_fwd = mt.comps[a, b] * (DEGREE == 2)
            q_inv = inv.comps[a, b] * (DEGREE == 2)
            fwd = _apply_jet_table(*_jet_table(q_fwd, 0), x)[0][0]
            assert fwd == -_apply_jet_table(*_jet_table(q_inv, 0), x)[0][0]
    assert np.all(inv.comps[..., DEGREE == 0] == mt.comps[..., DEGREE == 0])
    assert np.all(inv.comps[..., DEGREE > 0] == -mt.comps[..., DEGREE > 0])
    assert _is_zero(product_defect(mt, inv))


def test_random_jet_exact_identities():
    rng = np.random.default_rng(11)
    for _ in range(10):
        jet = random_conformal_normal_jet(rng=int(rng.integers(0, 2**31)))
        mt = metric_taylor_from_jet(jet)
        inv = inverse_metric_taylor(mt)
        assert _is_zero(product_defect(mt, inv))
        assert _is_zero(poly_truncate(log_det_poly(mt), 2))
        report = cnc_identity_suite(jet)
        assert len(report) == 4
        for name, entry in report.items():
            assert entry["pass"] is True, name


def test_d_inverse_matches_display_and_fd_of_polynomial():
    jet = random_conformal_normal_jet(rng=5)
    mt = metric_taylor_from_jet(jet)
    d = d_inverse_metric(mt)
    disp = d_inverse_metric_display(jet)
    assert d.shape == disp.shape == (4, 4, 4, 35)
    assert np.all(d == disp)
    # centered difference of the inverse polynomial
    inv = inverse_metric_taylor(mt)
    x = np.array([0.3, -0.2, 0.1, 0.15])
    h = 1e-6
    for a, b, c in [(0, 1, 2), (3, 3, 0), (1, 2, 1)]:
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        table = _jet_table(inv.comps[a, b], 0)
        plus, minus = (float(_apply_jet_table(*table, y)[0][0]) for y in (xp, xm))
        fd = (plus - minus) / (2 * h)
        assert abs(fd - float(_apply_jet_table(*_jet_table(d[a, b, c], 0), x)[0][0])) < 1e-9


def test_contractions_match_displays():
    jet = random_conformal_normal_jet(rng=9)
    mt = metric_taylor_from_jet(jet)
    c1 = contracted_first_derivative(mt)
    c1d = contracted_first_derivative_display(jet)
    assert c1.shape == (4, 35) and np.all(c1 == c1d)
    # linear term vanishes
    assert _is_zero(c1[:, DEGREE == 1])
    c2 = contracted_second_derivative(mt)
    c2d = contracted_second_derivative_display(jet)
    assert c2.shape == (4, 4, 35) and np.all(c2 == c2d)


def test_contraction_requires_conformal_normal_flag():
    jet = CurvatureJet.constant_curvature(Fraction(1))
    mt = metric_taylor_from_jet(jet)
    with pytest.raises(ValueError):
        contracted_first_derivative(mt)


def test_symmetric_trace_free_zeroed_derivative_vanishes():
    # a jet whose Ricci derivative is identically zero must produce a zero
    # contracted first derivative
    base = random_conformal_normal_jet(rng=17)
    jet = CurvatureJet(
        R0=base.R0, R1=scale_jet(base, Fraction(0)).R1, conformal_normal=True
    )
    mt = metric_taylor_from_jet(jet)
    c1 = contracted_first_derivative(mt)
    assert _is_zero(c1)


def test_identity_suite_flags_constructed_violation():
    jet = random_conformal_normal_jet(rng=2)
    # break the symmetrized-derivative identity by hand
    kick = np.zeros((4,) * 5, dtype=np.int64)
    kick[0, 1, 0, 1, 0] = kick[1, 0, 1, 0, 0] = 1
    kick[0, 1, 1, 0, 0] = kick[1, 0, 0, 1, 0] = -1
    bad = CurvatureJet(R0=jet.R0, R1=jet.R1 + ExactArray(kick))
    report = cnc_identity_suite(bad)
    assert not all(e["pass"] for e in report.values())


def test_sphere_point_fails_ricci_precondition():
    jet = CurvatureJet.constant_curvature(Fraction(1))
    assert ricci_of(jet.R0)[0, 0] != 0
    report = cnc_identity_suite(jet)
    assert not report["ricci_zero"]["pass"]


def _outer(x, y):
    return x[:, :, None, None] * y[None, None, :, :]


def _two_form(i, j):
    form = np.zeros((4, 4), dtype=object)
    form[i, j], form[j, i] = 1, -1
    return form


def _levi_civita():
    eps = np.zeros((4,) * 4, dtype=object)
    for perm in itertools.permutations(range(4)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        eps[perm] = (-1) ** inversions
    return eps


_DELTA, _E01, _E23 = np.eye(4, dtype=object), _two_form(0, 1), _two_form(2, 3)
# perturbations that break, in order: R_abcd = -R_bacd, R_abcd = -R_abdc,
# R_abcd = R_cdab (keeping both antisymmetries, so it must break the first
# Bianchi identity, from which pair symmetry follows) and the first Bianchi
# identity (keeping the other three)
_SYMMETRY_BREAKERS = {
    "antisymmetric_ab": _outer(_DELTA, _E01),
    "antisymmetric_cd": _outer(_E01, _DELTA),
    "pair_symmetric": _outer(_E01, _E23) - _outer(_E23, _E01),
    "first_bianchi": _levi_civita(),
}


@pytest.mark.parametrize("broken", list(_SYMMETRY_BREAKERS))
def test_each_riemann_symmetry_is_checked_in_r0_and_each_r1_slot(broken):
    jet = random_conformal_normal_jet(rng=1)
    bad = _SYMMETRY_BREAKERS[broken]
    with pytest.raises(ValueError, match="R0 violates"):
        CurvatureJet(R0=jet.R0 + ExactArray(bad, 2), R1=jet.R1)
    for slot in range(4):
        kick = np.zeros((4,) * 5, dtype=np.int64)
        kick[..., slot] = bad
        with pytest.raises(ValueError, match="R1 violates"):
            CurvatureJet(R0=jet.R0, R1=jet.R1 + ExactArray(kick, 2))


_PAIRS = list(itertools.combinations(range(4), 2))


def _ref_fill(vec):
    """The curvature tensor, as Fractions, whose pair-symmetric slots
    (ab, cd), ab <= cd in the order of ``_PAIRS``, hold the 21 values of
    ``vec``; 84 values fill R_abcd,e, slot e from 21e on."""
    if len(vec) == 84:
        return np.stack([_ref_fill(vec[21 * e : 21 * (e + 1)]) for e in range(4)], axis=-1)
    R = np.full((4,) * 4, Fraction(0), dtype=object)
    slots = [(i, j) for i in range(6) for j in range(i, 6)]
    for v, (i, j) in zip(vec, slots):
        (a, b), (c, d) = _PAIRS[i], _PAIRS[j]
        for ab, s in (((a, b), 1), ((b, a), -1)):
            for cd, t in (((c, d), 1), ((d, c), -1)):
                R[ab + cd] = R[cd + ab] = s * t * v
    return R


def _fr(x):
    """An exact array as an object array of Fractions."""
    return np.vectorize(lambda n: Fraction(int(n), x.den), otypes=[object])(x.num)


@lru_cache(maxsize=1)
def _reference_bases():
    """The sympy nullspaces, as Fractions, of the two jet bases' constraint
    matrices written out with plain loops."""

    def ric(R, i, j, *k):
        return sum(R[(a, i, a, j) + k] for a in range(4))

    def weyl_rows(R):
        rows = [R[0, 1, 2, 3] + R[0, 2, 3, 1] + R[0, 3, 1, 2]]
        return rows + [ric(R, i, j) for i in range(4) for j in range(i, 4)]

    def deriv_rows(R):
        rows = [R[0, 1, 2, 3, e] + R[0, 2, 3, 1, e] + R[0, 3, 1, 2, e] for e in range(4)]
        for a, b in itertools.combinations(range(4), 2):
            for c, d, e in itertools.combinations(range(4), 3):
                rows.append(R[a, b, c, d, e] + R[a, b, d, e, c] + R[a, b, e, c, d])
        for i, j, k in itertools.combinations_with_replacement(range(4), 3):
            rows.append(ric(R, i, j, k) + ric(R, j, k, i) + ric(R, k, i, j))
        return rows

    out = []
    for n, rows in ((21, weyl_rows), (84, deriv_rows)):
        cols = [rows(_ref_fill([Fraction(int(i == k)) for i in range(n)])) for k in range(n)]
        mat = sp.Matrix([[col[r] for col in cols] for r in range(len(cols[0]))])
        out.append([[Fraction(int(x.p), int(x.q)) for x in v] for v in mat.nullspace()])
    return out


def test_constraint_bases_are_sympy_nullspaces_without_sympy(monkeypatch):
    weyl, deriv = _reference_bases()

    def forbidden(*args, **kwargs):
        raise AssertionError("sympy called for a jet basis")

    monkeypatch.setattr(sp, "Matrix", forbidden)
    for basis, want in ((cnc._weyl_basis, weyl), (cnc._deriv_basis, deriv)):
        basis.cache_clear()
        got = basis()
        assert got.shape == (len(want), len(want[0]))
        assert got.num.dtype == np.int64
        # numerators over the least common denominator of sympy's entries
        assert got.den == math.lcm(*(x.denominator for v in want for x in v))
        assert _fr(got).tolist() == want


def test_conformal_normal_flag_validation():
    with pytest.raises(ValueError):
        CurvatureJet(
            R0=CurvatureJet.constant_curvature(Fraction(1)).R0,
            conformal_normal=True,
        )


def test_scale_jet_scales_metric_coefficients():
    jet = random_conformal_normal_jet(rng=6)
    sj = scale_jet(jet, Fraction(1, 3))
    for idx in [(0, 1, 0, 1), (2, 3, 2, 3)]:
        assert sj.R0[idx] * 3 == jet.R0[idx]


def test_blowup_metric_flat_at_zero_eps():
    jet = random_conformal_normal_jet(rng=1)
    g = blowup_metric(jet, 0.0, half_width=10.0)
    assert g.is_flat
    zero = blowup_metric(scale_jet(jet, Fraction(0)), 0.3, half_width=10.0)
    assert zero.is_flat
    assert not blowup_metric(jet, 0.3, half_width=10.0).is_flat


# a test-local reference: dict polynomials {exponent tuple: Fraction}, kept
# at full degree, over the same basis as the dense type
_BASIS = [m for m in itertools.product(range(4), repeat=4) if sum(m) <= 3]


def _to_dict(p):
    """The nonzero coefficients of one dense exact polynomial, by exponents."""
    return {m: c for m, c in zip(_BASIS, _fr(p)) if c != 0}


def _ref_add(*ps):
    out = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def _ref_mul(p, q):
    """The full product of two dict polynomials, up to degree 6."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _ref_diff(p, i):
    out = {}
    for m, c in p.items():
        if m[i]:
            m2 = list(m)
            m2[i] -= 1
            out[tuple(m2)] = c * m[i]
    return out


def _ref_truncate(p, max_deg):
    return {m: c for m, c in p.items() if sum(m) <= max_deg}


def _monomial(*variables):
    """The exponent tuple of xi^i1 ... xi^id."""
    return tuple(np.bincount(variables, minlength=4).tolist())


def _is_zero(p):
    """Every coefficient is exactly zero."""
    return all(c == 0 for c in np.ravel(_fr(p)))


def _random_dense(rng, shape):
    """Random dense exact polynomials over one random denominator: each has
    a random number of nonzero coefficients at random monomials."""
    out = np.zeros(shape + (len(_BASIS),), dtype=np.int64)
    for idx in np.ndindex(shape):
        pick = rng.choice(len(_BASIS), int(rng.integers(1, len(_BASIS) + 1)), replace=False)
        for k in pick:
            out[idx + (k,)] = int(rng.integers(-99, 100)) or 1
    return ExactArray(out, int(rng.integers(1, 50)))


def test_poly_mul_diff_truncate_match_dict_reference():
    assert DEGREE.tolist() == [sum(m) for m in _BASIS]
    rng = np.random.default_rng(3)
    p, q = _random_dense(rng, (8, 1)), _random_dense(rng, (1, 4))
    prod = poly_mul(p, q)
    assert prod.shape == (8, 4, 35) and prod.num.dtype == np.int64
    for i, j in np.ndindex(8, 4):
        want = _ref_truncate(_ref_mul(_to_dict(p[i, 0]), _to_dict(q[0, j])), 3)
        assert _to_dict(prod[i, j]) == want
    grad = poly_diff(p)
    assert grad.shape == (8, 1, 4, 35) and grad.num.dtype == np.int64
    for i in range(8):
        pi = _to_dict(p[i, 0])
        for c in range(4):
            assert _to_dict(grad[i, 0, c]) == _ref_diff(pi, c)
        for deg in range(4):
            assert _to_dict(poly_truncate(p[i, 0], deg)) == _ref_truncate(pi, deg)


def test_products_and_rescalings_beyond_int64_raise():
    # each case would wrap to exactly 0 in unchecked int64 arithmetic
    # (2**32 * 2**32 = 2**64), so only the bound checked beforehand can
    # tell it from a true zero
    big = ExactArray(np.full(35, 2**32))
    assert not (big.num * big.num).any()
    with pytest.raises(OverflowError):
        poly_mul(big, big)
    with pytest.raises(OverflowError):
        big * 2**32
    with pytest.raises(OverflowError):
        big == ExactArray(np.ones(35, dtype=np.int64), 2**32)
    with pytest.raises(OverflowError):
        big + ExactArray(np.ones(35, dtype=np.int64), 2**32)
    # a jet with numerators +-256 times 2**56 would wrap to the zero jet
    jet = CurvatureJet.constant_curvature(256)
    with pytest.raises(OverflowError):
        scale_jet(jet, Fraction(2**56, 3))
    with pytest.raises(OverflowError):
        ExactArray([2**64])
    # an integer factor beyond int64 raises even on the zero array
    for factor in (2**63, 10**300):
        with pytest.raises(OverflowError):
            ExactArray(np.zeros(35, dtype=np.int64)) * factor
    # within the bound the product is exact
    fits = ExactArray(np.full(35, 2**20))
    want = _ref_truncate(_ref_mul(_to_dict(fits), _to_dict(fits)), 3)
    assert _to_dict(poly_mul(fits, fits)) == want


def test_euler_operator_is_the_degree_multiplier():
    # sum_m xi^m d_m p multiplies each degree-k part of p by k; the curved
    # Pohozaev interior relies on it for g^{ij} and A_j = d_i g^{ij}
    xi = np.zeros((4, 35), dtype=np.int64)
    for m in range(4):
        xi[m, _BASIS.index(tuple(np.eye(4, dtype=int)[m]))] = 1
    xi = ExactArray(xi)
    for seed in (0, 5, 11):
        inv = inverse_metric_taylor(metric_taylor_from_jet(random_conformal_normal_jet(rng=seed))).comps
        A = poly_diff(inv).einsum("abak->bk")
        assert not _is_zero(A)
        for p in (inv, A):
            euler = poly_mul(xi, poly_diff(p)).einsum("...mk->...k")
            assert (euler == p * DEGREE).all()


def _forward_inverse(monkeypatch):
    # the forward expansion in place of the inverse: no sign flip
    monkeypatch.setattr(cnc, "inverse_metric_taylor", lambda mt: mt)
    mt = metric_taylor_from_jet(random_conformal_normal_jet(rng=7))
    assert not _is_zero(product_defect(mt, cnc.inverse_metric_taylor(mt)))


def _flipped_display(monkeypatch):
    # d_c g^{ab}'s display with the sign of its linear term flipped; no
    # other identity of the suite reads it
    display = cnc.d_inverse_metric_display

    def flipped(jet):
        disp = display(jet)
        return disp - poly_truncate(disp, 1) * 2

    monkeypatch.setattr(cnc, "d_inverse_metric_display", flipped)
    jet = random_conformal_normal_jet(rng=7)
    assert (d_inverse_metric(metric_taylor_from_jet(jet)) != flipped(jet)).any()


@pytest.mark.parametrize(
    "fault", [_forward_inverse, _flipped_display], ids=["forward_inverse", "flipped_display"]
)
def test_exact_identity_failures_can_fail(monkeypatch, fault):
    from qcurv.cli import run_cnc

    fault(monkeypatch)
    checks, _ = run_cnc({"n_jets": 2}, 0)
    assert [(c["name"], c["value"], c["pass"]) for c in checks] == [
        ("exact_identity_failures", 2, False)
    ]


def _ref_jet(seed):
    """A random conformal-normal jet, as Fractions: the module's draws
    combined with the sympy bases and filled with plain loops."""
    rng = np.random.default_rng(seed)
    weyl, deriv = _reference_bases()
    out = []
    for basis in (weyl, deriv):
        coef = rng.integers(-6, 7, len(basis))
        vec = [sum(int(c) * v[k] for c, v in zip(coef, basis)) for k in range(len(basis[0]))]
        out.append(_ref_fill(vec))
    return out


def _ref_metric(R0, R1):
    """g_ab = delta_ab + (1/3) R_aijb xi^i xi^j + (1/6) R_aijb,k xi^i xi^j xi^k
    as a 4 x 4 nested list of dict polynomials."""
    g = [[{} for _ in range(4)] for _ in range(4)]
    for a, b in itertools.product(range(4), repeat=2):
        terms = [{_monomial(): Fraction(int(a == b))}]
        for i, j in itertools.product(range(4), repeat=2):
            terms.append({_monomial(i, j): R0[a, i, j, b] / 3})
            for k in range(4):
                terms.append({_monomial(i, j, k): R1[a, i, j, b, k] / 6})
        g[a][b] = _ref_add(*terms)
    return g


def _ref_float_table(g, eps):
    """The float coefficients of g(eps y) and its first and second partials
    in the ``_jet_table`` layout: each exact coefficient times the exact
    Fraction(eps)^degree, rounded by ``Fraction.__float__``."""
    e = Fraction(eps)
    scaled = [{m: c * e ** sum(m) for m, c in g[a][b].items()} for a in range(4) for b in range(4)]
    polys = list(scaled)
    polys += [_ref_diff(p, c) for p in scaled for c in range(4)]
    polys += [_ref_diff(_ref_diff(p, c), d) for p in scaled for c in range(4) for d in range(4)]
    return np.array([[float(p.get(m, 0)) for p in polys] for m in _BASIS])


@pytest.mark.parametrize("seed", range(10))
def test_integer_algebra_matches_fraction_reference(seed):
    R0, R1 = _ref_jet(seed)
    jet = random_conformal_normal_jet(rng=seed)
    assert (_fr(jet.R0) == R0).all() and (_fr(jet.R1) == R1).all()

    g = _ref_metric(R0, R1)
    mt = metric_taylor_from_jet(jet)
    for a, b in itertools.product(range(4), repeat=2):
        assert _to_dict(mt.comps[a, b]) == g[a][b]

    ginv = [[{m: c if sum(m) == 0 else -c for m, c in p.items()} for p in row] for row in g]
    defect = product_defect(mt, inverse_metric_taylor(mt))
    for a, c in itertools.product(range(4), repeat=2):
        prods = [_ref_truncate(_ref_mul(g[a][b], ginv[b][c]), 3) for b in range(4)]
        want = _ref_add(*prods, {_monomial(): -Fraction(int(a == c))})
        assert _to_dict(defect[a, c]) == want == {}

    # Ric_ij,k = sum_a R_aiaj,k
    ric = np.sum([R1[a, :, a] for a in range(4)], axis=0)
    first = contracted_first_derivative_display(jet)
    second = contracted_second_derivative_display(jet)
    for b in range(4):
        want = _ref_add(*[
            {_monomial(i, j): -(2 * ric[i, b, j] - ric[i, j, b]) / 6}
            for i, j in itertools.product(range(4), repeat=2)
        ])
        assert _to_dict(first[b]) == want
        for d in range(4):
            want = _ref_add(*[{_monomial(i): 2 * ric[i, d, b] / 3} for i in range(4)])
            assert _to_dict(second[b, d]) == want

    # the distance suite's blow-up metrics, rounded to float exactly once
    tenth = Fraction(1, 10)
    g_tenth = _ref_metric(R0 * tenth, R1 * tenth)
    for eps in (0.1, 0.05, 0.025):
        metric = blowup_metric(scale_jet(jet, tenth), eps, half_width=4.0 / eps)
        assert metric._table.tobytes() == _ref_float_table(g_tenth, eps).tobytes()


def _exact_at(p, x):
    """Exact value of the dict polynomial ``p`` at the rational point ``x``,
    and the sum of the magnitudes of its terms, the scale a float
    evaluation is judged on."""
    value = scale = Fraction(0)
    for m, c in p.items():
        term = c
        for xi, e in zip(x, m):
            term *= xi**e
        value += term
        scale += abs(term)
    return value, scale


def test_poly_jet_matches_exact_rational_evaluation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        polys = _random_dense(rng, (2, 3))
        pts = rng.uniform(-2.0, 2.0, (4, 4))
        jets = _apply_jet_table(*_jet_table(polys, 2), pts)
        for n, x in enumerate(pts):
            xq = [Fraction(v) for v in x.tolist()]  # the float point, exactly
            for k, jet in enumerate(jets):
                assert jet.shape == (4, 2, 3) + (4,) * k
                for idx in np.ndindex(polys.shape[:-1]):
                    for axes in itertools.product(range(4), repeat=k):
                        p = _to_dict(polys[idx])
                        for ax in axes:
                            p = _ref_diff(p, ax)
                        value, scale = _exact_at(p, xq)
                        got = Fraction(float(jet[(n,) + idx + axes]))
                        assert abs(got - value) <= Fraction(1, 10**15) * scale


def test_poly_jet_matches_exact_evaluation_across_blocks():
    # at small integer points every monomial value is exact
    ints = np.array(list(itertools.product(range(-2, 3), repeat=4)), float)
    unit = ExactArray(np.eye(len(_BASIS), dtype=np.int64))
    want = np.prod(ints[:, None, :] ** _BASIS, axis=-1)
    assert np.array_equal(_apply_jet_table(*_jet_table(unit, 0), ints)[0], want)

    # 2 JET_BLOCK + 3 = 8,195 points, more than any caller's block, evaluated
    # in one product, with |xi^i| up to 2 in every column
    rng = np.random.default_rng(7)
    num = _random_dense(rng, ()).num.copy()
    num[DEGREE == 3] = rng.integers(1, 100, 20)
    polys = ExactArray(num, int(rng.integers(1, 50)))
    pts = rng.uniform(-2.0, 2.0, (2 * JET_BLOCK + 3, 4))
    pts[:8] = np.concatenate([2.0 * np.eye(4), -2.0 * np.eye(4)])
    jets = _apply_jet_table(*_jet_table(polys, 2), pts)
    # exactly: the points as integers over one power of two D, each degree-k
    # monomial over D^3, the partials' coefficients over polys.den
    D = max(v.as_integer_ratio()[1] for v in pts.ravel().tolist())
    xs = np.array([[int(v * D) for v in x] for x in pts.tolist()], dtype=object)
    mono = np.stack([np.prod(xs**m, axis=1) * D ** (3 - sum(m)) for m in _BASIS], axis=1)
    partials = [polys, poly_diff(polys), poly_diff(poly_diff(polys))]
    for jet, p in zip(jets, partials):
        coef = p.num.reshape(-1, len(_BASIS)).T.astype(object)
        got = np.array([v.as_integer_ratio() for v in jet.ravel().tolist()], dtype=object)
        num, den = got.T.reshape((2, len(pts), -1))
        gap = abs(num * (polys.den * D**3) - (mono @ coef) * den) * 10**15
        assert np.all(gap <= (abs(mono) @ abs(coef)) * den)


def _sympy_poly(p):
    """One dense exact polynomial as a sympy expression over the chart's
    coordinates, each coefficient times the monomial cnc lists in its slot."""
    return sp.Add(*[
        sp.Rational(c.numerator, c.denominator) * sp.Mul(*[x**e for x, e in zip(COORDS, m)])
        for m, c in zip(cnc._MONOMIALS.tolist(), _fr(p))
    ])


def test_cnc_coefficients_and_taylor_jets_share_one_monomial_table():
    # fields' Taylor coefficients about the origin, to order 3, sit in the
    # slots of cnc's coefficient vectors
    rng = np.random.default_rng(29)
    # every coefficient nonzero, so every slot of a product has terms
    p, q = (
        ExactArray(rng.integers(1, 100, (6, 35)) * rng.choice([-1, 1], (6, 35)), den)
        for den in rng.integers(1, 50, 2).tolist()
    )
    origin = np.zeros((1, 4))
    for i in range(6):
        fp, fq = _sympy_poly(p[i]), _sympy_poly(q[i])
        assert np.array_equal(_taylor(fp, origin, 3)[:, 0], p[i].to_float())
        # a truncated product, summed in floats, against the exact one
        got = _taylor(fp * fq, origin, 3)[:, 0]
        want = poly_mul(p[i], q[i]).to_float()
        size = poly_mul(ExactArray(np.abs(p.num[i]), p.den), ExactArray(np.abs(q.num[i]), q.den))
        assert np.count_nonzero(want) >= 30
        assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * size.to_float())


class _SympyBlowup:
    """The blow-up expansion in sympy, the reference for the float
    evaluator: each term c * eps^deg * x^m built symbolically, each entry's
    partials to order 2 taken by ``sympy.diff``, one sorted multi-index at
    a time, and all of them compiled by one ``lambdify``."""

    is_flat = False

    def __init__(self, jet, eps, half_width):
        self.domain = Box.cube(half_width)
        comps = _fr(metric_taylor_from_jet(jet).comps)
        entries = []
        for a in range(4):
            for b in range(4):
                expr = sp.Integer(0)
                for m, c in zip(_BASIS, comps[a, b]):
                    term = sp.Rational(c.numerator, c.denominator) * sp.Float(eps) ** sum(m)
                    for i, e in enumerate(m):
                        term *= COORDS[i] ** e
                    expr += term
                entries.append(expr)
        parts = {(): entries}
        for k in (1, 2):
            for idx in itertools.combinations_with_replacement(range(4), k):
                parts[idx] = [sp.diff(e, COORDS[idx[-1]]) for e in parts[idx[:-1]]]
        self.indices = list(parts)
        self.func = sp.lambdify(COORDS, [e for idx in self.indices for e in parts[idx]])

    def jet(self, pts, order):
        pts = np.atleast_2d(pts)
        vals = [np.broadcast_to(v, len(pts)) for v in self.func(*pts.T)]
        jets = [np.empty((len(pts), 4, 4) + (4,) * k) for k in range(order + 1)]
        for n, idx in enumerate(self.indices):
            if len(idx) <= order:
                part = np.stack(vals[16 * n : 16 * n + 16], axis=-1).reshape(-1, 4, 4)
                for perm in set(itertools.permutations(idx)):
                    jets[len(idx)][(slice(None),) * 3 + perm] = part
        return jets


def test_polynomial_metric_matches_sympy_metric_field():
    from qcurv.curvature import riemann_of_metric

    jet = scale_jet(random_conformal_normal_jet(rng=3), Fraction(1, 10))
    pts = np.random.default_rng(1).uniform(-3.0, 3.0, (40, 4))
    for eps in (0.1, 0.025):
        g = blowup_metric(jet, eps, half_width=4.0 / eps)
        ref = _SympyBlowup(jet, eps, 4.0 / eps)
        assert isinstance(g, PolynomialMetric) and not g.is_flat
        assert g.domain == ref.domain
        for got, want in zip(g.jet(pts, 2), ref.jet(pts, 2)):
            assert np.max(np.abs(got - want)) < 1e-13
        r_got = riemann_of_metric(g, pts[:10]).components
        r_want = riemann_of_metric(ref, pts[:10]).components
        assert np.max(np.abs(r_got - r_want)) < 1e-13 * np.max(np.abs(r_want))
    with pytest.raises(DerivativeOrderError):
        g.jet(pts, 3)


def test_polynomial_metric_rows_agree_across_batch_sizes_to_rounding():
    # a point's jet may round differently in another batch, by at most 35
    # ulp of the sum of the magnitudes of its 35 terms
    jet = scale_jet(random_conformal_normal_jet(rng=3), Fraction(1, 10))
    g = blowup_metric(jet, 0.1, half_width=40.0)
    pts = np.random.default_rng(1).uniform(-3.0, 3.0, (40, 4))

    def flat(p):
        return np.concatenate([j.reshape(len(p), -1) for j in g.jet(p, 2)], axis=1)

    terms = np.prod(np.abs(pts)[:, None, :] ** _BASIS, axis=-1) @ np.abs(g._table)
    tol = len(_BASIS) * np.finfo(float).eps * terms
    whole = flat(pts)
    for size in (1, 2, 7):
        for s in range(0, len(pts), size):
            rows = slice(s, s + size)
            assert np.all(np.abs(flat(pts[rows]) - whole[rows]) <= tol[rows])


def test_polynomial_metric_rejects_degenerate_points():
    from qcurv.curvature import riemann_of_metric

    comps = np.zeros((4, 4, 35), dtype=np.int64)
    comps[..., 0] = np.eye(4, dtype=np.int64)
    comps[0, 0, _BASIS.index((2, 0, 0, 0))] = -1
    g = PolynomialMetric(ExactArray(comps), Box.cube(2.0))
    assert not g.is_flat
    assert g.jet([0.5, 0.0, 0.0, 0.0], 0)[0][0, 0, 0] == 0.75
    with pytest.raises(DegenerateMetricError):
        riemann_of_metric(g, [1.0, 0.3, 0.0, 0.0])


def test_blowup_geodesic_and_curved_pohozaev_do_not_call_sympy(monkeypatch):
    from qcurv.bubble import RescaledBubble
    from qcurv.geodesic import geodesic_distance
    from qcurv.pohozaev import BallDomain, RadialProfileField, pohozaev_balance

    jet = scale_jet(random_conformal_normal_jet(rng=5), Fraction(1, 10))

    def forbidden(*args, **kwargs):
        raise AssertionError("sympy called on a float path")

    for name in ("lambdify", "diff", "Matrix"):
        monkeypatch.setattr(sp, name, forbidden)
    g = blowup_metric(jet, 0.1, half_width=40.0)
    y, z = np.array([1.0, 0.2, -0.3, 0.1]), np.array([-0.4, 0.9, 0.3, -0.2])
    d = geodesic_distance(g, y, z, n_nodes=16)
    assert d != np.linalg.norm(y - z)
    ball = BallDomain(1.0, n_r=8, n_u=8, n_phi=8)
    u = RadialProfileField(RescaledBubble(1.0), tilt=[0.3, -0.2, 0.1, 0.25])
    h, b = ConstantField(1.0), ConstantField(0.0)
    (rep,) = pohozaev_balance(u, h, b, ball, [metric_taylor_from_jet(jet)])
    assert rep.I2 != 0.0
