import warnings

import numpy as np
import pytest

from ckdvlab.airy import (SolitonSpec, airy_ai_only, airy_eval, compatibility_residual,
                          profile_pack, wave_terms)
from ckdvlab.errors import OverflowGuard
from ckdvlab.soliton import soliton_amplitude

from conftest import (airy_series_oracle, assert_same_doubles, bit_identity_inputs, capital_f,
                      fd_derivative, five_term_pack, masked_airy)


def test_series_oracle_wronskian_self_check():
    # the oracle itself must satisfy Ai Bi' - Ai' Bi = 1/pi before it is
    # trusted as a reference
    for z in (-9.5, -4.0, 0.0, 2.5, 6.0):
        ai, aip, bi, bip = airy_series_oracle(z)
        assert ai * bip - aip * bi == pytest.approx(1 / np.pi, rel=1e-13)


@pytest.mark.parametrize("z", [0.0, 1.0, -1.0, -5.0, 3.9, -6.8, 4.5, 5.5, 6.9,
                               7.8, 10.0, -7.2, -9.9, -25.0, 29.5])
def test_values_against_series_oracle(z):
    got = airy_eval(z)
    ref = airy_series_oracle(z)
    for g, r in zip((got.ai, got.ai_prime, got.bi, got.bi_prime), ref):
        assert g == pytest.approx(r, rel=1e-10, abs=1e-300)


def test_branch_overlap_agreement():
    # adjacent evaluation regimes agree where they meet
    from ckdvlab import airy as am
    for z_switch in (am._NEG_ASYM, am._POS_ASYM):
        for dz in (-1e-6, 1e-6):
            z = z_switch + dz
            got = airy_eval(z)
            ref = airy_series_oracle(z)
            for g, r in zip((got.ai, got.ai_prime, got.bi, got.bi_prime), ref):
                assert g == pytest.approx(r, rel=1e-9)


def test_oscillatory_terms_decrease_from_the_seam():
    # the oscillatory Horner sums serve z < _NEG_ASYM only; at the seam,
    # where zeta is smallest, every term |C_k|/zeta^k of both expansions must
    # still be smaller than the one before up to _KMAX, so the whole table,
    # which a call reaching the seam sums, is the optimally truncated sum
    from ckdvlab import airy as am
    zeta = (2.0 / 3.0) * (-am._NEG_ASYM) ** 1.5
    assert zeta == pytest.approx(16.52, abs=5e-3)
    for coeffs in (am._U, am._V):
        assert len(coeffs) == am._KMAX
        terms = np.abs(coeffs) / zeta ** np.arange(am._KMAX)
        assert np.all(np.diff(terms) < 0.0)
        assert terms[-1] < 1.1e-15


def test_positive_asymptotic_terms_decrease_from_the_seam():
    # the positive Horner sums serve z >= _POS_ASYM only; at that seam, where
    # zeta is smallest, every term |C_k|/zeta^k must be smaller than the one
    # before up to _KMAX, so the whole table is the optimal sum there too
    from ckdvlab import airy as am
    zeta = (2.0 / 3.0) * am._POS_ASYM ** 1.5
    assert zeta == pytest.approx(13.42, abs=5e-3)
    for coeffs in (am._U, am._V):
        assert len(coeffs) == am._KMAX
        terms = np.abs(coeffs) / zeta ** np.arange(am._KMAX)
        assert np.all(np.diff(terms) < 0.0)
        assert terms[-1] < 2e-13


# The asymptotic sums over the whole coefficient table: the oracle for the
# per-call cut of the series in airy._horner.

def full_table_horner(coeffs, x, t):
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def asymptotic_mismatches(monkeypatch):
    """Values on dense asymptotic sweeps that differ from the full-table sums.

    Each sweep is evaluated in one call, in chunks of assorted sizes and one
    point at a time; the cut depends on each call's point nearest the seam,
    so the chunks and single points drop more terms than a whole sweep does.
    """
    from ckdvlab import airy as am
    neg = np.linspace(-3000.0, am._NEG_ASYM, 400_001)[:-1]
    pos = np.linspace(am._POS_ASYM, 600.0, 200_001)
    bi_pos = np.linspace(am._POS_ASYM, 30.0, 100_001)
    sweeps = [(neg, airy_eval), (neg, airy_ai_only), (pos, airy_ai_only),
              (bi_pos, airy_eval)]
    rng = np.random.default_rng(7)
    mismatches = 0
    for z, fn in sweeps:
        with monkeypatch.context() as m:
            m.setattr(am, "_horner", full_table_horner)
            want = np.array(_components(fn(z)))
        whole = np.array(_components(fn(z)))
        cuts = np.sort(rng.choice(np.arange(1, z.size), 400, replace=False))
        chunks = np.hstack([_components(fn(part)) for part in np.split(z, cuts)])
        single = rng.choice(z.size, 400, replace=False)
        points = np.array([_components(fn(z[i])) for i in single]).T
        mismatches += int(np.sum(whole != want) + np.sum(chunks != want)
                          + np.sum(points != want[:, single]))
    return mismatches


def _components(values):
    """Ai, Ai' (and Bi, Bi') of airy_ai_only or airy_eval, as a tuple."""
    if isinstance(values, tuple):
        return values
    return values.ai, values.ai_prime, values.bi, values.bi_prime


def test_cut_asymptotic_sums_are_the_full_table_sums(monkeypatch):
    assert asymptotic_mismatches(monkeypatch) == 0


def test_full_table_sweep_sees_a_coarser_cut(monkeypatch):
    # the sweep resolves the threshold: dropping terms up to 2^-40 of the
    # first one already moves some values
    from ckdvlab import airy as am
    monkeypatch.setattr(am, "_DROP", 2.0 ** -40)
    assert asymptotic_mismatches(monkeypatch) > 0


@pytest.mark.parametrize("fn, with_bi, top", [(airy_ai_only, False, np.inf),
                                             (airy_eval, True, 30.0)],
                         ids=["ai-only", "ai-bi"])
def test_one_range_calls_are_the_masked_dispatch(fn, with_bi, top):
    # a call in one range runs its branch on the whole array, any other call
    # gathers by masks; either way every double is the masked dispatch's
    for z in bit_identity_inputs(top):
        got, want = _components(fn(z)), masked_airy(z, with_bi)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_doubles(g, w)


@pytest.mark.parametrize("spec, top", [
    (SolitonSpec(alpha=1e8), np.inf), (SolitonSpec(alpha=-2.0), np.inf),
    (SolitonSpec(alpha=0.0), np.inf), (SolitonSpec(alpha=1.0, beta=1e-6), 30.0),
    (SolitonSpec(alpha=2.0, beta=3.0, branch=-1), 30.0)],
    ids=["canonical", "negative", "zero", "general", "general-lower-branch"])
def test_profile_terms_are_the_five_term_pack(spec, top):
    # F, F', F'' alone (wave_terms) and all five (profile_pack) are the
    # doubles of one five-term product form per pair
    for z in bit_identity_inputs(top):
        want = five_term_pack(z, spec)
        got = profile_pack(z, spec)
        assert len(got) == 5
        for g, w in zip(got, want):
            assert_same_doubles(g, w)
        if np.isfinite(z).all():
            for g, w in zip(wave_terms(z, spec), want[:3], strict=True):
                assert_same_doubles(g, w)


def test_far_range_against_mpmath():
    # the soliton tail reaches z ~ -880; near the zeros of the oscillatory
    # side a pointwise relative error means nothing, so errors there are
    # measured against the envelope |z|^{-1/4}/sqrt(pi) (|z|^{1/4} for the
    # derivatives)
    import mpmath as mp

    def ref(fn, z, derivative):
        with mp.workdps(30):
            return float(fn(z, derivative=derivative))

    for z in (-880.0, -300.0, -80.0, -8.6):
        got = airy_eval(z)
        envelope = abs(z) ** -0.25 / np.sqrt(np.pi)
        envelope_prime = abs(z) ** 0.25 / np.sqrt(np.pi)
        for g, fn, d, env in ((got.ai, mp.airyai, 0, envelope),
                              (got.ai_prime, mp.airyai, 1, envelope_prime),
                              (got.bi, mp.airybi, 0, envelope),
                              (got.bi_prime, mp.airybi, 1, envelope_prime)):
            assert abs(g - ref(fn, z, d)) <= 1e-10 * env
    for z in (7.5, 12.0, 20.0, 60.0):
        ai, aip = airy_ai_only(z)
        assert ai == pytest.approx(ref(mp.airyai, z, 0), rel=1e-10)
        assert aip == pytest.approx(ref(mp.airyai, z, 1), rel=1e-10)
    for z in (7.5, 12.0, 20.0, 29.5):
        got = airy_eval(z)
        assert got.bi == pytest.approx(ref(mp.airybi, z, 0), rel=1e-10)
        assert got.bi_prime == pytest.approx(ref(mp.airybi, z, 1), rel=1e-10)


def test_central_range_against_mpmath():
    # the anchors' Taylor sums on [_NEG_ASYM, _POS_ASYM): within 1e-15 of
    # mpmath, measured against the envelope |z|^{-+1/4}/sqrt(pi) where the
    # functions oscillate (z < 0) and against the value for z >= 0
    import mpmath as mp
    from ckdvlab import airy as am
    z = np.linspace(am._NEG_ASYM, am._POS_ASYM, 1201)[:-1]
    got = airy_eval(z)
    with mp.workdps(32):
        for g, fn, d in ((got.ai, mp.airyai, 0), (got.ai_prime, mp.airyai, 1),
                         (got.bi, mp.airybi, 0), (got.bi_prime, mp.airybi, 1)):
            ref = np.array([float(fn(x, derivative=d)) for x in z])
            scale = np.where(z < 0, np.abs(z) ** (0.25 if d else -0.25) / np.sqrt(np.pi),
                             np.abs(ref))
            assert np.all(np.abs(g - ref) <= 1e-15 * scale)


def test_anchors_are_the_nearest_doubles():
    # every anchor's Ai, Ai', Bi, Bi' is the double nearest the exact value
    import mpmath as mp
    from ckdvlab import airy as am
    ai, bi = am._anchor_tables()
    with mp.workdps(40):
        for i, z0 in enumerate(am._ANCHORS):
            for table, fn in ((ai, mp.airyai), (bi, mp.airybi)):
                for d in (0, 1):
                    assert table[d, i] == float(fn(z0, derivative=d)), (z0, fn.__name__, d)


def test_anchor_tables_do_not_depend_on_long_double(monkeypatch):
    # where np.longdouble is float64 (MSVC on Windows, macOS on arm64) the
    # tables must come out bit for bit the same; the cache is cleared on
    # both sides so that no other test sees tables built under the patch
    from ckdvlab import airy as am
    am._anchor_tables.cache_clear()
    want = am._anchor_tables()
    am._anchor_tables.cache_clear()
    monkeypatch.setattr(np, "longdouble", np.float64)
    try:
        got = am._anchor_tables()
    finally:
        am._anchor_tables.cache_clear()
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_neighbouring_anchors_agree_at_midpoints():
    # halfway between two anchors both Taylor sums must give the same value
    from ckdvlab import airy as am
    mid = am._ANCHORS[:-1] + am._ANCHOR_STEP / 2
    half = np.full(mid.size, am._ANCHOR_STEP / 2)
    for table in am._anchor_tables():
        below = am._taylor_sum(table[:, :-1], half)
        above = am._taylor_sum(table[:, 1:], -half)
        for d, (lo, hi) in enumerate(zip(below, above)):
            scale = np.where(mid < 0, np.abs(mid) ** (0.25 if d else -0.25) / np.sqrt(np.pi),
                             np.abs(lo))
            assert np.all(np.abs(lo - hi) <= 1e-15 * scale)


def test_central_range_runs_no_series(monkeypatch):
    # once the anchor tables exist, the Maclaurin series is never run again:
    # every central point is a float64 Taylor sum
    from ckdvlab import airy as am
    am._anchor_tables()

    def refuse(z0):
        raise AssertionError("_anchor_values ran after the anchor tables were built")

    monkeypatch.setattr(am, "_anchor_values", refuse)
    z = np.random.default_rng(5).uniform(am._NEG_ASYM, am._POS_ASYM, 100_000)
    got = airy_eval(z)
    assert all(np.isfinite(v).all() for v in (got.ai, got.ai_prime, got.bi, got.bi_prime))


def test_central_values_are_the_nearest_anchors_taylor_sum():
    # on [_NEG_ASYM, _POS_ASYM) Ai, Ai', Bi and Bi' are the 20-term Taylor
    # sums from the anchor rint(z / 0.25) * 0.25, bit for bit, ties halfway
    # between two anchors and their neighbouring doubles included
    from ckdvlab import airy as am
    ties = (np.arange(-34, 30) + 0.5) * 0.25  # -8.375, -8.125, ..., 7.375
    z = np.concatenate([np.linspace(am._NEG_ASYM, am._POS_ASYM, 4001)[:-1], ties,
                        np.nextafter(ties, -10.0), np.nextafter(ties, 10.0)])
    got = airy_eval(z)
    want = [np.empty_like(z) for _ in range(4)]
    k = np.rint(z / 0.25)
    for kk in np.unique(k):
        sel = k == kk
        z0 = kk * 0.25
        values = am._anchor_values(z0)
        for j in (0, 2):
            c = am._taylor_coefficients(z0, values[j], values[j + 1], 20)
            want[j][sel], want[j + 1][sel] = am._taylor_sum(c, z[sel] - z0)
    for g, w in zip((got.ai, got.ai_prime, got.bi, got.bi_prime), want):
        assert np.array_equal(g, w)
    assert all(np.array_equal(a, b) for a, b in zip(airy_ai_only(z), want[:2]))


def test_wronskian_identity_dense():
    z = np.linspace(-10.0, 3.0, 1000)
    w = airy_eval(z).wronskian()
    assert np.abs(w * np.pi - 1.0).max() < 1e-10


def test_defining_ode_by_finite_differences():
    z = np.linspace(-10.0, 3.0, 131)
    d2_ai = fd_derivative(lambda x: airy_eval(x).ai, z, 2, h=0.02)
    d2_bi = fd_derivative(lambda x: airy_eval(x).bi, z, 2, h=0.02)
    assert np.abs(d2_ai - z * airy_eval(z).ai).max() < 1e-6
    assert np.abs(d2_bi - z * airy_eval(z).bi).max() < 1e-6


def test_overflow_guard():
    with pytest.raises(OverflowGuard):
        airy_eval(31.0)
    # a nan argument does not hide a large one
    with pytest.raises(OverflowGuard, match="z=31.000"):
        airy_eval(np.array([np.nan, 31.0]))
    # deep negative arguments are allowed and accurate
    import mpmath as mp
    with mp.workdps(40):
        ref = float(mp.airyai(-200.0))
    assert airy_eval(-200.0).ai == pytest.approx(ref, rel=1e-9)


def test_ai_only_matches_full_and_underflows():
    z = np.linspace(-30, 25, 301)
    ai, aip = airy_ai_only(z)
    full = airy_eval(z)
    assert np.array_equal(ai, full.ai)
    assert np.array_equal(aip, full.ai_prime)
    big_ai, _ = airy_ai_only(np.array([500.0, 2000.0]))
    assert np.all(big_ai == 0.0)


def test_nan_argument_reads_nan():
    # one finite argument in each of the four ranges, nan between them
    finite = np.array([-30.0, 1.0, 5.0, 25.0])
    z = np.insert(finite, [0, 1, 2, 3, 4], np.nan)
    nan = np.isnan(z)
    ai, aip = airy_ai_only(z)
    assert np.isnan(ai[nan]).all() and np.isnan(aip[nan]).all()
    assert np.array_equal(ai[~nan], airy_ai_only(finite)[0])
    assert np.array_equal(aip[~nan], airy_ai_only(finite)[1])
    full, ref, scalar = airy_eval(z), airy_eval(finite), airy_eval(np.nan)
    for name in ("ai", "ai_prime", "bi", "bi_prime"):
        got = getattr(full, name)
        assert np.isnan(got[nan]).all() and np.array_equal(got[~nan], getattr(ref, name))
        assert np.isnan(getattr(scalar, name))


@pytest.mark.filterwarnings("error")
def test_infinite_arguments_read_their_limits():
    # Ai(+-inf) = Ai'(+inf) = Bi(-inf) = 0; Ai' and Bi' oscillate without a
    # limit at -inf and read nan
    finite = np.array([-30.0, 1.0, 5.0, 25.0])
    z = np.concatenate([[-np.inf], finite, [np.inf]])
    ai, aip = airy_ai_only(z)
    assert (ai[0], ai[-1], aip[-1]) == (0.0, 0.0, 0.0) and np.isnan(aip[0])
    assert np.array_equal(ai[1:-1], airy_ai_only(finite)[0])
    assert np.array_equal(aip[1:-1], airy_ai_only(finite)[1])
    assert airy_ai_only(np.inf) == (0.0, 0.0)
    ai, aip = airy_ai_only(-np.inf)
    assert ai == 0.0 and np.isnan(aip)
    full, ref, scalar = airy_eval(z[:-1]), airy_eval(finite), airy_eval(-np.inf)
    for name, at_neg_inf in (("ai", 0.0), ("ai_prime", np.nan), ("bi", 0.0),
                             ("bi_prime", np.nan)):
        got = getattr(full, name)
        assert np.array_equal(got[1:], getattr(ref, name))
        assert np.array_equal([got[0], getattr(scalar, name)], [at_neg_inf] * 2,
                              equal_nan=True)
    with pytest.raises(OverflowGuard, match="z=inf"):
        airy_eval(z)


def test_huge_finite_arguments_underflow_without_warning():
    # past about 3.2e205 the decaying side's zeta = (2/3) z^{3/2} overflows to
    # inf; Ai and Ai' still read their limits, 0 and -0, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_doubles(airy_ai_only(1e300), (np.float64(0.0), np.float64(-0.0)))
        ai, aip = airy_ai_only(np.array([1e300, 1.0]))
        near = airy_ai_only(1.0)
        assert_same_doubles(ai, np.array([0.0, near[0]]))
        assert_same_doubles(aip, np.array([-0.0, near[1]]))
        pack = profile_pack(1e300, SolitonSpec(alpha=1.0))
        assert all(v == 0.0 for v in pack)
        assert soliton_amplitude(1.0, 1e300, SolitonSpec(alpha=1.0)) == 0.0


def test_fourth_derivative_where_4z_overflows():
    # above about 4.49e307, 4 * z overflows; F'''' must still read its limit 0
    spec = SolitonSpec(alpha=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert profile_pack(5e307, spec)[4] == 0.0
        f4 = profile_pack(np.array([5e307, 1.0]), spec)[4]
        assert f4[0] == 0.0
        assert_same_doubles(f4[1], profile_pack(1.0, spec)[4])


def test_far_oscillatory_side_warns_nothing():
    # below about -7e102 zeta * zeta overflows and the series read 1 and 0;
    # below about -3.2e205 zeta overflows too and Ai, Ai' read nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip = airy_ai_only(-1e103)
        x = 1e103
        assert 0.0 < abs(ai) <= x ** -0.25 / np.sqrt(np.pi) * (1 + 1e-12)
        assert 0.0 < abs(aip) <= x ** 0.25 / np.sqrt(np.pi) * (1 + 1e-12)
        assert np.isnan(airy_ai_only(-1e206)).all()
        near = airy_ai_only(-1.0)
        for far in (-1e103, -1e206):
            got = airy_ai_only(np.array([far, -1.0]))
            for g, at_far, at_near in zip(got, airy_ai_only(far), near):
                assert_same_doubles(g[0], at_far)
                assert_same_doubles(g[1], at_near)


class TestSolitonSpec:
    def test_reality_constraint(self):
        with pytest.raises(ValueError):
            SolitonSpec(alpha=1.0, beta=-1.0)

    def test_gamma_derived(self):
        spec = SolitonSpec(alpha=4.0, beta=9.0, branch=-1)
        assert spec.gamma == pytest.approx(-12.0)


class TestCapitalG:
    def test_zero_spec(self):
        assert -profile_pack(0.7, SolitonSpec(alpha=0.0))[1] == 0.0

    def test_definition_at_origin(self):
        ai0 = airy_eval(0.0).ai
        g0 = -profile_pack(0.0, SolitonSpec(alpha=1.0))[1]
        assert g0 == pytest.approx(ai0 ** 2, rel=1e-12)

    def test_canonical_past_bi_guard(self):
        # beta = 0 needs no Bi, so F and G stay defined where Bi would overflow
        spec = SolitonSpec(alpha=1.0)
        pack = profile_pack(40.0, spec)
        f, g = pack[0], -pack[1]
        assert np.isfinite(g) and np.isfinite(f) and g > 0

    def test_third_order_ode_by_fd(self):
        # G''' - 4 z G' - 2 G = 0 for the Airy-product solutions
        spec = SolitonSpec(alpha=0.8, beta=0.5, branch=1)
        z = np.linspace(-8.0, 2.0, 101)
        fn = lambda x: -profile_pack(x, spec)[1]
        g3 = fd_derivative(fn, z, 3, h=0.02)
        g1 = fd_derivative(fn, z, 1, h=0.02)
        resid = g3 - 4 * z * g1 - 2 * fn(z)
        assert np.abs(resid).max() < 1e-6


class TestCapitalF:
    def test_vanishes_at_plus_infinity(self):
        assert abs(capital_f(12.0, SolitonSpec(alpha=1.0))) <= 1e-14

    def test_zero_spec(self):
        assert capital_f(0.3, SolitonSpec(alpha=0.0)) == 0.0

    def test_negative_asymptotics(self):
        # F(-20) ~ sqrt(20)/pi for the canonical unit-amplitude profile
        val = capital_f(-20.0, SolitonSpec(alpha=1.0))
        assert val == pytest.approx(np.sqrt(20.0) / np.pi, rel=0.03)

    def test_quadrature_agrees_with_closed_form(self):
        spec = SolitonSpec(alpha=2.5)
        for z in (-6.0, -1.0, 0.0, 2.0, 5.0, 7.9):
            quadrature = capital_f(z, spec)
            closed = profile_pack(z, spec)[0]
            assert quadrature == pytest.approx(closed, rel=1e-9, abs=1e-12)

    def test_monotone_nonincreasing(self):
        spec = SolitonSpec(alpha=3.0)
        z = np.linspace(-12.0, 8.0, 400)
        f = profile_pack(z, spec)[0]
        assert np.all(np.diff(f) <= 1e-12)

    def test_positive_definite_iff_canonical(self):
        z = np.linspace(-40.0, 12.0, 2000)
        k = 0.5
        f_canon = profile_pack(z, SolitonSpec(alpha=5.0))[0]
        assert np.all(k + f_canon > 0)
        # any beta != 0 profile changes the sign of k + F on a wide window
        f_bad = profile_pack(np.linspace(-30.0, 20.0, 2000),
                             SolitonSpec(alpha=1.0, beta=0.2, branch=1))[0]
        signs = np.sign(k + f_bad)
        assert signs.min() < 0 < signs.max()

    def test_profile_odes_by_fd(self):
        # F'''' - 4 z F'' - 2 F' = 0 and the quadratic companion
        spec = SolitonSpec(alpha=1.0)
        z = np.linspace(-8.0, 2.0, 101)
        fn = lambda x: profile_pack(x, spec)[0]
        f0 = fn(z)
        f1 = fd_derivative(fn, z, 1, h=0.02)
        f2 = fd_derivative(fn, z, 2, h=0.02)
        # the 4th derivative needs a wide stencil: noise scales like eps/h^4
        f3 = fd_derivative(fn, z, 3, h=0.04, width=6)
        f4 = fd_derivative(fn, z, 4, h=0.04, width=6)
        assert np.abs(f4 - 4 * z * f2 - 2 * f1).max() < 1e-6
        quad = 4 * f1 * (z * f1 + f0 - f3) + 3 * f2 ** 2
        assert np.abs(quad).max() < 1e-6

    def test_closed_derivatives_match_fd(self):
        spec = SolitonSpec(alpha=1.3)
        h = 1e-4
        for z in (-5.0, -1.2, 0.0, 1.7, 3.5):
            f0, f1, f2, f3, f4 = profile_pack(z, spec)
            fp = (profile_pack(z + h, spec)[0] - profile_pack(z - h, spec)[0]) / (2 * h)
            assert f1 == pytest.approx(fp, rel=1e-6, abs=1e-9)
            fpp = (profile_pack(z + h, spec)[0] - 2 * f0
                   + profile_pack(z - h, spec)[0]) / h ** 2
            assert f2 == pytest.approx(fpp, rel=1e-5, abs=1e-7)


class TestCompatibility:
    def test_canonical_family_vanishes(self):
        for z in (-5.0, 0.0, 2.0):
            assert abs(compatibility_residual(z, 1.0, 1.0, 2.0)) < 1e-9

    def test_wronskian_normalization(self):
        for z in (-3.0, 0.5):
            val = compatibility_residual(z, 0.0, 0.0, 1.0)
            assert val == pytest.approx(1 / np.pi ** 2, rel=1e-9)

    def test_constancy_in_z(self):
        v1 = compatibility_residual(0.0, 2.0, 3.0, 0.0)
        assert v1 == pytest.approx(-24.0 / np.pi ** 2, rel=1e-9)
        for z in (-3.0, 3.0):
            assert compatibility_residual(z, 2.0, 3.0, 0.0) == pytest.approx(v1, rel=1e-9)
        # a list is an array of arguments, not a sequence that 4 * z repeats
        got = compatibility_residual([-3.0, 0.0, 3.0], 2.0, 3.0, 0.0)
        assert got.shape == (3,) and got == pytest.approx(v1, rel=1e-9)

    def test_ai_only_product(self):
        # beta = gamma = 0 takes the Ai-only product of profile_pack, so it
        # does no Bi work and holds past the Bi guard at z = 30
        z = np.array([-12.0, -3.0, 0.0, 2.5, 9.0, 30.0, 45.0])
        for alpha in (1.0, 0.3):
            f0, f1, f2, _, _ = profile_pack(z, SolitonSpec(alpha=alpha))
            assert_same_doubles(compatibility_residual(z, alpha, 0.0, 0.0),
                                f2 ** 2 - 4 * z * f1 ** 2 + 4 * f0 * f1)
        assert np.isfinite(compatibility_residual(45.0, 1.0, 0.0, 0.0))

    def test_random_triples(self, rng):
        for _ in range(20):
            a, b, g = rng.uniform(-2, 2, 3)
            z = rng.uniform(-6, 2)
            expected = (g * g - 4 * a * b) / np.pi ** 2
            assert compatibility_residual(z, a, b, g) == pytest.approx(
                expected, rel=1e-9, abs=1e-9)
