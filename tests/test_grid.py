import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdvlab import grid as grid_module
from ckdvlab.errors import MeanValueError, SingularDispersion
from ckdvlab.grid import (RealField, apply_b2, b2_multiplier, dispersion_omega_squared,
                          make_grid, spectral_antiderivative, spectral_derivative)

from conftest import fft_wavenumbers, l2_spectral, random_zero_mean_field


class TestMakeGrid:
    def test_standard_layout(self):
        g = make_grid(8, 2 * np.pi, 0.0)
        assert np.allclose(g.nodes, -np.pi + np.pi / 4 * np.arange(8))
        # the real-FFT modes m = 0..n/2; the Nyquist wavenumber is +pi n/L
        assert np.array_equal(g.core.k, [0, 1, 2, 3, 4])

    def test_max_wavenumber(self):
        g = make_grid(8, 4 * np.pi, 0.0)
        assert np.abs(g.core.k).max() == pytest.approx(2.0)
        assert np.abs(g.core.k).max() == pytest.approx(np.pi * g.n / g.length)

    def test_rejects_odd_small_or_bad_length(self):
        with pytest.raises(ValueError):
            make_grid(7, 2 * np.pi)
        with pytest.raises(ValueError):
            make_grid(4, 2 * np.pi)
        with pytest.raises(ValueError):
            make_grid(16, 0.0)

    def test_spacing(self):
        g = make_grid(32, 5.0, 2.0)
        assert np.allclose(np.diff(g.nodes), 5.0 / 32)
        assert g.nodes[0] == pytest.approx(2.0 - 2.5)

    def test_equal_grids_hash_equal(self):
        # a grid is its layout (n, length, center); its nodes follow from it
        a, b = make_grid(8, 1.0), make_grid(8, 1.0)
        assert a is not b and a.nodes is not b.nodes
        assert a == b and hash(a) == hash(b)
        assert {a: "first"}[b] == "first"
        assert len({a, b}) == 1
        for other in (make_grid(10, 1.0), make_grid(8, 2.0), make_grid(8, 1.0, 0.5)):
            assert a != other
            assert len({a, other}) == 2
        assert (a == 3) is False


class TestDerivative:
    def test_sin_first(self, grid64):
        f = RealField(grid=grid64, values=np.sin(grid64.nodes))
        df = spectral_derivative(f, 1)
        assert np.abs(df.values - np.cos(grid64.nodes)).max() < 1e-13

    def test_sin_third(self, grid64):
        # round-off in off modes is amplified by k_max^3
        f = RealField(grid=grid64, values=np.sin(grid64.nodes))
        d3 = spectral_derivative(f, 3)
        assert np.abs(d3.values + np.cos(grid64.nodes)).max() < 1e-11

    def test_constant_any_order(self, grid64):
        f = RealField(grid=grid64, values=np.ones(grid64.n))
        for order in (1, 2, 3, 4):
            assert spectral_derivative(f, order).sup() < 1e-14

    def test_bad_order(self, grid64):
        f = RealField(grid=grid64, values=np.sin(grid64.nodes))
        with pytest.raises(ValueError):
            spectral_derivative(f, 5)

    def test_linearity(self, grid64, rng):
        f = random_zero_mean_field(grid64, rng)
        g = random_zero_mean_field(grid64, rng)
        a, b = 1.7, -0.3
        combo = RealField(grid=grid64, values=a * f.values + b * g.values)
        for op in (lambda x: spectral_derivative(x, 2), spectral_antiderivative,
                   apply_b2):
            lhs = op(combo)
            rhs = a * op(f).values + b * op(g).values
            assert np.abs(lhs.values - rhs).max() < 1e-12


class TestAntiderivative:
    def test_cos_to_sin(self, grid64):
        f = RealField(grid=grid64, values=np.cos(grid64.nodes))
        g = spectral_antiderivative(f)
        assert np.abs(g.values - np.sin(grid64.nodes)).max() < 1e-13

    def test_zero_field(self, grid64):
        g = spectral_antiderivative(RealField(grid=grid64, values=np.zeros(grid64.n)))
        assert g.sup() == 0.0

    def test_constant_rejected(self, grid64):
        with pytest.raises(MeanValueError):
            spectral_antiderivative(RealField(grid=grid64, values=np.ones(grid64.n)))

    def test_inverse_of_derivative(self, grid256, rng):
        f = random_zero_mean_field(grid256, rng)
        back = spectral_derivative(spectral_antiderivative(f), 1)
        assert np.abs(back.values - f.values).max() < 1e-12 * f.sup()

    def test_result_zero_mean(self, grid256, rng):
        f = random_zero_mean_field(grid256, rng)
        assert abs(spectral_antiderivative(f).mean()) < 1e-14


class TestB2:
    def test_single_mode(self, grid64):
        f = RealField(grid=grid64, values=np.cos(grid64.nodes))
        out = apply_b2(f)
        assert np.abs(out.values + 0.5 * np.cos(grid64.nodes)).max() < 1e-13

    def test_constant_killed(self, grid64):
        out = apply_b2(RealField(grid=grid64, values=np.full(grid64.n, 3.0)))
        assert out.sup() < 1e-14

    def test_norm_bound(self, grid256, rng):
        for _ in range(5):
            f = random_zero_mean_field(grid256, rng, kmax=20)
            assert apply_b2(f).l2() <= f.l2() * (1 + 1e-12)

    def test_output_zero_mean(self, grid256, rng):
        f = RealField(grid=grid256, values=rng.standard_normal(grid256.n))
        assert abs(apply_b2(f).mean()) < 1e-13

    def test_commutes_with_derivative(self, grid256, rng):
        f = random_zero_mean_field(grid256, rng, kmax=12)
        ab = spectral_derivative(apply_b2(f), 2)
        ba = apply_b2(spectral_derivative(f, 2))
        assert np.abs(ab.values - ba.values).max() < 1e-11 * max(ab.sup(), 1)


class TestSpectralCore:
    def test_one_core_per_layout(self):
        a = make_grid(64, 10.0)
        assert a.core is make_grid(64, 10.0, center=3.0).core
        assert a.core is not make_grid(64, 20.0).core
        assert a.core is not make_grid(128, 10.0).core

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([8, 10, 64, 126, 256, 512, 1000]),
           length=st.floats(0.5, 2000.0),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-6, 1e3))
    def test_real_fft_b2_matches_complex_formula(self, n, length, seed, scale):
        g = make_grid(n, length)
        f = scale * np.random.default_rng(seed).standard_normal(n)
        want = np.fft.ifft(b2_multiplier(fft_wavenumbers(g)) * np.fft.fft(f)).real
        assert np.abs(g.core.b2(f) - want).max() <= 1e-14 * np.abs(f).max()

    @pytest.mark.parametrize("n", [8, 10, 64, 126])
    def test_real_fft_operators_match_complex_oracle(self, n):
        g = make_grid(n, 7.0)
        core, k = g.core, fft_wavenumbers(g)
        assert np.array_equal(core.k, np.abs(k[: n // 2 + 1]))
        mask = np.abs(k) <= (2.0 / 3.0) * (np.pi * n / g.length)
        assert np.array_equal(core.dealias_mask, mask[: n // 2 + 1].astype(float))
        assert core.dealias_mask[n // 2] == 0.0

        def oracle(sym, f):
            return np.fft.ifft(sym * np.fft.fft(f)).real

        inv_ik = np.zeros(n, dtype=complex)
        inv_ik[k != 0] = 1.0 / (1j * k[k != 0])
        inv_ik[n // 2] = 0.0
        nyquist = (-1.0) ** np.arange(n)
        f = np.random.default_rng(n).standard_normal(n)
        f -= f.mean()
        for order in (1, 2, 3, 4):
            sym = (1j * k) ** order
            if order % 2 == 1:
                sym[n // 2] = 0.0
            want = oracle(sym, f)
            tol = 1e-14 * n * np.abs(sym).max() * np.abs(f).max()
            assert np.abs(core.derivative(f, order) - want).max() <= tol, order
            # an odd derivative zeroes the Nyquist mode; an even one scales it
            nyq = core.derivative(nyquist, order)
            assert np.abs(nyq - sym[n // 2].real * nyquist).max() <= tol, order
        assert np.abs(core.antiderivative(f) - oracle(inv_ik, f)).max() <= 1e-14 * n
        assert np.abs(core.antiderivative(nyquist)).max() <= 1e-14 * n
        for shift in (0.3, -2.9):
            phase = np.exp(-1j * k * shift)
            assert np.abs(core.shift(f, shift) - oracle(phase, f)).max() <= 1e-14 * n
            # the Nyquist mode moves by the real factor cos(k_N shift)
            want = np.cos(np.pi * n / g.length * shift) * nyquist
            assert np.abs(core.shift(nyquist, shift) - want).max() <= 1e-14 * n
        want = oracle(b2_multiplier(k), f)
        assert np.abs(core.b2(f) - want).max() <= 1e-14 * np.abs(f).max()

    @pytest.mark.parametrize("shift", [0.0, 0.3, -2.9, 11.0])
    def test_shift_moves_a_resolved_mode_exactly(self, grid64, shift):
        k = 3.0  # 3 modes on 2*pi: the shift is exact to round-off
        f = np.sin(k * grid64.nodes) + 0.5 * np.cos(2 * k * grid64.nodes)
        want = np.sin(k * (grid64.nodes - shift)) + 0.5 * np.cos(2 * k * (grid64.nodes - shift))
        assert np.abs(grid64.core.shift(f, shift) - want).max() <= 1e-13


class TestTransformHelpers:
    """grid's private transforms equal np.fft's bit for bit."""

    def test_helpers_call_the_gufuncs(self):
        # a numpy without numpy.fft._pocketfft_umath leaves the np.fft fallback
        for kind in ("rfft", "irfft", "fft", "ifft"):
            assert getattr(grid_module, f"_{kind}") is not getattr(np.fft, kind), kind

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    # the workloads' sizes, and an odd one for rfft_n_odd
    @pytest.mark.parametrize("n", [8, 512, 4096, 9])
    def test_bit_equal_to_np_fft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        z = x + 1j * rng.standard_normal(n)
        spectrum = np.fft.rfft(x)
        self.assert_same(grid_module._rfft(x), spectrum)
        out = np.empty(n // 2 + 1, dtype=complex)
        assert grid_module._rfft(x, out=out) is out
        self.assert_same(out, spectrum)
        self.assert_same(grid_module._irfft(spectrum, n), np.fft.irfft(spectrum, n))
        real_out = np.empty(n)
        assert grid_module._irfft(spectrum, n, out=real_out) is real_out
        self.assert_same(real_out, np.fft.irfft(spectrum, n))
        # _fft and _ifft always write into the caller's buffer: the residual
        # workspace transforms into its own, from real fields and from
        # strided real parts
        buf = np.empty(n, dtype=complex)
        for a in (x, z, z.real):
            assert grid_module._fft(a, out=buf) is buf
            self.assert_same(buf, np.fft.fft(a))
        assert grid_module._ifft(z, out=buf) is buf
        self.assert_same(buf, np.fft.ifft(z))
        # in place, as the workspace transforms each derivative's product
        buf[:] = z
        assert grid_module._ifft(buf, out=buf) is buf
        self.assert_same(buf, np.fft.ifft(z))
        # a (rows, n) block in place, as the workspace turns a field's
        # derivatives: each row as if transformed alone
        block = z * np.arange(1, 5)[:, None]
        want = [np.fft.ifft(row) for row in block]
        assert grid_module._ifft(block, out=block) is block
        for got_row, want_row in zip(block, want, strict=True):
            self.assert_same(got_row, want_row)

    def test_b2_returns_a_fresh_array_each_call(self, grid64, rng):
        # the resolvent keeps prev and h across sweeps
        core = grid64.core
        x, y = rng.standard_normal((2, grid64.n))
        first = core.b2(x)
        kept = first.copy()
        second = core.b2(y)
        assert not np.shares_memory(first, second)
        for result in (first, second):
            assert not np.shares_memory(result, core._b2_spectrum)
            assert not np.shares_memory(result, x) and not np.shares_memory(result, y)
        assert np.array_equal(first, kept)


class TestDispersion:
    def test_reference_value(self):
        assert dispersion_omega_squared(1.0, -1) == pytest.approx(0.5, abs=1e-15)

    def test_zero_wavenumber(self):
        assert dispersion_omega_squared(0.0, 1) == 0.0
        assert dispersion_omega_squared(0.0, -1) == 0.0

    def test_singular(self):
        with pytest.raises(SingularDispersion):
            dispersion_omega_squared(1.0, +1)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            dispersion_omega_squared(1.0, 2)


class TestFieldNorms:
    def test_parseval(self, grid256, rng):
        f = RealField(grid=grid256, values=rng.standard_normal(grid256.n))
        assert f.l2() == pytest.approx(l2_spectral(f), rel=1e-12)

    def test_rejects_nonfinite(self, grid64):
        vals = np.zeros(grid64.n)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            RealField(grid=grid64, values=vals)

    def test_immutable(self, grid64):
        f = RealField(grid=grid64, values=np.sin(grid64.nodes))
        with pytest.raises(ValueError):
            f.values[0] = 7.0
