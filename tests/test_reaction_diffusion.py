"""Tests for the periodic damped wave-growth solvers."""

import math

import numpy as np
import pytest

from mittag_kinetics import special_functions
from mittag_kinetics.errors import DomainError, InstabilityWarning, StabilityError
from mittag_kinetics.reaction_diffusion import (
    RDProblem,
    rd_solve_fd,
    rd_solve_spectral,
)

L = 2.0 * math.pi


def grid(m):
    return np.arange(m) * (L / m)


def make_problem(m=32, a=0.0, nu2=1.0, xi=0.0, n0=None, n1=None, times=(1.0,)):
    x = grid(m)
    if n0 is None:
        n0 = np.cos(x)
    if n1 is None:
        n1 = np.zeros(m)
    return RDProblem(a=a, nu2=nu2, xi=xi, length=L, n0=n0, n1=n1, times=times)


class TestRDProblem:
    def test_validation(self):
        with pytest.raises(DomainError):
            make_problem(nu2=0.0)
        with pytest.raises(DomainError):
            RDProblem(a=0.0, nu2=1.0, xi=0.0, length=0.0, n0=np.zeros(4),
                      n1=np.zeros(4), times=(1.0,))
        with pytest.raises(DomainError):
            make_problem(m=48)
        with pytest.raises(DomainError):
            RDProblem(a=0.0, nu2=1.0, xi=0.0, length=L, n0=np.zeros(8),
                      n1=np.zeros(4), times=(1.0,))
        with pytest.raises(DomainError):
            make_problem(n0=np.full(32, np.nan))
        with pytest.raises(DomainError):
            make_problem(times=())
        with pytest.raises(DomainError):
            make_problem(times=(1.0, 0.5))
        with pytest.raises(DomainError):
            make_problem(times=(-1.0, 0.5))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["a", "nu2", "xi", "length"])
    def test_non_finite_refused(self, field, value):
        kwargs = dict(a=0.0, nu2=1.0, xi=0.0, length=L, n0=np.zeros(4), n1=np.zeros(4),
                      times=(1.0,))
        kwargs[field] = value
        with pytest.raises(DomainError, match="finite"):
            RDProblem(**kwargs)

    @pytest.mark.parametrize("times", [(math.nan,), (0.5, math.nan), (0.5, math.inf)])
    def test_non_finite_times_refused(self, times):
        with pytest.raises(DomainError, match="finite"):
            make_problem(times=times)

    def test_geometry(self):
        pr = make_problem(m=8)
        assert pr.modes == 8
        assert pr.x == pytest.approx(np.arange(8) * L / 8)
        table = pr.mode_table()
        assert len(table) == 5
        assert table[1].wavenumber == pytest.approx(2.0 * math.pi / L)
        assert table[2].b == pytest.approx(pr.nu2 * table[2].wavenumber ** 2 - pr.xi**2)


class TestSpectral:
    def test_undamped_cosine_dispersion(self):
        times = (0.5, 1.0, 2.0)
        sol = rd_solve_spectral(make_problem(times=times))
        x = grid(32)
        for row, t in enumerate(times):
            assert np.abs(sol.field[row] - math.cos(t) * np.cos(x)).max() < 1e-10

    def test_velocity_kernel(self):
        # pure initial velocity in mode k: N = sin(k t)/k * profile
        m, k = 32, 3
        x = grid(m)
        pr = make_problem(m=m, n0=np.zeros(m), n1=np.cos(k * x), times=(0.7,))
        sol = rd_solve_spectral(pr)
        want = math.sin(k * 0.7) / k * np.cos(k * x)
        assert np.abs(sol.field[0] - want).max() < 1e-10

    def test_damped_mode_closed_form(self):
        a, k, t = 0.5, 2, 1.5
        x = grid(32)
        pr = make_problem(a=a, n0=np.cos(k * x), n1=0.3 * np.cos(k * x), times=(t,))
        sol = rd_solve_spectral(pr)
        om = math.sqrt(k * k - a * a / 4.0)
        amp = math.exp(-a * t / 2.0) * (
            math.cos(om * t) + (0.3 + a / 2.0) / om * math.sin(om * t)
        )
        assert np.abs(sol.field[0] - amp * np.cos(k * x)).max() < 1e-6

    def test_growing_mode_closed_form(self):
        # xi large enough that the k=1 mode has b = -3: cosh growth
        t = 1.0
        with pytest.warns(InstabilityWarning):
            sol = rd_solve_spectral(make_problem(xi=2.0, times=(t,)))
        x = grid(32)
        want = math.cosh(math.sqrt(3.0) * t) * np.cos(x)
        assert np.abs(sol.field[0] - want).max() < 1e-6

    def test_time_zero_row(self):
        pr = make_problem(times=(0.0, 1.0))
        sol = rd_solve_spectral(pr)
        assert np.array_equal(sol.field[0], pr.n0)

    def test_zero_data(self):
        m = 16
        pr = make_problem(m=m, n0=np.zeros(m), n1=np.zeros(m), times=(1.0, 2.0))
        sol = rd_solve_spectral(pr)
        assert np.all(sol.field == 0.0)

    def test_mode_decoupling(self):
        m, k = 64, 5
        x = grid(m)
        pr = make_problem(m=m, n0=np.cos(k * x) + 0.5 * np.sin(k * x), times=(0.9,))
        sol = rd_solve_spectral(pr)
        spec = np.fft.rfft(sol.field[0])
        energy = np.abs(spec)
        leak = np.delete(energy, k).max()
        assert leak <= 1e-12 * energy[k]

    def test_realness(self):
        m = 32
        x = grid(m)
        pr = make_problem(
            m=m, a=0.3, xi=0.4,
            n0=np.cos(x) + 0.2 * np.sin(2 * x),
            n1=0.1 * np.cos(3 * x), times=(1.3,),
        )
        sol = rd_solve_spectral(pr)
        assert sol.field.dtype == np.float64
        full = np.fft.fft(sol.field[0])
        sym = np.abs(full - np.conj(full[(-np.arange(m)) % m])).max()
        assert sym <= 1e-12 * np.linalg.norm(sol.field[0])

    def test_every_mode_at_m64_without_mp_series(self, monkeypatch):
        # all 32 modes live at two times: the outer series need about 1,700
        # values E^(r+1)_(2,mu)(z) with integer r and mu and z down to -1024.
        # The float sum or the hypergeometric stage gives each of them; the
        # mpmath series rerun, which once made 1,169 of them, is never used
        calls = []
        mp_sum = special_functions._mp_sum

        def counting(*args):
            calls.append(args)
            return mp_sum(*args)

        monkeypatch.setattr(special_functions, "_mp_sum", counting)
        m, a, nu2, xi = 64, 0.5, 1.0, 0.2
        x = grid(m)
        rng = np.random.default_rng(64)
        n0, n1 = np.zeros(m), np.zeros(m)
        for k in range(1, m // 2 + 1):
            a0, a1 = rng.normal(size=2)
            p0, p1 = rng.uniform(0.0, 2.0 * math.pi, 2)
            n0 += a0 * np.cos(k * x + p0) / k
            n1 += a1 * np.cos(k * x + p1) / k
        pr = RDProblem(a=a, nu2=nu2, xi=xi, length=L, n0=n0, n1=n1, times=(0.5, 1.0))
        sol = rd_solve_spectral(pr)
        assert calls == []
        # each mode against its damped oscillator in elementary functions
        c0, c1 = np.fft.rfft(n0), np.fft.rfft(n1)
        for row, t in enumerate(pr.times):
            om = np.sqrt((nu2 * np.arange(m // 2 + 1) ** 2 - xi**2 - a * a / 4.0).astype(complex))
            spec = math.exp(-a * t / 2.0) * (
                c0 * np.cos(om * t) + (c1 + a * c0 / 2.0) * np.sin(om * t) / om
            )
            assert np.abs(sol.field[row] - np.fft.irfft(spec, n=m)).max() < 1e-12

    def test_metadata_lists_retained_modes(self):
        m, k = 32, 4
        x = grid(m)
        pr = make_problem(m=m, n0=np.cos(k * x), times=(1.0,))
        sol = rd_solve_spectral(pr)
        assert [info.index for info in sol.mode_metadata] == [k]
        assert sol.mode_metadata[0].b == pytest.approx(k * k * 1.0)


class TestFiniteDifference:
    def test_stability_guard(self):
        pr = make_problem(m=64)
        with pytest.raises(StabilityError):
            rd_solve_fd(pr, dt=0.5)
        with pytest.raises(DomainError):
            rd_solve_fd(pr, dt=-0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_step_refused(self, dt):
        # NaN once reached int(round(t / dt)) and raised an untyped ValueError
        with pytest.raises(DomainError, match="time step"):
            rd_solve_fd(make_problem(m=16), dt)

    def test_overflow_refused(self):
        # a field that leaves float range is refused, not returned as inf
        pr = make_problem(m=16, n0=np.full(16, 1e308), xi=3.0, times=(1.0,))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
            rd_solve_fd(pr, dt=0.1)

    def test_time_alignment(self):
        pr = make_problem(m=16, times=(1.0,))
        with pytest.raises(DomainError):
            rd_solve_fd(pr, dt=0.3)

    def test_zero_data(self):
        m = 16
        pr = make_problem(m=m, n0=np.zeros(m), n1=np.zeros(m), times=(1.0,))
        sol = rd_solve_fd(pr, dt=0.1)
        assert np.all(sol.field == 0.0)

    def test_single_mode_dispersion(self):
        pr = make_problem(m=64, times=(1.0,))
        sol = rd_solve_fd(pr, dt=0.01)
        x = grid(64)
        assert np.abs(sol.field[0] - math.cos(1.0) * np.cos(x)).max() < 5e-4

    def test_determinism(self):
        pr = make_problem(m=32, a=0.5, xi=0.3, times=(0.5, 1.0))
        a = rd_solve_fd(pr, dt=0.05)
        b = rd_solve_fd(pr, dt=0.05)
        assert np.array_equal(a.field, b.field)

    def test_convergence_order(self):
        a, nu2, xi2 = 0.5, 1.0, 0.25
        t_end = 2.0
        errs = []
        for m in (16, 32, 64):
            x = grid(m)
            pr = RDProblem(
                a=a, nu2=nu2, xi=math.sqrt(xi2), length=L,
                n0=np.cos(x) + 0.4 * np.cos(2 * x),
                n1=0.2 * np.sin(x), times=(t_end,),
            )
            ref = rd_solve_spectral(pr)
            dt = t_end / int(np.ceil(t_end / (0.5 * L / m)))
            fd = rd_solve_fd(pr, dt)
            errs.append(np.abs(fd.field[0] - ref.field[0]).max())
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert min(orders) >= 1.8
