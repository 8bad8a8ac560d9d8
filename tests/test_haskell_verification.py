"""Layer-over-halfspace verification against the Haskell solution.

The closest analogue of the paper's Figure 2.2 closed-form check: a
vertically incident SH wave injected through the absorbing bottom of a
layered column must reproduce the exact frequency-domain surface
amplification — including the quarter-wavelength resonance — of the
Haskell transfer function.
"""

import numpy as np
import pytest

from repro.analytic import fundamental_frequency, layer_halfspace_transfer
from repro.solver import RegularGridScalarWave
from tests.oracles import plane_wave_injection


def run_column(H=200.0, vs1=400.0, vs2=2000.0, rho=2000.0, depth=1600.0,
               nz=128):
    h = depth / nz
    s = RegularGridScalarWave((2, nz), h, rho, absorbing=[(1, 1)])
    centers = s.elem_centers()
    mu = np.where(centers[:, 1] < H, rho * vs1**2, rho * vs2**2)
    dt = s.stable_dt(mu, safety=0.4)
    f0 = fundamental_frequency(H, vs1)

    def vinc(t):
        a = (np.pi * f0 * (t - 1.2 / f0)) ** 2
        return (1 - 2 * a) * np.exp(-a)

    nsteps = int(30.0 / f0 / dt)
    surf = s.surface_nodes()[0]
    u = s.march(mu, plane_wave_injection(s, mu, vinc, dt, axis=1, side=1),
                nsteps, dt, store=True)[:, surf]
    mu_ref = np.full(s.nelem, rho * vs2**2)
    u_ref = s.march(
        mu_ref, plane_wave_injection(s, mu_ref, vinc, dt, axis=1, side=1),
        nsteps, dt, store=True,
    )[:, surf]
    freqs = np.fft.rfftfreq(len(u), dt)
    U, Ur = np.fft.rfft(u), np.fft.rfft(u_ref)
    band = (
        (freqs > 0.3 * f0)
        & (freqs < 2.5 * f0)
        & (np.abs(Ur) > 0.05 * np.abs(Ur).max())
    )
    # halfspace surface motion doubles the incident wave, so the
    # amplification relative to the incident amplitude is 2 U / U_ref
    sim = 2.0 * np.abs(U[band]) / np.abs(Ur[band])
    exact = layer_halfspace_transfer(freqs[band], H, vs1, rho, vs2, rho)
    return freqs[band], sim, exact, f0


class TestHaskellVerification:
    def test_transfer_function_matches(self):
        freqs, sim, exact, f0 = run_column()
        rel = np.abs(sim - exact) / exact
        assert np.median(rel) < 0.01
        assert rel.max() < 0.05

    def test_resonance_peak_location_and_height(self):
        freqs, sim, exact, f0 = run_column()
        fpeak = freqs[np.argmax(sim)]
        np.testing.assert_allclose(fpeak, f0, rtol=0.05)
        # peak amplification = 2 Z2/Z1 = 2 * 2000/400 = 10
        np.testing.assert_allclose(sim.max(), 10.0, rtol=0.05)

    def test_injection_requires_absorbing_face(self):
        s = RegularGridScalarWave((2, 8), 10.0, 1000.0, absorbing=[(1, 1)])
        mu = np.full(s.nelem, 1e9)
        with pytest.raises(ValueError):
            plane_wave_injection(s, mu, lambda t: 0.0, 1e-3, axis=1, side=0)
