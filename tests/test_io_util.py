"""Tests for seismograms, snapshots, filters, timing, and flops."""

import numpy as np
import pytest

from repro.io.seismogram import ReceiverArray, Seismograms
from repro.io.snapshots import SnapshotRecorder
from repro.mesh import uniform_hex_mesh
from repro.telemetry import CategoryCounter
from repro.util import Timer
from repro.util.filters import lowpass


class TestLowpass:
    def test_removes_high_frequency(self):
        dt = 0.01
        t = np.arange(0, 10, dt)
        x = np.sin(2 * np.pi * 0.5 * t) + np.sin(2 * np.pi * 20.0 * t)
        y = lowpass(x, dt, 2.0)
        # the 20 Hz component is gone, the 0.5 Hz one survives
        resid = y - np.sin(2 * np.pi * 0.5 * t)
        assert np.abs(resid[100:-100]).max() < 0.05

    def test_zero_phase(self):
        """filtfilt must not shift the peak of a smooth pulse."""
        dt = 0.01
        t = np.arange(0, 4, dt)
        x = np.exp(-(((t - 2.0) / 0.3) ** 2))
        y = lowpass(x, dt, 3.0)
        assert abs(t[np.argmax(y)] - 2.0) < 0.03

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            lowpass(np.zeros(100), 0.01, 100.0)  # above Nyquist
        with pytest.raises(ValueError):
            lowpass(np.zeros(100), 0.01, 0.0)

    def test_axis_handling(self):
        x = np.random.default_rng(0).standard_normal((3, 2, 500))
        y = lowpass(x, 0.01, 5.0)
        assert y.shape == x.shape


class TestSeismograms:
    def _make(self, scale=1.0):
        rng = np.random.default_rng(0)
        data = scale * rng.standard_normal((2, 3, 200))
        return Seismograms(data=data, dt=0.01)

    def test_times(self):
        s = self._make()
        assert len(s.times) == 200
        np.testing.assert_allclose(s.times[1] - s.times[0], 0.01)

    def test_lowpassed_returns_new(self):
        s = self._make()
        f = s.lowpassed(5.0)
        assert f.data.shape == s.data.shape
        assert not np.allclose(f.data, s.data)

    def test_misfit(self):
        a = self._make()
        b = Seismograms(data=a.data.copy(), dt=0.01)
        assert a.misfit(b) == 0.0
        c = Seismograms(data=2 * a.data, dt=0.01)
        np.testing.assert_allclose(a.misfit(c), 0.5)

    def test_receiver_array_snaps_to_nodes(self):
        mesh = uniform_hex_mesh(4, L=1000.0)
        rec = ReceiverArray(mesh, np.array([[260.0, 510.0, 0.0]]))
        np.testing.assert_allclose(rec.positions[0], [250.0, 500.0, 0.0])
        assert rec.allocate(3, 10).shape == (1, 3, 10)


class TestSnapshotRecorder:
    def test_records_on_stride(self):
        rec = SnapshotRecorder(np.array([0, 1, 2]), every=5)
        field = np.ones((10, 3))
        for k in range(12):
            rec.maybe_record(k, k * 0.1, field * k)
        assert len(rec.frames) == 3  # k = 0, 5, 10
        np.testing.assert_allclose(rec.times, [0.0, 0.5, 1.0])
        arr = rec.as_array()
        assert arr.shape == (3, 3)
        # magnitude of (5,5,5) rows
        np.testing.assert_allclose(arr[1], np.sqrt(3) * 5)

    def test_scalar_field(self):
        rec = SnapshotRecorder(np.array([1]), every=1)
        rec.maybe_record(0, 0.0, np.array([1.0, -2.0, 3.0]))
        np.testing.assert_allclose(rec.as_array(), [[2.0]])

    def test_empty(self):
        rec = SnapshotRecorder(np.array([0]), every=1)
        assert rec.as_array().shape == (0, 0)


class TestTimerAndFlops:
    def test_timer_measures(self):
        import time

        with Timer() as t:
            time.sleep(0.01)
        assert t.seconds >= 0.009

    def test_flop_counter(self):
        c = CategoryCounter()
        c.add("matvec", 100)
        c.add("matvec", 50)
        c.add("update", 10)
        assert c.total == 160
        d = CategoryCounter()
        d.add("matvec", 1)
        c.merge(d)
        assert c.counts["matvec"] == 151


def test_solver_and_service_imports_leave_scipy_signal_unloaded():
    """``scipy.signal`` is most of a solver import; only a filter needs it."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH", "")])
    )
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.core.simulation, repro.service.engine; "
         "assert 'scipy.signal' not in sys.modules"],
        env=env, check=True,
    )
