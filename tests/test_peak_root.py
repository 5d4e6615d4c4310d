"""The peak of the arrival density is the root of its closed-form log-slope.

The exit current is transcribed here once more, at 30 digits in mpmath,
from the packet density and the velocity field at x = d.
``exit_current_log_slope`` must agree with mpmath's numerical derivative
of ln jx and of ln|J| of that transcription, and ``peak_phi`` with
mpmath's root of that derivative, on the preset cells and on seeded
configs from ``tests/library_transcript.py``'s fuzz box.  It must also
agree with the peak bracketed on the plot grid (``tests/peak_oracle.py``)
to ``PEAK_ULPS``, and raise the errors that route raises.
"""

import math
import random
import warnings

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from library_transcript import SCHEMES, offpreset_cells, preset_cells
from peak_oracle import grid_peak

from qclock import (ArrivalScheme, PhysicsConfig, QClockError,
                    exit_current_grid, peak_phi, pi_of_phi, width)
from qclock.current import exit_current_log_slope
from qclock.errors import AmbiguousPeakError

TOTAL = ArrivalScheme.MODULUS_TOTAL_CURRENT
SCH = ArrivalScheme.MODULUS_SCHRODINGER_CURRENT
EPS = 2.0 ** -52

#: Working precision of the transcription, in decimal digits.
DIGITS = 30

#: How far, in ulp of mpmath's root, a peak may lie from that root.
PEAK_ULPS = 4


def mp_current(cfg, t):
    """(jx, jz) at x = d and time ``t``, at the working precision: the
    packet density times the drift velocity u + (d - u*t)*hbar^2*t /
    (4*m0^2*sigma0^4 + hbar^2*t^2), and times the spin velocity."""
    d, u, s0, hbar, m0, omega = map(mp.mpf, (cfg.d, cfg.u, cfg.sigma0,
                                             cfg.hbar, cfg.m0, cfg.omega))
    t = mp.mpf(t)
    sigma_t2 = s0 ** 2 + (hbar * t / (2 * m0 * s0)) ** 2
    miss = d - u * t
    rho = mp.exp(-miss ** 2 / (2 * sigma_t2)) / mp.sqrt(2 * mp.pi * sigma_t2)
    jx = rho * (u + miss * hbar ** 2 * t
                / (4 * m0 ** 2 * s0 ** 4 + hbar ** 2 * t ** 2))
    jz = -rho * hbar * miss / (2 * m0 * sigma_t2) * mp.sin(2 * omega * t)
    return jx, jz


def mp_log_slope(cfg, t, spin):
    """mpmath's derivative of ln jx, or with ``spin`` of ln|J|, at ``t``."""
    def log_modulus(s):
        jx, jz = mp_current(cfg, s)
        return mp.log(mp.hypot(jx, jz) if spin else jx)
    return mp.diff(log_modulus, mp.mpf(t))


def mp_peak(cfg, spin, guess):
    """mpmath's root, in phi, of the log-slope near ``guess``."""
    two_omega = 2 * mp.mpf(cfg.omega)
    guess = mp.mpf(guess)
    return mp.findroot(lambda phi: mp_log_slope(cfg, phi / two_omega, spin),
                       (guess, guess * (1 + mp.mpf(1e-12))))


def ulps_from_root(peak, root):
    return float(abs(mp.mpf(peak) - root)) / math.ulp(float(root))


def valid_configs(count, seed):
    return [cfg for cfg in (_config(physics)
                            for physics, _ in offpreset_cells(count, seed))
            if cfg is not None]


def _config(physics):
    try:
        return PhysicsConfig(**physics)
    except QClockError:
        return None


PRESETS = [PhysicsConfig(d=d, sigma0=sigma0) for d in (1.0, 2.0)
           for sigma0 in (1e-5, 1e-6, 1e-7, 1e-8)]


def seeded_times(cfg, rng):
    """Four times within 8 arrival widths of the peak's exit instant, and
    two within the first turn of the spin."""
    t_d = cfg.transit_time
    spread = width(cfg, t_d).sigma_t / cfg.u
    near = [abs(t_d + rng.uniform(-8.0, 8.0) * spread) for _ in range(4)]
    return near + [rng.uniform(0.0, math.pi / cfg.omega) for _ in range(2)]


@pytest.mark.parametrize("spin", [False, True], ids=["jx", "modulus"])
def test_log_slope_matches_the_transcription(spin):
    rng = random.Random(21)
    checked = 0
    with mp.workdps(DIGITS):
        for cfg in PRESETS + valid_configs(30, 1):
            for t in seeded_times(cfg, rng):
                want = mp_log_slope(cfg, t, spin)
                got = exit_current_log_slope(cfg, t, spin)
                # rounding d - u*t alone costs eps*d*u/sigma_t^2; late, the
                # exponent's drift and spreading parts cancel, so the
                # tolerance scales with their sizes as well
                sigma_t2 = width(cfg, t).sigma_t ** 2
                miss = abs(cfg.d - cfg.u * t)
                spreading = (cfg.hbar / (2.0 * cfg.m0 * cfg.sigma0)) ** 2 * t
                scale = (abs(float(want)) + (cfg.d + miss) * cfg.u / sigma_t2
                         + miss ** 2 * spreading / sigma_t2 ** 2)
                assert abs(got - want) <= 8 * EPS * scale, (cfg, t)
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("cfg", PRESETS,
                         ids=lambda c: f"d{c.d:g}-sigma0-{c.sigma0:g}")
@pytest.mark.parametrize("scheme", [TOTAL, SCH], ids=lambda s: s.value)
def test_preset_peak_is_the_root_of_the_log_slope(cfg, scheme):
    peak = peak_phi(pi_of_phi(cfg, scheme))
    with mp.workdps(DIGITS):
        root = mp_peak(cfg, scheme is TOTAL, peak)
        assert ulps_from_root(peak, root) <= PEAK_ULPS


def test_seeded_peaks_are_roots_of_the_log_slope():
    # the box's first configs with a peak, under their seeded schemes; for
    # the total current the spin part moves some roots by 10+ ulp
    checked, misses = 0, []
    with mp.workdps(DIGITS):
        for physics, scheme in offpreset_cells(40, 0):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    cfg = PhysicsConfig(**physics)
                    peak = peak_phi(pi_of_phi(cfg, scheme))
            except QClockError:
                continue
            ulps = ulps_from_root(peak, mp_peak(cfg, scheme is TOTAL, peak))
            if ulps > PEAK_ULPS:
                misses.append((physics, scheme.value, ulps))
            checked += 1
    assert checked >= 20
    assert misses == []


def peak_or_error(find, dist):
    """``find(dist)``, or the class of the typed error it raised."""
    try:
        return find(dist)
    except QClockError as exc:
        return type(exc)


def agrees(got, want):
    """Whether two ``peak_or_error`` outcomes are one error class, or
    peaks within ``PEAK_ULPS`` ulp of each other."""
    if isinstance(got, float) and isinstance(want, float):
        return abs(got - want) <= PEAK_ULPS * math.ulp(want)
    return got is want


@pytest.mark.parametrize("physics, scheme", list(preset_cells()),
                         ids=lambda v: getattr(v, "value", None))
def test_preset_peak_matches_the_grid_bracket(physics, scheme):
    dist = pi_of_phi(PhysicsConfig(**physics), scheme)
    got = peak_or_error(peak_phi, dist)
    assert isinstance(got, float)
    assert agrees(got, peak_or_error(grid_peak, dist))


def test_seeded_peaks_match_the_grid_bracket():
    # 300+ valid configs of the fuzz box under both schemes: the peaks, the
    # 2*pi cut errors and every other peak error are those of the grid
    # bracket
    configs = valid_configs(360, 23)
    outcomes, misses = [], []
    for cfg in configs:
        for scheme in SCHEMES:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    dist = pi_of_phi(cfg, scheme)
            except QClockError:
                continue
            got = peak_or_error(peak_phi, dist)
            want = peak_or_error(grid_peak, dist)
            if not agrees(got, want):
                misses.append((cfg, scheme.value, got, want))
            outcomes.append(got)
    assert len(configs) >= 300
    assert misses == []
    peaks = [p for p in outcomes if isinstance(p, float)]
    assert len(peaks) >= 380
    assert outcomes.count(AmbiguousPeakError) >= 30


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(d=st.floats(0.1, 5.0), u=log_uniform(4.0, 6.0), B=log_uniform(0.0, 2.0),
       sigma0=log_uniform(-9.0, -3.0), time_scale=log_uniform(-6.0, 3.0))
def test_schrodinger_current_is_positive_after_release(d, u, B, sigma0,
                                                       time_scale):
    # jx = rho*sigma0^2*(u + d*c^2*t)/sigma_t^2, so ln jx has a derivative
    # wherever t >= 0, and |jx| is jx
    cfg = _config({"d": d, "u": u, "B": B, "sigma0": sigma0})
    assume(cfg is not None)
    t = time_scale * cfg.transit_time
    with mp.workdps(DIGITS):
        jx, _jz = mp_current(cfg, t)
    assert jx > 0
    kernel_jx, _jz = exit_current_grid(cfg, t)
    # the kernel flushes a density below about 1e-300 to an exact 0
    assert kernel_jx > 0.0 if jx > 1e-250 else kernel_jx >= 0.0
