"""Bit-identity of the surrogate PHY and of frame airtimes.

``_reference_frame_outcome`` is the surrogate's original per-frame
model, surface by surface: one ``searchsorted`` for grid weights, then
five independent lookups (log hazard, errored log-BER mean and std,
clean log-estimate mean and std), ``np.clip``, ``np.average`` and
``np.mean`` as first written.
:meth:`repro.phy.backend.SurrogatePhyBackend.frame_outcome` must match
it **byte for byte**: equal float ``repr``s, equal hint and error-mask
bytes, and the same generator state afterwards, so every campaign
digest and golden built on the surrogate stays put.

The cases cover every rate; 1-64 trajectory samples, including more
samples than information bits (an 8-bit payload carries 40), so
zero-bit segments are dropped; SNRs from -20 to 50 dB plus exact grid
points, both grid ends, signed zeros and ``-inf`` (no signal); payloads
of 1-12000 bits; no interference mask, an all-true one and a random
one; and every ``need_hints`` x ``need_error_mask`` combination.  A
second table, the default one shifted so its grid starts at exactly
0 dB, puts a signed zero on the grid's first point.

``_reference_symbols`` recomputes a frame's OFDM symbol count from the
802.11 puncturing patterns; ``Transceiver.frame_airtime`` and
``frame_layout`` must agree with it on every mode, both rate tables,
postamble on and off, 1, 2 or 4 preamble symbols and payloads from 8
to 12000 bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.backend import DETECTION_SNR_DB, SurrogatePhyBackend
from repro.phy.calibrate import CalibrationTable
from repro.phy.calibration import default_table
from repro.phy.convcode import PUNCTURE_PATTERNS
from repro.phy.frame import HEADER_BITS
from repro.phy.rates import MODES, RATE_TABLE
from repro.phy.transceiver import Transceiver


# -- the original surrogate, surface by surface ----------------------------

def _grid_weights(table, snr_db):
    x = np.asarray(snr_db, dtype=np.float64)
    g = table.snr_grid_db
    i1 = np.clip(np.searchsorted(g, x), 1, g.size - 1)
    i0 = i1 - 1
    frac = np.clip((x - g[i0]) / (g[i1] - g[i0]), 0.0, 1.0)
    return i0, i1, frac


def _at(surface_row, weights):
    i0, i1, frac = weights
    return surface_row[i0] * (1.0 - frac) + surface_row[i1] * frac


def _hazard_at(table, rate_index, weights):
    return 10.0 ** _at(table._log_hazard[rate_index], weights)


def _errored_log_ber_at(table, rate_index, weights):
    return _at(table._errored_log_ber[rate_index], weights)


def _errored_log_ber_std_at(table, rate_index, weights):
    return _at(table._errored_log_ber_std[rate_index], weights)


def _clean_log_est_at(table, rate_index, weights):
    return _at(table._clean_log_est[rate_index], weights)


def _clean_log_est_std_at(table, rate_index, weights):
    return _at(table._clean_log_est_std[rate_index], weights)


def _split_bits(n_info, n_samples):
    edges = np.round(np.linspace(0, n_info, n_samples + 1))
    return np.diff(edges).astype(np.int64)


def _reference_frame_outcome(table, rate_index, snr_db_per_symbol,
                             n_payload_bits, rng, interference_mask=None,
                             need_hints=True, need_error_mask=False):
    """The surrogate's frame model as first written; returns a dict."""
    trajectory = np.atleast_1d(
        np.asarray(snr_db_per_symbol, dtype=np.float64))
    effective = trajectory
    if interference_mask is not None:
        mask = np.atleast_1d(np.asarray(interference_mask, dtype=bool))
        if mask.shape != trajectory.shape:
            raise ValueError(
                "interference mask must match the SNR trajectory")
        if mask.any():
            effective = trajectory.copy()
            effective[mask] = table.interference_snr_db(rate_index)

    n_info = max(-(-int(n_payload_bits) // 8) * 8, 8) + 32
    bits = _split_bits(n_info, effective.size)
    keep = bits > 0
    if not np.all(keep):
        effective = effective[keep]
        bits = bits[keep]

    weights = _grid_weights(table, effective)
    lam = _hazard_at(table, rate_index, weights)
    p_fail = -np.expm1(-lam * bits)
    failed = rng.random(effective.size) < p_fail
    any_failed = bool(failed.any())

    errors = np.zeros(effective.size, dtype=np.int64)
    if any_failed:
        seg_log_ber = rng.normal(
            _errored_log_ber_at(table, rate_index, weights),
            np.maximum(_errored_log_ber_std_at(table, rate_index,
                                               weights), 1e-6))
        seg_ber = np.minimum(10.0 ** seg_log_ber, 0.5)
        draw = rng.binomial(bits, np.where(failed, seg_ber, 0.0))
        errors = np.where(failed, np.maximum(draw, 1), 0)
    n_errors = int(errors.sum())

    snr_est = float(trajectory[0] + table.snr_bias(trajectory[0])
                    + rng.normal(0.0, table.snr_std(trajectory[0])))
    detected = bool(snr_est >= DETECTION_SNR_DB)

    clean_level = 10.0 ** _clean_log_est_at(table, rate_index, weights)
    if any_failed:
        level = np.where(
            failed,
            np.maximum(errors / np.maximum(bits, 1), 1e-12),
            clean_level)
        sigma = table.est_noise_decades
    else:
        level = clean_level
        sigma = float(np.mean(
            _clean_log_est_std_at(table, rate_index, weights)))
    noise = 10.0 ** rng.normal(0.0, max(sigma, 1e-6))
    level = np.minimum(level * noise, 0.5)

    hints = None
    if need_hints:
        mu = table.log_p_mean(rate_index, effective)
        shape_sigma = np.maximum(
            table.log_p_std(rate_index, effective), 1e-6)
        log_p = rng.normal(np.repeat(mu, bits),
                           np.repeat(shape_sigma, bits))
        p = 10.0 ** np.clip(log_p, -12.0, np.log10(0.5))
        sums = np.add.reduceat(
            p, np.concatenate(([0], np.cumsum(bits)[:-1])))
        means = sums / np.maximum(bits, 1)
        scale = np.where(means > 0,
                         level / np.maximum(means, 1e-300), 1.0)
        p = np.clip(p * np.repeat(scale, bits), 1e-12, 0.5)
        hints = np.log1p(-p) - np.log(p)
        ber_est = float(np.mean(p))
    else:
        ber_est = float(np.average(level, weights=bits))
    ber_est = min(ber_est, 0.5)

    error_mask = None
    if need_error_mask:
        error_mask = np.zeros(n_info, dtype=bool)
        if any_failed:
            starts = np.concatenate(([0], np.cumsum(bits)[:-1]))
            for seg in np.flatnonzero(errors):
                pos = rng.choice(int(bits[seg]), int(errors[seg]),
                                 replace=False)
                error_mask[starts[seg] + pos] = True

    return dict(detected=detected, delivered=detected and n_errors == 0,
                ber_true=n_errors / n_info, ber_est=ber_est,
                snr_db=snr_est, n_bit_errors=n_errors, n_info_bits=n_info,
                hints=hints, error_mask=error_mask)


# -- comparison -------------------------------------------------------------

def _fingerprint(out):
    """Every field of an outcome, floats by ``repr`` and arrays by bytes."""
    if not isinstance(out, dict):
        out = {name: getattr(out, name) for name in (
            "detected", "delivered", "ber_true", "ber_est", "snr_db",
            "n_bit_errors", "n_info_bits", "hints", "error_mask")}
    return {name: (None if value is None
                   else (value.dtype.str, value.shape, value.tobytes())
                   if isinstance(value, np.ndarray)
                   else (type(value).__name__, repr(value)))
            for name, value in out.items()}


def _shifted_table():
    """The default table with its grid moved to start at exactly 0 dB."""
    data = default_table().to_dict()
    start = data["snr_grid_db"][0]
    data["snr_grid_db"] = [g - start for g in data["snr_grid_db"]]
    return CalibrationTable.from_dict(data)


TABLES = {"default": default_table(), "grid-from-0dB": _shifted_table()}
BACKENDS = {name: SurrogatePhyBackend(table)
            for name, table in TABLES.items()}


def _snr_values(table):
    grid = table.snr_grid_db
    special = [float(grid[0]), float(grid[-1]), 0.0, -0.0, -np.inf,
               float(np.nextafter(grid[0], -np.inf)),
               float(np.nextafter(grid[-1], np.inf))]
    return st.one_of(
        st.floats(-20.0, 50.0),
        st.sampled_from([float(g) for g in grid]),
        st.sampled_from(special))


@st.composite
def _cases(draw, table):
    n_samples = draw(st.integers(1, 64))
    snr = draw(st.lists(_snr_values(table), min_size=n_samples,
                        max_size=n_samples))
    mask_kind = draw(st.sampled_from(("none", "all", "random")))
    if mask_kind == "none":
        mask = None
    elif mask_kind == "all":
        mask = np.ones(n_samples, dtype=bool)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=n_samples,
                                      max_size=n_samples)))
    return dict(
        rate_index=draw(st.integers(0, table.n_rates - 1)),
        snr=np.array(snr, dtype=np.float64),
        n_payload_bits=draw(st.one_of(st.integers(1, 12000),
                                      st.integers(1, 64))),
        mask=mask,
        need_hints=draw(st.booleans()),
        need_error_mask=draw(st.booleans()),
        seed=draw(st.integers(0, 2**63 - 1)))


def _check(table_name, case):
    table, backend = TABLES[table_name], BACKENDS[table_name]
    rng_ref = np.random.default_rng(case["seed"])
    rng_new = np.random.default_rng(case["seed"])
    ref = _reference_frame_outcome(
        table, case["rate_index"], case["snr"].copy(),
        case["n_payload_bits"], rng_ref, interference_mask=case["mask"],
        need_hints=case["need_hints"],
        need_error_mask=case["need_error_mask"])
    new = backend.frame_outcome(
        case["rate_index"], case["snr"].copy(), case["n_payload_bits"],
        rng_new, interference_mask=case["mask"],
        need_hints=case["need_hints"],
        need_error_mask=case["need_error_mask"])
    assert _fingerprint(new) == _fingerprint(ref)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("table_name", sorted(TABLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_frame_outcome_matches_reference(table_name, data):
    _check(table_name, data.draw(_cases(TABLES[table_name])))


@pytest.mark.parametrize("rate_index", range(6))
@pytest.mark.parametrize("snr_db", [-np.inf, -20.0, -2.0, -0.0, 0.0, 0.5,
                                    7.0, 26.0, 50.0])
@pytest.mark.parametrize("n_samples", [1, 8, 41])
def test_flat_trajectories_match_reference(rate_index, snr_db, n_samples):
    # Flat trajectories at grid ends, signed zeros and beyond the grid,
    # for both tables; 41 samples over an 8-bit payload drops one
    # zero-bit segment.
    for table_name in TABLES:
        for payload, hints, error_mask in ((8, True, True),
                                           (1600, False, False),
                                           (11200, False, True)):
            _check(table_name, dict(
                rate_index=rate_index, snr=np.full(n_samples, snr_db),
                n_payload_bits=payload, mask=None, need_hints=hints,
                need_error_mask=error_mask, seed=rate_index))


def test_observe_replay_matches_reference():
    # A contention run's view: many frames against one fading trace,
    # through observe(), one generator threaded through every call.
    from repro.traces.format import FrameObservation
    from repro.traces.generate import generate_fading_trace

    trace = generate_fading_trace(np.random.default_rng(7), duration=1.0,
                                  mean_snr_db=lambda t: 12.0,
                                  doppler_hz=20.0)
    backend = SurrogatePhyBackend(default_table())
    rng_ref = np.random.default_rng(11)
    rng_new = np.random.default_rng(11)
    draws = np.random.default_rng(3)
    for _ in range(400):
        time = float(draws.uniform(0.0, 0.99))
        rate = int(draws.integers(0, 6))
        payload = int(draws.integers(1, 12000))
        new = backend.observe(trace, time, rate, payload, rng_new)
        airtime = backend.frame_airtime(payload, rate)
        times = time + np.linspace(0.0, airtime, 8)
        slots = (times / trace.slot_duration).astype(np.int64) \
            % trace.n_slots
        ref = _reference_frame_outcome(
            default_table(), rate, np.asarray(trace.true_snr_db)[slots],
            payload, rng_ref, need_hints=False)
        expected = FrameObservation(
            detected=ref["detected"],
            delivered=ref["detected"] and ref["delivered"],
            ber_true=ref["ber_true"], ber_est=ref["ber_est"],
            snr_db=ref["snr_db"], slot=int(slots[0]))
        assert repr(new) == repr(expected)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# -- frame airtime ----------------------------------------------------------

def _reference_coded(n_steps, code_rate):
    pattern = PUNCTURE_PATTERNS[code_rate]
    full, rem = divmod(2 * n_steps, pattern.size)
    return int(full * pattern.sum() + pattern[:rem].sum())


def _reference_symbols(phy, n_payload_bits, rate_index):
    """Preamble + header + body + postamble OFDM symbols of a frame."""
    tail = phy.code.n_tail_bits
    n_sub = phy.mode.n_subcarriers
    count = phy.n_preamble_symbols + int(phy.use_postamble)
    for n_info, rate in ((HEADER_BITS, phy.rates.lowest),
                         (n_payload_bits + 32, phy.rates[rate_index])):
        coded = _reference_coded(n_info + tail, rate.code_rate)
        count += -(-coded // (rate.bits_per_symbol * n_sub))
    return count


#: 8..12000-bit payloads: every byte size to 512 bits, then a spread
#: that still crosses every symbol boundary class of every rate.
_PAYLOADS = sorted(set(range(8, 513, 8)) | set(range(520, 12001, 24))
                   | {12000})


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("table", ["full", "prototype"])
def test_frame_airtime_matches_symbol_count(mode, table):
    rates = RATE_TABLE if table == "full" else RATE_TABLE.prototype_subset()
    cases = 0
    for n_preamble in (1, 2, 4):
        for postamble in (False, True):
            phy = Transceiver(mode=mode, rates=rates,
                              n_preamble_symbols=n_preamble,
                              use_postamble=postamble)
            for rate_index in range(len(rates)):
                for payload in _PAYLOADS:
                    n_symbols = _reference_symbols(phy, payload, rate_index)
                    expected = n_symbols * phy.mode.symbol_time
                    got = phy.frame_airtime(payload, rate_index)
                    assert repr(got) == repr(expected), \
                        (mode, table, n_preamble, postamble, rate_index,
                         payload)
                    cases += 1
            # The layout the receiver slices by agrees on a subset.
            for rate_index in range(len(rates)):
                for payload in _PAYLOADS[::97]:
                    layout = phy.frame_layout(payload, rate_index)
                    assert layout.n_symbols == \
                        _reference_symbols(phy, payload, rate_index)
                    assert layout.airtime(phy.mode.symbol_time) == \
                        phy.frame_airtime(payload, rate_index)
    assert cases == 6 * len(rates) * len(_PAYLOADS)
