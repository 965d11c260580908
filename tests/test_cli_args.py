"""Argument walls for ``repro run``/``sweep`` and for ``simulate``,
``trace`` and ``thresholds``.

Every argument these commands take crosses a boundary, so each command
either runs or is rejected the same way: exit code 2, an ``error:``
line last on stderr and no traceback; ``run`` and ``sweep`` also write
nothing to the cache directory.  The ``run``/``sweep`` property test
drives ``cli-any``, an experiment that accepts any parameter value and
never fails, so every exit 2 it sees is a rejected argument rather
than a failed run.

Each in-process invocation runs under a wall-clock alarm, so a command
that never returns fails its test, naming the argv, instead of hanging
the suite; the property walls skip shrinking, which would replay one
hang after another.
"""

import contextlib
import io
import math
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.cli import _parse_values, main
from repro.experiments.api import register_experiment
from repro.traces import workloads


@register_experiment(
    "cli-any",
    description="accepts any parameter value and never fails",
    params={"seed": 0, "x": 0})
def _run_any(seed=0, x=0):
    """One metric: the length of its parameters' repr."""
    return {"size": float(len(repr((seed, x))))}


#: Wall-clock limit on one in-process invocation.  Every command these
#: walls run returns in about a second.
_CLI_DEADLINE_S = 30.0

#: Property-wall settings: no deadline (the alarm bounds an example)
#: and no shrink phase, so a hang fails after one deadline and its
#: replay rather than after a shrink through more hangs.
_WALL = settings(deadline=None, phases=[Phase.explicit, Phase.reuse,
                                        Phase.generate])


def _cli(argv):
    """``(exit code, stdout, stderr)`` of one in-process invocation,
    argparse's own exits included.  Raises ``TimeoutError`` naming the
    argv if it runs past ``_CLI_DEADLINE_S``."""
    def expire(_signum, _frame):
        raise TimeoutError(f"repro {argv!r} ran past "
                           f"{_CLI_DEADLINE_S:g} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _CLI_DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _assert_rejected(code, err, cache, *needles):
    assert code == 2, err
    lines = err.strip().splitlines()
    assert lines and "error:" in lines[-1], err
    assert "Traceback" not in err
    assert not os.path.exists(cache), os.listdir(cache)
    for needle in needles:
        assert needle in err


class TestRejectedArguments:
    """Each case exits 2 with an ``error:`` line and leaves no store."""

    def test_set_needs_a_key_and_an_equals_sign(self, tmp_path):
        cache = str(tmp_path / "cache")
        for bad in ("=5", "duration"):
            code, _out, err = _cli(["run", "fig01", "--set", bad,
                                    "--cache-dir", cache])
            _assert_rejected(code, err, cache, "--set")

    def test_replicates_below_one(self, tmp_path):
        cache = str(tmp_path / "cache")
        for bad in ("0", "-1"):
            code, _out, err = _cli(["run", "cli-any", "--replicates",
                                    bad, "--cache-dir", cache])
            _assert_rejected(code, err, cache, "--replicates")

    def test_empty_seed_and_value_lists(self, tmp_path):
        cache = str(tmp_path / "cache")
        code, _out, err = _cli(["run", "cli-any", "--seeds", ",",
                                "--cache-dir", cache])
        _assert_rejected(code, err, cache, "--seeds")
        code, _out, err = _cli(["sweep", "cli-any", "--param", "seed",
                                "--values", ",", "--cache-dir", cache])
        _assert_rejected(code, err, cache, "no values")

    def test_repeated_seeds_and_values(self, tmp_path):
        cache = str(tmp_path / "cache")
        code, _out, err = _cli(["run", "cli-any", "--seeds", "1,2,1",
                                "--cache-dir", cache])
        _assert_rejected(code, err, cache, "repeats a value")
        code, _out, err = _cli(["sweep", "cli-any", "--param", "x",
                                "--values", "3,3", "--cache-dir", cache])
        _assert_rejected(code, err, cache, "repeats a value")

    def test_values_with_unbalanced_brackets_or_quotes(self, tmp_path):
        """``1),2,3`` used to run as one string value; an unterminated
        quote (also a bare word's apostrophe) is rejected too."""
        cache = str(tmp_path / "cache")
        for bad in ("1),2,3", "(1,2", "'a,b", '"""a,b', "it's,b"):
            code, _out, err = _cli(["sweep", "cli-any", "--param", "x",
                                    "--values", bad,
                                    "--cache-dir", cache])
            _assert_rejected(code, err, cache, "--values")

    def test_removed_batch_size_flag(self, tmp_path):
        cache = str(tmp_path / "cache")
        for argv in (["run", "cli-any", "--cache-dir", cache],
                     ["sweep", "cli-any", "--param", "x", "--values",
                      "1", "--cache-dir", cache],
                     ["calibrate", "--output", str(tmp_path / "c.json")]):
            code, _out, err = _cli(argv + ["--batch-size", "8"])
            assert code == 2
            assert "unrecognized arguments: --batch-size 8" in err
        assert os.listdir(tmp_path) == []


class TestFailedRuns:
    """A run that fails prints one ``error:`` line and exits 2, the
    way a rejected argument does, at any ``--jobs``."""

    def test_unusable_seed_value(self, tmp_path):
        # 1e400 parses as inf, which no RNG accepts.
        code, _out, err = _cli(["run", "fig01", "--set", "seed=1e400",
                                "--no-cache",
                                "--cache-dir", str(tmp_path / "c")])
        assert code == 2, err
        assert "Traceback" not in err
        assert "error:" in err.strip().splitlines()[-1]
        assert "fig01" in err and "TypeError" in err

    def test_failing_experiment_under_a_pool(self, tmp_path):
        code, _out, err = _cli(["run", "cell", "--set",
                                "workload=bogus", "--jobs", "2",
                                "--cache-dir", str(tmp_path / "c")])
        assert code == 2, err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("error:")
        assert "unknown workload 'bogus'" in err

    def test_no_cache_leaves_the_cache_dir_untouched(self, tmp_path):
        cache = str(tmp_path / "cache")
        code, out, _err = _cli(["run", "cli-any", "--seeds", "1,2",
                                "--no-cache", "--cache-dir", cache])
        assert code == 0 and "size" in out
        assert not os.path.exists(cache)


class TestOddValues:
    """Values the property test found crashing the run path."""

    def test_dict_with_mixed_key_types(self, tmp_path):
        code, out, err = _cli(["run", "cli-any", "--set",
                               "x={None: 1, 1: 2}",
                               "--cache-dir", str(tmp_path)])
        assert code == 0, err
        assert "size" in out

    def test_values_json_cannot_encode(self, tmp_path):
        # bytes and complex values reach the store's manifest.
        code, out, err = _cli(["sweep", "cli-any", "--param", "x",
                               "--values", "b'',1j",
                               "--cache-dir", str(tmp_path)])
        assert code == 0, err
        assert "x=b''" in out and "x=1j" in out


class TestSweepValues:
    """``--values`` splits at the commas Python's tokenizer sees
    outside brackets and string literals."""

    def test_quoted_commas_and_brackets_stay_in_one_value(self):
        # The old character scan gave ["'a", "b'", 'c'] and one tuple
        # ('a)', 1).
        assert _parse_values("'a,b',c") == ["a,b", "c"]
        assert _parse_values("'a)',1") == ["a)", 1]

    def test_kept_parses(self):
        assert _parse_values("1,2") == [1, 2]
        assert _parse_values("(100,1400)") == [(100, 1400)]
        assert _parse_values("(1,),(2,)") == [(1,), (2,)]
        assert _parse_values("softrate,rraa") == ["softrate", "rraa"]
        assert _parse_values("snr-untrained,softrate") == \
            ["snr-untrained", "softrate"]
        assert _parse_values("b'',1j") == [b"", 1j]
        assert _parse_values("1,2,") == [1, 2]
        # Not Python literals: they used to reach experiments as the
        # strings 'nan', 'inf' and '-inf'.
        nan, inf, minus_inf = _parse_values("nan,inf,-inf")
        assert math.isnan(nan)
        assert (inf, minus_inf) == (math.inf, -math.inf)
        assert _parse_values("1e400,infinity") == [math.inf, math.inf]
        assert _parse_values("nan0,infinity_") == ["nan0", "infinity_"]


_LITERAL_SCALAR = (st.integers() | st.floats(allow_nan=False,
                                             allow_infinity=False)
                   | st.booleans() | st.none() | st.binary(max_size=4)
                   | st.text(max_size=6)
                   | st.text(alphabet=",'\"()[]{}\\", max_size=6))
#: A whole value may also be infinite; inside a tuple ``inf`` is not a
#: literal, so the tuple stays a string.
_SCALAR = _LITERAL_SCALAR | st.sampled_from([math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(
    _SCALAR | st.lists(_LITERAL_SCALAR, max_size=3).map(tuple),
    max_size=5))
def test_values_round_trip(values):
    """Any list of literals or infinities, joined by commas, parses
    back to itself."""
    assert _parse_values(",".join(map(repr, values))) == values


_TEXT = st.text(max_size=12)
#: Python-literal spellings, so ``--set``/``--values`` parsing reaches
#: sets, dicts with mixed keys, bytes, complex numbers and nesting.
_LITERAL = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.binary(max_size=3)
    | st.complex_numbers(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner)
                   | st.sets(st.integers() | st.text(max_size=3),
                             max_size=3)
                   | st.dictionaries(st.none() | st.integers(0, 2)
                                     | st.text(max_size=1),
                                     inner, min_size=2, max_size=3)),
    max_leaves=6).map(repr)
_VALUE = _TEXT | _LITERAL | st.sampled_from(
    ["1e400", "-1e400", "1e400j", "nan", "(", "[1,", "()", "", "1,2"])
#: Mostly declared names, so most commands get past name validation.
_KEY = st.sampled_from(["seed", "x"]) \
    | st.text(min_size=1, max_size=12)
_SEEDS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda seeds: ",".join(map(str, seeds))) | _TEXT
_VALUES = st.lists(_VALUE, max_size=4).map(",".join)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["run", "sweep"]))
    argv = [command, "cli-any"]
    for key, value in draw(st.lists(st.tuples(_KEY, _VALUE),
                                    max_size=3)):
        argv.append(f"--set={key}={value}")
    if draw(st.booleans()) and draw(st.booleans()):
        argv.append(f"--set={draw(_TEXT)}")
    if command == "sweep":
        argv += [f"--param={draw(_KEY)}", f"--values={draw(_VALUES)}"]
    seeds = draw(st.none() | _SEEDS)
    if seeds is not None:
        argv.append(f"--seeds={seeds}")
    for flag, low, high in (("--replicates", -2, 5), ("--jobs", -2, 3)):
        number = draw(st.none() | st.integers(low, high))
        if number is not None:
            argv.append(f"{flag}={number}")
    return argv


@settings(_WALL, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_every_command_runs_or_is_rejected_cleanly(argv):
    with tempfile.TemporaryDirectory() as scratch:
        cache = os.path.join(scratch, "cache")
        code, _out, err = _cli(argv + [f"--cache-dir={cache}"])
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 2:
            _assert_rejected(code, err, cache)


def _assert_clean_exit(code, err):
    """Exit 0, or exit 2 with a last stderr line of ``error:``; never a
    traceback."""
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        lines = err.strip().splitlines()
        assert lines and lines[-1].startswith("error:"), err


class TestOutOfRangeInputs:
    """Inputs that used to crash, print nonsense or never return."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--clients=0"],            # was an IndexError
        ["simulate", "--duration=0"],           # a ZeroDivisionError
        ["simulate", "--duration=-1"],          # -0.00 Mbps, exit 0
        ["simulate", "--duration=nan"],         # exit 0
        ["thresholds", "--frame-bits=0"],
        ["thresholds", "--recovery=harq", "--cost-per-error=0"],
        ["thresholds", "--separation=-1"],      # alpha above beta
        ["thresholds", "--separation=nan"],
        ["run", "cell", "--set", "duration=0", "--no-cache"],
        ["run", "fig13", "--set", "duration=0",
         "--set", "client_counts=(1,)", "--no-cache"],
        ["run", "fig16", "--set", "duration=0", "--no-cache"],
        ["run", "fig17", "--set", "duration=-1", "--no-cache"],
        # nan and inf used to arrive as strings; the cell's TypeError
        # was retried twice.
        ["run", "cell", "--set", "duration=nan", "--no-cache"],
        ["run", "fig16", "--set", "duration=inf", "--no-cache"],
        # A duration that is not a number raised TypeError, which was
        # retried twice.
        ["run", "cell", "--set", "duration=None", "--no-cache"],
        ["run", "fig13", "--set", "duration='5'",
         "--set", "client_counts=(1,)", "--no-cache"],
        ["run", "fig05", "--set", "duration=None", "--no-cache"],
        # These checked no duration: exit 0 with all-zero or NaN
        # metrics (mesh at 0 raised ZeroDivisionError three times).
        ["run", "tab01", "--set", "duration=0", "--no-cache"],
        ["run", "mesh", "--set", "duration=nan", "--no-cache"],
        ["run", "fig01", "--set", "duration=-1", "--no-cache"],
    ])
    def test_exits_2_with_one_error_line(self, argv, monkeypatch):
        def generated(*_args, **_kwargs):
            raise AssertionError("a trace was generated")

        # A bad duration is refused before any trace is generated.
        monkeypatch.setattr(workloads, "generate_fading_trace",
                            generated)
        code, _out, err = _cli(argv)
        assert code == 2, err
        _assert_clean_exit(code, err)
        if argv[0] == "run":
            # A ValueError is a rejected parameterization: not retried.
            assert "after 1 attempt(s)" in err, err
            assert "duration must be positive and finite" in err, err

    @pytest.mark.parametrize("flags", [
        ["--duration=0"], ["--duration=nan"], ["--doppler=-5"],
        ["--walking", "--distance=0"], ["--snr=nan"],
    ])
    def test_trace_exits_2_with_one_error_line(self, flags, tmp_path):
        path = tmp_path / "t.npz"
        code, _out, err = _cli(["trace", str(path)] + flags)
        assert code == 2, err
        _assert_clean_exit(code, err)
        assert not path.exists()

    @pytest.mark.parametrize("flags", [
        ["--duration=inf"],
        ["--workload=mac", "--engine=slot", "--duration=nan"],
    ])
    def test_a_simulation_that_never_ends_is_refused(self, flags):
        """Both used to run forever, so each runs in a subprocess with
        a deadline."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "simulate"] + flags,
            capture_output=True, text=True, timeout=120, env=env,
            cwd=os.path.dirname(os.path.dirname(__file__)))
        assert proc.returncode == 2, proc.stderr
        _assert_clean_exit(proc.returncode, proc.stderr)


_ODD = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def _simulate_argv(draw):
    return ["simulate", "--workload=mac",
            f"--engine={draw(st.sampled_from(['event', 'slot']))}",
            f"--clients={draw(st.integers(-2, 2))}",
            f"--duration="
            f"{draw(st.floats(-1.0, 0.02) | st.just(float('nan')))}"]


@st.composite
def _trace_argv(draw):
    argv = ["trace",
            f"--duration={draw(st.floats(-1.0, 0.05) | _ODD)}",
            f"--doppler={draw(st.floats(-10.0, 4000.0) | _ODD)}",
            f"--seed={draw(st.integers(-1, 3))}"]
    if draw(st.booleans()):
        argv += ["--walking",
                 f"--distance={draw(st.floats(-1.0, 20.0) | _ODD)}"]
    else:
        argv.append(f"--snr={draw(st.floats(-20.0, 40.0) | _ODD)}")
    return argv


@st.composite
def _thresholds_argv(draw):
    return ["thresholds",
            f"--recovery={draw(st.sampled_from(['arq', 'harq']))}",
            f"--frame-bits={draw(st.integers(-2, 20000))}",
            f"--cost-per-error={draw(st.floats(-1.0, 1000.0) | _ODD)}",
            f"--separation={draw(st.floats(-2.0, 100.0) | _ODD)}"]


@settings(_WALL, max_examples=20)
@given(argv=_simulate_argv())
def test_simulate_runs_or_is_rejected_cleanly(argv):
    code, _out, err = _cli(argv)
    _assert_clean_exit(code, err)


@settings(_WALL, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_trace_argv())
def test_trace_runs_or_is_rejected_cleanly(argv, tmp_path):
    code, _out, err = _cli(argv[:1] + [str(tmp_path / "t.npz")]
                           + argv[1:])
    _assert_clean_exit(code, err)


@settings(_WALL, max_examples=40)
@given(argv=_thresholds_argv())
def test_thresholds_runs_or_is_rejected_cleanly(argv):
    code, _out, err = _cli(argv)
    _assert_clean_exit(code, err)
