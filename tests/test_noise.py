"""OU noise process: exact discretization, reproducible streams, statistics."""

import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from csv_format_check import edge_values, random_bits, ties
from ktfloor import (
    NoisePath,
    OuProcess,
    PhysicalEnvironment,
    RcStage,
    path_generator,
    sample_path,
    stationary_path,
)
from ktfloor import csvout, noise

ENV300 = PhysicalEnvironment(temperature=300.0)
STAGE = RcStage(capacitance=1e-15, resistance=1e6, swing_voltage=24.08e-3, env=ENV300)

# sqrt(kT/C) at T = 300 K, C = 1 fF; frozen from 40-digit evaluation.
SIGMA_1FF_300K = 2.0351773878460816e-3


class TestConstruction:
    def test_from_stage_equipartition_sigma(self):
        process = OuProcess.from_stage(STAGE)
        assert process.stationary_sigma == pytest.approx(SIGMA_1FF_300K, rel=1e-12)
        assert process.correlation_time == pytest.approx(1e-9, rel=1e-15)

    def test_sigma_scales_as_sqrt_temperature(self):
        hot = RcStage(1e-15, 1e6, 0.0, PhysicalEnvironment(temperature=1200.0))
        assert OuProcess.from_stage(hot).stationary_sigma == pytest.approx(
            2.0 * SIGMA_1FF_300K, rel=1e-12
        )

    def test_underflowing_kt_over_c_gives_zero_sigma(self):
        huge = RcStage(1.7e308, 1e-310, 0.0, ENV300)
        assert OuProcess.from_stage(huge).stationary_sigma == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            OuProcess(stationary_sigma=-1e-3, correlation_time=1e-9)
        with pytest.raises(ValueError):
            OuProcess(stationary_sigma=1e-3, correlation_time=0.0)

    def test_coefficients_at_one_tau(self):
        process = OuProcess(stationary_sigma=1.0, correlation_time=1e-9)
        a, b = process.update_coefficients(1e-9)
        assert a == math.exp(-1.0)
        assert b == math.sqrt(-math.expm1(-2.0))

    def test_nonpositive_dt_rejected(self):
        process = OuProcess(stationary_sigma=1.0, correlation_time=1e-9)
        with pytest.raises(ValueError):
            process.update_coefficients(0.0)


class TestDeterministicDecay:
    """sigma = 0 strips the noise; what remains must be pure exponential."""

    PROCESS = OuProcess(stationary_sigma=0.0, correlation_time=1e-9)

    def test_single_step(self):
        v = self.PROCESS.step(1.0, 1e-9, g=123.456)
        assert v == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_path_is_geometric(self):
        path = sample_path(self.PROCESS, 1e-9, 5, seed=0, v0=2.0)
        expected = 2.0 * np.exp(-np.arange(1, 6, dtype=float))
        np.testing.assert_allclose(path.samples, expected, rtol=1e-12)

    @given(
        st.floats(min_value=1e-12, max_value=5e-9),
        st.floats(min_value=1e-12, max_value=5e-9),
    )
    def test_split_step_exactness(self, dt1, dt2):
        # Exact discretization: two short steps equal one long step.
        one = self.PROCESS.step(1.0, dt1 + dt2, g=0.0)
        two = self.PROCESS.step(self.PROCESS.step(1.0, dt1, g=0.0), dt2, g=0.0)
        assert two == pytest.approx(one, rel=1e-12)


class TestReproducibility:
    def test_same_seed_same_path_bitwise(self):
        process = OuProcess.from_stage(STAGE)
        p1 = sample_path(process, 1e-9, 1000, seed=42)
        p2 = sample_path(process, 1e-9, 1000, seed=42)
        assert np.array_equal(p1.samples, p2.samples)

    def test_scalar_stepping_matches_vectorized_path_bitwise(self, monkeypatch):
        # Bytes, so the sign of a zero counts.  With the whole loop budget
        # left, 50 samples run the Python loop and one past it runs lfilter.
        monkeypatch.setattr(noise, "_looped_samples", 0)
        process = OuProcess.from_stage(STAGE)
        for n in (50, noise._PYTHON_RECURSION_MAX + 1):
            z = path_generator(42, 3).standard_normal(n)
            v = 1.5e-3
            manual = []
            for g in z.tolist():
                v = process.step(v, 1e-9, g)
                manual.append(v)
            path = sample_path(process, 1e-9, n, seed=42, v0=1.5e-3, path_index=3)
            assert path.samples.tobytes() == np.array(manual).tobytes(), n
            assert noise._looped_samples == 50, n

    def test_distinct_path_indices_are_distinct_streams(self):
        process = OuProcess.from_stage(STAGE)
        p0 = sample_path(process, 1e-9, 100, seed=42, path_index=0)
        p1 = sample_path(process, 1e-9, 100, seed=42, path_index=1)
        assert not np.array_equal(p0.samples, p1.samples)

    def test_negative_seed_is_usable(self):
        gen = path_generator(-3, 0)
        assert np.isfinite(gen.standard_normal())

    @pytest.mark.parametrize("seed", [0, -3, 12345, 2**64 - 1, -(2**63)])
    def test_rekeyed_generator_matches_fresh_generator(self, seed):
        gen = noise.rekeyable_generator()
        for index in (0, 1, 2**32 + 5, 2**63, 2**64 - 1):
            fresh = path_generator(seed, index).standard_normal(1001)
            rekeyed = path_generator(seed, index, gen).standard_normal(1001)
            assert np.array_equal(rekeyed, fresh)

    @pytest.mark.parametrize("seed", [0, -3, 12345, 2**64 - 1, -(2**63)])
    def test_c_normal_fill_matches_standard_normal(self, seed):
        # Lengths around Philox's 4-word buffer, so a fill ends mid-block,
        # and the Monte Carlo's short and long rows; each fill runs on the
        # re-keyed generator, as the Monte Carlo's does.
        fill = noise._normal_fill()
        gen = noise.rekeyable_generator()
        bitgen = gen.bit_generator.ctypes.bit_generator
        for index in (0, 1, 2**32 + 5, 2**63, 2**64 - 1):
            for n in (*range(1, 10), 11, 1001):
                fresh = path_generator(seed, index).standard_normal(n)
                out = np.full(n + 1, np.nan)
                path_generator(seed, index, gen)
                fill(bitgen, ctypes.c_ssize_t(n), ctypes.c_void_p(out.ctypes.data))
                assert out[:n].tobytes() == fresh.tobytes(), (index, n)
                assert math.isnan(out[n])

    def test_rekey_returns_the_generator_it_was_given(self):
        gen = noise.rekeyable_generator()
        assert path_generator(3, 1, gen) is gen
        with pytest.raises(ValueError):
            path_generator(3, 1, np.random.default_rng(0))

    def test_generator_not_from_rekeyable_generator_is_refused(self):
        # Only the in-place re-key exists: a plain Philox generator is not
        # re-keyed through numpy's state setter.
        plain = np.random.Generator(np.random.Philox())
        message = r"^generator must come from rekeyable_generator\(\)$"
        with pytest.raises(ValueError, match=message):
            path_generator(3, 1, plain)

    def test_rekey_discards_partial_draws(self):
        # A partial draw leaves a half-used counter block behind, and an odd
        # number of 32-bit draws a buffered half word; neither may leak into
        # the stream of the next path keyed onto the same Philox.  draws()
        # takes an even number of 32-bit words, so it leaves none buffered.
        def draws(gen):
            normals = gen.standard_normal(1001)
            return normals, gen.integers(0, 2**31, size=4, dtype=np.uint32)

        def state_words(gen):
            state = gen.bit_generator.state
            return [
                *state["state"]["counter"], *state["state"]["key"], *state["buffer"],
                state["buffer_pos"], state["has_uint32"], state["uinteger"],
            ]

        fresh_state = state_words(path_generator(7, 2))
        fresh = draws(path_generator(7, 2))
        gen = noise.rekeyable_generator()
        path_generator(5, 0, gen).standard_normal(3)
        assert state_words(path_generator(7, 2, gen)) == fresh_state
        after_partial = draws(gen)
        path_generator(5, 0, gen).integers(0, 2**31, size=3, dtype=np.uint32)
        assert state_words(path_generator(7, 2, gen)) == fresh_state
        after_odd = draws(gen)
        for got in (after_partial, after_odd):
            assert np.array_equal(got[0], fresh[0])
            assert np.array_equal(got[1], fresh[1])

    def test_float_keys_rejected(self):
        for seed, index in [(2.5, 0), (1.0, 0), (0, 2.0)]:
            with pytest.raises(TypeError):
                path_generator(seed, index)
            with pytest.raises(TypeError):
                path_generator(seed, index, noise.rekeyable_generator())

    @pytest.mark.parametrize(
        "seed, index", [(2**64, 0), (-(2**63) - 1, 0), (0, -1), (0, 2**64)]
    )
    def test_out_of_range_keys_rejected(self, seed, index):
        # Masking them to 64 bits would alias another (seed, index) stream.
        with pytest.raises(ValueError):
            path_generator(seed, index)
        with pytest.raises(ValueError):
            path_generator(seed, index, noise.rekeyable_generator())

    def test_philox_layout_probe_passes_on_installed_numpy(self):
        # A numpy whose C Philox struct moved would silently lose the
        # in-place re-key; fail here instead.
        # A numpy without a usable C normal fill would silently lose it too.
        assert noise._philox_layout_matches()
        assert noise._normal_fill() is not None
        assert type(noise.rekeyable_generator()) is noise._rekeyable_generator_class()

    @pytest.mark.parametrize("layout_matches", [True, False])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_fill_paths_fills_each_row_from_its_own_stream(
        self, monkeypatch, rows, layout_matches
    ):
        # The one draw routine re-keys a generator from two rows on when the
        # layout probe passes, and otherwise keys a fresh one per row; either
        # way each row holds its own stream's first normals.
        calls = []
        original = noise.path_generator

        def counting(seed, index, generator=None):
            calls.append((index, generator is not None))
            return original(seed, index, generator)

        if not layout_matches:
            monkeypatch.setattr(noise, "_philox_layout_matches", lambda: False)
        monkeypatch.setattr(noise, "path_generator", counting)
        seed, first, n = -3, 2**64 - 5, 11
        out = np.full((rows, n), np.nan)
        assert noise._fill_paths(seed, first, out) is out
        rekeyed = layout_matches and rows > 1
        assert calls == [(first + r, rekeyed) for r in range(rows)]
        for r in range(rows):
            fresh = original(seed, first + r).standard_normal(n)
            assert out[r].tobytes() == fresh.tobytes(), r

    def test_seed_independence_cross_correlation(self):
        process = OuProcess.from_stage(STAGE)
        a = stationary_path(process, 1e-9, 1_000_000, seed=1).samples
        b = stationary_path(process, 1e-9, 1_000_000, seed=2).samples
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01


class TestRecursionBranches:
    """The Python loop within its per-process budget and lfilter past it."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        # dt/tau from where a rounds to 1 to where it underflows to 0, and
        # often where a*y underflows within 200 steps.
        st.floats(min_value=5e-324, max_value=1e300) | st.floats(0.5, 800.0),
        # b >= +0.0, as update_coefficients gives it, 0 when sigma underflows.
        st.sampled_from([0.0, 5e-324]) | st.floats(min_value=0.0, max_value=1e10),
        st.floats(allow_nan=False, allow_infinity=False),
        # Normal draws, with both zeros often: their signs reach the samples.
        st.lists(
            st.sampled_from([0.0, -0.0]) | st.floats(-40.0, 40.0), min_size=1, max_size=200
        ),
    )
    def test_python_loop_matches_lfilter(self, dt_over_tau, b, v0, draws):
        from scipy.signal import lfilter

        a = math.exp(-dt_over_tau)
        z = np.array(draws)
        expected, _ = lfilter([b], [1.0, -a], z, zi=np.array([a * v0]))
        assert noise._python_recurse(a, b, z, v0).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "sigma, tau, dt", [(0.0, 1e-9, 1e-9), (0.0, 1.0, 1e300), (1.0, 1e300, 5e-324)]
    )
    def test_update_coefficients_give_positive_zero_b(self, sigma, tau, dt):
        # The property above draws b >= +0.0: a zero sample's sign follows
        # the draws, never a negative zero b.
        _, b = OuProcess(sigma, tau).update_coefficients(dt)
        assert b == 0.0 and math.copysign(1.0, b) == 1.0

    @pytest.mark.parametrize(
        "process, v0, seed",
        [
            (OuProcess.from_stage(STAGE), 1.5e-3, 42),
            # Decays from v0 until a*y underflows near sample 744, where
            # lfilter sets the sign of a zero from the draw before.
            (OuProcess(0.0, 1e-9), -1.0, 9),
        ],
    )
    def test_path_across_the_budget_keeps_its_prefix(self, process, v0, seed, monkeypatch):
        # One stream, drawn in order: the shorter path spends the whole loop
        # budget, the longer runs lfilter, over the same first 2**16 samples.
        monkeypatch.setattr(noise, "_looped_samples", 0)
        n = noise._PYTHON_RECURSION_MAX
        short = sample_path(process, 1e-9, n, seed=seed, v0=v0).samples
        long = sample_path(process, 1e-9, n + 1, seed=seed, v0=v0).samples
        assert noise._looped_samples == n
        assert long[:n].tobytes() == short.tobytes()

    def test_loop_budget_is_spent_once_per_process(self, monkeypatch):
        # Paths loop while they fit in what is left of the budget; then
        # lfilter runs them, so a process that builds many paths pays the
        # loop for at most _PYTHON_RECURSION_MAX samples.
        monkeypatch.setattr(noise, "_looped_samples", 0)
        process = OuProcess.from_stage(STAGE)
        half = noise._PYTHON_RECURSION_MAX // 2
        spent = []
        for n in (half, half - 10, 11, 10, 1):
            stationary_path(process, 1e-9, n, seed=5, path_index=n)
            spent.append(noise._looped_samples)
        assert spent == [half, 2 * half - 10, 2 * half - 10, 2 * half, 2 * half]


class TestStatistics:
    def test_post_step_mean_decay_over_many_seeds(self):
        # One step of dt = tau from v0 = 3 sigma: ensemble mean is v0/e.
        process = OuProcess.from_stage(STAGE)
        sigma = process.stationary_sigma
        v0 = 3.0 * sigma
        n_seeds = 100_000
        a, b = process.update_coefficients(1e-9)
        total = 0.0
        for k in range(n_seeds):
            total += sample_path(process, 1e-9, 1, seed=k, v0=v0).samples[0]
        mean = total / n_seeds
        band = 4.0 * b / math.sqrt(n_seeds)
        assert abs(mean - a * v0) < band

    def test_lag_one_autocorrelation_at_dt_tau(self):
        process = OuProcess.from_stage(STAGE)
        y = stationary_path(process, 1e-9, 1_000_000, seed=7).samples
        rho = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert rho == pytest.approx(math.exp(-1.0), abs=0.01)

    def test_stationary_variance_with_decorrelated_sampling(self):
        process = OuProcess.from_stage(STAGE)
        # dt = 10 tau: successive samples essentially independent.
        y = stationary_path(process, 1e-8, 100_000, seed=11).samples
        target = process.stationary_sigma**2
        std_err = target * math.sqrt(2.0 / y.size)
        assert abs(np.var(y) - target) < 3.0 * std_err


class TestNoisePath:
    def test_times_exclude_zero(self):
        process = OuProcess.from_stage(STAGE)
        path = sample_path(process, 2e-9, 4, seed=1)
        np.testing.assert_allclose(path.times(), [2e-9, 4e-9, 6e-9, 8e-9])

    def test_rejects_empty_path(self):
        process = OuProcess.from_stage(STAGE)
        with pytest.raises(ValueError):
            sample_path(process, 1e-9, 0, seed=1)

    @pytest.mark.parametrize("v0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_start_before_any_draw(self, monkeypatch, v0):
        def no_draw(*args):
            raise AssertionError("a path generator was built")

        monkeypatch.setattr(noise, "path_generator", no_draw)
        with pytest.raises(ValueError, match=r"^v0 must be finite, got"):
            sample_path(OuProcess(2e-4, 1e-10), 1e-10, 3, seed=0, v0=v0)

    @pytest.mark.parametrize("build", [sample_path, stationary_path])
    def test_path_past_sample_limit_is_refused_before_allocating(self, build):
        # 10**13 samples would need 72.8 TiB.
        with pytest.raises(ValueError) as info:
            build(OuProcess(1.0, 1.0), 1.0, 10**13, seed=0)
        assert str(info.value) == (
            f"n=10000000000000 samples exceed the path limit of {noise.MAX_PATH_SAMPLES}"
        )

    @pytest.mark.parametrize("build", [sample_path, stationary_path])
    def test_path_at_sample_limit_reaches_the_draws(self, monkeypatch, build):
        class Drawn(Exception):
            pass

        def no_draw(*args):
            raise Drawn

        monkeypatch.setattr(noise, "path_generator", no_draw)
        with pytest.raises(Drawn):
            build(OuProcess(1.0, 1.0), 1.0, noise.MAX_PATH_SAMPLES, seed=0)

    @pytest.mark.parametrize("build", [sample_path, stationary_path])
    def test_seed_must_be_an_integer_in_key_range(self, monkeypatch, build):
        def no_draw(*args):
            raise AssertionError("a path generator was built")

        process = OuProcess(1.0, 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(noise, "path_generator", no_draw)
            for seed in (2.5, 12345.0, "1"):
                with pytest.raises(TypeError):
                    build(process, 1.0, 3, seed=seed)
            for seed in (2**64, -(2**63) - 1):
                with pytest.raises(ValueError) as info:
                    build(process, 1.0, 3, seed=seed)
                assert str(info.value) == f"seed must lie in [-2**63, 2**64), got {seed}"
        # A bool or numpy integer seed is the int it stands for.
        expected = build(process, 1.0, 3, seed=1).samples.tobytes()
        for seed in (True, np.int64(1)):
            path = build(process, 1.0, 3, seed=seed)
            assert type(path.seed) is int and path.seed == 1
            assert path.samples.tobytes() == expected

    def test_csv_dump(self, tmp_path):
        process = OuProcess.from_stage(STAGE)
        path = stationary_path(process, 1e-9, 3, seed=5)
        out = tmp_path / "path.csv"
        path.write_csv(out)
        raw = out.read_bytes()
        assert raw.count(b"\r\n") == 5  # header + t=0 + 3 samples
        lines = raw.decode().split("\r\n")
        assert lines[0] == "t,V"
        assert lines[1].startswith("0.00000000e+00,")
        assert lines[2].split(",")[0] == "1.00000000e-09"

    @pytest.mark.parametrize("values", ["ou", "renderer seams"])
    def test_csv_dump_matches_a_plain_rendering(self, tmp_path, values):
        # Several blocks of rows, with -0.0 at v0 and either side of the first
        # block boundary, and a dt whose multiples round.  The second path
        # holds every edge value of tests/csv_format_check.py and a sample of
        # its random families.
        process = OuProcess.from_stage(STAGE)
        path = stationary_path(process, process.correlation_time / 3.0, 9000, seed=5)
        samples = path.samples
        if values == "renderer seams":
            rng = np.random.default_rng(6)
            edges = np.concatenate(list(edge_values().values()))
            samples = np.concatenate([edges, -edges, random_bits(rng, 1000), ties(rng, 1000)])
        block = csvout._BLOCK_ROWS
        samples[[block - 2, block - 1]] = -0.0
        path = NoisePath(dt=path.dt, v0=-0.0, samples=samples, seed=5)
        out = tmp_path / "path.csv"
        path.write_csv(out)
        rows = [(0.0, path.v0), *zip(path.times().tolist(), path.samples.tolist())]
        expected = "t,V\r\n" + "".join("%.8e,%.8e\r\n" % row for row in rows)
        assert out.read_bytes() == expected.encode()

    def test_csv_dump_holds_the_packed_table_and_one_block(self, tmp_path):
        n = 100_000
        path = NoisePath(dt=1e-9, v0=0.5, samples=np.linspace(-1.0, 1.0, n), seed=5)
        _, peak = traced_peak(lambda: path.write_csv(tmp_path / "path.csv"))
        # The (t, V) table's 8-byte cells, and one block of rows as Python
        # floats and text.
        assert peak < 8 * 2 * (n + 1) + 2**20


class TestDeferredScipySignal:
    # scipy.signal is about 1 s of import time and only a process that
    # builds more than _PYTHON_RECURSION_MAX path samples uses it, so neither
    # the package, nor a command, nor a short path may load it.  The normal
    # tails run on the standard library, so nothing else loads scipy.special,
    # not even the commands that evaluate a tail (cycle, sweep, mc).  For
    # each noise-path builder, a fresh interpreter runs every command and
    # then the builder, printing (signal loaded, special loaded) after each
    # stage.
    def test_loaded_only_when_a_path_is_built(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "variable": "epsilon", "scale": "log", "start": 1e-30, "stop": 0.4,
            "points": 5, "fixed": {"C": 1e-15}, "output": str(tmp_path / "sweep.csv"),
        }))
        mc = [
            "mc", "--cap", "1e-15", "--res", "1e6", "--threshold-sigma", "2",
            "--t-obs", "1e-8", "--trials", "100",
        ]
        commands = [
            ["floor", "--epsilon", "1e-30", "--t-obs", "1e-7", "--tau", "1e-9"],
            ["cycle", "--cap", "1e-15", "--swing", "0.5", "--claimed-kt", "0.5"],
            ["tank", "--inductance", "1e-9", "--c1", "1e-12", "--c2", "1e-12",
             "--resistance", "0.1", "--v0", "1", "--e-switch-kt", "1"],
            ["sweep", str(config)],
            mc,
        ]
        long_path = noise._PYTHON_RECURSION_MAX + 1
        builders = {
            "stationary_path": (
                "ktfloor.stationary_path(ktfloor.OuProcess(1.0, 1.0), 1.0, 3, seed=0)",
                "00",
            ),
            "mc --dump-path": (
                f"main({[*mc, '--dump-path', str(tmp_path / 'path.csv')]!r})",
                "00",
            ),
            # lfilter's module, which imports scipy.special itself.
            "long stationary_path": (
                "ktfloor.stationary_path("
                f"ktfloor.OuProcess(1.0, 1.0), 1.0, {long_path}, seed=0)",
                "11",
            ),
            # Short paths past the loop budget in all.
            "many short paths": (
                f"for i in range({long_path // 1000 + 1}): ktfloor.stationary_path("
                "ktfloor.OuProcess(1.0, 1.0), 1.0, 1000, seed=0, path_index=i)",
                "11",
            ),
        }
        for name, (builder, after) in builders.items():
            script = (
                "import contextlib, io, sys\n"
                "loaded = lambda: ''.join(\n"
                "    str(int(name in sys.modules)) for name in ('scipy.signal', 'scipy.special')\n"
                ")\n"
                "import ktfloor\n"
                "seen = [loaded()]\n"
                "from ktfloor.cli import main\n"
                "seen.append(loaded())\n"
                "codes = []\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    for argv in {commands!r}:\n"
                "        codes.append(main(argv))\n"
                "        seen.append(loaded())\n"
                f"    {builder}\n"
                "seen.append(loaded())\n"
                "print(codes, *seen)\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            # The package, the CLI and the five commands load neither module.
            expected = f"[0, 0, 0, 0, 0] 00 00 00 00 00 00 00 {after}"
            assert done.stdout.strip() == expected, name
