"""Data generation, splits, CSV round trips, replications."""

import csv
import hashlib
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cdnn import bench
from cdnn import data as dmod
from cdnn.baselines import dml_ate
from cdnn.bench import verify_lemma
from cdnn.data import (
    DGP_FAMILIES,
    AffineSurface,
    ConstantPropensity,
    Dataset,
    DgpSpec,
    LogisticPropensity,
    ReplicationSet,
    SigmoidSurface,
    SplitSpec,
    concat_datasets,
    generate,
    load_csv,
    named_dgp,
    oracle_of,
    split,
    write_csv,
)
from cdnn.errors import ConfigError, SchemaError, SplitError
from cdnn.theory import NuisanceOracle

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the tests that write a file rewrite the same tmp_path file in every example
FILE_EXAMPLES = {"deadline": None, "suppress_health_check": [HealthCheck.function_scoped_fixture]}


def reference_write_csv(data, path):
    """The csv.writer row loop that write_csv replaced; its bytes are the reference."""
    header = ["t", "y"]
    if data.has_ground_truth:
        header += ["y1", "y0"]
    header += [f"x{j}" for j in range(data.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(data)):
            row = [str(int(data.t[i])), format(float(data.y[i]), ".17g")]
            if data.has_ground_truth:
                row += [format(float(data.y1[i]), ".17g"), format(float(data.y0[i]), ".17g")]
            row += [format(float(v), ".17g") for v in data.x[i]]
            writer.writerow(row)
    return path


def reference_oracle_of(spec):
    """The oracle_of body without the per-point cache; its values are the reference."""

    def f(t, x):
        X = np.asarray(x, dtype=float).reshape(1, -1)
        return float(spec.outcome_mean(t, X)[0])

    def e0(x):
        X = np.asarray(x, dtype=float).reshape(1, -1)
        return float(spec.propensity.values(X)[0])

    def theta0(x):
        X = np.asarray(x, dtype=float).reshape(1, -1)
        return float(spec.effect.values(X)[0])

    def g0(x):
        e = e0(x)
        return e * f(1, x) + (1.0 - e) * f(0, x)

    return NuisanceOracle(g0=g0, e0=e0, theta0=theta0, f=f, noise_sigma=spec.noise_sigma)


def reference_load(path):
    """load_csv through the row-by-row reader alone."""
    return Dataset(*dmod._columns_by_row(path))


def outcome(loader, path):
    """A loader's result as comparable data: every array's dtype and bits, or the error."""
    try:
        ds = loader(path)
    except SchemaError as err:
        return type(err), str(err), err.row
    fields = ("x", "t", "y", "y1", "y0", "theta")
    arrays = [getattr(ds, f) for f in fields]
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


def constant_effect_spec(theta=2.0, sigma=0.0, seed=0, d=2, p=0.5):
    return DgpSpec(
        d=d,
        propensity=ConstantPropensity(p),
        baseline=AffineSurface(1.0, tuple([0.5] * d)),
        effect=AffineSurface(theta, tuple([0.0] * d)),
        noise_sigma=sigma,
        seed=seed,
    )


class TestGenerate:
    def test_noiseless_constant_effect_is_exact(self):
        ds = generate(constant_effect_spec(theta=2.0), 200)
        assert np.all(ds.theta == 2.0)

    def test_determinism(self):
        spec = constant_effect_spec(sigma=0.7, seed=123)
        a, b = generate(spec, 300), generate(spec, 300)
        for field in ("x", "t", "y", "y1", "y0"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_factual_consistency(self):
        ds = generate(named_dgp("confound-hetero", seed=2), 500)
        recomposed = np.where(ds.t == 1, ds.y1, ds.y0)
        assert np.array_equal(ds.y, recomposed)
        # stored effect agrees with the potential-outcome difference to the
        # last couple of bits (y1 is assembled as y0 + theta)
        assert np.allclose(ds.theta, ds.y1 - ds.y0, rtol=1e-14, atol=1e-14)

    def test_logistic_propensity_binomial_band(self):
        # among samples whose true propensity sits in [0.6, 0.7], the treated
        # fraction should land in that band up to binomial noise
        spec = named_dgp("null-effect", seed=9)
        ds = generate(spec, 100_000)
        e = spec.propensity.values(ds.x)
        sel = (e >= 0.6) & (e <= 0.7)
        k = int(sel.sum())
        frac = ds.t[sel].mean()
        three_sigma = 3.0 * np.sqrt(0.65 * 0.35 / k)
        assert 0.6 - three_sigma <= frac <= 0.7 + three_sigma

    def test_oracle_data_agreement_in_bins(self):
        # sample mean of y in a covariate bin tracks bin-averaged g0
        spec = named_dgp("confound-linear", seed=6)
        ds = generate(spec, 100_000)
        oracle = oracle_of(spec)
        x0 = ds.x[:, 0]
        sel = (x0 > 0.0) & (x0 < 0.5)
        g_bin = np.mean([oracle.g0(x) for x in ds.x[sel][:4000]])
        y_bin = ds.y[sel][:4000].mean()
        se = ds.y[sel][:4000].std() / np.sqrt(4000)
        assert abs(y_bin - g_bin) <= 3.0 * se

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            constant_effect_spec(sigma=-1.0)
        with pytest.raises(ConfigError):
            DgpSpec(
                d=2,
                propensity=LogisticPropensity((5.0, 0.0)),  # leaves (0.02, 0.98)
                baseline=AffineSurface(0.0, (0.0, 0.0)),
                effect=AffineSurface(0.0, (0.0, 0.0)),
                noise_sigma=0.0,
                seed=0,
            )

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, "0.5"], ids=["nan", "inf", "string"])
    def test_a_noise_sigma_that_is_not_a_finite_number_is_rejected(self, sigma):
        with pytest.raises(ConfigError, match="^noise sigma must be finite and nonnegative, got"):
            constant_effect_spec(sigma=sigma)

    @pytest.mark.parametrize(
        "slopes, offset, name",
        [((math.nan, 0.0), 0.0, "slopes"), ((0.1, math.inf), 0.0, "slopes"),
         ((0.1, 0.0), math.nan, "offset"), ((0.1, 0.0), -math.inf, "offset")],
        ids=["nan-slope", "inf-slope", "nan-offset", "inf-offset"],
    )
    def test_a_non_finite_logistic_propensity_is_rejected(self, slopes, offset, name):
        with pytest.raises(ConfigError, match=f"^logistic propensity {name} must be finite"):
            DgpSpec(
                d=2,
                propensity=LogisticPropensity(slopes, offset),
                baseline=AffineSurface(0.0, (0.0, 0.0)),
                effect=AffineSurface(0.0, (0.0, 0.0)),
                noise_sigma=0.0,
                seed=0,
            )

    # (part, setting) -> the DgpSpec settings that put `value` there, and the
    # name the error gives it
    SURFACE_SETTINGS = {
        "affine-intercept": (lambda v: {"baseline": AffineSurface(v, (0.5, 0.5))},
                             "baseline intercept"),
        "affine-slope": (lambda v: {"effect": AffineSurface(1.0, (0.0, v))}, "effect slopes"),
        "sigmoid-scale": (lambda v: {"effect": SigmoidSurface(v, (0.1, 0.0), 0.0)},
                          "effect scale"),
        "sigmoid-slope": (lambda v: {"baseline": SigmoidSurface(1.0, (v, 0.0), 0.0)},
                          "baseline slopes"),
        "sigmoid-offset": (lambda v: {"effect": SigmoidSurface(1.0, (0.1, 0.0), v)},
                           "effect offset"),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, "1.0"], ids=["nan", "inf", "string"])
    @pytest.mark.parametrize("setting", sorted(SURFACE_SETTINGS))
    def test_a_surface_setting_that_is_not_a_finite_number_is_named(self, setting, value):
        parts, name = self.SURFACE_SETTINGS[setting]
        flat = AffineSurface(0.0, (0.0, 0.0))
        spec = {"d": 2, "propensity": ConstantPropensity(0.5),
                "baseline": flat, "effect": flat, "noise_sigma": 0.0, "seed": 0}
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got "):
            DgpSpec(**{**spec, **parts(value)})

    @pytest.mark.parametrize(
        "propensity, message",
        [(ConstantPropensity("0.5"), "constant propensity p must be finite, got '0.5'"),
         (ConstantPropensity(math.nan), "constant propensity p must be finite, got nan"),
         (LogisticPropensity(("a", 0.0)),
          "logistic propensity slopes must be finite, got ('a', 0.0)"),
         (LogisticPropensity((0.1, 0.0), "0"),
          "logistic propensity offset must be finite, got '0'")],
        ids=["constant-string", "constant-nan", "logistic-string-slope", "logistic-string-offset"],
    )
    def test_a_propensity_setting_that_is_not_a_number_is_named(self, propensity, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DgpSpec(2, propensity, AffineSurface(0.0, (0.0, 0.0)),
                    AffineSurface(0.0, (0.0, 0.0)), 0.0, 0)

    @pytest.mark.parametrize(
        "part, message",
        [({"baseline": AffineSurface(1.0, 0.5)}, "baseline slopes must be a sequence of d "
          "numbers, got 0.5"),
         ({"effect": AffineSurface(1.0, None)}, "effect slopes must be a sequence of d "
          "numbers, got None"),
         ({"baseline": SigmoidSurface(1.0, 2, 0.0)}, "baseline slopes must be a sequence of d "
          "numbers, got 2"),
         ({"propensity": LogisticPropensity(0.5)}, "propensity slopes must be a sequence of d "
          "numbers, got 0.5")],
        ids=["affine-number", "affine-none", "sigmoid-number", "logistic-number"],
    )
    def test_slopes_that_are_no_sequence_are_named(self, part, message):
        flat = AffineSurface(0.0, (0.0, 0.0))
        spec = {"d": 2, "propensity": ConstantPropensity(0.5),
                "baseline": flat, "effect": flat, "noise_sigma": 0.0, "seed": 0}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DgpSpec(**{**spec, **part})

    def test_finite_settings_beyond_the_sum_of_the_float_range_pass(self):
        # the one fsum overflows, and the settings checked by name are finite
        huge = AffineSurface(1e308, (1e308, 1e308))
        DgpSpec(2, ConstantPropensity(0.5), huge, huge, 0.0, 0)


def _generated_digest(spec, n):
    """SHA-256 of generate(spec, n) and of its true propensities: a treatment
    draw rarely flips on a last-bit change, so the propensities carry them."""
    ds = generate(spec, n)
    h = hashlib.sha256()
    e = spec.propensity.values(ds.x)
    for a in (ds.x, ds.t.astype(np.int64), ds.y, ds.y1, ds.y0, ds.theta, e):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# _generated_digest(named_dgp(family, seed=seed), 2000), from the version that
# drew its logistic propensities with scipy.special.expit
GENERATED_DIGESTS = {
    ("confound-linear", 0): "138f620f04c8737559a428262cddfa5ee1094acd249da583bee80acde36d939f",
    ("confound-linear", 1): "9f7a6895c759a38dc7517c723204a814852cb5605fee87c01ac8a9c560850f87",
    ("confound-linear", 2): "ca3e60bc04dbae8e3d00ef879f484b20216398589fdba228e9e400ed77fa993a",
    ("confound-hetero", 0): "cfcbe901309cd5d70f6f0a084550181e415d923e039f87464e0cddceba93c21f",
    ("confound-hetero", 1): "86ef4b56201c3d16e17799faad5f973f43f27a6948de2c9d2153a3e0d50a7c84",
    ("confound-hetero", 2): "e7bbaa8637aab49e8d26e082a624cea91798a5def5e0c05942735f67a9bfa870",
    ("null-effect", 0): "ff6fbe033d78379d13efb56a41522e75824373abc0643fceffe943ffa6e131e7",
    ("null-effect", 1): "5a28862241690931ae9b310a00c2744a48bb3a80381c8e9e0ec30e5950c613eb",
    ("null-effect", 2): "fe6fc98b8a552e80ccbb387296de2fcb765f9d810008a9b39a512a02cf18c11f",
}

# a logistic grid over the whole double range, NaN included: normal draws at
# several scales, a grid over [-800, 800], and the overflow edges
LOGISTIC_GRID = np.concatenate(
    [np.random.default_rng(0).standard_normal(20_000) * s for s in (0.1, 1.0, 5.0, 40.0)]
    + [
        np.linspace(-800.0, 800.0, 16_001),
        [0.0, -0.0, 709.8, -709.8, 746.0, -746.0, 5e-324, -5e-324],
        [np.inf, -np.inf, np.nan],
    ]
)


class TestLogistic:
    """data._logistic draws every logistic propensity and sigmoid surface, so
    its bits fix every generated dataset."""

    @pytest.mark.parametrize("family, seed", sorted(GENERATED_DIGESTS))
    def test_generated_data_are_pinned(self, family, seed):
        digest = _generated_digest(named_dgp(family, seed=seed), 2000)
        assert digest == GENERATED_DIGESTS[family, seed]

    def test_a_random_dgp_with_sigmoid_surfaces_is_pinned(self):
        spec = dmod.random_dgp(np.random.default_rng(5))
        assert isinstance(spec.baseline, SigmoidSurface)
        assert isinstance(spec.effect, SigmoidSurface)
        assert isinstance(spec.propensity, LogisticPropensity)
        assert _generated_digest(spec, 2000) == (
            "44289473dd9a30941b0e4e02a9165f393fa3260749bc8ac1f9faa01eb2471339"
        )

    def test_bitwise_scipy_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        ours = dmod._logistic(LOGISTIC_GRID)
        assert ours.dtype == np.float64
        assert np.array_equal(ours.view(np.int64), expit(LOGISTIC_GRID).view(np.int64))

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 4)])
    def test_keeps_the_input_shape(self, shape):
        expit = pytest.importorskip("scipy.special").expit
        v = np.random.default_rng(1).standard_normal(shape) * 10.0
        ours, theirs = dmod._logistic(v), expit(v)
        assert type(ours) is type(theirs)
        assert np.shape(ours) == shape
        assert np.array_equal(ours, theirs)

    def test_saturates_without_overflow(self):
        v = np.array([-1e308, -746.0, 0.0, 746.0, 1e308])
        assert dmod._logistic(v).tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_importing_the_cli_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(dmod.__file__))
        code = "import sys, cdnn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out == "[]\n"


class TestOracleOf:
    def test_constant_mixture_arithmetic(self):
        # f(0,x)=a, effect=c, e0=p  ->  g0 = a + p*c
        spec = DgpSpec(
            d=1,
            propensity=ConstantPropensity(0.3),
            baseline=AffineSurface(1.5, (0.0,)),
            effect=AffineSurface(2.0, (0.0,)),
            noise_sigma=0.0,
            seed=0,
        )
        oracle = oracle_of(spec)
        assert oracle.g0(np.zeros(1)) == pytest.approx(1.5 + 0.3 * 2.0, abs=1e-15)

    def test_null_effect_collapses_to_baseline(self):
        spec = named_dgp("null-effect", seed=1)
        oracle = oracle_of(spec)
        x = np.random.default_rng(0).standard_normal(spec.d)
        assert oracle.g0(x) == pytest.approx(oracle.f(0, x), abs=1e-15)

    def test_passes_consistency_checks(self, assert_oracle_consistent):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = dmod.random_dgp(rng)
            probes = rng.standard_normal((10, spec.d))
            assert_oracle_consistent(oracle_of(spec), probes)

    CALLS = (("f", 0), ("f", 1), ("g0",), ("e0",), ("theta0",))

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from((None,) + DGP_FAMILIES),
        data=st.data(),
    )
    def test_values_are_bitwise_the_uncached_reference(self, seed, family, data):
        rng = np.random.default_rng(seed)
        if family is None:
            spec = dmod.random_dgp(rng)
        else:
            spec = named_dgp(family, d=int(rng.integers(2, 6)), seed=seed % 1000)
        oracle, reference = oracle_of(spec), reference_oracle_of(spec)
        points = []
        for scale in (1e-3, 1.0, 30.0):
            x = scale * rng.standard_normal(spec.d)
            points += [x.tolist(), np.rint(x).astype(int), x]
        # every function at every point twice, in a shuffled order
        calls = [(k, c) for k in range(len(points)) for c in self.CALLS] * 2
        calls = data.draw(st.permutations(calls))
        rewrites = set(data.draw(st.lists(st.integers(0, len(calls) - 1), max_size=8)))
        for i, (k, (name, *t)) in enumerate(calls):
            if i in rewrites and not isinstance(points[k], list):
                # a caller may reuse its array for the next point, as _probe_points does
                points[k][:] = 30.0 * rng.standard_normal(spec.d)
            got = getattr(oracle, name)(*t, points[k])
            want = getattr(reference, name)(*t, points[k])
            assert type(got) is float
            assert got.hex() == want.hex(), (name, t, points[k])


@pytest.fixture
def surface_calls(monkeypatch):
    """Every surface object whose values() runs, once per call."""
    calls = []
    for cls in (AffineSurface, SigmoidSurface, ConstantPropensity, LogisticPropensity):

        def spy(self, X, values=cls.values):
            calls.append(self)  # keeps the object alive, so ids stay unique
            return values(self, X)

        monkeypatch.setattr(cls, "values", spy)
    return calls


class TestOracleEvaluationCount:
    def test_lemma_suite_evaluates_each_surface_once_per_oracle(self, surface_calls, monkeypatch):
        monkeypatch.setattr(bench, "LEMMA_ORACLES", 50)
        assert verify_lemma(seed=0).passed
        per_surface = {}
        for surface in surface_calls:
            per_surface[id(surface)] = per_surface.get(id(surface), 0) + 1
        assert max(per_surface.values()) == 1
        assert len(per_surface) == 3 * 50  # baseline, effect and propensity of each oracle

    def test_theta0_evaluates_only_the_effect_surface(self, surface_calls):
        spec = named_dgp("confound-hetero", seed=0)
        oracle = oracle_of(spec)
        x = np.random.default_rng(0).standard_normal(spec.d)
        oracle.theta0(x)
        assert surface_calls == [spec.effect]
        oracle.theta0(x)
        oracle.f(1, x)
        assert surface_calls == [spec.effect, spec.baseline]
        oracle.g0(x)
        oracle.e0(x)
        assert surface_calls == [spec.effect, spec.baseline, spec.propensity]
        x[0] += 1.0  # the same array holding a new point
        oracle.theta0(x)
        assert surface_calls == [spec.effect, spec.baseline, spec.propensity, spec.effect]

    def test_cache_is_not_shared_between_oracles(self, surface_calls):
        a, b = named_dgp("confound-hetero", seed=0), named_dgp("confound-linear", seed=0)
        x = np.ones(a.d)
        assert oracle_of(a).theta0(x) == 3.0  # 1 + 2 * x0
        assert oracle_of(b).theta0(x) == 2.0
        assert surface_calls == [a.effect, b.effect]


class TestSplit:
    def test_ihdp_sizes_round_n(self):
        ds = generate(constant_effect_spec(), 1000)
        parts = split(ds, SplitSpec.ihdp(), seed=0)
        assert tuple(len(p) for p in parts) == (630, 270, 100)

    def test_ihdp_sizes_n747(self):
        ds = generate(constant_effect_spec(), 747)
        parts = split(ds, SplitSpec.ihdp(), seed=0)
        assert tuple(len(p) for p in parts) == (471, 201, 75)

    def test_disjoint_and_exhaustive(self):
        ds = generate(constant_effect_spec(sigma=1.0), 501)
        train, val, test = split(ds, SplitSpec((0.56, 0.24, 0.20)), seed=3)
        ys = np.concatenate([train.y, val.y, test.y])
        assert len(ys) == 501
        assert np.array_equal(np.sort(ys), np.sort(ds.y))

    def test_permuting_rows_changes_membership_not_sizes(self):
        ds = generate(constant_effect_spec(sigma=1.0, seed=5), 400)
        shuffled = ds.subset(np.random.default_rng(1).permutation(400))
        a = split(ds, SplitSpec.ihdp(), seed=9)
        b = split(shuffled, SplitSpec.ihdp(), seed=9)
        assert [len(p) for p in a] == [len(p) for p in b]
        assert not np.array_equal(np.sort(a[2].y), np.sort(b[2].y))

    def test_empty_part_rejected(self):
        ds = generate(constant_effect_spec(), 3)
        with pytest.raises(SplitError):
            split(ds, SplitSpec.ihdp(), seed=0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(SplitError):
            SplitSpec((0.5, 0.4, 0.2))
        with pytest.raises(SplitError):
            SplitSpec((0.9, 0.1, -0.0))

    @pytest.mark.parametrize(
        "fractions",
        [(math.nan, 0.5, 0.5), (0.5, math.inf, 0.25), ("0.5", "0.25", "0.25"),
         (True, 0.5, 0.5), (10**400, 0.5, 0.5), 0.5, "0.5"],
        ids=["nan", "infinite", "strings", "bool", "huge-int", "scalar", "string"],
    )
    def test_non_finite_or_non_numeric_fractions_rejected(self, fractions):
        with pytest.raises(SplitError, match="must be three finite numbers > 0"):
            SplitSpec(fractions)

    def test_fractions_are_stored_as_given_in_a_tuple(self):
        assert SplitSpec([0.5, 0.25, 0.25]).fractions == (0.5, 0.25, 0.25)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 100_000),
        k=st.tuples(st.integers(1, 98), st.integers(1, 98)).filter(lambda k: sum(k) < 100),
    )
    def test_percent_fractions_follow_the_floor_remainder_rule(self, n, k):
        # exact integer arithmetic: validation floor(f_val*n), test the
        # complement of floor((f_train+f_val)*n), train the rest
        k_train, k_val = k
        spec = SplitSpec((k_train / 100, k_val / 100, (100 - k_train - k_val) / 100))
        n_val = n * k_val // 100
        n_test = n - n * (k_train + k_val) // 100
        expected = (n - n_val - n_test, n_val, n_test)
        if min(expected) < 1:
            with pytest.raises(SplitError):
                spec.sizes(n)
        else:
            assert spec.sizes(n) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 10**6),
        f_train=st.floats(1e-6, 1.0),
        f_val=st.floats(1e-6, 1.0),
    )
    def test_any_fractions_sum_to_n(self, n, f_train, f_val):
        assume(f_train + f_val < 1.0 - 1e-6)
        spec = SplitSpec((f_train, f_val, 1.0 - f_train - f_val))
        shares = [f * n for f in spec.fractions]
        try:
            sizes = spec.sizes(n)
        except SplitError:
            assert min(shares) < 1.0 + 1e-6
            return
        assert sum(sizes) == n and min(sizes) >= 1
        assert shares[1] - 1.0 < sizes[1] <= shares[1] + 1e-9
        assert shares[2] - 1e-6 <= sizes[2] < shares[2] + 1.0 + 1e-6


class TestCsv:
    def test_round_trip_is_value_exact(self, tmp_path):
        ds = generate(named_dgp("confound-hetero", seed=3), 100)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.x, ds.x)
        assert np.array_equal(loaded.t, ds.t)
        assert np.array_equal(loaded.y, ds.y)
        assert np.array_equal(loaded.y1, ds.y1)
        assert np.array_equal(loaded.y0, ds.y0)

    def test_minimal_ground_truth_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("t,y,y1,y0,x0\n1,3,3,1,0.5\n0,2,5,2,-0.25\n")
        ds = load_csv(path)
        assert np.array_equal(ds.theta, [2.0, 3.0])

    def test_file_without_ground_truth(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,y,x0,x1\n1,3,0.5,1\n0,2,-0.25,0\n")
        ds = load_csv(path)
        assert not ds.has_ground_truth
        assert ds.theta is None

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,t,x0\n1,0,2\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_non_binary_treatment_rejected_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,x0\n0,1,2\n2,1,3\n")
        with pytest.raises(SchemaError) as info:
            load_csv(path)
        assert info.value.row == 2

    def test_nan_rejected_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,x0\n0,nan,2\n")
        with pytest.raises(SchemaError) as info:
            load_csv(path)
        assert info.value.row == 1

    @pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "-1e999"])
    def test_infinity_rejected_with_row(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,y,x0\n0,1,2\n1,3,{text}\n")
        with pytest.raises(SchemaError, match="non-finite") as info:
            load_csv(path)
        assert info.value.row == 2

    @pytest.mark.parametrize(
        "content, row",
        [
            (b"t,y,\xff\n0,1,2\n", 0),
            (b"t,y,x0\n0,1,2\n1,\xff\xfe,3\n", 2),
            # past the reader's first decoded chunk: the row is still exact
            (b"t,y,x0\n" + b"0,1,2\n" * 3000 + b"1,3,\xff\xfe\n", 3001),
        ],
        ids=["header", "data-row", "far-row"],
    )
    def test_non_utf8_bytes_rejected_with_row(self, tmp_path, content, row):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match="not UTF-8") as info:
            load_csv(path)
        assert info.value.row == row

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_row_is_counted_at_every_line_end(self, tmp_path, end):
        # csv ends a line at LF, CRLF or CR, and the row count does too
        path = tmp_path / "bad.csv"
        path.write_bytes(end.join([b"t,y,x0", b"0,1,2", b"1,3,4", b"1,\xff,5", b"0,2,6", b""]))
        with pytest.raises(SchemaError, match="not UTF-8") as info:
            load_csv(path)
        assert info.value.row == 3

    def test_inconsistent_factual_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,y1,y0,x0\n1,3.5,3,1,0.5\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    @settings(max_examples=100, **FILE_EXAMPLES)
    @given(
        rows=st.integers(1, 6),
        d=st.integers(1, 3),
        gt=st.booleans(),
        data=st.data(),
    )
    def test_round_trip_is_bitwise_for_any_finite_double(self, tmp_path, rows, d, gt, data):
        def doubles(shape):
            size = math.prod(shape)
            values = data.draw(st.lists(FINITE, min_size=size, max_size=size))
            return np.array(values, dtype=float).reshape(shape)

        t = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
        y1, y0 = doubles((rows,)), doubles((rows,))
        y = np.where(t == 1, y1, y0) if gt else doubles((rows,))
        x = doubles((rows, d))
        path = tmp_path / "data.csv"
        with np.errstate(over="ignore"):
            overflows = gt and not np.isfinite(y1 - y0).all()
        if overflows:  # theta = y1 - y0 is not finite: rejected when built and when loaded
            with pytest.raises(SchemaError, match="ground truth theta"):
                Dataset(x, t, y, y1, y0)
            write_csv(Dataset(x, t, y, y1, y0, theta=np.zeros(rows)), path)
            with pytest.raises(SchemaError, match="ground truth theta"):
                load_csv(path)
            return
        ds = Dataset(x, t, y, y1 if gt else None, y0 if gt else None)
        write_csv(ds, path)
        loaded = load_csv(path)
        for field in ("x", "t", "y", "y1", "y0"):
            a, b = getattr(ds, field), getattr(loaded, field)
            assert (a is None and b is None) or (a.dtype == b.dtype and a.tobytes() == b.tobytes())


class TestCsvWriter:
    SPECIAL = [-0.0, 0.0, 5e-324, -2.2250738585072e-310, 1e308, -1e308, 1.7976931348623157e308,
               0.1, -1 / 3]

    @pytest.mark.parametrize("block_rows", [7, dmod._WRITE_BLOCK_ROWS])
    @pytest.mark.parametrize("gt", [True, False])
    @pytest.mark.parametrize("d", [1, 5])
    def test_bytes_match_the_row_writer(self, tmp_path, monkeypatch, gt, d, block_rows):
        monkeypatch.setattr(dmod, "_WRITE_BLOCK_ROWS", block_rows)
        ds = generate(named_dgp("confound-hetero", d=max(d, 2), seed=4), 300)
        x = ds.x[:, :d].copy()
        x[: len(self.SPECIAL), 0] = self.SPECIAL
        y1, y0 = ds.y1.copy(), ds.y0.copy()
        y1[: len(self.SPECIAL)] = self.SPECIAL
        y0[: len(self.SPECIAL)] = self.SPECIAL[::-1]
        y = np.where(ds.t == 1, y1, y0)
        # write_csv does not write theta; y1 - y0 would overflow on the special rows
        theta = np.zeros(len(y)) if gt else None
        ds = Dataset(x, ds.t, y, y1 if gt else None, y0 if gt else None, theta)
        write_csv(ds, tmp_path / "fast.csv")
        reference_write_csv(ds, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestCsvLoaderParity:
    """load_csv parses the body with np.loadtxt and falls back to a row loop."""

    ODD_FIELDS = ["", " 1", "2 ", "\t2", "2_5", "\u0662", '"2.5"', "nan", "-inf", "Infinity",
                  "1e999", "1e-400", "-0", "+.5", "5.", "1e", ".", "0x1p3", "1,2", "2\x00",
                  "2\x0c", "1.0", "0.5", "2"]
    SPELLINGS = [repr, lambda v: format(v, ".17g"), lambda v: format(v, ".3g")]

    @settings(max_examples=300, **FILE_EXAMPLES)
    @given(
        rows=st.integers(1, 6),
        d=st.integers(1, 3),
        gt=st.booleans(),
        mixed_eols=st.booleans(),
        final_eol=st.booleans(),
        data=st.data(),
    )
    def test_same_dataset_or_error_as_the_row_loop(
        self, tmp_path, monkeypatch, rows, d, gt, mixed_eols, final_eol, data
    ):
        def number():
            return data.draw(st.sampled_from(self.SPELLINGS))(data.draw(FINITE))

        header = ["t", "y"] + (["y1", "y0"] if gt else []) + [f"x{j}" for j in range(d)]
        table = []
        for _ in range(rows):
            t = data.draw(st.sampled_from(["0", "1"]))
            y1, y0 = number(), number()
            fields = [t, y1 if t == "1" else y0] + ([y1, y0] if gt else [])
            table.append(fields + [number() for _ in range(d)])
        for _ in range(data.draw(st.integers(0, 2))):
            row = data.draw(st.integers(0, rows - 1))
            col = data.draw(st.integers(0, len(header) - 1))
            table[row][col] = data.draw(st.sampled_from(self.ODD_FIELDS))
        lines = [",".join(header)] + [",".join(fields) for fields in table]
        if data.draw(st.integers(0, 9)) == 0:
            lines.insert(data.draw(st.integers(1, len(lines))), "")
        # one line end for the file, or one per line (LF, CRLF and CR-only mixed)
        eol = st.sampled_from(["\n", "\r\n", "\r"])
        eols = data.draw(st.lists(eol, min_size=len(lines), max_size=len(lines)) if mixed_eols
                         else eol.map(lambda e: [e] * len(lines)))
        text = "".join(line + end for line, end in zip(lines, eols))
        path = tmp_path / "data.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text if final_eol else text[: -len(eols[-1])])
        # short read chunks cut some \r\n pairs in two while lines are counted
        chunk = data.draw(st.sampled_from([1, 2, 3, 5, dmod._READ_CHUNK_CHARS]))
        monkeypatch.setattr(dmod, "_READ_CHUNK_CHARS", chunk)
        assert outcome(load_csv, path) == outcome(reference_load, path)

    @pytest.mark.parametrize(
        "text, loads",
        [
            ("t,y,x0\n0,1,2\n\n1,3,4\n", False),  # blank line in the middle
            ("t,y,x0\n0,1,2\n1,3,4\n\n", False),  # blank line at the end
            ("t,y,x0\n0,1,2\n2,3,4\n", False),
            ("t,y,x0\n0,nan,2\n", False),
            ("t,y,x0\n0,1,Infinity\n", False),
            ('t,y,x0\n0,1,"2.5"\n', True),
            ("t,y,x0\n0,1,2_5\n", True),
            ("t,y,x0\n0,1,\u0662\n", True),
            ("t,y,x0\r0,1,2\r1,3,4\r", True),  # CR-only line ends
            ("t,y,x0\n0,1,2\r1,3,4\n\n", False),  # a CR line end and a blank line
            ("t,y,x0\n0,1,2,\n", False),  # trailing comma
            ("t,y,x0\n0,,2\n", False),  # empty field
            ("t,y,x0\n0,1,2\n   \n1,3,4\n", False),  # whitespace-only line
            ("t,y,x0\n", False),  # header only
            ("t,y,x0\n0.5,1,2\n", False),
            ("t,y,y1,y0,x0\n1,3,3,1,0.5\n0,3,3,1,0.5\n", False),  # y is not y0 in row 2
        ],
        ids=["blank-middle", "blank-end", "t-2", "nan", "infinity", "quoted", "underscore",
             "arabic-digit", "cr-only", "cr-and-blank", "trailing-comma", "empty-field",
             "whitespace-line", "header-only", "t-half", "ground-truth-mismatch"],
    )
    def test_corruption_gives_the_row_loop_result(self, tmp_path, text, loads):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        result = outcome(load_csv, path)
        assert result == outcome(reference_load, path)
        assert (result[0] is not SchemaError) == loads

    @pytest.mark.parametrize("chunk", [3, dmod._READ_CHUNK_CHARS])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r", "none"])
    @pytest.mark.parametrize("gt", [True, False])
    def test_written_file_never_enters_the_row_loop(self, tmp_path, monkeypatch, gt, eol, chunk):
        ds = generate(named_dgp("confound-hetero", seed=6), 500)
        if not gt:
            ds = Dataset(ds.x, ds.t, ds.y)
        path = write_csv(ds, tmp_path / "data.csv")
        if eol == "none":  # no line end after the last row
            path.write_bytes(path.read_bytes()[:-1])
        else:
            path.write_bytes(path.read_bytes().replace(b"\n", eol.encode()))
        expected = outcome(reference_load, path)
        monkeypatch.setattr(dmod, "_READ_CHUNK_CHARS", chunk)

        def spy(path):
            raise AssertionError(f"{path} went through the row loop")

        monkeypatch.setattr(dmod, "_columns_by_row", spy)
        assert outcome(load_csv, path) == expected


# the (text, loads) cases of TestCsvLoaderParity.test_corruption_gives_the_row_loop_result
CORRUPTIONS = next(mark for mark in TestCsvLoaderParity.test_corruption_gives_the_row_loop_result
                   .pytestmark if mark.name == "parametrize")


class TestParallelCsv:
    """load_csv parses line-aligned byte ranges in forked workers, with
    bitwise the arrays, or the error, of one process and of the row loop."""

    @pytest.fixture(autouse=True)
    def no_worker_outlives_the_case(self):
        yield
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, dmod._READ_CHUNK_CHARS])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r", "mixed"])
    @pytest.mark.parametrize("final_eol", [True, False], ids=["final-eol", "no-final-eol"])
    @pytest.mark.parametrize("gt", [True, False], ids=["gt", "no-gt"])
    def test_arrays_are_bitwise_those_of_one_process_and_the_row_loop(
        self, tmp_path, monkeypatch, processes, count, chunk, eol, final_eol, gt
    ):
        ds = generate(named_dgp("confound-hetero", seed=7), 40)
        if not gt:
            ds = Dataset(ds.x, ds.t, ds.y)
        path = write_csv(ds, tmp_path / "data.csv")
        lines = path.read_bytes().split(b"\n")[:-1]
        ends = [b"\n", b"\r\n", b"\r"]
        eols = [ends[i % 3] if eol == "mixed" else eol.encode() for i in range(len(lines))]
        text = b"".join(line + end for line, end in zip(lines, eols))
        path.write_bytes(text if final_eol else text[: -len(eols[-1])])
        expected = outcome(reference_load, path)
        monkeypatch.setattr(dmod, "_READ_CHUNK_CHARS", chunk)
        # short scan reads cut some \r\n pairs in two while line ends are sought
        monkeypatch.setattr(dmod, "_SCAN_BYTES", chunk)
        processes(1)
        assert outcome(load_csv, path) == expected

        def spy(path):
            raise AssertionError(f"{path} went through the row loop")

        monkeypatch.setattr(dmod, "_columns_by_row", spy)
        processes(count)
        assert outcome(load_csv, path) == expected
        assert processes.counts == [1 if chunk >= len(text) else count]  # one range never forks

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("text", [text for text, _ in CORRUPTIONS.args[1]],
                             ids=CORRUPTIONS.kwargs["ids"])
    def test_corruption_in_a_worker_range_gives_the_serial_result(
        self, tmp_path, monkeypatch, processes, count, text
    ):
        header = re.match(r"[^\r\n]*(\r\n|\r|\n)?", text).group()
        if header == text:
            pytest.skip("a header alone has no body range for a worker to parse")
        # count - 1 plain ranges of len(plain) bytes each, then the corrupted
        # body, which is shorter, as the last worker's range
        plain = ("1,3,3,1,0.5\n" if "y1" in header else "0,1,2\n") * 8
        path = tmp_path / "data.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(header + plain * (count - 1) + text[len(header) :])
        expected = outcome(reference_load, path)
        monkeypatch.setattr(dmod, "_READ_CHUNK_CHARS", len(plain))
        processes(1)
        assert outcome(load_csv, path) == expected
        processes(count)
        assert outcome(load_csv, path) == expected
        assert processes.counts == [count]

    @pytest.mark.parametrize(
        "end, code",
        [(lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)],
        ids=["exit", "killed"],
    )
    def test_a_worker_that_dies_raises_runtime_error(
        self, tmp_path, monkeypatch, processes, end, code
    ):
        path = write_csv(generate(named_dgp("confound-hetero", seed=8), 60), tmp_path / "data.csv")
        monkeypatch.setattr(dmod, "_READ_CHUNK_CHARS", 1000)
        real = dmod._parse_range

        def dying(*args):
            if multiprocessing.parent_process() is not None:
                end()
            return real(*args)

        monkeypatch.setattr(dmod, "_parse_range", dying)
        processes(2)
        with pytest.raises(RuntimeError, match=f"^worker process ended with exit code {code} "):
            load_csv(path)
        assert processes.counts == [2]

    @settings(max_examples=100, **FILE_EXAMPLES)
    @given(rows=st.integers(1, 6), d=st.integers(1, 3), gt=st.booleans(),
           mixed_eols=st.booleans(), final_eol=st.booleans(), data=st.data())
    def test_the_parity_property_holds_in_two_processes(
        self, tmp_path, monkeypatch, processes, rows, d, gt, mixed_eols, final_eol, data
    ):
        """TestCsvLoaderParity's property, drawn the same way, with P = 2."""
        processes(2)
        parity = TestCsvLoaderParity.test_same_dataset_or_error_as_the_row_loop.hypothesis
        parity.inner_test(TestCsvLoaderParity(), tmp_path, monkeypatch, rows, d, gt, mixed_eols,
                          final_eol, data)


class TestDatasetValidation:
    def test_valid_arrays_accepted(self):
        ds = Dataset(np.zeros((3, 2)), [0.0, 1.0, True], np.zeros(3))
        assert ds.t.dtype.kind == "i" and list(ds.t) == [0, 1, 1]

    @pytest.mark.parametrize("t", [[0, 0.5, 1], [0, 2, 1], [0, -1, 1], [0, np.nan, 1]])
    def test_non_binary_treatment_rejected(self, t):
        with pytest.raises(SchemaError, match="treatment must be 0 or 1"):
            Dataset(np.zeros((3, 2)), t, np.zeros(3))

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1), ()])
    def test_covariates_must_be_2d(self, shape):
        with pytest.raises(SchemaError, match="2-d"):
            Dataset(np.zeros(shape), [0, 1, 0], np.zeros(3))

    @pytest.mark.parametrize(
        "t, y", [([0, 1], np.zeros(3)), ([0, 1, 0], np.zeros(4)), ([[0], [1], [0]], np.zeros(3))]
    )
    def test_unequal_lengths_rejected(self, t, y):
        with pytest.raises(SchemaError, match="as long as x"):
            Dataset(np.zeros((3, 2)), t, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcome_rejected(self, bad):
        with pytest.raises(SchemaError, match="finite"):
            Dataset(np.zeros((3, 2)), [0, 1, 0], [0.0, bad, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariate_rejected(self, bad):
        x = np.zeros((3, 2))
        x[2, 1] = bad
        with pytest.raises(SchemaError, match="finite"):
            Dataset(x, [0, 1, 0], np.zeros(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["y1", "y0", "theta"])
    def test_non_finite_ground_truth_rejected(self, field, bad):
        truth = {"y1": np.ones(3), "y0": np.zeros(3), "theta": np.ones(3)}
        truth[field][1] = bad
        with pytest.raises(SchemaError, match=f"ground truth {field} must be finite"):
            Dataset(np.zeros((3, 2)), [0, 0, 0], np.zeros(3), **truth)

    def test_overflowing_effect_rejected_without_a_warning(self):
        # y1 - y0 = 2e308 is not a double; the derived theta would be inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow RuntimeWarning fails the test
            with pytest.raises(SchemaError, match="ground truth theta must be finite"):
                Dataset(np.zeros((1, 1)), [1], [1e308], np.array([1e308]), np.array([-1e308]))

    def test_list_ground_truth_becomes_float_vectors(self):
        ds = Dataset(np.zeros((2, 1)), [0, 1], [0.5, 1.5], [2, 3.5], [1, 1.0])
        for name, want in (("y1", [2.0, 3.5]), ("y0", [1.0, 1.0]), ("theta", [1.0, 2.5])):
            got = getattr(ds, name)
            assert isinstance(got, np.ndarray) and got.dtype == float and list(got) == want

    def test_overflowing_list_ground_truth_rejected(self):
        with pytest.raises(SchemaError, match="ground truth theta must be finite"):
            Dataset(np.zeros((1, 1)), [1], [1e308], [1e308], [-1e308])

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    @pytest.mark.parametrize("field", ["y1", "y0", "theta"])
    def test_ground_truth_of_another_shape_rejected(self, field, shape):
        truth = {"y1": np.ones(3), "y0": np.zeros(3), "theta": np.ones(3)}
        truth[field] = np.ones(shape)
        with pytest.raises(SchemaError, match=f"ground truth {field} .* vector of 3 rows"):
            Dataset(np.zeros((3, 2)), [0, 1, 0], np.zeros(3), **truth)

    def test_short_ground_truth_without_theta_rejected(self):
        with pytest.raises(SchemaError, match="ground truth y1"):
            Dataset(np.zeros((3, 2)), [0, 1, 0], np.zeros(3), [1.0, 2.0], [0.0, 0.0])

    def test_overflowing_effect_in_a_file_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("t,y,y1,y0,x0\n1,1e308,1e308,-1e308,0\n")
        with pytest.raises(SchemaError, match="ground truth theta must be finite"):
            load_csv(path)

    @pytest.mark.parametrize(
        "arrays, name",
        [((np.zeros((2, 1)), [0, 1], ["a", "b"]), "outcome y"),
         ((np.array([["a"], ["b"]]), [0, 1], [0.0, 1.0]), "covariates x"),
         (([[0.0, 1.0], [2.0]], [0, 1], [0.0, 1.0]), "covariates x"),
         ((np.zeros((2, 1)), [0, 1], [0.0, 1.0], ["a", 1.0], [0.0, 0.0]), "ground truth y1"),
         ((np.zeros((2, 1)), [0, 1], [0.0, 1.0], None, None, [{}, 1.0]), "ground truth theta")],
        ids=["string-outcome", "string-covariates", "ragged-covariates", "string-y1",
             "object-theta"],
    )
    def test_an_array_that_is_not_numeric_is_named(self, arrays, name):
        with pytest.raises(SchemaError, match=f"^{name} must be numeric$"):
            Dataset(*arrays)

    def test_concatenating_other_widths_names_both(self):
        one, two = (Dataset(np.zeros((2, d)), [0, 1], [0.0, 1.0]) for d in (1, 2))
        with pytest.raises(SchemaError, match="^datasets to concatenate have 1 and 2 covariates$"):
            concat_datasets([one, two])


class TestReplications:
    def test_count_one_is_the_base_spec(self):
        base = constant_effect_spec(seed=77)
        reps = ReplicationSet(base, 1)
        assert reps.spec_for(0) == base

    def test_index_pure_out_of_order(self):
        base = constant_effect_spec(seed=77)
        reps = ReplicationSet(base, 10)
        s7_first = reps.spec_for(7)
        s3_then = reps.spec_for(3)
        in_order = [reps.spec_for(i) for i in range(10)]
        assert in_order[7] == s7_first
        assert in_order[3] == s3_then

    def test_ten_replications_are_distinct(self):
        base = constant_effect_spec(sigma=0.5, seed=42)
        reps = ReplicationSet(base, 10)
        datasets = [generate(s, 50) for s in reps]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.array_equal(datasets[i].x, datasets[j].x)

    def test_baseline_redraw_changes_surfaces(self):
        base = constant_effect_spec(seed=5)
        reps = ReplicationSet(base, 3, redraw_baseline=True)
        assert reps.spec_for(1).baseline != base.baseline
        assert reps.spec_for(1).effect == base.effect


class TestConfoundingSanity:
    def test_naive_difference_of_means_is_biased(self):
        # the selection bias the two-stage approach exists to remove: under
        # informative confounding the naive contrast misses the true effect
        # by far more than Monte-Carlo noise, while the debiased estimator
        # stays on target
        spec = named_dgp("null-effect", seed=8)
        ds = generate(spec, 20_000)
        y1, y0 = ds.y[ds.t == 1], ds.y[ds.t == 0]
        naive = y1.mean() - y0.mean()
        se = np.sqrt(y1.var() / len(y1) + y0.var() / len(y0))
        assert abs(naive - 0.0) > 5.0 * se
        ate, stderr = dml_ate(ds, seed=0)
        assert abs(ate) <= 4.0 * stderr
