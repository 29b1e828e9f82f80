"""Data generation, splits, CSV round trips, replications."""

import numpy as np
import pytest

from cdnn import data as dmod
from cdnn.baselines import dml_ate
from cdnn.data import (
    AffineSurface,
    ConstantPropensity,
    Dataset,
    DgpSpec,
    LogisticPropensity,
    ReplicationSet,
    SplitSpec,
    generate,
    load_csv,
    named_dgp,
    oracle_of,
    split,
    write_csv,
)
from cdnn.errors import ConfigError, SchemaError, SplitError


def constant_effect_spec(theta=2.0, sigma=0.0, seed=0, d=2, p=0.5):
    return DgpSpec(
        d=d,
        covariate_law="standard_normal",
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

    def test_uniform_law_is_standardized(self):
        spec = DgpSpec(
            d=3,
            covariate_law="uniform",
            propensity=ConstantPropensity(0.5),
            baseline=AffineSurface(0.0, (1.0, 0.0, 0.0)),
            effect=AffineSurface(1.0, (0.0, 0.0, 0.0)),
            noise_sigma=0.0,
            seed=4,
        )
        ds = generate(spec, 200_000)
        assert np.max(np.abs(ds.x.mean(axis=0))) < 0.02
        assert np.max(np.abs(ds.x.std(axis=0) - 1.0)) < 0.02

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
                covariate_law="standard_normal",
                propensity=LogisticPropensity((5.0, 0.0)),  # leaves (0.02, 0.98)
                baseline=AffineSurface(0.0, (0.0, 0.0)),
                effect=AffineSurface(0.0, (0.0, 0.0)),
                noise_sigma=0.0,
                seed=0,
            )


class TestOracleOf:
    def test_constant_mixture_arithmetic(self):
        # f(0,x)=a, effect=c, e0=p  ->  g0 = a + p*c
        spec = DgpSpec(
            d=1,
            covariate_law="standard_normal",
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

    def test_passes_consistency_checks(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = dmod.random_dgp(rng)
            probes = rng.standard_normal((10, spec.d))
            assert oracle_of(spec).check_consistency(probes)


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
        train, val, test = split(ds, SplitSpec.twins_news(), seed=3)
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
            SplitSpec.custom((0.5, 0.4, 0.2))
        with pytest.raises(SplitError):
            SplitSpec.custom((0.9, 0.1, -0.0))


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

    def test_inconsistent_factual_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y,y1,y0,x0\n1,3.5,3,1,0.5\n")
        with pytest.raises(SchemaError):
            load_csv(path)


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
