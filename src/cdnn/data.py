"""Ground-truth data generation, splits, replications, and CSV ingestion.

Every data-generating process (DGP) here knows its own truth: the baseline
outcome surface f(0, x), the per-unit effect surface, the propensity, and the
noise scale. generate() records factual outcomes together with both potential
outcomes so evaluation metrics never need counterfactual guessing.

CSV schema (bit-exact header): ``t,y[,y1,y0],x0,x1,...,x{d-1}``. UTF-8,
comma separated, ``.`` decimal, doubles written with 17 significant digits so
a write/load round trip is value-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import ConfigError, SchemaError, SplitError
from .theory import NuisanceOracle

COVARIATE_LAWS = ("standard_normal", "uniform")

# expit(3.8918) ~ 0.98: overlap bound for logistic propensities on the 3-sigma ball
_MAX_ABS_LOGIT = math.log(0.98 / 0.02)


# ---------------------------------------------------------------------------
# outcome / effect surfaces and propensity forms


@dataclass(frozen=True)
class AffineSurface:
    intercept: float
    slopes: tuple

    def values(self, X):
        return self.intercept + X @ np.asarray(self.slopes, dtype=float)


@dataclass(frozen=True)
class SigmoidSurface:
    scale: float
    slopes: tuple
    offset: float

    def values(self, X):
        return self.scale * expit(X @ np.asarray(self.slopes, dtype=float) + self.offset)


@dataclass(frozen=True)
class ConstantPropensity:
    p: float

    def values(self, X):
        return np.full(np.asarray(X).shape[0], self.p)

    def check_overlap(self, covariate_law):
        if not 0.0 < self.p < 1.0:
            raise ConfigError(f"constant propensity {self.p} outside (0, 1)")


@dataclass(frozen=True)
class LogisticPropensity:
    slopes: tuple
    offset: float = 0.0

    def values(self, X):
        return expit(np.asarray(X, dtype=float) @ np.asarray(self.slopes, dtype=float) + self.offset)

    def check_overlap(self, covariate_law):
        # worst-case |logit| over the law's 3-sigma ball must keep e in (0.02, 0.98)
        norm = float(np.linalg.norm(self.slopes))
        worst = abs(self.offset) + 3.0 * norm
        if worst > _MAX_ABS_LOGIT:
            raise ConfigError(
                f"logistic propensity can leave (0.02, 0.98): worst |logit| {worst:.3f}"
            )


def _surface_dimension_ok(surface, d):
    slopes = getattr(surface, "slopes", None)
    return slopes is None or len(slopes) == d


# ---------------------------------------------------------------------------
# DGP specification


@dataclass(frozen=True)
class DgpSpec:
    """A fully specified data-generating process.

    Outcomes follow y = baseline(x) + t * effect(x) + noise, treatment is
    Bernoulli(propensity(x)), covariates are standardized under the chosen
    law. The per-unit true effect is effect(x).
    """

    d: int
    covariate_law: str
    propensity: object
    baseline: object
    effect: object
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("covariate dimension must be >= 1")
        if self.covariate_law not in COVARIATE_LAWS:
            raise ConfigError(f"unknown covariate law {self.covariate_law!r}")
        if self.noise_sigma < 0:
            raise ConfigError("noise sigma must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not _surface_dimension_ok(self.baseline, self.d):
            raise ConfigError("baseline surface dimension != d")
        if not _surface_dimension_ok(self.effect, self.d):
            raise ConfigError("effect surface dimension != d")
        if not _surface_dimension_ok(self.propensity, self.d):
            raise ConfigError("propensity dimension != d")
        self.propensity.check_overlap(self.covariate_law)

    def draw_covariates(self, n, rng):
        if self.covariate_law == "standard_normal":
            return rng.standard_normal((n, self.d))
        # zero-mean unit-variance uniform
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(n, self.d))

    def outcome_mean(self, t, X):
        """f(t, x) for scalar t broadcast over the batch."""
        return self.baseline.values(X) + float(t) * self.effect.values(X)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Covariates, binary treatment, factual outcome, optional ground truth.

    theta holds the per-sample effect y1 - y0. Generated data stores it
    explicitly (so a noiseless constant-effect process carries the constant
    bit-exactly); data loaded without a stored effect derives it as the
    float difference.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    y1: np.ndarray | None = None
    y0: np.ndarray | None = None
    theta: np.ndarray | None = None
    provenance: object = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2:
            raise SchemaError(f"covariates must be a 2-d (n, d) array, got shape {self.x.shape}")
        t = np.asarray(self.t)
        if not np.all((t == 0) | (t == 1)):
            raise SchemaError("treatment must be 0 or 1 in every row")
        self.t = t.astype(int)
        self.y = np.asarray(self.y, dtype=float)
        n = self.x.shape[0]
        if self.t.shape != (n,) or self.y.shape != (n,):
            raise SchemaError(
                f"t {self.t.shape} and y {self.y.shape} must be vectors as long as x ({n} rows)"
            )
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise SchemaError("covariates and outcomes must be finite (no NaN or inf)")
        if self.theta is None and self.y1 is not None and self.y0 is not None:
            self.theta = self.y1 - self.y0

    def __len__(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    @property
    def has_ground_truth(self):
        return self.y1 is not None and self.y0 is not None

    def arm_counts(self):
        treated = int(np.sum(self.t == 1))
        return treated, len(self) - treated

    def subset(self, indices):
        indices = np.asarray(indices)
        return Dataset(
            self.x[indices],
            self.t[indices],
            self.y[indices],
            None if self.y1 is None else self.y1[indices],
            None if self.y0 is None else self.y0[indices],
            None if self.theta is None else self.theta[indices],
            self.provenance,
        )


def concat_datasets(parts):
    parts = list(parts)
    if not parts:
        raise SplitError("no datasets to concatenate")
    gt = all(p.has_ground_truth for p in parts)
    return Dataset(
        np.concatenate([p.x for p in parts]),
        np.concatenate([p.t for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.y1 for p in parts]) if gt else None,
        np.concatenate([p.y0 for p in parts]) if gt else None,
        np.concatenate([p.theta for p in parts]) if gt else None,
        parts[0].provenance,
    )


def generate(spec, n):
    """Draw a dataset from the DGP; deterministic in spec.seed.

    Both potential outcomes get independent noise draws and the factual
    outcome is exactly the potential outcome of the received arm. The stored
    per-sample effect is the exact effect-surface value plus the realized
    noise difference, and y1 is built as y0 + theta so the triple stays
    consistent.
    """
    if n < 1:
        raise ConfigError("need n >= 1 samples")
    rng = np.random.default_rng(spec.seed)
    X = spec.draw_covariates(n, rng)
    e = spec.propensity.values(X)
    t = (rng.random(n) < e).astype(int)
    noise0 = spec.noise_sigma * rng.standard_normal(n)
    noise1 = spec.noise_sigma * rng.standard_normal(n)
    y0 = spec.outcome_mean(0, X) + noise0
    theta = spec.effect.values(X) + (noise1 - noise0)
    y1 = y0 + theta
    y = np.where(t == 1, y1, y0)
    return Dataset(X, t, y, y1, y0, theta, provenance=spec)


def oracle_of(spec):
    """Exact nuisance functions consistent with generate().

    The marginal outcome g0 is built from the propensity mixture of the two
    arm means, so the oracle passes the consistency identities bitwise.
    """

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


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions; must sum to 1."""

    scheme: str
    fractions: tuple

    def __post_init__(self):
        if len(self.fractions) != 3 or any(f <= 0 for f in self.fractions):
            raise SplitError("need three positive fractions")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise SplitError("fractions must sum to 1")

    @classmethod
    def ihdp(cls):
        return cls("ihdp_63_27_10", (0.63, 0.27, 0.10))

    @classmethod
    def twins_news(cls):
        return cls("twins_news_56_24_20", (0.56, 0.24, 0.20))

    @classmethod
    def custom(cls, fractions):
        return cls("custom", tuple(float(f) for f in fractions))

    def sizes(self, n):
        """Part sizes under the floor-remainder rule.

        Validation gets floor(f_val*n); the test part is the complement of
        floor((f_train+f_val)*n), i.e. the ceiling of its share; train takes
        the rest. For n=747 under the 63/27/10 scheme this yields
        (471, 201, 75).
        """
        f_train, f_val, f_test = self.fractions
        n_val = int(math.floor(f_val * n + 1e-9))
        n_test = n - int(math.floor((f_train + f_val) * n + 1e-9))
        n_train = n - n_val - n_test
        if min(n_train, n_val, n_test) < 1:
            raise SplitError(f"split of n={n} leaves an empty part")
        return n_train, n_val, n_test


def split(data, spec, seed):
    """Uniform random partition into (train, validation, test)."""
    if len(data) < 3:
        raise SplitError("need at least 3 samples to split")
    n_train, n_val, n_test = spec.sizes(len(data))
    perm = np.random.default_rng(seed).permutation(len(data))
    train = data.subset(perm[:n_train])
    val = data.subset(perm[n_train : n_train + n_val])
    test = data.subset(perm[n_train + n_val :])
    return train, val, test


# ---------------------------------------------------------------------------
# CSV io


def _format_value(v):
    return format(float(v), ".17g")


def write_csv(data, path):
    """Write a dataset under the canonical schema; value-exact round trip."""
    header = ["t", "y"]
    if data.has_ground_truth:
        header += ["y1", "y0"]
    header += [f"x{j}" for j in range(data.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(data)):
            row = [str(int(data.t[i])), _format_value(data.y[i])]
            if data.has_ground_truth:
                row += [_format_value(data.y1[i]), _format_value(data.y0[i])]
            row += [_format_value(v) for v in data.x[i]]
            writer.writerow(row)
    return path


def _parse_float(text, row, column):
    try:
        v = float(text)
    except ValueError:
        raise SchemaError(f"column {column!r} is not numeric: {text!r}", row=row) from None
    if not math.isfinite(v):
        raise SchemaError(f"non-finite value {text!r} in column {column!r}", row=row)
    return v


def load_csv(path):
    """Load a dataset written under the canonical schema.

    Ground-truth columns, when present, must satisfy y == t*y1 + (1-t)*y0
    exactly: y1/y0 are the (possibly noisy) potential outcomes, one of which
    is the factual outcome, not noiseless surface values.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file", row=0) from None
        if header[:2] != ["t", "y"]:
            raise SchemaError(f"header must start with t,y; got {header[:2]}", row=0)
        rest = header[2:]
        has_gt = rest[:2] == ["y1", "y0"]
        x_names = rest[2:] if has_gt else rest
        expected = [f"x{j}" for j in range(len(x_names))]
        if x_names != expected or not x_names:
            raise SchemaError(f"covariate columns must be x0..x{{d-1}}; got {x_names}", row=0)
        d = len(x_names)

        t_rows, y_rows, y1_rows, y0_rows, x_rows = [], [], [], [], []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise SchemaError(f"expected {len(header)} fields, got {len(row)}", row=i)
            t_val = _parse_float(row[0], i, "t")
            if t_val not in (0.0, 1.0):
                raise SchemaError(f"treatment must be 0 or 1, got {row[0]!r}", row=i)
            y_val = _parse_float(row[1], i, "y")
            offset = 2
            if has_gt:
                y1_val = _parse_float(row[2], i, "y1")
                y0_val = _parse_float(row[3], i, "y0")
                factual = y1_val if t_val == 1.0 else y0_val
                if y_val != factual:
                    raise SchemaError(
                        "y must equal the potential outcome of the received arm "
                        "(y1/y0 are potential outcomes, not noiseless surfaces)",
                        row=i,
                    )
                y1_rows.append(y1_val)
                y0_rows.append(y0_val)
                offset = 4
            x_rows.append([_parse_float(row[offset + j], i, f"x{j}") for j in range(d)])
            t_rows.append(int(t_val))
            y_rows.append(y_val)
    if not t_rows:
        raise SchemaError("file has a header but no rows", row=1)
    return Dataset(
        np.asarray(x_rows, dtype=float),
        np.asarray(t_rows, dtype=int),
        np.asarray(y_rows, dtype=float),
        np.asarray(y1_rows, dtype=float) if has_gt else None,
        np.asarray(y0_rows, dtype=float) if has_gt else None,
        provenance=str(path),
    )


# ---------------------------------------------------------------------------
# replications


def _derived_seed(*parts):
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass(frozen=True)
class ReplicationSet:
    """Deterministic family of DGPs derived from one base spec.

    Replication 0 is the base spec itself; replication i >= 1 reseeds it with
    an index-pure derived seed (and optionally redraws the baseline surface
    coefficients, a stand-in for benchmark suites whose response surfaces
    change across replications).
    """

    base: DgpSpec
    count: int
    redraw_baseline: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("replication count must be >= 1")

    def __len__(self):
        return self.count

    def __iter__(self):
        return (self.spec_for(i) for i in range(self.count))

    def spec_for(self, i):
        if not 0 <= i < self.count:
            raise ConfigError(f"replication index {i} out of range")
        if i == 0:
            return self.base
        spec = replace(self.base, seed=_derived_seed(self.base.seed, i, 0))
        if self.redraw_baseline and isinstance(self.base.baseline, AffineSurface):
            rng = np.random.default_rng(_derived_seed(self.base.seed, i, 1))
            slopes = np.asarray(self.base.baseline.slopes) + rng.normal(0.0, 0.3, self.base.d)
            intercept = self.base.baseline.intercept + rng.normal(0.0, 0.3)
            spec = replace(spec, baseline=AffineSurface(float(intercept), tuple(slopes)))
        return spec


def make_replications(base, count, redraw_baseline=False):
    return ReplicationSet(base, count, redraw_baseline)


# ---------------------------------------------------------------------------
# named desk-scale DGP families


def named_dgp(name, d=5, seed=0):
    """The documented benchmark families.

    confound-linear: affine baseline, logistic confounding, constant effect 2.
    confound-hetero: heterogeneous effect 1 + 2*x0 with logistic confounding.
    null-effect: zero effect everywhere, informative confounding, sigma 0.5.
    """
    if d < 2:
        raise ConfigError("named families need d >= 2")

    def axis(weight, index):
        s = [0.0] * d
        s[index] = weight
        return tuple(s)

    base_slopes = [1.0, 0.5, -0.5, 0.25] + [0.0] * max(0, d - 4)
    baseline = AffineSurface(1.0, tuple(base_slopes[:d]))
    if name == "confound-linear":
        return DgpSpec(
            d=d,
            covariate_law="standard_normal",
            propensity=LogisticPropensity(axis(0.8, 0), -0.2),
            baseline=baseline,
            effect=AffineSurface(2.0, tuple([0.0] * d)),
            noise_sigma=1.0,
            seed=seed,
        )
    if name == "confound-hetero":
        return DgpSpec(
            d=d,
            covariate_law="standard_normal",
            propensity=LogisticPropensity(tuple(np.add(axis(0.6, 0), axis(0.3, 1))), 0.0),
            baseline=baseline,
            effect=AffineSurface(1.0, axis(2.0, 0)),
            noise_sigma=0.5,
            seed=seed,
        )
    if name == "null-effect":
        return DgpSpec(
            d=d,
            covariate_law="standard_normal",
            propensity=LogisticPropensity(axis(1.0, 0), 0.0),
            baseline=AffineSurface(1.0, tuple([1.5, 0.5] + [0.0] * (d - 2))),
            effect=AffineSurface(0.0, tuple([0.0] * d)),
            noise_sigma=0.5,
            seed=seed,
        )
    raise ConfigError(f"unknown DGP family {name!r}")


DGP_FAMILIES = ("confound-linear", "confound-hetero", "null-effect")


def random_dgp(rng, d=None, noise_sigma=0.5):
    """A random well-posed DGP; used by the identity verification suites."""
    d = int(rng.integers(1, 5)) if d is None else d

    def random_surface():
        kind = rng.integers(0, 2)
        slopes = tuple(rng.uniform(-1.0, 1.0, d))
        if kind == 0:
            return AffineSurface(float(rng.uniform(-2.0, 2.0)), slopes)
        return SigmoidSurface(float(rng.uniform(-3.0, 3.0)), slopes, float(rng.uniform(-1, 1)))

    if rng.random() < 0.3:
        prop = ConstantPropensity(float(rng.uniform(0.1, 0.9)))
    else:
        slopes = rng.uniform(-1.0, 1.0, d)
        slopes *= min(1.0, 0.9 / np.linalg.norm(slopes))
        prop = LogisticPropensity(tuple(slopes), float(rng.uniform(-0.5, 0.5)))
    return DgpSpec(
        d=d,
        covariate_law="standard_normal",
        propensity=prop,
        baseline=random_surface(),
        effect=random_surface(),
        noise_sigma=noise_sigma,
        seed=int(rng.integers(0, 2**31)),
    )
