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
import io
import math
import os
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from ._workers import _map
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
    float difference. y1, y0 and theta become float vectors of n rows and
    must be finite: a difference that overflows is a SchemaError, not an
    infinite effect.
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
        self.check_finite()
        for name in ("y1", "y0", "theta"):
            truth = getattr(self, name)
            if truth is None and name == "theta" and self.has_ground_truth:
                with np.errstate(over="ignore"):  # an overflow is rejected just below
                    truth = self.y1 - self.y0
            if truth is None:
                continue
            truth = np.asarray(truth, dtype=float)
            if truth.shape != (n,):
                raise SchemaError(f"ground truth {name} {truth.shape} must be a vector of {n} rows")
            if not np.isfinite(truth).all():
                raise SchemaError(f"ground truth {name} must be finite (no NaN or inf)")
            setattr(self, name, truth)

    def __len__(self):
        return self.x.shape[0]

    def check_finite(self):
        """SchemaError unless x and y are finite; run again after in-place edits."""
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise SchemaError("covariates and outcomes must be finite (no NaN or inf)")

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

    The four functions share a cache of one point, keyed by the float64
    bytes of the point (not by the object, which a caller may rewrite in
    place). Each surface is evaluated lazily, at most once per point: theta0
    alone evaluates only the effect surface, and f, g0, e0 and theta0 at one
    point together evaluate each surface once. The cache belongs to this
    oracle alone, and every value is bitwise what a fresh evaluation gives.
    """
    # (key, surface values by name); a new point gets a new dict, so a dict
    # only ever holds the values of its own key
    point = (None, {})

    def at(x, *names):
        nonlocal point
        X = np.asarray(x, dtype=float).reshape(1, -1)
        key = X.tobytes()
        seen, values = point
        if seen != key:
            values = {}
            point = (key, values)
        for name in names:
            if name not in values:
                values[name] = float(getattr(spec, name).values(X)[0])
        return [values[name] for name in names]

    def mean(t, b, effect):
        return b + float(t) * effect  # DgpSpec.outcome_mean on one row

    def f(t, x):
        return mean(t, *at(x, "baseline", "effect"))

    def e0(x):
        return at(x, "propensity")[0]

    def theta0(x):
        return at(x, "effect")[0]

    def g0(x):
        e, b, effect = at(x, "propensity", "baseline", "effect")
        return e * mean(1, b, effect) + (1.0 - e) * mean(0, b, effect)

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


_WRITE_BLOCK_ROWS = 4096  # about 700 KB of text per write at d=5
_READ_CHUNK_CHARS = 1 << 20  # bytes of CSV body per parsed range
_SCAN_BYTES = 4096  # read per step while looking for a line end
_LINE_END = re.compile(rb"\r\n?|\n")


def write_csv(data, path):
    """Write a dataset under the canonical schema; value-exact round trip.

    Rows are formatted and written in blocks of _WRITE_BLOCK_ROWS, about
    twice as fast as a csv.writer row loop, with the same bytes; one string
    for the whole file would hold every row's text and Python floats at once.
    """
    header = ["t", "y"]
    columns = [data.t, data.y]
    if data.has_ground_truth:
        header += ["y1", "y0"]
        columns += [data.y1, data.y0]
    header += [f"x{j}" for j in range(data.d)]
    columns += list(data.x.T)
    row = "{:d}" + ",{:.17g}" * (len(columns) - 1) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), _WRITE_BLOCK_ROWS):
            block = [c[start : start + _WRITE_BLOCK_ROWS].tolist() for c in columns]
            fh.write("".join(map(row.format, *block)))
    return path


def _parse_float(text, row, column):
    try:
        v = float(text)
    except ValueError:
        raise SchemaError(f"column {column!r} is not numeric: {text!r}", row=row) from None
    if not math.isfinite(v):
        raise SchemaError(f"non-finite value {text!r} in column {column!r}", row=row)
    return v


def _first_non_utf8_row(path):
    """Row number (header = 0) of the first line that is not valid UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        return raw.count(b"\n", 0, err.start)
    return None


def _read_header(reader):
    """(header, has_gt, d) from the first CSV record; SchemaError if malformed."""
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
    return header, has_gt, len(x_names)


def _line_end(fh, pos):
    """Offset just past the first line end at or after byte `pos` of the
    binary file fh, or past its last byte if none follows. csv ends a line
    at CRLF, CR or LF, and so does this: never between a CRLF's two bytes."""
    fh.seek(pos)
    while block := fh.read(_SCAN_BYTES):
        found = _LINE_END.search(block)
        if found is None:
            pos += len(block)
            continue
        end = pos + found.end()
        if found.end() == len(block) and block.endswith(b"\r") and fh.read(1) == b"\n":
            end += 1  # a CRLF that the block cut in two
        return end
    return pos


def _parse_range(path, begin, end, width, has_gt):
    """The (rows, width) table of the body bytes [begin, end) of `path`,
    parsed by np.loadtxt, or None if they are not plain (see
    _columns_at_once). The bytes end at a line end or the end of the file."""
    with open(path, "rb") as fh:
        fh.seek(begin)
        raw = fh.read(end - begin)
    # one line per LF, CR or CRLF, and one for a last line without a line end;
    # loadtxt skips blank lines, so a count that differs shows one
    lines = raw.count(b"\n") + (not raw.endswith((b"\n", b"\r")))
    if b"\r" in raw:  # a scan that stops at the first CR, cheaper than two counts
        lines += raw.count(b"\r") - raw.count(b"\r\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(
                io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"),  # universal newlines
                delimiter=",", comments=None, ndmin=2, dtype=float,
            )
    except ValueError:  # a field numpy rejects, or bytes that are not UTF-8
        return None
    if table.shape != (lines, width) or not np.isfinite(table).all():
        return None
    t, y = table[:, 0], table[:, 1]
    if not ((t == 0) | (t == 1)).all():
        return None
    if has_gt and not np.array_equal(y, np.where(t == 1, table[:, 2], table[:, 3])):
        return None
    return table


def _columns_at_once(path):
    """(x, t, y, y1, y0) parsed by np.loadtxt in byte ranges, or None.

    The body is cut into ranges of about _READ_CHUNK_CHARS bytes, each
    ending at a line end, and each range is one of _map's tasks, so they are
    parsed in up to one process per CPU, each holding one range's bytes at a
    time. A line is parsed alone, so the arrays are bitwise the same for any
    process count.

    None means the file is not plain: a bad header, non-UTF-8 bytes, a
    blank line, a field numpy's parser rejects, or a value the schema
    forbids. _columns_by_row then reads it and raises the exact error.
    """
    with open(path, "rb") as fh:
        head = _line_end(fh, 0)
        fh.seek(0)
        try:
            header, has_gt, _ = _read_header(csv.reader([fh.read(head).decode("utf-8")]))
        except (SchemaError, UnicodeDecodeError, csv.Error):
            return None
        start, size = head, os.fstat(fh.fileno()).st_size
        ranges = []
        while start < size:
            ranges.append((start, _line_end(fh, min(start + _READ_CHUNK_CHARS, size) - 1)))
            start = ranges[-1][1]
    if not ranges:  # a header alone: the row loop raises
        return None
    tables = _map(lambda i: _parse_range(path, *ranges[i], len(header), has_gt), len(ranges))
    if any(table is None for table in tables):
        return None

    def column(index):
        return np.concatenate([table[:, index] for table in tables])

    x = column(slice(4 if has_gt else 2, None))
    y1, y0 = (column(2), column(3)) if has_gt else (None, None)
    return x, column(0).astype(int), column(1), y1, y0


def _columns_by_row(path):
    """(x, t, y, y1, y0) read one csv record at a time; SchemaError names the row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header, has_gt, d = _read_header(reader)
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
    except UnicodeDecodeError:
        raise SchemaError("file is not UTF-8 text", row=_first_non_utf8_row(path)) from None
    if not t_rows:
        raise SchemaError("file has a header but no rows", row=1)
    return (
        np.asarray(x_rows, dtype=float),
        np.asarray(t_rows, dtype=int),
        np.asarray(y_rows, dtype=float),
        np.asarray(y1_rows, dtype=float) if has_gt else None,
        np.asarray(y0_rows, dtype=float) if has_gt else None,
    )


def load_csv(path):
    """Load a dataset written under the canonical schema.

    Ground-truth columns, when present, must satisfy y == t*y1 + (1-t)*y0
    exactly: y1/y0 are the (possibly noisy) potential outcomes, one of which
    is the factual outcome, not noiseless surface values.

    The body is parsed by np.loadtxt in byte ranges, in up to one process
    per CPU (see _columns_at_once). Anything unusual (a blank
    line, which is an error; a quoted field; a spelling such as ``2_5`` that
    Python's float() accepts and numpy's parser does not; a value the schema
    forbids) goes through a row-by-row reader instead, which gives the same
    result, or the same SchemaError with the same message and row.
    """
    x, t, y, y1, y0 = _columns_at_once(path) or _columns_by_row(path)
    return Dataset(x, t, y, y1, y0, provenance=str(path))


# ---------------------------------------------------------------------------
# replications


def _seed_sequence(*parts):
    """The one seed derivation: every random stream of a replication, an
    ensemble member or a bench probe starts from the SeedSequence of its
    integer parts."""
    return np.random.SeedSequence([int(p) for p in parts])


def _derived_seed(*parts):
    return int(_seed_sequence(*parts).generate_state(1, dtype=np.uint64)[0] >> 1)


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
