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

import contextlib
import csv
import io
import math
import os
import re
import stat
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ._workers import _map
from .errors import ConfigError, DegenerateTreatmentError, SchemaError, SplitError
from .errors import _check_size, _is_count, _is_finite_number
from .theory import NuisanceOracle

COVARIATE_LAWS = ("standard_normal", "uniform")
SPLIT_SCHEMES = {"ihdp_63_27_10": (0.63, 0.27, 0.10), "twins_news_56_24_20": (0.56, 0.24, 0.20)}

# logistic(3.8918) ~ 0.98: overlap bound for logistic propensities on the radius-3 ball
_MAX_ABS_LOGIT = math.log(0.98 / 0.02)


def _logistic(v):
    """1 / (1 + exp(-v)) per value by libm's exp, in v's shape: scipy's expit, bit for bit.
    nn._logistic's faster numpy exp differs on ~2 % of values and would change the data."""
    def one(z):
        try:
            return 1.0 / (1.0 + math.exp(-z))
        except OverflowError:  # exp(-z) past the double range: the limit 0
            return 0.0

    v = np.asarray(v, dtype=float)
    return np.fromiter(map(one, v.ravel().tolist()), float, v.size).reshape(v.shape)[()]


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
        return self.scale * _logistic(X @ np.asarray(self.slopes, dtype=float) + self.offset)


@dataclass(frozen=True)
class ConstantPropensity:
    p: float

    def values(self, X):
        return np.full(np.asarray(X).shape[0], self.p)

    def check_overlap(self):
        try:
            inside = 0.0 < self.p < 1.0
        except TypeError:  # not a number
            inside = False
        if not inside:
            _check_finite("constant propensity", self)
            raise ConfigError(f"constant propensity {self.p} outside (0, 1)")


@dataclass(frozen=True)
class LogisticPropensity:
    slopes: tuple
    offset: float = 0.0

    def values(self, X):
        return _logistic(np.asarray(X, dtype=float) @ np.asarray(self.slopes, float) + self.offset)

    def check_overlap(self):
        # |offset| + 3 * |slopes| bounds |logit| on the ball of radius 3 around
        # the origin; it must keep e in (0.02, 0.98) there. A setting that is
        # no finite number fails too, and only then is each checked by name.
        try:
            worst = abs(self.offset) + 3.0 * float(np.linalg.norm(self.slopes))
        except (TypeError, ValueError, OverflowError):  # not numbers
            worst = math.nan
        if not worst <= _MAX_ABS_LOGIT:
            _check_finite("logistic propensity", self)
            raise ConfigError(
                f"logistic propensity can leave (0.02, 0.98): worst |logit| {worst:.3f}"
            )


def _check_finite(what, part):
    """ConfigError naming the first setting of the DGP part `part` that is not
    a finite number by _is_finite_number's rule; its `slopes` is a sequence
    of them. One fsum over all its numbers passes the common case, so only a
    part that fails it is checked setting by setting."""
    numbers = dict(vars(part))
    try:
        if math.isfinite(math.fsum(numbers.pop("slopes", ())) + math.fsum(numbers.values())):
            return
    except (TypeError, ValueError, OverflowError):  # a non-number, inf - inf, or too large
        pass
    for name, value in vars(part).items():
        if not all(map(_is_finite_number, value if name == "slopes" else (value,))):
            raise ConfigError(f"{what} {name} must be finite, got {value!r}")


def _surface_dimension_ok(what, part, d):
    """Whether the DGP part `part` fits d covariates: it has no `slopes`
    field, or d slopes. ConfigError naming `what` when its slopes are no
    sequence (caught, not tested for, as lemma checks build many specs)."""
    if not hasattr(part, "slopes"):
        return True
    try:
        return len(part.slopes) == d
    except TypeError:  # a number, None
        raise ConfigError(
            f"{what} slopes must be a sequence of d numbers, got {part.slopes!r}"
        ) from None


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
        if not _is_count(self.d):
            raise ConfigError("covariate dimension must be >= 1")
        if self.covariate_law not in COVARIATE_LAWS:
            raise ConfigError(f"unknown covariate law {self.covariate_law!r}")
        if not (_is_finite_number(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(
                f"noise sigma must be finite and nonnegative, got {self.noise_sigma!r}"
            )
        if not _is_count(self.seed, least=0):
            raise ConfigError("seed must be a nonnegative integer")
        if not _surface_dimension_ok("baseline", self.baseline, self.d):
            raise ConfigError("baseline surface dimension != d")
        if not _surface_dimension_ok("effect", self.effect, self.d):
            raise ConfigError("effect surface dimension != d")
        if not _surface_dimension_ok("propensity", self.propensity, self.d):
            raise ConfigError("propensity dimension != d")
        _check_finite("baseline", self.baseline)
        _check_finite("effect", self.effect)
        self.propensity.check_overlap()

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


def _require_both_arms(data, context):
    treated, control = data.arm_counts()
    if treated == 0 or control == 0:
        raise DegenerateTreatmentError(
            f"{context}: both treatment arms are required ({treated} treated, {control} control)"
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
    if not _is_count(n):
        raise ConfigError("need n >= 1 samples")
    _check_size("n", n)
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
    """Train/validation/test fractions: three finite numbers > 0 that sum to 1."""

    scheme: str
    fractions: tuple

    def __post_init__(self):
        fractions = self.fractions
        if not (isinstance(fractions, Sequence) and len(fractions) == 3
                and all(_is_finite_number(f) and f > 0 for f in fractions)):
            raise SplitError("bad config value: split fractions must be three finite numbers > 0, "
                             f"got {fractions!r}")
        object.__setattr__(self, "fractions", tuple(fractions))
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise SplitError("fractions must sum to 1")

    @classmethod
    def ihdp(cls):
        return cls("ihdp_63_27_10", SPLIT_SCHEMES["ihdp_63_27_10"])

    @classmethod
    def twins_news(cls):
        return cls("twins_news_56_24_20", SPLIT_SCHEMES["twins_news_56_24_20"])

    @classmethod
    def custom(cls, fractions):
        return cls("custom", fractions)

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


def _output_target(path):
    """(real path, st_mode or None, in place) of an output `path`: where
    _replaced_whole writes it, the mode of what is there now, and whether
    it is written in place."""
    path = os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return path, None, False
    return path, mode, not stat.S_ISREG(mode)


@contextlib.contextmanager
def _replaced_whole(path, mode="w", **kwargs):
    """open(path, mode, **kwargs) for writing, except that the file appears
    whole or not at all. The block writes a temporary file beside `path`,
    which os.replace puts onto `path` only once the block succeeds; on an
    error it is removed, and `path` keeps its earlier content or stays
    absent. The file gets the permissions open(path, "w") gives: an
    existing file's mode, or for a new one those of the umask. A path that
    exists and is no regular file (/dev/null, a pipe) is written in place:
    there is no file to replace."""
    path, kept, in_place = _output_target(path)
    if in_place:
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fh = open(temporary, mode.replace("w", "x"), **kwargs)  # "x": a new file, never another's
    try:
        with fh:
            if kept is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(kept))
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


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
    with _replaced_whole(path, newline="", encoding="utf-8") as fh:
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
    """Row number (header = 0) of the first line that is not valid UTF-8,
    with lines ended as csv and _line_end end them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        return len(_LINE_END.findall(raw, 0, err.start))
    return None


def _read_header(reader):
    """(header, has_gt) from the first CSV record; SchemaError if malformed."""
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
    return header, has_gt


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
    parsed in the processes _workers._processes gives, each holding one
    range's bytes at a time. A line is parsed alone, so the arrays are bitwise the same for any
    process count.

    None means the file is not plain: a bad header, non-UTF-8 bytes, a
    blank line, a field numpy's parser rejects, or a value the schema
    forbids. _columns_by_row then reads it and raises the exact error.
    """
    with open(path, "rb") as fh:
        head = _line_end(fh, 0)
        fh.seek(0)
        try:
            header, has_gt = _read_header(csv.reader([fh.read(head).decode("utf-8")]))
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
    return _columns(tables, has_gt)


def _columns_by_row(path):
    """(x, t, y, y1, y0) read one csv record at a time; SchemaError names the row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header, has_gt = _read_header(reader)
            rows = []
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise SchemaError(f"expected {len(header)} fields, got {len(row)}", row=i)
                t_val = _parse_float(row[0], i, "t")
                if t_val not in (0.0, 1.0):
                    raise SchemaError(f"treatment must be 0 or 1, got {row[0]!r}", row=i)
                values = [t_val, _parse_float(row[1], i, "y")]
                if has_gt:
                    values += [_parse_float(row[2], i, "y1"), _parse_float(row[3], i, "y0")]
                    if values[1] != values[2 if t_val == 1.0 else 3]:
                        raise SchemaError(
                            "y must equal the potential outcome of the received arm "
                            "(y1/y0 are potential outcomes, not noiseless surfaces)",
                            row=i,
                        )
                # the x columns, by the names _read_header checked
                values += [_parse_float(row[j], i, header[j]) for j in range(len(values), len(row))]
                rows.append(values)
    except UnicodeDecodeError:
        raise SchemaError("file is not UTF-8 text", row=_first_non_utf8_row(path)) from None
    if not rows:
        raise SchemaError("file has a header but no rows", row=1)
    return _columns([np.asarray(rows, dtype=float)], has_gt)


def _columns(tables, has_gt):
    """(x, t, y, y1, y0) of (rows, fields) tables whose fields follow the
    header, stacked in order: the one column split of both readers."""

    def column(index):
        return np.concatenate([table[:, index] for table in tables])

    x = column(slice(4 if has_gt else 2, None))
    y1, y0 = (column(2), column(3)) if has_gt else (None, None)
    return x, column(0).astype(int), column(1), y1, y0


def load_csv(path):
    """Load a dataset written under the canonical schema.

    Ground-truth columns, when present, must satisfy y == t*y1 + (1-t)*y0
    exactly: y1/y0 are the (possibly noisy) potential outcomes, one of which
    is the factual outcome, not noiseless surface values.

    The body is parsed by np.loadtxt in byte ranges, in parallel processes
    (see _columns_at_once). Anything unusual (a blank
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
        if not _is_count(self.count):
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


def _slopes(d, *leading):
    """`leading`, then zeros up to d slopes."""
    return tuple((list(leading) + [0.0] * d)[:d])


# family -> d -> (propensity, baseline or None for the shared one, effect, noise sigma)
_FAMILY_PARTS = {
    "confound-linear": lambda d: (
        LogisticPropensity(_slopes(d, 0.8), -0.2), None, AffineSurface(2.0, _slopes(d)), 1.0),
    "confound-hetero": lambda d: (
        LogisticPropensity(tuple(np.add(_slopes(d, 0.6), _slopes(d, 0.0, 0.3))), 0.0), None,
        AffineSurface(1.0, _slopes(d, 2.0)), 0.5),
    "null-effect": lambda d: (
        LogisticPropensity(_slopes(d, 1.0), 0.0), AffineSurface(1.0, _slopes(d, 1.5, 0.5)),
        AffineSurface(0.0, _slopes(d)), 0.5),
}
DGP_FAMILIES = tuple(_FAMILY_PARTS)


def named_dgp(name, d=5, seed=0):
    """The documented benchmark families.

    confound-linear: affine baseline, logistic confounding, constant effect 2.
    confound-hetero: heterogeneous effect 1 + 2*x0 with logistic confounding.
    null-effect: zero effect everywhere, informative confounding, sigma 0.5.
    """
    if not _is_count(d, least=2):
        raise ConfigError("named families need d >= 2")
    _check_size("d", d)
    if name not in DGP_FAMILIES:  # a tuple scan: an unhashable name is unknown, not a TypeError
        raise ConfigError(f"unknown DGP family {name!r}")
    propensity, baseline, effect, noise_sigma = _FAMILY_PARTS[name](d)
    baseline = baseline or AffineSurface(1.0, _slopes(d, 1.0, 0.5, -0.5, 0.25))
    return DgpSpec(d, "standard_normal", propensity, baseline, effect, noise_sigma, seed)


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
