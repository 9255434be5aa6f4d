"""Post sequences: label scaling, chronological splits, and JSONL IO.

Opinions live on two scales.  Models work with a continuous value in
[-1, 1]; observations are discrete class labels.  ``discretize_opinion``
and ``label_to_continuous`` convert between the two such that
discretize(label_to_continuous(c)) == c for every class.
"""

from __future__ import annotations

import copy
import json
import operator
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

# Five-class bin edges over [-1, 1]; bins are half-open on the left four,
# closed at +1.0.
FIVE_CLASS_EDGES = (-1.0, -0.6, -0.2, 0.2, 0.6, 1.0)


class DatasetError(ValueError):
    """Malformed dataset file or record."""


class OpinionDataset:
    """Time-ordered posts as three read-only columns: post i is user
    ``users()[i]`` posting class ``labels()[i]`` at ``times()[i]``."""

    __slots__ = ("_users", "_times", "_labels", "num_users", "num_classes", "horizon")

    def __init__(self, users, times, labels, num_users: int, num_classes: int, horizon: float):
        users, labels = _column(users, np.int64, "user ids"), _column(labels, np.int64, "labels")
        times = _column(times, np.float64, "post times")
        if not users.shape == times.shape == labels.shape:
            raise ValueError("user, time and label columns differ in length")
        for bad, values, message in (
                (~np.isfinite(times), times, "non-finite post time {}"),
                (times < 0, times, "negative post time {}"),
                (labels < 0, labels, "negative label {}"),
                (users < 0, users, "negative user id {}"),
                (times[1:] < times[:-1], times[1:], "posts must be sorted by time"),
                (users >= num_users, users, f"user id {{}} >= num_users {num_users}"),
                (labels >= num_classes, labels, f"label {{}} >= num_classes {num_classes}")):
            if bad.any():
                raise ValueError(message.format(values[bad.argmax()]))
        if not (np.isfinite(horizon) and horizon >= 0):
            raise ValueError(f"horizon {horizon} is not a finite non-negative number")
        self._users, self._times, self._labels = users, times, labels
        self.num_users, self.num_classes = operator.index(num_users), operator.index(num_classes)
        self.horizon = float(horizon)

    def _slice(self, start: int, stop: int) -> "OpinionDataset":
        """Posts start..stop-1, not validated again: a run of valid sorted posts is one."""
        part = copy.copy(self)
        part._users, part._times, part._labels = (
            c[start:stop] for c in (self._users, self._times, self._labels))
        return part

    def __len__(self):
        return len(self._times)

    def users(self) -> np.ndarray:
        return self._users

    def times(self) -> np.ndarray:
        return self._times

    def labels(self) -> np.ndarray:
        return self._labels


def _column(values, dtype, name: str) -> np.ndarray:
    """A read-only one-dimensional copy of `values`, refusing other kinds of
    value: floats in an integer column, strings or booleans in any."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if values.size and values.dtype.kind not in ("iu" if dtype is np.int64 else "iuf"):
        raise ValueError(f"{name} must be {np.dtype(dtype).name} values, not {values.dtype}")
    column = values.astype(dtype)
    column.flags.writeable = False
    return column


@dataclass(frozen=True)
class ProfileCorpus:
    """Map from user id to free-text profile description (may be empty)."""

    descriptions: dict[int, str]

    def get(self, user_id: int) -> str:
        return self.descriptions.get(user_id, "")


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float

    def __post_init__(self):
        for name in ("train_frac", "val_frac", "test_frac"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be a fraction in [0, 1], got {getattr(self, name)!r}")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {total}, expected 1")


def discretize_opinion(x: float, num_classes: int = 5):
    """Bin a continuous opinion in [-1, 1] into a class index.

    Values outside [-1, 1] are clamped first.  For the default five classes
    the bins are [-1,-0.6), [-0.6,-0.2), [-0.2,0.2), [0.2,0.6), [0.6,1.0];
    for other class counts the bins are uniform over [-1, 1].
    """
    x = np.clip(x, -1.0, 1.0)
    idx = np.floor((np.asarray(x) + 1.0) * num_classes / 2.0).astype(int)
    idx = np.clip(idx, 0, num_classes - 1)
    return int(idx) if np.isscalar(x) or np.asarray(x).ndim == 0 else idx


def label_to_continuous(label, num_classes: int):
    """Midpoint of the label's bin: -1 + (2*label + 1)/C."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    label_arr = np.asarray(label)
    if np.any(label_arr < 0) or np.any(label_arr >= num_classes):
        raise ValueError(f"label {label} out of range for {num_classes} classes")
    value = -1.0 + (2.0 * label_arr + 1.0) / num_classes
    return float(value) if label_arr.ndim == 0 else value


def chronological_split(dataset: OpinionDataset, spec: SplitSpec):
    """Split a time-sorted dataset into (train, val, test) by post index.

    Train takes the first floor(n*train_frac) posts, val the next
    floor(n*val_frac), test the remainder; order is preserved.
    """
    n = len(dataset)
    if n == 0:
        raise DatasetError("cannot split an empty dataset")
    n_train = int(np.floor(n * spec.train_frac))
    n_val = int(np.floor(n * spec.val_frac))
    bounds = (0, n_train, n_train + n_val, n)
    return tuple(dataset._slice(a, b) for a, b in zip(bounds, bounds[1:]))


# ----- file IO ----------------------------------------------------------------
#
# Dataset file: JSON Lines, one {"user", "time", "label"} record per line,
# with an optional leading {"meta": {"num_users", "num_classes", "horizon"}}
# line.  Profiles: one JSON object mapping user-id strings to descriptions.


def save_dataset(dataset: OpinionDataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "num_users": dataset.num_users,
            "num_classes": dataset.num_classes,
            "horizon": dataset.horizon,
        }
        fh.write(json.dumps({"meta": meta}) + "\n")
        columns = (dataset.users().tolist(), dataset.times().tolist(), dataset.labels().tolist())
        for user, time, label in zip(*columns):
            fh.write(json.dumps({"user": user, "time": time, "label": label}) + "\n")


def _field(record: dict, key: str, where: str, integer: bool):
    """record[key] as a non-negative int64 (`integer`) or finite float."""
    value = record.get(key)
    if integer and type(value) is int and 0 <= value < 2**63:
        return value
    if not integer and type(value) in (int, float) and 0 <= value <= sys.float_info.max:
        return float(value)
    kind = "a non-negative 64-bit integer" if integer else "a finite non-negative number"
    raise DatasetError(f"{where}: {key!r} must be {kind}, got {value!r}")


def load_dataset(path) -> OpinionDataset:
    """Read a JSONL dataset; unsorted times are sorted with a warning.

    A malformed line raises DatasetError naming the line.
    """
    meta = None
    posts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
                raise DatasetError(f"{where}: invalid JSON ({getattr(err, 'msg', err)})") from err
            if not isinstance(record, dict):
                raise DatasetError(f"{where}: expected a JSON object, got {record!r}")
            if "meta" in record:
                if lineno != 1 or not isinstance(record["meta"], dict):
                    raise DatasetError(f"{where}: meta must be a JSON object on the first line")
                meta = [_field(record["meta"], key, where, integer=key != "horizon")
                        for key in ("num_users", "num_classes", "horizon")]
                continue
            user, time, label = (_field(record, key, where, integer=key != "time")
                                 for key in ("user", "time", "label"))
            if meta is not None:
                if label >= meta[1]:
                    raise DatasetError(f"{where}: label {label} >= num_classes {meta[1]}")
                if user >= meta[0]:
                    raise DatasetError(f"{where}: user {user} >= num_users {meta[0]}")
            posts.append((user, time, label))
    if not posts:
        raise DatasetError(f"{path}: no posts found")

    users, times, labels = map(np.array, zip(*posts))  # int64, float64, int64
    if np.any(times[1:] < times[:-1]):
        warnings.warn(f"{path}: posts not sorted by time; sorting", stacklevel=2)
        order = np.argsort(times, kind="stable")
        users, times, labels = users[order], times[order], labels[order]
    if meta is None:
        meta = (int(users.max()) + 1, int(labels.max()) + 1, float(times[-1]))
    return OpinionDataset(users, times, labels, *meta)


def save_profiles(corpus: ProfileCorpus, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in sorted(corpus.descriptions.items())}, fh)


def load_profiles(path) -> ProfileCorpus:
    """Read a profile file; a malformed one raises DatasetError naming the key.

    Each key must be the decimal form of a non-negative 64-bit user id and
    each value a string.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
            raise DatasetError(f"{path}: invalid JSON ({getattr(err, 'msg', err)})") from err
    if not isinstance(raw, dict):
        raise DatasetError(f"{path}: profile file must be a JSON object")
    descriptions = {}
    for key, text in raw.items():
        if not (re.fullmatch(r"0|[1-9][0-9]{0,18}", key) and int(key) < 2**63):
            raise DatasetError(f"{path}: key {key!r} is not a non-negative 64-bit user id")
        if not isinstance(text, str):
            raise DatasetError(f"{path}: key {key!r}: description must be a string, got {text!r}")
        descriptions[int(key)] = text
    return ProfileCorpus(descriptions)
