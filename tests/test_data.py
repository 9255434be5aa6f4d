"""Label scaling, chronological splits, and dataset file IO."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionlab import data
from opinionlab.data import (
    DatasetError,
    OpinionDataset,
    ProfileCorpus,
    SplitSpec,
    chronological_split,
    discretize_opinion,
    label_to_continuous,
    load_dataset,
    load_profiles,
    save_dataset,
    save_profiles,
)


def make_dataset(posts, num_users=None, num_classes=5, horizon=None):
    """Dataset of (user, time, label) posts."""
    users, times, labels = zip(*posts)
    num_users = num_users or max(users) + 1
    horizon = horizon if horizon is not None else max(times)
    return OpinionDataset(users, times, labels, num_users, num_classes, horizon)


def columns(dataset):
    return dataset.users(), dataset.times(), dataset.labels()


def assert_same_dataset(actual, expected):
    for a, e in zip(columns(actual), columns(expected)):
        assert a.dtype == e.dtype
        np.testing.assert_array_equal(a, e)
    assert (actual.num_users, actual.num_classes, actual.horizon) == \
        (expected.num_users, expected.num_classes, expected.horizon)


class TestScaling:
    def test_five_class_bin_edges(self):
        # [-1,-0.6) -> 0, [-0.6,-0.2) -> 1, [-0.2,0.2) -> 2, [0.2,0.6) -> 3, [0.6,1] -> 4
        assert discretize_opinion(-1.0) == 0
        assert discretize_opinion(-0.61) == 0
        assert discretize_opinion(-0.6) == 1
        assert discretize_opinion(-0.2) == 2
        assert discretize_opinion(0.19) == 2
        assert discretize_opinion(0.2) == 3
        assert discretize_opinion(0.6) == 4
        assert discretize_opinion(1.0) == 4

    def test_out_of_range_clamped(self):
        assert discretize_opinion(-3.7) == 0
        assert discretize_opinion(2.5) == 4

    def test_midpoints(self):
        np.testing.assert_allclose(
            [label_to_continuous(c, 5) for c in range(5)],
            [-0.8, -0.4, 0.0, 0.4, 0.8],
        )
        np.testing.assert_allclose([label_to_continuous(c, 2) for c in range(2)], [-0.5, 0.5])

    @pytest.mark.parametrize("num_classes", [2, 3, 4, 5, 7])
    def test_round_trip_identity(self, num_classes):
        for c in range(num_classes):
            assert discretize_opinion(label_to_continuous(c, num_classes), num_classes) == c

    def test_vectorized(self):
        x = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
        np.testing.assert_array_equal(discretize_opinion(x), [0, 1, 2, 3, 4])
        np.testing.assert_allclose(label_to_continuous(np.arange(5), 5),
                                   [-0.8, -0.4, 0.0, 0.4, 0.8])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            label_to_continuous(5, 5)
        with pytest.raises(ValueError):
            label_to_continuous(-1, 5)


class TestDatasetInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            make_dataset([(0, 2.0, 1), (0, 1.0, 1)])

    def test_rejects_out_of_range_user(self):
        with pytest.raises(ValueError):
            OpinionDataset([3], [0.0], [1], 2, 5, 1.0)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError):
            OpinionDataset([0], [0.0], [7], 2, 5, 1.0)

    def test_accessors(self):
        ds = make_dataset([(1, 0.0, 2), (0, 1.0, 4)])
        np.testing.assert_array_equal(ds.users(), [1, 0])
        np.testing.assert_array_equal(ds.times(), [0.0, 1.0])
        np.testing.assert_array_equal(ds.labels(), [2, 4])


class TestColumns:
    def test_columns_are_typed_read_only_and_not_copied(self):
        ds = make_dataset([(1, 0.0, 2), (0, 1.0, 4)])
        for column, dtype in zip(columns(ds), (np.int64, np.float64, np.int64)):
            assert column.dtype == dtype
            assert not column.flags.writeable
        assert ds.users() is ds.users() and ds.times() is ds.times() and ds.labels() is ds.labels()

    def test_constructor_copies_its_input(self):
        users = np.array([0, 1])
        ds = OpinionDataset(users, [0.0, 1.0], [2, 3], 2, 5, 1.0)
        users[0] = 1
        np.testing.assert_array_equal(ds.users(), [0, 1])

    def test_split_parts_are_views(self):
        ds = make_dataset([(0, float(t), t % 5) for t in range(10)])
        for part in chronological_split(ds, SplitSpec(0.5, 0.2, 0.3)):
            for column, whole in zip(columns(part), columns(ds)):
                assert np.shares_memory(column, whole)
                assert not column.flags.writeable

    @pytest.mark.parametrize("bad_time", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad_time):
        with pytest.raises(ValueError, match="non-finite post time"):
            OpinionDataset([0, 0], [0.0, bad_time], [1, 1], 1, 5, 1.0)

    def test_malformed_columns_rejected(self):
        with pytest.raises(ValueError, match="user ids must be int64 values"):
            OpinionDataset([0.7], [0.0], [1], 1, 5, 1.0)
        with pytest.raises(ValueError, match="labels must be int64 values"):
            OpinionDataset([0], [0.0], [True], 1, 5, 1.0)
        with pytest.raises(ValueError, match="post times must be float64 values"):
            OpinionDataset([0], ["1.5"], [1], 1, 5, 2.0)
        with pytest.raises(ValueError, match="differ in length"):
            OpinionDataset([0, 0], [0.0], [1], 1, 5, 1.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            OpinionDataset([[0]], [[0.0]], [[1]], 1, 5, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            OpinionDataset([0], [0.0], [1], 1, 5, np.nan)

    def test_pickle_round_trip(self):
        """Grid search hands splits to worker processes by pickling them."""
        import pickle

        part = chronological_split(make_dataset([(1, 0.0, 2), (0, 1.0, 4)], horizon=3.0),
                                   SplitSpec(0.5, 0.0, 0.5))[2]
        assert_same_dataset(pickle.loads(pickle.dumps(part)), part)


class TestSplit:
    def test_sizes_and_order(self):
        posts = [(0, float(t), t % 5) for t in range(10)]
        ds = make_dataset(posts)
        train, val, test = chronological_split(ds, SplitSpec(0.5, 0.2, 0.3))
        assert (len(train), len(val), len(test)) == (5, 2, 3)
        np.testing.assert_array_equal(train.times(), np.arange(5.0))
        np.testing.assert_array_equal(val.times(), [5.0, 6.0])
        np.testing.assert_array_equal(test.times(), [7.0, 8.0, 9.0])

    def test_partition_property_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            times = np.sort(rng.uniform(0, 100, size=n))
            posts = [(int(rng.integers(0, 4)), float(t), int(rng.integers(0, 5)))
                     for t in times]
            ds = make_dataset(posts, num_users=4)
            fr = rng.dirichlet([1, 1, 1])
            parts = chronological_split(ds, SplitSpec(fr[0], fr[1], 1.0 - fr[0] - fr[1]))
            for whole, *pieces in zip(columns(ds), *map(columns, parts)):
                recombined = np.concatenate(pieces)
                assert recombined.dtype == whole.dtype
                np.testing.assert_array_equal(recombined, whole)  # partition, order preserved

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(1.2, -0.1, -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", ["train_frac", "val_frac", "test_frac"])
    def test_non_finite_fraction_rejected(self, bad, position):
        """A NaN fraction passes both the sum and the sign check unless it is
        refused by name; chronological_split would then fail converting it."""
        fractions = {"train_frac": 0.5, "val_frac": 0.2, "test_frac": 0.3, position: bad}
        with pytest.raises(ValueError, match=position):
            SplitSpec(**fractions)


class TestFileIO:
    def test_round_trip(self, tmp_path):
        ds = make_dataset([(0, 0.0, 1), (2, 0.5, 4), (1, 3.0, 0)], num_users=5, horizon=10.0)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert_same_dataset(loaded, ds)

    def test_meta_preserves_population(self, tmp_path):
        # num_users larger than any posting user must survive the round trip
        ds = make_dataset([(0, 0.0, 1)], num_users=10, horizon=7.0)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.num_users == 10
        assert loaded.horizon == 7.0

    def test_missing_meta_infers(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text('{"user": 3, "time": 1.0, "label": 2}\n')
        loaded = load_dataset(path)
        assert loaded.num_users == 4
        assert loaded.num_classes == 3
        assert loaded.horizon == 1.0

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": 0, "time": 0, "label": 1}\nnot json\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_label_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"meta": {"num_users": 2, "num_classes": 3, "horizon": 5}}\n'
            '{"user": 0, "time": 0, "label": 1}\n'
            '{"user": 1, "time": 1, "label": 9}\n'
        )
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(path)

    def test_meta_not_first_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"user": 0, "time": 0, "label": 1}\n'
            '{"meta": {"num_users": 2, "num_classes": 3, "horizon": 5}}\n'
        )
        with pytest.raises(DatasetError, match="meta"):
            load_dataset(path)

    def test_unsorted_is_sorted_with_warning(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(
            '{"user": 0, "time": 2.0, "label": 1}\n'
            '{"user": 0, "time": 1.0, "label": 0}\n'
        )
        with pytest.warns(UserWarning, match="not sorted"):
            loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.times(), [1.0, 2.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_saved_values_are_plain_json(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        save_dataset(make_dataset([(0, 0.0, 1), (2, 3.0, 4)], horizon=3.0), path)
        assert path.read_text().splitlines() == [
            '{"meta": {"num_users": 3, "num_classes": 5, "horizon": 3.0}}',
            '{"user": 0, "time": 0.0, "label": 1}',
            '{"user": 2, "time": 3.0, "label": 4}',
        ]

    @pytest.mark.parametrize("text, lineno", [
        ('{"user": 0, "time": 0, "label": 1}\n5\n', 2),
        ('{"meta": {"num_users": 2, "num_classes": 3}}\n', 1),
        ('{"meta": [2, 3, 5.0]}\n', 1),
        ('{"meta": {"num_users": 2, "num_classes": 3, "horizon": -1.0}}\n', 1),
        ('{"meta": {"num_users": 2, "num_classes": 3, "horizon": Infinity}}\n', 1),
        ('{"meta": {"num_users": 2.0, "num_classes": 3, "horizon": 5}}\n', 1),
        ('{"user": 0, "time": 0, "label": 1}\n{"user": 0, "time": NaN, "label": 1}\n', 2),
        ('{"user": 0, "time": Infinity, "label": 1}\n', 1),
        ('{"user": 0.7, "time": 0, "label": 1}\n', 1),
        ('{"user": true, "time": 0, "label": 1}\n', 1),
        ('{"user": 0, "time": "1", "label": 1}\n', 1),
        ('{"user": 0, "time": 0}\n', 1),
        ('{"user": 0, "time": 0, "label": 99999999999999999999}\n', 1),
        ('{"user": 0, "time": 1e400, "label": 1}\n', 1),
        ('{"user": ' + "1" * 5000 + ', "time": 0, "label": 1}\n', 1),
        ('{"user": 0, "time": 0, "label": 1}\n' + "[" * 100000 + "\n", 2),
    ])
    def test_malformed_lines_raise_dataset_error(self, tmp_path, text, lineno):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(DatasetError, match=f"line {lineno}:"):
            load_dataset(path)

    def test_profiles_round_trip(self, tmp_path):
        corpus = ProfileCorpus({0: "climate activist", 3: "sports fan"})
        path = tmp_path / "profiles.json"
        save_profiles(corpus, path)
        loaded = load_profiles(path)
        assert loaded.get(0) == "climate activist"
        assert loaded.get(3) == "sports fan"
        assert loaded.get(1) == ""  # missing users read as empty text

    def test_profiles_must_be_object(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DatasetError):
            load_profiles(path)

    @pytest.mark.parametrize("text, key", [
        ('{"1": null}', "'1'"),
        ('{"2": 5}', "'2'"),
        ('{"0": ["a"]}', "'0'"),
        ('{"-3": "neg"}', "'-3'"),
        ('{"a": "x"}', "'a'"),
        ('{"01": "x"}', "'01'"),
        ('{" 1": "x"}', "' 1'"),
        ('{"1.0": "x"}', "'1.0'"),
        ('{"9223372036854775808": "x"}', "'9223372036854775808'"),
        ('{"1": "x"', "invalid JSON"),
    ], ids=["null", "number", "list", "negative", "letter", "leading_zero", "space", "decimal",
            "over_64_bits", "bad_json"])
    def test_malformed_profiles_raise_dataset_error(self, tmp_path, text, key):
        path = tmp_path / "profiles.json"
        path.write_text(text)
        with pytest.raises(DatasetError, match=re.escape(key)):
            load_profiles(path)


class TestPostValidation:
    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError, match="negative user id -1"):
            make_dataset([(-1, 0.0, 0)], num_users=2)
        with pytest.raises(ValueError, match="negative post time -1.0"):
            make_dataset([(0, -1.0, 0)], horizon=1.0)
        with pytest.raises(ValueError, match="negative label -2"):
            make_dataset([(0, 0.0, -2)])


# JSON values for the fields of a record or of its meta line, malformed ones included.
FIELD_VALUES = st.one_of(
    st.integers(-3, 12), st.integers(), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2))


@st.composite
def dataset_lines(draw):
    """One line of a dataset file: a record, a meta line, other JSON or any text."""
    kind = draw(st.sampled_from(["record", "meta", "json", "text"]))
    if kind == "record":
        keys = ("user", "time", "label")
    elif kind == "meta":
        keys = ("num_users", "num_classes", "horizon")
    elif kind == "json":
        return json.dumps(draw(st.recursive(FIELD_VALUES, lambda c: st.lists(c, max_size=3)
                                            | st.dictionaries(st.text(max_size=4), c, max_size=3))))
    else:
        return draw(st.text(max_size=20))
    fields = {k: draw(FIELD_VALUES) for k in keys if draw(st.integers(0, 9)) > 0}
    return json.dumps({"meta": fields} if kind == "meta" else fields)


class TestLoadDatasetProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(dataset_lines(), max_size=6))
    def test_any_text_loads_or_raises_dataset_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.jsonl"
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                ds = load_dataset(path)
            except DatasetError:
                return
        assert len(ds) > 0
        assert np.all(np.isfinite(ds.times())) and np.all(np.diff(ds.times()) >= 0)
        assert 0 <= ds.users().min() and ds.users().max() < ds.num_users
        assert 0 <= ds.labels().min() and ds.labels().max() < ds.num_classes


PROFILE_VALUES = st.one_of(st.text(max_size=8), st.none(), st.integers(), st.floats(),
                           st.booleans(), st.lists(st.text(max_size=2), max_size=2))
PROFILE_KEYS = st.one_of(st.integers(-5, 2**64).map(str), st.text(max_size=5))


class TestLoadProfilesProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.dictionaries(PROFILE_KEYS, PROFILE_VALUES, max_size=4).map(json.dumps),
                     st.recursive(PROFILE_VALUES, lambda c: st.lists(c, max_size=3)).map(json.dumps),
                     st.text(max_size=20)))
    def test_any_text_loads_or_raises_dataset_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "profiles.json"
            path.write_text(text, encoding="utf-8")
            try:
                corpus = load_profiles(path)
            except DatasetError:
                return
        for user, description in corpus.descriptions.items():
            assert type(user) is int and 0 <= user < 2**63
            assert isinstance(description, str)
