"""Record, the package's frozen value base, behaves as the frozen dataclass
it replaced: each test builds the same class both ways and compares."""

import dataclasses
from functools import cached_property
from typing import Optional

import pytest

from guaranteesim.record import FrozenRecordError, Record, asdict


class Inner(Record):
    label: str
    weights: tuple = (0.25, 0.75)


class Point(Record):
    x: float
    y: float
    tag: Optional[str] = None
    inner: Optional[Inner] = None
    extras: dict = None

    def __post_init__(self):
        if self.x < 0:
            raise ValueError(f"x must be nonnegative, got {self.x}")
        object.__setattr__(self, "y", float(self.y))

    @cached_property
    def norm(self):
        return (self.x ** 2 + self.y ** 2) ** 0.5


@dataclasses.dataclass(frozen=True)
class InnerTwin:
    label: str
    weights: tuple = (0.25, 0.75)


@dataclasses.dataclass(frozen=True)
class PointTwin:
    x: float
    y: float
    tag: Optional[str] = None
    inner: Optional[InnerTwin] = None
    extras: dict = None

    def __post_init__(self):
        if self.x < 0:
            raise ValueError(f"x must be nonnegative, got {self.x}")
        object.__setattr__(self, "y", float(self.y))


def _both(*args, **kwargs):
    return Point(*args, **kwargs), PointTwin(*args, **kwargs)


CALLS = [
    ((3, 4), {}),
    ((3,), {"y": 4, "tag": "a"}),
    ((), {"x": 0.5, "y": 2, "extras": {"k": [1, 2]}}),
    ((1, 2, "b"), {}),
]


@pytest.mark.parametrize("args,kwargs", CALLS)
def test_repr_eq_and_hash_match_the_dataclass(args, kwargs):
    record, twin = _both(*args, **kwargs)
    assert repr(record) == repr(twin).replace("PointTwin", "Point")
    assert record == Point(*args, **kwargs)
    assert record != Point(7, 8)
    assert record != twin
    assert record.__eq__(twin) is NotImplemented
    if record.extras is None:
        assert hash(record) == hash(twin) == hash(Point(*args, **kwargs))
    else:
        # a dict field is unhashable either way
        with pytest.raises(TypeError):
            hash(twin)
        with pytest.raises(TypeError):
            hash(record)


def test_post_init_normalises_and_validates_as_the_dataclass_does():
    record, twin = _both(1, 2)
    assert type(record.y) is type(twin.y) is float
    for cls in (Point, PointTwin):
        with pytest.raises(ValueError, match="nonnegative"):
            cls(-1, 0)


def test_assignment_and_deletion_raise_attribute_error():
    for value in _both(1, 2):
        for name in ("x", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 5)
            with pytest.raises(AttributeError):
                delattr(value, name)
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'x'"):
        Point(1, 2).x = 3
    with pytest.raises(FrozenRecordError, match="cannot delete field 'y'"):
        del Point(1, 2).y


@pytest.mark.parametrize("args,kwargs", [
    ((1,), {}),                      # missing y
    ((), {"y": 1}),                  # missing x
    ((1, 2), {"z": 3}),              # unknown keyword
    ((1, 2), {"x": 3}),              # x twice
    ((1, 2, "a", None, None, 6), {}),  # too many positional arguments
])
def test_bad_arguments_raise_type_error(args, kwargs):
    for cls in (Point, PointTwin):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_asdict_matches_the_dataclass_on_nested_values():
    extras = {"nested": Inner("k"), "list": [Inner("m", (1,)), 2], "t": (Inner("n"),)}
    record = Point(1, 2, "t", Inner("a"), extras)
    twin_extras = {"nested": InnerTwin("k"), "list": [InnerTwin("m", (1,)), 2],
                   "t": (InnerTwin("n"),)}
    twin = PointTwin(1, 2, "t", InnerTwin("a"), twin_extras)
    assert asdict(record) == dataclasses.asdict(twin)
    assert list(asdict(record)) == ["x", "y", "tag", "inner", "extras"]
    assert type(asdict(record)["extras"]["t"]) is tuple


def test_fields_and_defaults_keep_declaration_order():
    assert Point._fields == tuple(f.name for f in dataclasses.fields(PointTwin))
    assert Point(1, 2).__dict__ == {"x": 1, "y": 2.0, "tag": None,
                                    "inner": None, "extras": None}
    assert Inner("a").weights == InnerTwin("a").weights == Inner.weights


def test_cached_property_works_on_a_record():
    record = Point(3, 4)
    assert record.norm == 5.0
    assert record.__dict__["norm"] == 5.0
    # the cached value is no field
    assert record == Point(3, 4) and "norm" not in repr(record)


def test_required_field_after_a_default_fails_at_definition():
    with pytest.raises(TypeError, match="non-default argument 'b'"):
        class Bad(Record):
            a: int = 0
            b: int
    with pytest.raises(TypeError):
        @dataclasses.dataclass(frozen=True)
        class BadTwin:
            a: int = 0
            b: int
