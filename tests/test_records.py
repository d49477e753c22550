"""`Record` against `@dataclass(frozen=True)`: for every record of the
package, a frozen dataclass with the same fields and defaults gives the
same repr, equality and hash, and refuses the same constructor calls and
assignments."""

import dataclasses

import pytest

import unisamp.fourier  # noqa: F401  (each module declares its records)
import unisamp.uncertainty  # noqa: F401
import unisamp.universality  # noqa: F401
from unisamp.base import PrimePowerModulus, Record

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


def twin(cls):
    """A frozen dataclass with the fields and defaults of `cls`."""
    own = vars(cls)
    fields = [(name, object, dataclasses.field(default=own[name])) if name in own
              else (name, object) for name in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def values(cls, shift=0):
    """Hashable field values, the last one shifted; (7, 10) and (7, 11)
    are also valid for PrimePowerModulus."""
    return [7, 2, 3, 4, 5, 6][:len(cls.__annotations__) - 1] + [10 + shift]


def outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001
        return type(exc).__name__, None


def test_every_record_is_found():
    assert len(RECORDS) == 15
    assert PrimePowerModulus in RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestAsFrozenDataclass:
    def test_repr_eq_hash(self, cls):
        dc = twin(cls)
        args, other = values(cls), values(cls, shift=1)
        record, same, different = cls(*args), cls(*args), cls(*other)
        assert repr(record) == repr(dc(*args))
        assert hash(record) == hash(dc(*args)) == hash(same)
        assert (record == same, record == different, record != different) == (True, False, True)
        assert record != dc(*args) and dc(*args) != record
        lookalike = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
        assert record != lookalike(*args) and repr(record) == repr(lookalike(*args))
        assert record.__eq__(tuple(args)) is NotImplemented
        assert {record: 1}[same] == 1

    def test_keywords_and_defaults(self, cls):
        dc, fields = twin(cls), list(cls.__annotations__)
        args = values(cls)
        assert cls(**dict(zip(fields, args))) == cls(*args)
        required = [name for name in fields if name not in vars(cls)]
        short = args[:len(required)]
        assert repr(cls(*short)) == repr(dc(*short))
        assert vars(cls(*args)) == dataclasses.asdict(dc(*args))

    def test_bad_calls_raise_type_error(self, cls):
        dc, fields = twin(cls), list(cls.__annotations__)
        args = values(cls)
        calls = [
            lambda c: c(*args, 99),
            lambda c: c(*args[:-1], **{fields[0]: args[0]}) if len(args) > 1 else c(),
            lambda c: c(*args, no_such_field=1),
        ]
        if not all(name in vars(cls) for name in fields):
            calls.append(lambda c: c())
        for call in calls:
            assert outcome(lambda: call(cls))[0] == outcome(lambda: call(dc))[0] == "TypeError"

    def test_immutable(self, cls):
        dc = twin(cls)
        args = values(cls)
        record, frozen = cls(*args), dc(*args)
        name = next(iter(cls.__annotations__))
        for change in (lambda r: setattr(r, name, 0), lambda r: delattr(r, name),
                       lambda r: setattr(r, "other", 0)):
            with pytest.raises(AttributeError) as got:
                change(record)
            with pytest.raises(dataclasses.FrozenInstanceError) as want:
                change(frozen)
            assert str(got.value) == str(want.value)
        assert record == cls(*args)


def test_post_init_validates():
    with pytest.raises(ValueError, match="not prime"):
        PrimePowerModulus(4, 1)
    with pytest.raises(ValueError, match="exponent"):
        PrimePowerModulus(p=2, m=0)
    assert repr(PrimePowerModulus(2, 3)) == "PrimePowerModulus(p=2, m=3)"


def test_default_shared_from_the_class():
    from unisamp.universality import UniversalityVerdict

    assert UniversalityVerdict(True).witness is None
    assert UniversalityVerdict(False, (1, 0, 2)).witness == (1, 0, 2)
    assert UniversalityVerdict(False, witness=(1, 0, 2)).witness == (1, 0, 2)
