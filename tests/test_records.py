"""The value types: immutable records with fixed fields, compared by value.

Each case builds a record by keyword, with the fields it leaves out at their
defaults, and pins its repr.
"""

import re
from fractions import Fraction

import pytest

from rankone.analysis import AlphaProfile, CertificateReport
from rankone.core import Budget, StageSpec
from rankone.gallery import Caps
from rankone.tower import LevelSet, Point

FIELDS = {
    Budget: ("max_stage", "max_height_bits", "max_descendants", "max_pairs", "max_iterate"),
    StageSpec: ("r", "spacers"),
    Caps: ("max_r",),
    LevelSet: ("stage", "heights"),
    Point: ("stage", "height", "offset"),
    CertificateReport: ("kind", "horizon", "verdict", "rows", "summary", "notes"),
    AlphaProfile: (
        "stage", "k_max", "threshold", "base_size", "exceptions",
        "sup_outside", "sup_outside_at", "ratios",
    ),
}

# one field of each type set to a value no case uses
CHANGED = {
    Budget: {"max_iterate": 5},
    StageSpec: {"spacers": (1, 1, 1)},
    Caps: {"max_r": 3},
    LevelSet: {"heights": (1,)},
    Point: {"height": 5},
    CertificateReport: {"verdict": "w"},
    AlphaProfile: {"base_size": 7},
}

CASES = [
    (
        Budget,
        {},
        "Budget(max_stage=64, max_height_bits=100000, max_descendants=200000, "
        "max_pairs=10000000, max_iterate=1000000)",
    ),
    (
        Budget,
        {"max_stage": 3, "max_pairs": 9},
        "Budget(max_stage=3, max_height_bits=100000, max_descendants=200000, "
        "max_pairs=9, max_iterate=1000000)",
    ),
    (StageSpec, {"r": 3, "spacers": [0, 2, 1]}, "StageSpec(r=3, spacers=(0, 2, 1))"),
    (Caps, {}, "Caps(max_r=64)"),
    (Caps, {"max_r": None}, "Caps(max_r=None)"),
    (LevelSet, {"stage": 2, "heights": [0, 5, 7]}, "LevelSet(stage=2, heights=(0, 5, 7))"),
    (
        Point,
        {"stage": 1, "height": 4, "offset": Fraction(1, 3)},
        "Point(stage=1, height=4, offset=Fraction(1, 3))",
    ),
    (Point, {"stage": 1, "height": 4, "offset": 0}, "Point(stage=1, height=4, offset=Fraction(0, 1))"),
    (
        CertificateReport,
        {"kind": "k", "horizon": 3, "verdict": "v", "rows": ({"a": 1},), "summary": {"b": Fraction(1, 2)}},
        "CertificateReport(kind='k', horizon=3, verdict='v', rows=({'a': 1},), "
        "summary={'b': Fraction(1, 2)}, notes=())",
    ),
    (
        AlphaProfile,
        {
            "stage": 1, "k_max": 12, "threshold": Fraction(1, 2), "base_size": 6,
            "exceptions": ((3, Fraction(2, 3)),), "sup_outside": Fraction(1, 3),
            "sup_outside_at": 5,
        },
        "AlphaProfile(stage=1, k_max=12, threshold=Fraction(1, 2), base_size=6, "
        "exceptions=((3, Fraction(2, 3)),), sup_outside=Fraction(1, 3), "
        "sup_outside_at=5, ratios=None)",
    ),
]

IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_repr_keyword_construction_and_defaults(cls, kwargs, text):
    rec = cls(**kwargs)
    assert repr(rec) == text
    assert type(rec) is cls
    values = [getattr(rec, f) for f in FIELDS[cls]]
    assert cls(*values) == rec
    assert cls(**dict(zip(FIELDS[cls], values))) == rec


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_no_field_or_attribute_can_be_assigned(cls, kwargs, text):
    rec = cls(**kwargs)
    for f in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(rec, f, 1)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert repr(rec) == text


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_equal_values_are_equal_records_with_one_hash(cls, kwargs, text):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    values = tuple(getattr(a, f) for f in FIELDS[cls])
    if cls is CertificateReport:  # its rows and summary are dicts
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    assert cls(**{**kwargs, **CHANGED[cls]}) != a


def test_defaults():
    assert Budget().max_pairs == 10_000_000
    assert Caps().max_r == 64
    report = CertificateReport("k", 0, "v", (), {})
    assert report.notes == ()
    profile = AlphaProfile(0, 1, Fraction(1, 2), 1, (), Fraction(0), None)
    assert profile.ratios is None


@pytest.mark.parametrize(
    "spacers, error, text",
    [
        ((0, True, 2), TypeError, "spacer count must be an int, got True"),
        ((0, 1, -1), ValueError, "spacer count must be at least 0, got -1"),
        ((0, 1.0, 2), TypeError, "spacer count must be an int, got 1.0"),
        ((0, "1", -1), TypeError, "spacer count must be an int, got '1'"),  # the first bad one
        ((0, -2, None), ValueError, "spacer count must be at least 0, got -2"),
    ],
    ids=["bool", "negative", "float", "str-before-negative", "negative-before-none"],
)
def test_spacer_validation_names_the_first_bad_spacer(spacers, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        StageSpec(3, spacers)


def test_spacers_of_int_subclasses_pass_as_before():
    class Level(int):
        pass

    assert StageSpec(2, (Level(0), Level(3))).spacers == (0, 3)


def test_validation_keeps_its_messages():
    with pytest.raises(ValueError, match=r"^need one spacer count per subcolumn: r=2, got 1 spacer entries$"):
        StageSpec(2, (0,))
    with pytest.raises(ValueError, match=r"^cut count must be at least 2, got 1$"):
        StageSpec(1, (0,))
    with pytest.raises(ValueError, match=r"^budget field max_pairs must be at least 1, got 0$"):
        Budget(max_pairs=0)
    with pytest.raises(ValueError, match=r"^max_r must be at least 2, got 1$"):
        Caps(1)
    with pytest.raises(ValueError, match=r"^heights must be strictly increasing$"):
        LevelSet(0, (3, 3))
    with pytest.raises(ValueError, match=r"^a level set needs at least one level$"):
        LevelSet(0, ())
