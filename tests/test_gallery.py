"""Construction recipes: frozen stage data, caps behavior, declarations."""

import hashlib
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import analysis, gallery
from rankone.core import (
    Budget,
    BudgetExceeded,
    CapsMakeConstructionUnfaithful,
    PreconditionError,
    StageSpec,
    _SpacerRun,
    gap_pair_count,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::rankone.core.CapsMakeConstructionUnfaithful"
)


# -- staircase families ------------------------------------------------------


def test_staircase_default_is_classical():
    sp = gallery.staircase()
    assert [sp.stage(n).r for n in range(5)] == [2, 3, 4, 5, 6]
    assert [sp.height(n) for n in range(6)] == [1, 3, 12, 54, 280, 1695]
    assert sp.stage(2).spacers == (0, 1, 2, 3)
    assert "strongly-arithmetic" in sp.declared_properties


def test_staircase_int_is_constant():
    sp = gallery.staircase(3)
    assert [sp.stage(n).r for n in range(4)] == [3, 3, 3, 3]
    assert [sp.height(n) for n in range(4)] == [1, 6, 21, 66]


def test_staircase_sequence_rules():
    inc = gallery.staircase((2, 4))
    assert [inc.stage(n).r for n in range(4)] == [2, 4, 5, 6]
    rep = gallery.staircase((2, 4), extend="repeat")
    assert [rep.stage(n).r for n in range(4)] == [2, 4, 4, 4]


RULE_BUILDERS = [
    pytest.param(lambda r: gallery.staircase(r), id="staircase"),
    pytest.param(lambda r: gallery.high_staircase(r, 1, extend="increment"), id="high_staircase-r"),
    pytest.param(lambda z: gallery.high_staircase((3, 5), z, extend="increment"), id="high_staircase-z"),
    pytest.param(lambda r: gallery.partition_staircase(2, r), id="partition_staircase"),
]


@pytest.mark.parametrize("make", RULE_BUILDERS)
def test_iterator_rule_is_recorded_like_its_tuple(make):
    it, tup = make(x for x in (3, 5)), make((3, 5))
    assert [it.stage(n) for n in range(4)] == [tup.stage(n) for n in range(4)]
    assert it.params == tup.params and [3, 5] in it.params.values()
    assert it.fingerprint() == tup.fingerprint()


@pytest.mark.parametrize("make", RULE_BUILDERS)
def test_callable_rule_is_refused_at_construction(make):
    with pytest.raises(TypeError, match="rule must be an int or a sequence of ints, got <function"):
        make(lambda n: n + 5)


def test_staircase_rejects_bad_rule():
    with pytest.raises(ValueError):
        gallery.staircase((1,))
    with pytest.raises(ValueError):
        gallery.staircase((2,), extend="sideways")
    with pytest.raises(ValueError, match="^cut count sequence must be nonempty$"):
        gallery.staircase(())


def test_high_staircase_frozen():
    sp = gallery.high_staircase((3,), (2,), extend="repeat")
    assert sp.height_set(0) == (0, 3, 7)
    assert sp.stage(0).spacers == (2, 3, 4)


@pytest.mark.parametrize(
    "r, extend",
    [(3, "repeat"), ((3,), "repeat"), ((3, 4), "repeat"), ((2, 5, 9), "repeat")],
    ids=["3-repeat", "r2-repeat", "r3-repeat", "r4-repeat"],
)
def test_high_staircase_is_a_tower_of_len_r_stages(r, extend):
    rs = r if isinstance(r, tuple) else (r,)  # the cut counts go flat at stage len(rs)
    sp = gallery.high_staircase(r, 1, extend=extend)
    n = len(rs)
    assert [sp.stage(m).r for m in range(n)] == list(rs)
    flat = f"r_{n}={rs[-1]} after r_{n - 1}={rs[-1]}"
    with pytest.raises(PreconditionError, match=f"^cut counts must strictly increase: {flat}$"):
        sp.stage(n)
    if isinstance(r, tuple):
        assert gallery.high_staircase(r, 1, extend="increment").stage(n).r == rs[-1] + 1


def test_high_staircase_int_cut_count_grows_under_increment():
    """An int cut count under ``"increment"`` grows as the rule ``(r,)`` does,
    and is recorded as the int, so its fingerprint is that of the int."""
    sp = gallery.high_staircase(3, 1, extend="increment")
    seq = gallery.high_staircase((3,), 1, extend="increment")
    assert [sp.stage(n) for n in range(4)] == [seq.stage(n) for n in range(4)]
    assert [sp.stage(n).r for n in range(4)] == [3, 4, 5, 6]
    assert sp.params["r_seq"] == 3
    assert sp.fingerprint() == "3d7feabba3e1becd83fa6b67aa3671020273bb7961b676b666d0ad0c0573fe99"


def test_high_staircase_requires_growth():
    with pytest.raises(PreconditionError):
        gallery.high_staircase((3, 3), (1,))
    with pytest.raises(ValueError):
        gallery.high_staircase((3, 4), (-1,))


# -- the two spread-out families --------------------------------------------


def test_main_wde_frozen_prefix():
    sp = gallery.main_wde()
    assert [sp.height(n) for n in range(5)] == [1, 1728, 73479, 434304, 27797536]
    assert sp.height_set(0) == (0, 2)
    assert sp.height_set(1)[:3] == (0, 1729, 3459)
    assert max(sp.height_set(1)) == 71709
    assert sp.max_descendant(2) == 71711
    assert sp.max_descendant(3) == 215135
    assert sp.max_descendant(4) == 27578303
    assert [sp.stage(n).r for n in range(4)] == [2, 42, 2, 64]


def test_main_wde_cap_note():
    sp = gallery.main_wde()
    sp.height(4)
    assert "stage 3: cut count capped at 64 (recipe calls for 30762898)" in sp.notes
    assert "caps-max-r-64" in sp.declared_properties


def test_main_wde_even_stage_gap_bound():
    # the even-stage gap must clear twice the deepest descendant
    sp = gallery.main_wde()
    for n in (0, 2):
        g = sp.height_set(n)[1]
        assert g >= 2 * sp.max_descendant(n) + 2


def test_rigid_wde_even_stages_are_progressions():
    sp = gallery.rigid_wde(gallery.Caps(max_r=64))
    for n in (2, 4):
        H = sp.height_set(n)
        gaps = {b - a for a, b in zip(H, H[1:])}
        assert len(gaps) == 1  # arithmetic progression
        assert H[1] == 2 * sp.height(n)


def test_t_q_frozen_small_caps():
    sp = gallery.t_q(2, gallery.Caps(max_r=6))
    assert [sp.height(n) for n in range(6)] == [1, 61, 387, 7741, 46467, 929341]
    assert sp.height_set(1) == (0, 62, 125, 189, 254, 320)
    assert sp.height_set(3) == (0, 7742, 15485, 23229, 30974, 38720)
    assert sp.max_descendant(2) == 322
    assert sp.max_descendant(3) == 1096
    assert sp.max_descendant(4) == 39816
    assert "stage 1: cut count capped at 6 (recipe calls for 42)" in sp.notes
    assert "stage 3: cut count capped at 6 (recipe calls for 156828)" in sp.notes


def test_t_q_uncapped_first_odd_stage():
    sp = gallery.t_q(2, gallery.Caps(max_r=64))
    assert sp.stage(1).r == 42
    assert sp.height(1) == 1728


def test_t_q_even_stage_cuts_match_q():
    for q in (2, 3, 4):
        sp = gallery.t_q(q, gallery.Caps(max_r=6))
        assert sp.stage(0).r == q
        assert sp.stage(2).r == q


def _share_holds(n: int, maxd: int, r: int) -> bool:
    """Whether close pairs, within ``m = 2 maxd + 2``, are at most a ``1/(4 (n+1)^2)`` share."""
    return 4 * (n + 1) ** 2 * gap_pair_count(r, 2 * maxd + 2) <= r * r


def _least_r_by_search(n: int, maxd: int) -> int:
    """The least ``r >= m`` passing :func:`_share_holds`, by linear search."""
    r = 2 * maxd + 2
    while not _share_holds(n, maxd, r):
        r += 1
    return r


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3), maxd=st.integers(0, 12))
def test_min_r_for_pair_bound_is_the_least_admissible_count(n, maxd):
    assert gallery._min_r_for_pair_bound(n, 0, maxd) == _least_r_by_search(n, maxd)


@pytest.mark.parametrize(
    "n, maxd", [(0, 0), (2, 10**6), (40, 3**90), (10**9, 2**400), (12345, 2**400 - 1)]
)
def test_min_r_for_pair_bound_on_huge_spreads(n, maxd):
    # too far for a search from m: the count holds, the one below fails, and
    # so does m, below which the share test's quadratic has its smaller root
    r = gallery._min_r_for_pair_bound(n, 0, maxd)
    assert _share_holds(n, maxd, r) and not _share_holds(n, maxd, r - 1)
    assert not _share_holds(n, maxd, 2 * maxd + 2)


def _two_phase_digest() -> str:
    """Digest of every stage, refusal, note, name, tag and fingerprint of the
    two-phase families; integers are written in hex, which has no digit limit."""
    blob = hashlib.sha256()
    makers = [gallery.main_wde, gallery.rigid_wde] + [
        (lambda caps, q=q: gallery.t_q(q, caps)) for q in (2, 3, 7)
    ]
    for make in makers:
        for max_r in (None, 2, 6, 64):
            sp = make(gallery.Caps(max_r=max_r))
            for n in range(31):
                try:
                    st = sp.stage(n)
                except BudgetExceeded as e:
                    blob.update(f"refused {e}\n".encode())
                    break
                blob.update(f"{st.r:x} {','.join(f'{s:x}' for s in st.spacers)}\n".encode())
            tags = sorted(sp.declared_properties)
            blob.update(repr((sp.notes, sp.name, tags, sp.fingerprint())).encode())
    return blob.hexdigest()


def test_two_phase_recipe_digest():
    # Literal computed before the three families shared one recipe; a change
    # to any stage, refusal, note, name, tag or fingerprint moves it.
    assert _two_phase_digest() == "b24226d7163713b9aa96187e090d6bdfcf1c72d4480ac19841dbd6f7cf2ba1d1"


@pytest.mark.parametrize(
    "make",
    [
        gallery.t_q,
        gallery.not_eic,
        gallery.partition_staircase,
        pytest.param(lambda v: gallery.Caps(max_r=v), id="Caps"),
        pytest.param(lambda v: gallery.staircase((v,)), id="staircase-rule"),
        pytest.param(lambda v: StageSpec(v, (0, 0)), id="StageSpec-r"),
        pytest.param(lambda v: StageSpec(2, (0, v)), id="StageSpec-spacer"),
    ],
)
@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_integer_parameters_reject_other_types(make, bad):
    with pytest.raises(TypeError):
        make(bad)


def test_caps_warning_fires_once_per_stage():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sp = gallery.t_q(2, gallery.Caps(max_r=6))
        sp.height(4)
        sp.height(4)
    texts = [str(w.message) for w in caught
             if issubclass(w.category, CapsMakeConstructionUnfaithful)]
    assert sum("stage 1" in t for t in texts) == 1
    assert sum("stage 3" in t for t in texts) == 1


def test_caps_validation():
    with pytest.raises(ValueError):
        gallery.Caps(max_r=1)
    assert gallery.Caps(max_r=None).max_r is None


# -- remaining recipes -------------------------------------------------------


def test_koopman_frozen():
    sp = gallery.koopman()
    assert [sp.height(n) for n in range(6)] == [1, 6, 60, 1080, 36720, 2423520]
    assert sp.height_set(0) == (0, 2)
    assert sp.height_set(1) == (0, 12, 24)
    assert sp.stage(1).spacers == (6, 6, 30)
    assert "all-heights-divisible-by-2" in sp.declared_properties


def test_koopman_doubling_height_law():
    sp = gallery.koopman()
    for n in range(1, 5):
        assert sp.height(n + 1) == (2 ** (n + 2) + 2) * sp.height(n)


def test_partition_staircase_frozen():
    sp = gallery.partition_staircase(2)
    assert sp.height(1) == 6
    assert sp.height_set(0) == (0, 2)
    assert "all-heights-divisible-by-2" in sp.declared_properties
    plain = gallery.partition_staircase(1)
    assert not any(
        t.startswith("all-heights-divisible") for t in plain.declared_properties
    )
    stair = gallery.staircase()
    assert [plain.stage(n) for n in range(8)] == [stair.stage(n) for n in range(8)]
    assert plain.height(8) == stair.height(8)


def test_partition_staircase_divisibility_holds():
    for k in (2, 3, 5):
        sp = gallery.partition_staircase(k)
        g, verdict = analysis.divisibility_gcd(sp, 5)
        assert g % k == 0
        assert verdict == "not-weak-mixing"


def test_not_eic_frozen():
    sp = gallery.not_eic(2)
    assert [sp.height(n) for n in range(5)] == [1, 5, 21, 85, 341]
    assert sp.stage(0).spacers == (1, 2)
    assert "all-heights-divisible-by-2" in sp.declared_properties


def test_builders_take_budget():
    sp = gallery.staircase(budget=Budget(max_stage=3))
    sp.height(3)
    import pytest as _pytest

    with _pytest.raises(Exception):
        sp.height(5)


# -- stage shapes --------------------------------------------------------------
# StageSpec.shape must read back the shape each recipe's docstring promises,
# stage by stage: R a staircase run, G a constant gap, N neither, and B both,
# which is what every stage of two cuts reads as, its last spacer being free.


@pytest.mark.parametrize(
    "sp, promised",
    [
        (gallery.staircase(), "BRRRRRRR"),
        (gallery.high_staircase(range(3, 11), (0, 5, 2)), "RRRRRRRR"),
        (gallery.main_wde(), "BRBRBRBR"),
        (gallery.rigid_wde(), "BRBRGRGR"),
        (gallery.t_q(3), "GRGRGRGR"),
        (gallery.not_eic(3), "GGGGGGGG"),
        (gallery.koopman(), "BGNNNNNN"),
        (gallery.partition_staircase(3), "BNNNNNNN"),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_stage_shape_reads_the_shape_each_recipe_writes(sp, promised):
    stages = [sp.stage(n) for n in range(8)]
    shapes = [s.shape for s in stages]
    read = "".join("NRGB"[2 * (gap is not None) + (run is not None)] for gap, run in shapes)
    assert read == promised
    assert [s.r == 2 for s in stages] == [c == "B" for c in promised]
    # every recipe but koopman builds runs, whose shape the listed scan confirms
    assert all((type(s.spacers) is _SpacerRun) == (sp.params["kind"] != "koopman") for s in stages)
    assert [StageSpec(s.r, tuple(s.spacers)).shape for s in stages] == shapes


# -- declaration audit -------------------------------------------------------
# A declaration is a recipe promise; each kind of tag is checked through the
# horizon by the certificate that relies on it.


def test_declared_properties_hold():
    for sp, horizon in (
        (gallery.staircase(), 6),
        (gallery.koopman(), 5),
        (gallery.not_eic(3), 5),
        (gallery.partition_staircase(4), 5),
        (gallery.t_q(2, gallery.Caps(max_r=6)), 5),
        (gallery.main_wde(), 4),
    ):
        divisors = analysis._declared_divisors(sp)
        known = {*divisors, "strongly-arithmetic"}
        for tag in sp.declared_properties:
            assert tag in known or tag.startswith("caps-max-r-"), (sp.name, tag)
        if divisors:
            g, verdict = analysis.divisibility_gcd(sp, horizon)
            assert verdict == "not-weak-mixing", sp.name
            assert all(g % d == 0 for d in divisors.values()), sp.name
        if "strongly-arithmetic" in sp.declared_properties:
            analysis.nonconservativity_check(sp, 2, horizon)  # raises if a stage is no staircase


@pytest.mark.parametrize(
    "build, arg",
    [
        (gallery.koopman, None),
        (gallery.not_eic, 2),
        (gallery.not_eic, 3),
        (gallery.partition_staircase, 2),
        (gallery.partition_staircase, 3),
    ],
)
def test_declared_divisor_holds_at_the_deepest_horizon(build, arg):
    # every builder that declares all-heights-divisible-by-d, checked as deep as
    # the default budget materializes height sets, not at a hand-picked horizon
    sp = build() if arg is None else build(arg)
    divisors = analysis._declared_divisors(sp)
    assert divisors
    horizon = 1
    while True:
        try:
            analysis.divisibility_gcd(sp, horizon + 1)
        except BudgetExceeded:
            break
        horizon += 1
    assert horizon >= 8
    g, verdict = analysis.divisibility_gcd(sp, horizon)
    assert verdict == "not-weak-mixing"
    assert all(g % d == 0 for d in divisors.values()), (sp.name, horizon, g)


@pytest.mark.parametrize(
    "tag, verdict",
    [
        ("all-heights-divisible-by-2", "not-weak-mixing"),
        ("all-heights-divisible-by-two", "at-horizon"),
    ],
)
def test_a_malformed_divisor_tag_declares_nothing(tag, verdict):
    from rankone.core import RankOneSpec

    def build(n, spec):  # H_0 = {0, 2}, H_1 = {0, 4}: the gcd is 2
        return StageSpec(2, (1, 1) if n == 0 else (0, 0))

    sp = RankOneSpec(build, name="even", declared_properties=(tag,))
    assert analysis.divisibility_gcd(sp, 2) == (2, verdict)


def test_declared_divisor_lie_is_refuted():
    from rankone.core import RankOneSpec

    def build(n, spec):
        return StageSpec(2, (0, 1))

    liar = RankOneSpec(
        build, name="liar", declared_properties=("all-heights-divisible-by-2",)
    )
    assert analysis.divisibility_gcd(liar, 3) == (1, "refuted")
