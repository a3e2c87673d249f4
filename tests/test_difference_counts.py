"""Difference counts of descendant sets against explicit pair enumeration.

``core._tuple_product`` multiplies per-stage difference multisets instead
of listing pairs: as one packed big integer wherever the product has at
least one tuple per digit, by the dict convolution loop otherwise;
``tower.overlap_counts`` of the base of ``C_i`` with itself takes the
product in a window.  Both are checked here against a plain ``Counter`` of
pair differences over sets unfolded by ``oracle.brute_descendants``, the
packed kernel against the dict loop and pairs listed one by one, and every
certificate routine built on them against its ``oracle.brute_*`` twin, on
both paths, both for the value and for raising :class:`BudgetExceeded` on
the same inputs under small random budgets.
"""

import math
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankone import analysis, core, gallery, oracle, tower
from rankone.core import (
    Budget,
    BudgetExceeded,
    _convolve,
    _packed_product,
    _tuple_product,
    descendant_count,
    explicit_spec,
)

from conftest import product_of_cuts, stage_lists


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetExceeded:
        return BudgetExceeded
    except ValueError:
        return ValueError


@st.composite
def budgeted_specs(draw, stages=None, defaults=False):
    """A cycled explicit tower under a small random budget.

    Limits are often tiny, so that a count landing just over or under a
    limit is common.  The stages are drawn from ``stages`` if given, else
    at random, where the last subcolumn of a stage usually gets spacers,
    so that the least stage clearing a shift exists.  With ``defaults``,
    about half the specs get the default budget instead, save ``max_pairs``
    cut to 10^5, so that an oracle twin's pair walk stays within a few
    hundredths of a second: a test whose tiny limits refuse most examples
    then computes about half of them.
    """
    if stages is not None:
        stages = draw(stages)
    else:
        stages = [
            (r, spacers[:-1] + (spacers[-1] + draw(st.integers(0, 3)),))
            for r, spacers in draw(stage_lists(max_stages=3, max_r=4))
        ]
    budget = Budget(
        max_stage=draw(st.integers(1, 16)),
        max_height_bits=draw(st.one_of(st.integers(1, 12), st.just(100_000))),
        max_descendants=draw(st.one_of(st.integers(4, 40), st.integers(4, 1000))),
        max_pairs=draw(st.one_of(st.integers(1, 200), st.integers(1, 30_000))),
    )
    if defaults and draw(st.booleans()):
        budget = Budget(max_pairs=100_000)
    return explicit_spec(stages, cycle=True, budget=budget)


@st.composite
def level_sets(draw, spec, max_stage=3):
    """Levels of one of the first columns, read off an unbudgeted copy of ``spec``."""
    stage = draw(st.integers(0, max_stage))
    free = explicit_spec(spec.params["stages"], cycle=True)
    h = free.height(stage)
    heights = draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=4))
    return tower.level_set(free, stage, heights)


@st.composite
def specs_with_a_level_set(draw):
    """A spec of :func:`budgeted_specs` with ``defaults``, and a level set of it."""
    spec = draw(budgeted_specs(defaults=True))
    return spec, draw(level_sets(spec))


@settings(max_examples=80, deadline=None)
@given(stages=stage_lists(max_stages=3, max_r=4), data=st.data())
def test_difference_counts_match_pair_counts(stages, data):
    spec = explicit_spec(stages)
    top = len(stages)
    i = data.draw(st.integers(0, top))
    n = data.draw(st.integers(i, top))
    D = oracle.brute_descendants(spec, i, n, 0)
    ref = Counter(y - x for x in D for y in D)
    assert _full_counts(spec, i, n) == ref
    span = spec.height(n)
    lo = data.draw(st.integers(-span - 2, span + 2))
    hi = data.draw(st.integers(-span - 2, span + 2))  # lo > hi is an empty window
    window = Counter({t: c for t, c in ref.items() if lo <= t <= hi})
    assert _window_counts(spec, i, n, lo, hi) == window


def _pairwise(acc, keys, counts):
    out = Counter()
    for p, c in acc.items():
        for t, e in zip(keys, counts):
            out[p + t] += c * e
    return out


# counts on both sides of each digit width's limit, so that every width and
# the fallback past 8 bytes run
NEAR_WIDTH_LIMITS = [2**b + d for b in (8, 16, 32, 64) for d in (-1, 0, 1)]


@st.composite
def convolution_inputs(draw):
    """A running sum and a stage multiset, its keys sparse or dense.

    Keys may be negative; the multiset is either sorted, as a stage's
    differences are, or the unsorted ``dict_keys`` that
    ``cons_fraction_exact`` passes.
    """

    def counts():  # keys over a range with holes, in any order, with counts up to a limit
        start = draw(st.integers(-40, 40))
        full = range(start, start + draw(st.integers(1, 30)))
        holes = draw(st.sets(st.sampled_from(full), max_size=len(full) - 1))
        count = st.integers(1, draw(st.sampled_from([9, *NEAR_WIDTH_LIMITS])))
        return {x: draw(count) for x in draw(st.permutations(full)) if x not in holes}

    acc, step = counts(), counts()
    if draw(st.booleans()):
        return acc, step.keys(), step.values()
    keys = sorted(step)
    return acc, keys, [step[t] for t in keys]


@settings(max_examples=300, deadline=None)
@given(inputs=convolution_inputs())
def test_convolve_matches_pairwise(inputs):
    assert _convolve(*inputs) == _pairwise(*inputs)


def _digits(view, lo):
    """The nonzero digits of a packed product, keyed from ``lo``."""
    return {lo + j: c for j, c in enumerate(view) if c}


def _full_counts(spec, i, n):
    """The nonzero counts of ``_tuple_product`` at ``k = 2``, packed or not."""
    N, _ = _tuple_product(spec, i, n, 2)
    return N if isinstance(N, dict) else _digits(N, -(len(N) // 2))


def _window_counts(spec, i, n, lo, hi):
    """The difference counts of ``D x D`` in ``[lo, hi]``: the base of ``C_i`` against itself."""
    base = tower.LevelSet(i, (0,))
    return tower.overlap_counts(spec, base, base, n, range(lo, hi + 1))


@pytest.mark.parametrize("e", [1, *NEAR_WIDTH_LIMITS])
def test_convolve_switch_and_digit_widths(e):
    """Digits are the fewest of 1, 2, 4 and 8 bytes that hold the peak, here
    the total, the kernel declines past 8 bytes, and it packs at exactly
    ``total = span``."""
    # one key 7, then keys -3..0 in no order: total e over the keys 4..7
    steps = [((7,), (1,)), ((0, -3, -1, -2), (e - 3, 1, 1, 1) if e > 3 else (e, 0, 0, 0))]
    ref = reduce(lambda acc, step: _pairwise(acc, *step), steps, {0: 1})
    digits = _packed_product(steps, e, 4, 7, e)
    width = next((b for b in (1, 2, 4, 8) if e < 2 ** (8 * b)), None)
    if e < 4 or width is None:  # 4 is span
        assert digits is None
    else:
        assert digits.itemsize == width
        assert _digits(digits, 4) == {t: c for t, c in ref.items() if c}
    # 15 keys of count 4 and one key of count e, over a key range of 60
    # digits, -7..52: at e = 1 the totals are exactly span, which packs, and
    # one below, which does not
    for counts in ([4] * 15, [4] * 14 + [3]):
        total = e * sum(counts)
        digits = _packed_product([((0,), (e,)), (range(-7, 8), counts)], total, -7, 52, total)
        assert (digits is None) == (total < 60 or total >= 2**64)
        if digits is not None:
            assert _digits(digits, -7) == _pairwise({0: e}, range(-7, 8), counts)


@st.composite
def step_lists(draw):
    """Up to four multisets, keys negative or not and in any order, with the
    product's sum and a key range that bounds it, sometimes loosely.  A step
    is dense, keys from a range of at most 12 with holes, or sparse, 2 to 6
    keys over a span of up to about 10^4; the kernel takes either kind by
    shifted adds, one per key, whatever its span."""
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            keys = draw(st.lists(st.integers(-5000, 5000), min_size=2, max_size=6, unique=True))
        else:
            start = draw(st.integers(-30, 30))
            keys = draw(st.permutations(range(start, start + draw(st.integers(1, 12)))))
            keys = keys[: draw(st.integers(1, len(keys)))]  # a key range with holes
        count = st.integers(1, draw(st.sampled_from([3, 300, 2**40])))
        steps.append((keys, [draw(count) for _ in keys]))
    total = math.prod(sum(counts) for _, counts in steps)
    lo = sum(min(keys) for keys, _ in steps) - draw(st.integers(0, 3))
    hi = sum(max(keys) for keys, _ in steps) + draw(st.integers(0, 3))
    return steps, total, lo, hi


@settings(max_examples=300, deadline=None)
@given(inputs=step_lists())
def test_packed_product_matches_convolve_chain(inputs):
    """The kernel, the dict loop of ``_convolve`` step by step, and pairs
    listed one by one give one product."""
    steps, total, lo, hi = inputs
    partial = list(accumulate(steps, lambda acc, step: _pairwise(acc, *step), initial={0: 1}))
    ref = partial[-1]
    chain = reduce(lambda acc, step: _convolve(acc, *step), steps, {0: 1})
    assert chain == ref
    peak = max(max(p.values()) for p in partial)  # every step's counts are in some partial
    digits = _packed_product(steps, total, lo, hi, peak)
    if digits is None:
        assert total < hi - lo + 1 or peak >= 2**64
    else:
        assert len(digits) == hi - lo + 1
        assert _digits(digits, lo) == ref


@pytest.mark.parametrize("e", [1, *NEAR_WIDTH_LIMITS])
def test_sparse_steps_match_convolve_chain_at_digit_width_edges(e):
    """A sparse step that carries the count ``e``, a dense step and a second
    sparse step, out of order and with a negative key, each taken by shifted
    adds whatever its span: their product counts ``e`` at most, in digits of the width that just holds it, or is declined
    below one tuple per digit (at ``e = 1``) and past 8 bytes."""
    steps = [((110, -90, 0), (1, e, 1)), ((0, 1, 2), (1, 1, 1)), ((10, 0), (1, 1))]
    ref = reduce(lambda acc, step: _pairwise(acc, *step), steps, {0: 1})
    assert reduce(lambda acc, step: _convolve(acc, *step), steps, {0: 1}) == ref
    total = (e + 2) * 3 * 2
    digits = _packed_product(steps, total, -90, 122, e)
    width = next((b for b in (1, 2, 4, 8) if e < 2 ** (8 * b)), None)
    if e == 1 or width is None:  # 1 is below 213 / 18 tuples a digit
        assert digits is None
    else:
        assert digits.itemsize == width
        assert _digits(digits, -90) == ref


@pytest.mark.parametrize(
    "cuts, size, width",
    [((255,), 255, 1), ((256,), 256, 2), ((255, 257), 65_535, 2), ((256, 256), 65_536, 4)],
    ids=["D255", "D256", "D65535", "D65536"],
)
def test_full_product_matches_convolve_chain_at_digit_width_edges(cuts, size, width):
    """Stages of ``r`` cuts and no spacers give ``D = {0, ..., |D| - 1}``; the
    largest digit ``N(0) = |D|`` sits on either side of the 1- and 2-byte
    digit limits."""
    budget = Budget(max_descendants=size, max_pairs=size**2)
    spec = explicit_spec([(r, (0,) * r) for r in cuts], budget=budget)
    n = len(cuts)
    digits, total = _tuple_product(spec, 0, n, 2)
    chain = reduce(lambda acc, m: _convolve(acc, *spec.height_differences(m)), range(n), {0: 1})
    assert total == size**2
    assert digits.itemsize == width
    assert len(digits) == 2 * size - 1
    assert _digits(digits, 1 - size) == chain


# Cut counts whose product |D| is one side or the other of a digit limit.
_CUTS_AT_DIGIT_EDGES = {
    255: [(255,), (15, 17), (3, 5, 17)],
    256: [(256,), (16, 16), (2, 4, 2, 4, 4)],
    65_535: [(255, 257), (15, 17, 257), (3, 5, 17, 257)],
    65_536: [(256, 256), (16,) * 4, (4,) * 8],
}


@settings(max_examples=24, deadline=None)
@given(size=st.sampled_from(sorted(_CUTS_AT_DIGIT_EDGES)), data=st.data())
def test_packed_digits_match_the_dict_loop_at_digit_width_edges(size, data):
    """Random small spacers on towers whose ``|D|`` is on either side of the
    1- and 2-byte digit limits.  ``N(0) = |D|`` is the largest count, and a
    digit one byte narrower would carry it into ``N(1)``.  The small sets are
    checked against the whole dict loop; the large ones, whose full dict
    product lists millions of terms, in a window about 0."""
    cuts = data.draw(st.sampled_from(_CUTS_AT_DIGIT_EDGES[size]))
    spacers = st.integers(0, 2)
    stages = [(r, tuple(data.draw(st.lists(spacers, min_size=r, max_size=r)))) for r in cuts]
    spec = explicit_spec(stages, budget=Budget(max_descendants=size, max_pairs=size**2))
    n = len(cuts)
    digits, total = _tuple_product(spec, 0, n, 2)
    assert total == size**2
    assert digits.itemsize == (1 if size < 256 else 2 if size < 65_536 else 4)
    s = len(digits) // 2  # the spread: digits[s] is N(0)
    assert digits[s] == size
    if size < 65_535:
        w = s
        loop = reduce(lambda acc, m: _convolve(acc, *spec.height_differences(m)), range(n), {0: 1})
    else:
        w = data.draw(st.integers(0, 40))
        loop = _window_counts(spec, 0, n, -w, w)
    assert {t: digits[s + t] for t in range(-w, w + 1) if digits[s + t]} == loop


@settings(max_examples=60, deadline=None)
@given(
    stages=stage_lists(max_stages=3, max_r=4),
    limit=st.integers(4, 300),  # at least every cut count, so stages materialize
    copies=st.integers(1, 5),
    data=st.data(),
)
def test_descendant_count_is_the_descendant_budget(stages, limit, copies, data):
    i = data.draw(st.integers(0, 3))
    j = data.draw(st.integers(i, 6))
    size = copies * product_of_cuts(explicit_spec(stages, cycle=True), i, j)
    spec = explicit_spec(stages, cycle=True, budget=Budget(max_descendants=limit))
    got = _outcome(descendant_count, spec, i, j, copies)
    assert got == (BudgetExceeded if j > i and size > limit else size)


@settings(max_examples=60, deadline=None)
@given(spec=budgeted_specs(), n=st.integers(0, 5), b=st.integers(-30, 30))
def test_nonerg_pair_fraction_matches_twin(spec, n, b):
    assert _outcome(analysis.nonerg_pair_fraction, spec, n, b) == _outcome(
        oracle.brute_nonerg_pair_fraction, spec, n, b
    )


@settings(max_examples=100, deadline=None)
@given(spec=budgeted_specs(), k=st.integers(2, 4), data=st.data())
def test_cons_fraction_matches_twin(spec, k, data):
    i = data.draw(st.integers(0, 2))
    j = data.draw(st.integers(i, i + 2))
    assert _outcome(analysis.cons_fraction_exact, spec, i, j, k) == _outcome(
        oracle.brute_tuple_fraction, spec, i, j, k
    )


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(st.integers(3, 4), min_size=2, max_size=3),
    k=st.integers(2, 3),
    slack=st.sampled_from([-1, 0]),
    b=st.integers(-70, 70),
)
def test_dense_products_match_twins_at_the_pair_budget(cuts, k, slack, b):
    """Towers with no spacers, whose descendant sets are intervals of at
    least 9 points, so that their pair products are dense, under
    ``max_pairs`` one below or at ``|D|^k``: exactly the first refuses, and
    otherwise the routines match their twins."""
    cuts = cuts[:2] if k == 3 else cuts  # the tuple twin lists |D|^k tuples
    n, size = len(cuts), math.prod(cuts)
    spec = explicit_spec([(r, (0,) * r) for r in cuts], budget=Budget(max_pairs=size**k + slack))
    calls = []

    def spy(*args):
        digits = _packed_product(*args)
        calls.append(digits is not None)
        return digits

    with mock.patch.object(core, "_packed_product", spy):
        got = [_outcome(analysis.cons_fraction_exact, spec, 0, n, k)]
        if k == 2:
            got.append(_outcome(analysis.nonerg_pair_fraction, spec, n, b))
    assert got[0] == _outcome(oracle.brute_tuple_fraction, spec, 0, n, k)
    if k == 2:
        assert got[1] == _outcome(oracle.brute_nonerg_pair_fraction, spec, n, b)
        assert calls == [True] * (2 * (slack == 0))
    assert all((x is BudgetExceeded) == (slack < 0) for x in got)


@settings(max_examples=100, deadline=None)
@given(stages=stage_lists(max_stages=3, max_r=4), k=st.integers(2, 4), data=st.data())
def test_partial_tuple_products_count_at_most_the_descendants(stages, k, data):
    """Every partial product of the factor chain, in the kernel's order,
    holds no count above ``|D|``, the digit bound, and the zero vector of
    the whole product reaches it."""
    spec = explicit_spec(stages, cycle=True)
    i = data.draw(st.integers(0, 2))
    j = data.draw(st.integers(i, i + 2))
    calls = []

    def spy(steps, total, lo, hi, peak):
        calls.append((steps, peak))
        return _packed_product(steps, total, lo, hi, peak)

    with mock.patch.object(core, "_packed_product", spy):
        N, total = _tuple_product(spec, i, j, k)
    [(steps, peak)] = calls
    size = descendant_count(spec, i, j)
    assert peak == size and total == size**k
    partial = list(accumulate(steps, lambda acc, step: _convolve(acc, *step), initial={0: 1}))
    assert max(max(p.values()) for p in partial) == size
    assert all(c <= size for _, counts in steps for c in counts)
    assert (N if isinstance(N, dict) else _digits(N, -(len(N) // 2))) == {
        t: c for t, c in partial[-1].items() if c
    }


@pytest.mark.parametrize("size, width", [(255, 1), (256, 2)])
def test_tuple_digits_are_sized_by_the_descendants(size, width):
    """At ``k = 3`` a digit holds ``|D|``, not ``|D|^3``: one byte at
    ``|D| = 255``, where the tuple total needs four.  ``D = {0, ..., |D| - 1}``,
    and a tuple has a shifted companion exactly when its spread is below
    ``|D| - 1``."""
    spec = explicit_spec([(size, (0,) * size)], budget=Budget(max_pairs=size**3))
    widths = []

    def spy(*args):
        digits = _packed_product(*args)
        widths.append(digits.itemsize)
        return digits

    with mock.patch.object(core, "_packed_product", spy):
        got = analysis.cons_fraction_exact(spec, 0, 1, 3)
    assert widths == [width]
    assert got == Fraction(core._gap_tuple_count(size, size - 2, 3), size**3)


def test_pair_counts_pass_the_bits_check_of_their_twin():
    """``|D|^2`` passes ``max_height_bits`` as ``|D|^k`` does, in the routine
    and its twin alike; both returned 255/256 here before."""
    stages = [(4, [0, 0, 0, 0])]
    spec = explicit_spec(stages, cycle=True, budget=Budget(max_height_bits=9))
    free = explicit_spec(stages, cycle=True)
    refusal = r"^\|D\|\*\*2 of up to 10 bits exceeds max_height_bits=9$"
    for fraction in (analysis.nonerg_pair_fraction, oracle.brute_nonerg_pair_fraction):
        with pytest.raises(BudgetExceeded, match=refusal):
            fraction(spec, 2, 1)
        assert fraction(free, 2, 1) == Fraction(255, 256)


@pytest.fixture
def packed_calls(monkeypatch):
    """Whether each call of the packed kernel took the product (``True``) or declined."""
    calls = []

    def spy(*args):
        digits = _packed_product(*args)
        calls.append(digits is not None)
        return digits

    monkeypatch.setattr(core, "_packed_product", spy)
    return calls


ZEROS = explicit_spec([(4, (0, 0, 0, 0)), (4, (0, 0, 0, 0))])  # D = 0..15
SPARSE = explicit_spec([(3, (0, 1, 40)), (2, (0, 5)), (2, (1, 900))])  # large last spacers


@pytest.mark.parametrize(
    "spec, n, packed",
    [
        (gallery.staircase(), 1, True),
        (gallery.staircase(), 2, True),
        (gallery.staircase(), 3, True),
        (gallery.staircase(), 4, True),
        (ZEROS, 2, True),
        (SPARSE, 2, False),
        (SPARSE, 3, False),
    ],
    ids=["stair1", "stair2", "stair3", "stair4", "zeros2", "sparse2", "sparse3"],
)
def test_nonerg_pair_fraction_matches_twin_on_both_paths(spec, n, packed, packed_calls):
    """Shifts at the ends of the difference range and past it, on products
    the kernel packs and on products left to the dict loop."""
    s = spec.max_descendant(n)  # the largest difference; 2s + 1 digits
    for b in {0, 1, s - 1, s, s + 1, 2 * s, 2 * s + 1, 2 * s + 2, 3 * s}:
        for shift in (b, -b):
            got = analysis.nonerg_pair_fraction(spec, n, shift)
            assert got == oracle.brute_nonerg_pair_fraction(spec, n, shift)
    assert set(packed_calls) == {packed}


@pytest.mark.parametrize(
    "spec, i, j, k, packed",
    [
        (gallery.staircase(), 0, 3, 2, True),
        (gallery.staircase(), 0, 3, 3, True),
        (gallery.staircase(), 1, 3, 4, False),
        (ZEROS, 0, 2, 2, True),
        (ZEROS, 0, 2, 3, True),
        (ZEROS, 0, 2, 4, True),
        (SPARSE, 0, 3, 2, False),
        (SPARSE, 0, 3, 3, False),
    ],
    ids=[
        "stair3k2", "stair3k3", "stair1-3k4", "zeros2k2", "zeros2k3", "zeros2k4",
        "sparse3k2", "sparse3k3",
    ],
)
def test_cons_fraction_matches_twin_on_both_paths(spec, i, j, k, packed, packed_calls):
    assert analysis.cons_fraction_exact(spec, i, j, k) == oracle.brute_tuple_fraction(
        spec, i, j, k
    )
    assert packed_calls == [packed]


def test_full_difference_counts_pass_one_pair_gate():
    """The full product checks the descendants, then ``|D|^2`` pairs, with the
    refusal text that ``check-nonerg`` prints; a window is not gated."""
    at = Budget(max_pairs=24**2)
    assert sum(_full_counts(gallery.staircase(budget=at), 0, 3).values()) == 24**2
    for budget, message in (
        (Budget(max_pairs=24**2 - 1), "576 pairs exceeds max_pairs=575"),
        (Budget(max_descendants=23, max_pairs=1), "24+ descendants exceeds max_descendants=23"),
    ):
        spec = gallery.staircase(budget=budget)
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
            _tuple_product(spec, 0, 3, 2)
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
            analysis.nonerg_pair_fraction(spec, 3, 1)
    spec = gallery.staircase(budget=Budget(max_pairs=1))
    assert _window_counts(spec, 0, 3, 0, 0) == Counter({0: 24})


@pytest.mark.parametrize("k, message", [(2, "36 pairs"), (3, "216 tuples")])
def test_tuple_fraction_refusals_count_pairs_at_k_2(k, message):
    """``cons_fraction_exact`` and its twin word the ``max_pairs`` refusal
    alike: pairs at ``k = 2``, as ``nonerg_pair_fraction`` does, tuples above."""
    spec = gallery.staircase(budget=Budget(max_pairs=35))
    refusals = []
    for fraction in (analysis.cons_fraction_exact, oracle.brute_tuple_fraction):
        with pytest.raises(BudgetExceeded) as stop:
            fraction(spec, 0, 2, k)
        refusals.append(str(stop.value))
    assert refusals == [f"{message} exceeds max_pairs=35"] * 2


@st.composite
def planted_stages(draw):
    """At most one random stage, then a constant-gap or staircase-run stage.

    The planted stage has up to 16 cuts and a free last spacer.  A run's
    first spacer puts ``h + s_0`` within two of ``floor((r-2)^2 / 4)`` on
    either side, so that both the closed form of ``analysis.rigidity_scan``
    and its fall-back are reached.
    """
    prefix = draw(st.one_of(st.just([]), stage_lists(max_stages=1, max_r=3, max_spacer=2)))
    h = reduce(lambda h, stage: stage[0] * h + sum(stage[1]), prefix, 1)
    r = draw(st.integers(2, 16))
    if draw(st.booleans()):
        run = (draw(st.integers(0, 6)),) * (r - 1)
    else:
        s0 = max(0, (r - 2) ** 2 // 4 - h + draw(st.integers(-2, 2)))
        run = tuple(range(s0, s0 + r - 1))
    return prefix + [(r, run + (draw(st.integers(0, 40)),))]


@settings(max_examples=300, deadline=None)
@given(spec=budgeted_specs(), n=st.integers(0, 5), planted=budgeted_specs(planted_stages()))
def test_rigidity_scan_matches_twin(spec, n, planted):
    last = len(planted.params["stages"]) - 1
    for sp, m in ((spec, n), (planted, last)):
        assert _outcome(analysis.rigidity_scan, sp, m) == _outcome(
            oracle.brute_rigidity_scan, sp, m
        )


@settings(max_examples=120, deadline=None)
@given(
    case=specs_with_a_level_set(),
    k_max=st.one_of(st.integers(1, 60), st.integers(1, 12)),  # a small k_max seldom refuses
    threshold=st.one_of(
        st.sampled_from([Fraction(-1, 3), Fraction(0), Fraction(1, 2)]),
        st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=12),
    ),
    store_ratios=st.booleans(),
)
# a supremum outside the exceptions at and below the threshold: 1/2 at k = 1, 4/9 at k = 3
@example(
    case=(explicit_spec([(2, (0, 1))], cycle=True), tower.LevelSet(0, (0,))),
    k_max=10,
    threshold=Fraction(1, 2),
    store_ratios=False,
)
@example(
    case=(explicit_spec([(3, (0, 1, 2))], cycle=True), tower.LevelSet(0, (0,))),
    k_max=10,
    threshold=Fraction(1, 2),
    store_ratios=True,
)
def test_alpha_type_profile_matches_twin(case, k_max, threshold, store_ratios):
    spec, B = case
    args = (spec, B, k_max, threshold)
    assert _outcome(
        analysis.alpha_type_profile, *args, store_ratios=store_ratios
    ) == _outcome(oracle.brute_alpha_type_profile, *args, store_ratios=store_ratios)


@settings(max_examples=120, deadline=None)
@given(
    spec=budgeted_specs(defaults=True),
    n_max=st.one_of(st.integers(-1, 80), st.integers(1, 12)),
    data=st.data(),
)
def test_wde_probe_matches_twin(spec, n_max, data):
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    got = _outcome(analysis.wde_probe, spec, A, B, n_max)
    assert got == _outcome(oracle.brute_wde_probe, spec, A, B, n_max)
    assert (got is ValueError) == (n_max < 1)


@settings(max_examples=100, deadline=None)
@given(spec=budgeted_specs(), data=st.data())
def test_overlap_counts_and_total_match_pair_counts(spec, data):
    """Both against pairs listed over the refined sets, and both refusing the
    same descendant budgets."""
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    n = data.draw(st.integers(max(A.stage, B.stage), 5))
    free = explicit_spec(spec.params["stages"], cycle=True)
    for X in (A, B):
        assume(len(X.heights) * product_of_cuts(free, X.stage, n) <= 400)
    span = free.height(n)
    lo = data.draw(st.integers(-span - 2, span + 2))
    hi = data.draw(st.integers(-span - 2, span + 2))  # lo > hi is an empty window
    counts = _outcome(tower.overlap_counts, spec, A, B, n, range(lo, hi + 1))
    total = _outcome(tower.overlap_total, spec, A, B, n, lo, hi)
    if counts is BudgetExceeded:
        assert total is BudgetExceeded
        return
    DA, DB = tower.refine(free, A, n).heights, tower.refine(free, B, n).heights
    ref = Counter(y - x for x in DA for y in DB if lo <= y - x <= hi)
    assert counts == ref
    assert total == sum(ref.values())


@settings(max_examples=100, deadline=None)
@given(spec=budgeted_specs(), data=st.data())
def test_gapped_overlap_counts_match_the_window(spec, data):
    """Shifts with gaps are counted as the window over their span counts them,
    at those shifts only, and refused under the same budgets; a contiguous
    list of shifts is that window, and shifts out of order or repeated are
    counted as the same shifts in order."""
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    n = data.draw(st.integers(max(A.stage, B.stage), 5))
    free = explicit_spec(spec.params["stages"], cycle=True)
    for X in (A, B):
        assume(len(X.heights) * product_of_cuts(free, X.stage, n) <= 400)
    span = free.height(n)
    shifts = st.sets(st.integers(-span - 2, span + 2), min_size=1, max_size=12)
    ks = tuple(sorted(data.draw(shifts)))
    window = range(ks[0], ks[-1] + 1)
    counts = _outcome(tower.overlap_counts, spec, A, B, n, window)
    gapped = _outcome(tower.overlap_counts, spec, A, B, n, ks)
    if counts is BudgetExceeded:
        assert gapped is BudgetExceeded
        return
    assert gapped == Counter({k: counts[k] for k in ks if counts[k]})
    assert tower.overlap_counts(spec, A, B, n, list(window)) == counts
    assert tower.overlap_counts(spec, A, B, n, window[::-1]) == counts
    shuffled = data.draw(st.permutations(ks + ks[-1:]))  # in any order, one shift twice
    assert tower.overlap_counts(spec, A, B, n, shuffled) == gapped


def test_overlap_total_at_the_common_stage_builds_no_stage():
    """With ``n`` the common stage there is nothing to convolve, so a budget
    that cannot build that stage does not refuse the count; the stages
    below it are built to check that the set lies in ``C_3``."""
    spec = explicit_spec([(2, (1, 1))], cycle=True, budget=Budget(max_stage=3))
    A = tower.LevelSet(3, (0,))
    assert tower.overlap_counts(spec, A, A, 3, (0,)) == Counter({0: 1})
    assert tower.overlap_total(spec, A, A, 3, 0, 0) == 1
    assert spec.stages_built == 3


@settings(max_examples=80, deadline=None)
@given(
    spec=budgeted_specs(),
    n_max=st.integers(1, 40),
    slack=st.sampled_from([-1, 0]),
    data=st.data(),
)
def test_wde_pair_budget_is_the_walked_pair_count(spec, n_max, slack, data):
    """With ``max_pairs`` just below or at the pairs the window walk touches,
    self pairs then cross pairs, exactly the first budget refuses."""
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    stages = spec.params["stages"]
    free = explicit_spec(stages, cycle=True)
    try:
        s = max(A.stage, B.stage, tower.least_valid_stage(free, A, n_max))
    except BudgetExceeded:  # no spacers: no column ever clears the shift
        assume(False)
    for X in (A, B):
        assume(len(X.heights) * product_of_cuts(free, X.stage, s) <= 400)
    DA, DB = tower.refine(free, A, s).heights, tower.refine(free, B, s).heights
    own = sum(1 for x in DA for y in DA if 0 < y - x <= n_max)
    cross = sum(1 for x in DA for y in DB if 0 < y - x <= n_max)
    pairs = own + cross if own else 0
    assume(pairs + slack >= 1)
    budgeted = explicit_spec(stages, cycle=True, budget=Budget(max_pairs=pairs + slack))
    got = _outcome(analysis.wde_probe, budgeted, A, B, n_max)
    assert got == _outcome(oracle.brute_wde_probe, budgeted, A, B, n_max)
    assert (got is BudgetExceeded) == (slack < 0)


@pytest.mark.parametrize("probe", [analysis.wde_probe, oracle.brute_wde_probe])
def test_wde_probe_reads_a_set_the_same_at_any_stage(probe):
    """Level 0 of ``C_0`` and its descendants in ``C_2`` are one set, so both
    are probed at the same stage: each set's levels are counted at the
    stage the two sets share, however the set is written."""
    spec = gallery.staircase()
    B = tower.level_set(spec, 2, (7,))
    A0 = tower.level_set(spec, 0, (0,))
    A2 = tower.refine(spec, A0, 2)
    assert A2.heights == (0, 1, 3, 4, 7, 8)
    assert probe(spec, A0, B, 54) == probe(spec, A2, B, 54) == 3


@pytest.mark.filterwarnings("ignore::rankone.core.CapsMakeConstructionUnfaithful")
def test_wde_probe_refuses_before_counting_differences(monkeypatch):
    """The differences of ``main_wde`` almost never collide, so its counts hold
    about one key per window pair: over the pair budget, none may be built."""
    spec = gallery.main_wde(budget=Budget(max_pairs=1000))
    A = tower.level_set(spec, 0, (0,))
    n_max = spec.height(3)  # millions of window pairs at the probed stage
    assert _outcome(oracle.brute_wde_probe, spec, A, A, n_max) is BudgetExceeded

    def refuse(*args):
        pytest.fail("differences counted past the pair budget")

    monkeypatch.setattr(analysis, "overlap_counts", refuse)
    with pytest.raises(BudgetExceeded, match="window pairs exceeds max_pairs=1000"):
        analysis.wde_probe(spec, A, A, n_max)


@settings(max_examples=80, deadline=None)
@given(spec=budgeted_specs(), k=st.integers(-40, 40), data=st.data())
def test_intersection_measures_match_twin(spec, k, data):
    A, B = data.draw(level_sets(spec)), data.draw(level_sets(spec))
    assert _outcome(tower.translate_intersection_measure, spec, B, k) == _outcome(
        oracle.brute_intersection_measure, spec, B, B, k
    )
    assert _outcome(tower.intersection_measure, spec, A, B, k) == _outcome(
        oracle.brute_intersection_measure, spec, A, B, k
    )


@given(stages=stage_lists(), n=st.integers(0, 3))
def test_height_differences_are_built_once_and_read_only(stages, n):
    spec = explicit_spec(stages, cycle=True)
    diffs = spec.height_differences(n)
    shifts, counts = diffs
    H = spec.height_set(n)
    assert list(shifts) == sorted(shifts)
    assert dict(zip(shifts, counts)) == Counter(y - x for x in H for y in H)
    assert spec.height_differences(n) is diffs
    with pytest.raises(TypeError):
        counts[0] = 0
