"""The immutable records: repr, equality, hashing, read-only fields, copies."""

import copy
import pickle
from fractions import Fraction

import pytest

from jugglecards.bijections import CoverMatrix, LabeledDigraph
from jugglecards.cards import Card, CardSequence, _sequences
from jugglecards.enumeration import CensusQuery, census_rows
from jugglecards.stochastic import GroupDistribution
from jugglecards.svg import RenderSpec

C3, C2 = Card(4, (3,)), Card(4, (2,))
HALVES = {(1, 2): Fraction(1, 3), (2, 1): Fraction(2, 3)}


@pytest.mark.parametrize(
    "value, text",
    [
        (Card(4, (3,)), "Card(b=4, targets=(3,))"),
        (Card(b=5, targets=(2, 5)), "Card(b=5, targets=(2, 5))"),
        (
            CardSequence(4, (C3, C2)),
            "CardSequence(b=4, cards=(Card(b=4, targets=(3,)), Card(b=4, targets=(2,))))",
        ),
        (
            CensusQuery(3, 2),
            "CensusQuery(b=3, n=2, m=1, ordered=True, perm=None, crossings=None,"
            " max_crossings=None, primitive=None, uses_top=None, thrown=None)",
        ),
        (
            CensusQuery(b=4, n=3, perm=(2, 1, 3, 4), crossings=5, uses_top=True),
            "CensusQuery(b=4, n=3, m=1, ordered=True, perm=(2, 1, 3, 4), crossings=5,"
            " max_crossings=None, primitive=None, uses_top=True, thrown=None)",
        ),
        (
            GroupDistribution(HALVES),
            "GroupDistribution(prob={(1, 2): Fraction(1, 3), (2, 1): Fraction(2, 3)})",
        ),
        (LabeledDigraph(3, ((1, 2), (3, 1))), "LabeledDigraph(k=3, arcs=((1, 2), (3, 1)))"),
        (CoverMatrix(((1, 0), (0, 1))), "CoverMatrix(rows=((1, 0), (0, 1)))"),
        (
            RenderSpec(),
            "RenderSpec(card_width=70, card_height=120, level_spacing=24,"
            " ball_labels=True, thrown_labels=True)",
        ),
        (
            RenderSpec(card_width=50, thrown_labels=False),
            "RenderSpec(card_width=50, card_height=120, level_spacing=24,"
            " ball_labels=True, thrown_labels=False)",
        ),
    ],
)
def test_repr_reads_as_a_constructor_call(value, text):
    assert repr(value) == text


# two builds of each record with equal fields, and one that differs in one field
RECORDS = [
    (lambda: Card(4, (3,)), Card(4, (2,))),
    (lambda: CardSequence(4, (C3, C2)), CardSequence(4, (C2, C3))),
    (lambda: CensusQuery(3, 2, thrown=2), CensusQuery(3, 2, thrown=1)),
    (lambda: LabeledDigraph(3, ((1, 2), (3, 1))), LabeledDigraph(3, ((1, 3), (3, 1)))),
    (lambda: CoverMatrix(((1, 0), (0, 1))), CoverMatrix(((0, 1), (1, 0)))),
    (lambda: RenderSpec(card_width=50), RenderSpec(card_width=51)),
]


@pytest.mark.parametrize("build, other", RECORDS)
def test_equality_and_hash_follow_the_fields(build, other):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_group_distributions_compare_by_law_and_do_not_hash():
    assert GroupDistribution(dict(HALVES)) == GroupDistribution(dict(HALVES))
    assert GroupDistribution(HALVES) != GroupDistribution({(1, 2): Fraction(1)})
    with pytest.raises(TypeError):
        hash(GroupDistribution(HALVES))


def test_a_group_distribution_keeps_its_own_copy_of_the_law():
    d = {(1, 2): Fraction(1)}
    g = GroupDistribution(d)
    d[(2, 1)] = Fraction(5)
    assert g.prob == {(1, 2): Fraction(1)} and g.prob is not d
    assert copy.copy(g) == g
    with pytest.raises(TypeError):
        hash(g)


def test_cards_and_rows_built_from_lists_store_tuples():
    assert Card(4, [3]) == Card(4, (3,)) and Card(4, [3]).targets == (3,)
    assert hash(Card(4, [2, 4])) == hash(Card(4, (2, 4)))
    row = CardSequence(4, [C3])
    assert row == CardSequence(4, (C3,)) and row.cards == (C3,)
    assert hash(row) == hash(CardSequence(4, (C3,)))
    cards = (C3, C2)
    assert CardSequence(4, cards).cards is cards  # a tuple is kept, not copied


def test_records_of_different_classes_or_tuples_are_never_equal():
    seq = CardSequence(4, (C3,))
    assert C3 != seq and seq != C3
    assert C3 != (4, (3,)) and (4, (3,)) != C3
    assert seq != (4, (C3,)) and seq != ((C3,),)
    assert LabeledDigraph(4, ((3, 1),)) != Card(4, (3, 1))


def test_keywords_and_defaults():
    assert Card(targets=(3,), b=4) == C3
    assert CardSequence(cards=(C3, C2), b=4) == CardSequence(4, (C3, C2))
    q = CensusQuery(b=3, n=2)
    assert (q.m, q.ordered, q.perm, q.crossings, q.max_crossings) == (1, True, None, None, None)
    assert (q.primitive, q.uses_top, q.thrown) == (None, None, None)
    positional = CensusQuery(3, 2, 1, True, None, None, None, None, True)
    assert positional == CensusQuery(3, 2, uses_top=True)
    spec = RenderSpec(level_spacing=30)
    assert (spec.card_width, spec.card_height, spec.level_spacing) == (70, 120, 30)
    assert spec.ball_labels is True and spec.thrown_labels is True
    with pytest.raises(TypeError):
        Card(4, (3,), 5)
    with pytest.raises(TypeError):
        CensusQuery(b=3, n=2, colour="red")


BUILDS = [build for build, _ in RECORDS] + [lambda: GroupDistribution(HALVES)]


@pytest.mark.parametrize("build", BUILDS)
def test_fields_are_read_only(build):
    value = build()
    name = value.__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("build", BUILDS)
def test_copy_deepcopy_and_pickle_give_equal_records(build):
    value = build()
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
    for twin in (copy.copy(value), copy.deepcopy(value), *pickled):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_copies_run_the_checks_again():
    # a copy is rebuilt by the constructor, so a record with a bad field
    # smuggled in cannot be copied or unpickled
    bad = object.__new__(Card)
    object.__setattr__(bad, "b", 2)
    object.__setattr__(bad, "targets", (3,))
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError, match=r"target level 3 outside 1\.\.2"):
            clone(bad)


def test_collected_rows_are_sequences_like_checked_ones():
    # census_rows wraps each row without checking its cards' b again; the
    # rows must compare, hash, print and copy as checked sequences do
    rows = list(census_rows(CensusQuery(b=4, n=3, m=2, ordered=False, thrown=3)))
    assert len(rows) == 96
    for seq in rows:
        checked = CardSequence(seq.b, seq.cards)
        assert type(seq) is CardSequence and seq == checked and hash(seq) == hash(checked)
        assert (str(seq), repr(seq)) == (str(checked), repr(checked))
        for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
            assert type(twin) is CardSequence and twin == seq


def test_unchecked_sequences_copy_through_the_checked_constructor():
    wrong = (Card(3, (1,)), Card(2, (2,)))
    refusal = r"card C2 is over 2 balls, sequence over 3"
    with pytest.raises(ValueError, match=refusal):
        CardSequence(3, wrong)
    (bad,) = _sequences(3, [wrong])
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(ValueError, match=refusal):
            clone(bad)
