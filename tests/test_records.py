"""Every record class in `szk` keeps the behaviour of a frozen dataclass:
slotted fields with their defaults, type-checked `==`, the hash of the field
tuple, no assignment, pickling and the `Cls(a=..., b=...)` repr."""

import importlib
import pickle

import pytest

from szk import cli
from szk.core import (INFINITE, OMEGA, Div, Index, PPFormula, PrimeTailShape,
                      Record, SzmielewDescription, TailSpec, Tor)
from szk.dsl import SourceSpan
from szk.normalize import (DerivedSets, InvariantReport, PrimeTailDefaults,
                           TailDefault)
from szk.oracle import BreadthResult, InpVerdict
from szk.ppeval import ProfileStats, SubgroupProfile
from szk.rank import Classification, RankReport, VcReport, WitnessFamily
from szk.shatter import FinAbGroup, SetFamily
from tests.conftest import ROOT

DESC = SzmielewDescription(cyclic=(((2, 1), 3),), q_mult=OMEGA)
DESC_REPR = ("SzmielewDescription(cyclic=(((2, 1), 3),), tf=(), div=(), "
             "q_mult=w, cyclic_tail=(), prime_tail=None)")
TOR2 = PPFormula((Tor(2),))
SETS = DerivedSets(frozenset(), frozenset({3}), {}, frozenset(), False, False,
                   frozenset(), False)
SETS_REPR = ("DerivedSets(tf_inf=frozenset(), d_inf=frozenset({3}), "
             "u_inf_at={}, u_inf=frozenset(), tf_inf_infinite=False, "
             "d_inf_infinite=False, u_inf_at_infinite=frozenset(), "
             "u_pairs_infinite=False)")
RANK = cli.COMMANDS["rank"]

# one record of every class, with the repr a frozen dataclass gives it
# (Index keeps its own repr)
SAMPLES = [
    (Index(((2, 2), (3, 1))), "Finite(12)"),
    (TailSpec(2, OMEGA), "TailSpec(cutoff=2, mult=w)"),
    (PrimeTailShape(((1, 2),), 0, OMEGA),
     "PrimeTailShape(cyclic_pattern=((1, 2),), tf_mult=0, div_mult=w)"),
    (DESC, DESC_REPR),
    (Tor(6), "Tor(m=6)"),
    (Div(2, 3, 1), "Div(p=2, r=3, s=1)"),
    (PPFormula((Tor(6), Div(2, 3, 1))),
     "PPFormula(atoms=(Tor(m=6), Div(p=2, r=3, s=1)))"),
    (SourceSpan(3, 5), "SourceSpan(start=3, end=5)"),
    (TailDefault(2, INFINITE), "TailDefault(cutoff=2, value=inf)"),
    (PrimeTailDefaults(((0, 1),), 0, OMEGA, False, True),
     "PrimeTailDefaults(u_pattern=((0, 1),), tf_mult=0, div_mult=w, "
     "quotient_infinite=False, torsion_infinite=True)"),
    (InvariantReport({(2, 0): 8}, {}, {}, {3: INFINITE}, False, False, {},
                     {3: True}, None),
     "InvariantReport(U={(2, 0): 8}, U_tail={}, D_lim={}, Tf_lim={3: inf}, "
     "bounded_exponent=False, finite_group=False, quotient_pA_infinite={}, "
     "torsion_p_infinite={3: True}, defaults=None)"),
    (SETS, SETS_REPR),
    (WitnessFamily("tf-quotients", (TOR2,)),
     "WitnessFamily(tag='tf-quotients', formulas=(PPFormula(atoms=(Tor(m=2),)),))"),
    (RankReport(1, True, 2, SETS, {"U": 0}, {"P1": ()}),
     "RankReport(dp=1, strong=True, case_tag=2, derived=%s, epsilons={'U': 0}, "
     "partition={'P1': ()})" % SETS_REPR),
    (Classification(True, True, False),
     "Classification(strong=True, finite_dp=True, dp_minimal=False)"),
    (VcReport({1: 2}), "VcReport(values={1: 2})"),
    (SubgroupProfile(DESC, TOR2, (("cyc", (2, 1), 3),), (1,)),
     "SubgroupProfile(desc=%s, formula=PPFormula(atoms=(Tor(m=2),)), "
     "blocks=(('cyc', (2, 1), 3),), locals=(1,))" % DESC_REPR),
    (ProfileStats(Index(()), 1), "ProfileStats(cardinality=Finite(1), exponent=1)"),
    (InpVerdict(True, (Index(None),)), "InpVerdict(valid=True, transcript=(Infinite,))"),
    (BreadthResult(1, (TOR2,), 3, True),
     "BreadthResult(depth=1, witness=(PPFormula(atoms=(Tor(m=2),)),), "
     "pool_bound=3, exhausted=True)"),
    (FinAbGroup((2, 3)), "FinAbGroup(orders=(2, 3))"),
    (SetFamily(6, (1, 2)), "SetFamily(carrier_size=6, sets=(1, 2))"),
    (RANK, "Command(help='dp-rank with case tag and witnesses', "
           "args=(('group', {}),), payload=%r, text=%r)"
           % (cli._rank, cli._rank_text)),
]
IDS = [type(r).__name__ for r, _ in SAMPLES]

DEFAULTS = {
    PrimeTailShape: ((), 0, 0),
    SzmielewDescription: ((), (), (), 0, (), None),
    PPFormula: ((),),
}


def fields(record):
    return tuple(getattr(record, f) for f in type(record).__slots__)


def twin(cls):
    """Another record class with the same fields."""
    class Twin(Record):
        __annotations__ = dict.fromkeys(cls.__slots__, "object")
    return Twin


def test_every_record_class_has_a_sample():
    found = set()
    for path in (ROOT / "src" / "szk").glob("*.py"):
        module = importlib.import_module("szk." + path.stem
                                         if path.stem != "__init__" else "szk")
        found.update(v for v in vars(module).values()
                     if isinstance(v, type) and issubclass(v, Record)
                     and v is not Record)
    assert found == {type(r) for r, _ in SAMPLES}
    assert len(found) == 23


@pytest.mark.parametrize("record,expected", SAMPLES, ids=IDS)
class TestRecord:
    def test_fields_are_slots(self, record, expected):
        assert not hasattr(record, "__dict__")
        cls = type(record)
        assert cls.__init__.__defaults__ == DEFAULTS.get(cls)

    def test_equality_is_type_checked(self, record, expected):
        same = type(record)(*fields(record))
        assert record == same and not record != same
        values = fields(record)
        assert record != values and not record == values
        other = twin(type(record))(*values)
        assert record != other and not record == other

    def test_hash_is_the_field_tuple_hash(self, record, expected):
        try:
            want = hash(fields(record))
        except TypeError:
            # a field holds a dict: the record is unhashable too
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == want

    def test_fields_are_frozen(self, record, expected):
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_pickle_round_trip(self, record, expected):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)

    def test_repr(self, record, expected):
        assert repr(record) == expected


def test_atoms_sort_as_before():
    assert sorted([Tor(5), Tor(2), Tor(3)]) == [Tor(2), Tor(3), Tor(5)]
    assert sorted([Div(3, 1, 0), Div(2, 3, 1), Div(2, 2, 1), Div(2, 3, 0)]) \
        == [Div(2, 2, 1), Div(2, 3, 0), Div(2, 3, 1), Div(3, 1, 0)]
    assert Tor(2) <= Tor(2) and Tor(3) >= Tor(2) and Tor(3) > Tor(2)
    for a, b in ((Tor(1), Div(2, 1, 0)), (Div(2, 1, 0), Tor(1)), (Tor(1), (1,))):
        for compare in (lambda: a < b, lambda: a <= b,
                        lambda: a > b, lambda: a >= b):
            with pytest.raises(TypeError):
                compare()


def test_unordered_records_do_not_order():
    with pytest.raises(TypeError):
        TailSpec(1, 1) < TailSpec(2, 1)


def test_fin_ab_group_validates():
    with pytest.raises(ValueError, match="orders must be >= 2"):
        FinAbGroup((2, 1))
    with pytest.raises(ValueError, match="exceeds cap"):
        FinAbGroup((1000, 1001))


def test_default_before_field_is_refused():
    with pytest.raises(TypeError, match="without a default follows"):
        class Bad(Record):
            a: int = 0
            b: int


def test_markers_unpickle_as_themselves():
    # OMEGA and INFINITE are compared by identity, so a record that holds
    # one is equal to its pickle round trip only if they unpickle as shared
    for marker in (OMEGA, INFINITE):
        assert pickle.loads(pickle.dumps(marker)) is marker
