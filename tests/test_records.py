"""The result records: repr, equality, hashing and read-only fields.

Each expected repr is the ``Name(field=value, ...)`` form that printed results
have; the fields hidden from it (``Character._rs``,
``FusionDecomposition._parts``) stay hidden.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from qbf import (
    CBDecision,
    CentralWeightSpec,
    FusionDecomposition,
    LieType,
    QExponent,
    ScanReport,
    SessionConfig,
    SubadditivityReport,
    ValidationReport,
    Violation,
    build_rmatrix_block,
    build_root_system,
    build_sl2_rep,
    lminus_norm_exponent,
    rmatrix_exponent_details,
    tensor_decompose,
    weight_multiplicities,
)
from qbf.cb_region import Certificate
from qbf.root_system import RootSystem
from qbf.sl2_oracle import EigenRow, OracleReport


def _records():
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    bound = Certificate(kind="bound", bound=Decimal(1), attained_at=(0,))
    divergence = Certificate(kind="divergence", ray_base=(1,), growth_factor=Decimal(3))
    z1 = Violation("Z1", ((1,),), Decimal("-0.5"), Decimal(0))
    lst = CentralWeightSpec.lst("2")
    return {
        "LieType": (LieType.parse("B2xA1"), "LieType(factors=(('B', 2), ('A', 1)))"),
        "Character": (weight_multiplicities(a2, (1, 0)),
                      "Character(highest_weight=(1, 0), dominant=mappingproxy({(1, 0): 1}), dim=3)"),
        "FusionDecomposition": (tensor_decompose(a1, (1,), (1,)),
                                "FusionDecomposition(lam=(1,), mu=(1,))"),
        "CentralWeightSpec": (lst, "CentralWeightSpec(kind='lst', beta=Decimal('2'), table=None)"),
        "Violation": (z1, "Violation(condition='Z1', weights=((1,),), lhs=Decimal('-0.5'), "
                          "rhs=Decimal('0'))"),
        "ValidationReport": (
            ValidationReport(lst, False, (z1,), 1, 2, 0),
            "ValidationReport(spec=CentralWeightSpec(kind='lst', beta=Decimal('2'), table=None), "
            "passed=False, violations=(Violation(condition='Z1', weights=((1,),), "
            "lhs=Decimal('-0.5'), rhs=Decimal('0')),), truncation_height=1, checked=2, "
            "skipped=0, notes=())"),
        "SubadditivityReport": (
            SubadditivityReport(True, 1, 3, Decimal("0"), ((0,), (0,), (0,))),
            "SubadditivityReport(passed=True, truncation_height=1, triples_checked=3, "
            "min_slack=Decimal('0'), witness=((0,), (0,), (0,)), violations=())"),
        "QExponent": (lminus_norm_exponent(a1, (1,), (1,)), "QExponent(value=Fraction(-1, 2))"),
        "SessionConfig": (SessionConfig(0.5), "SessionConfig(q=Fraction(1, 2))"),
        "RMatrixExponentDetails": (
            rmatrix_exponent_details(a1, (1,), (1,)),
            "RMatrixExponentDetails(lam=(1,), mu=(1,), exponent=Fraction(-1, 2), "
            "table=(((2,), 1, Fraction(-1, 1)), ((0,), 1, Fraction(3, 1))), minimizer=(2,), "
            "ties=((2,),))"),
        "Certificate": (bound, "Certificate(kind='bound', bound=Decimal('1'), attained_at=(0,), "
                               "ray_base=None, growth_factor=None)"),
        "CBDecision": (
            CBDecision((1,), Decimal(2), Fraction(1, 2), False, False, Fraction(1, 2),
                       Decimal("0.25"), Decimal("1.5"), divergence),
            "CBDecision(lam=(1,), beta=Decimal('2'), q=Fraction(1, 2), extends=False, "
            "boundary=False, norm_sq=Fraction(1, 2), threshold_sq=Decimal('0.25'), "
            "beta_min=Decimal('1.5'), certificate=Certificate(kind='divergence', bound=None, "
            "attained_at=None, ray_base=(1,), growth_factor=Decimal('3')))"),
        "ScanReport": (
            ScanReport((0,), Decimal(2), 1, Decimal(0), (0,), (Decimal(0),), None, True),
            "ScanReport(lam=(0,), beta=Decimal('2'), height=1, max_log_ratio=Decimal('0'), "
            "argmax=(0,), ray=(Decimal('0'),), decision=None, consistent=True)"),
        "Sl2Rep": (
            build_sl2_rep("1/2", 1),
            "Sl2Rep(q=Fraction(1, 2), n=1, "
            "e=((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(0, 1))), "
            "f=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1))), "
            "k=((Fraction(1, 2), Fraction(0, 1)), (Fraction(0, 1), Fraction(2, 1))))"),
        "RMatrixBlock": (
            build_rmatrix_block("1/2", 1, 0),
            "RMatrixBlock(q=Fraction(1, 2), m=1, n=0, blocks=(((0, 0),), ((1, 0),)), "
            "r=(((Fraction(1, 1),),), ((Fraction(1, 1),),)), "
            "r21r=(((Fraction(1, 1),),), ((Fraction(1, 1),),)), "
            "dsq=(Fraction(1, 1), Fraction(2, 1)))"),
        "EigenRow": (EigenRow(1, -1, 2, Decimal(2), True),
                     "EigenRow(nu=1, exponent=-1, multiplicity=2, value=Decimal('2'), "
                     "verified_exact=True)"),
        "OracleReport": (
            OracleReport(Fraction(1, 2), 1, 0, True, Fraction(1), Decimal(1), Decimal(1), (),
                         True, Fraction(0)),
            "OracleReport(q=Fraction(1, 2), m=1, n=0, passed=True, lambda_max=Fraction(1, 1), "
            "norm_computed=Decimal('1'), norm_expected=Decimal('1'), eigen_rows=(), "
            "exact_multiset_match=True, relation_residual=Fraction(0, 1), failures=())"),
    }


RECORDS = _records()
# Records holding a dict or a mapping proxy cannot be hashed.
UNHASHABLE = {"Character", "FusionDecomposition"}
FIELD = {"LieType": "factors", "Character": "highest_weight", "FusionDecomposition": "lam",
         "CentralWeightSpec": "kind", "Violation": "condition", "ValidationReport": "passed",
         "SubadditivityReport": "passed", "QExponent": "value", "SessionConfig": "q",
         "RMatrixExponentDetails": "exponent", "Certificate": "kind", "CBDecision": "extends",
         "ScanReport": "consistent", "Sl2Rep": "n", "RMatrixBlock": "m", "EigenRow": "nu",
         "OracleReport": "passed"}


def test_every_record_is_covered():
    assert len(RECORDS) == 17 and set(RECORDS) == set(FIELD)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr(name):
    record, expected = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == expected


def test_str_of_the_records_that_define_it():
    assert str(LieType.parse("B2xA1")) == "B2xA1"
    assert str(QExponent(Fraction(-1, 2))) == "q^(-1/2)"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    record, _ = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, FIELD[name], None)
    with pytest.raises(AttributeError):
        delattr(record, FIELD[name])
    with pytest.raises(AttributeError):
        record.unknown_field = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_hashing(name):
    record, _ = RECORDS[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(_records()[name][0])


def test_equality():
    assert LieType.parse("B2xA1") == LieType.parse(" B2 x A1 ")
    assert hash(LieType.parse("B2xA1")) == hash(LieType.parse(" B2 x A1 "))
    assert LieType.parse("B2xA1") != LieType.parse("A1xB2")
    assert SessionConfig("0.5") == SessionConfig(Fraction(1, 2)) != SessionConfig("0.3")
    assert QExponent(Fraction(1)) == QExponent(Fraction(1)) != QExponent(Fraction(2))
    for name, (record, _) in RECORDS.items():
        assert record == _records()[name][0], name


def test_fusion_equality_ignores_the_order_of_the_components():
    a2 = build_root_system("A2")
    fd = tensor_decompose(a2, (1, 0), (0, 1))
    assert len(fd._parts) == 2
    assert fd == FusionDecomposition(fd.lam, fd.mu, dict(reversed(fd._parts.items())))
    assert fd != FusionDecomposition(fd.lam, fd.mu, {(1, 1): 1})
    assert fd != FusionDecomposition(fd.mu, fd.lam, fd._parts)


def test_character_equality_ignores_the_root_system():
    interned = build_root_system("A2")
    fresh = RootSystem(LieType.parse("A2"))
    assert weight_multiplicities(fresh, (1, 1)) == weight_multiplicities(interned, (1, 1))
    assert weight_multiplicities(fresh, (1, 1)) != weight_multiplicities(interned, (1, 0))


def test_invalid_lie_type_is_refused_by_the_constructor():
    with pytest.raises(ValueError, match="at least one simple factor"):
        LieType(())
    with pytest.raises(ValueError, match="requires rank >= 2"):
        LieType((("B", 1),))
