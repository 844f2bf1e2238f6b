import random
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from symlpp.core import (
    DistributionTable,
    IntMatrix,
    ModelSpec,
    Partition,
    format_rational,
    matrix_from_rows_top_to_bottom,
    parse_rational,
    partitions_in_box,
    record,
)
from symlpp.harness import VerificationReport
from symlpp.lpp import _site_plan
from symlpp.numerics import GeomInv, PolyPlus
from symlpp.oracles import (alternating_sum, anti_transpose, conjugate, entry, rotate180,
                            transpose)


def test_partition_normalisation_and_validation():
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_conjugate_examples():
    assert conjugate(Partition()) == Partition()
    assert conjugate(Partition((1,))) == Partition((1,))
    # transpose the diagram of (4,2) by hand: columns have heights 2,2,1,1
    assert conjugate(Partition((4, 2))) == Partition((2, 2, 1, 1))


def test_conjugate_involution_on_box():
    for mu in partitions_in_box(5, 4):
        assert conjugate(conjugate(mu)) == mu


def test_alternating_sum_examples():
    assert alternating_sum(Partition()) == 0
    assert alternating_sum(Partition((3,))) == 3
    assert alternating_sum(Partition((4, 2))) == 2


def test_alternating_sum_of_conjugate_counts_odd_parts():
    for mu in partitions_in_box(6, 5):
        odd = sum(1 for p in mu.parts if p % 2 == 1)
        assert alternating_sum(conjugate(mu)) == odd


def test_partitions_in_box_examples():
    assert {p.parts for p in partitions_in_box(1, 1)} == {(), (1,)}
    assert {p.parts for p in partitions_in_box(0, 5)} == {()}
    six = {p.parts for p in partitions_in_box(2, 2)}
    assert six == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}


def test_partitions_in_box_counts_match_binomial():
    for max_part in range(9):
        for max_length in range(9):
            seen = list(partitions_in_box(max_part, max_length))
            assert len(seen) == comb(max_part + max_length, max_length)
            assert len({p.parts for p in seen}) == len(seen)
            for mu in seen:
                assert mu.length <= max_length
                assert (mu.parts[0] if mu.parts else 0) <= max_part


def test_rational_arithmetic_is_exact():
    rnd = random.Random(0)
    for _ in range(200):
        p = F(rnd.randint(-99, 99), rnd.randint(1, 99))
        r = F(rnd.randint(-99, 99), rnd.randint(1, 99))
        assert (p + r) - r == p
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert format_rational(F(15, 16)) == "15/16"
    assert format_rational(F(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_int_matrix_indexing_is_bottom_up():
    X = IntMatrix(((1, 2), (3, 4)))  # bottom row (1,2), top row (3,4)
    assert entry(X, 1, 1) == 1 and entry(X, 1, 2) == 2
    assert entry(X, 2, 1) == 3 and entry(X, 2, 2) == 4
    assert X.rows_top_to_bottom() == [[3, 4], [1, 2]]
    # printing labels rows and puts the top row first
    text = str(X)
    assert text.splitlines()[0].startswith("i=2")
    assert matrix_from_rows_top_to_bottom([[3, 4], [1, 2]]) == X


def test_int_matrix_reflections():
    X = IntMatrix(((1, 2), (3, 4)))
    assert transpose(X) == IntMatrix(((1, 3), (2, 4)))
    assert anti_transpose(X) == IntMatrix(((4, 2), (3, 1)))
    assert rotate180(X) == IntMatrix(((4, 3), (2, 1)))
    assert transpose(transpose(X)) == X
    assert anti_transpose(anti_transpose(X)) == X
    with pytest.raises(ValueError):
        anti_transpose(IntMatrix(((1, 2),)))
    with pytest.raises(ValueError):
        IntMatrix(((-1,),))
    with pytest.raises(ValueError):
        IntMatrix(())


def test_int_matrix_takes_integers_only():
    # a float entry is refused, not truncated
    with pytest.raises(TypeError):
        IntMatrix(((1.5, 0),))
    with pytest.raises(TypeError):
        matrix_from_rows_top_to_bottom([[2.9]])
    X = IntMatrix(((np.int64(3), np.int32(0)),))
    assert X == IntMatrix(((3, 0),)) and all(type(x) is int for x in X.rows[0])


def test_model_spec_validation():
    ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 3),))
    with pytest.raises(ValueError, match="square"):
        ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 3), F(1, 4)))
    with pytest.raises(ValueError, match=r"a\[1\]"):
        ModelSpec("johansson", a=(F(1, 2), F(3, 2)), b=(F(1, 3), F(1, 4)))
    with pytest.raises(ValueError, match="alpha"):
        ModelSpec("diagonal", q=(F(1, 2),))
    with pytest.raises(ValueError, match="beta"):
        ModelSpec("diagonal", q=(F(1, 2),), alpha=F(0), beta=F(0))
    with pytest.raises(ValueError, match="variant"):
        ModelSpec("gamma", q=(F(1, 2),))
    spec = ModelSpec("doublysymmetric", q=(F(1, 2), F(1, 3)), alpha=F(1, 4))
    assert spec.matrix_shape == (4, 4)
    assert ModelSpec("bernoulli", a=(F(1, 2),), b=(F(1, 3), F(0))).matrix_shape == (1, 2)


# Every rejection message of ModelSpec, word for word.
HALF = (F(1, 2),)
REJECTIONS = [
    ({"variant": "gamma", "q": HALF},
     "unknown variant 'gamma'; expected one of ('johansson', 'bernoulli', 'antidiagonal', "
     "'diagonal', 'doublysymmetric', 'pointreflection')"),
    ({"variant": "bernoulli", "a": HALF}, "bernoulli needs nonempty parameter lists 'a' and 'b'"),
    ({"variant": "johansson", "a": HALF, "b": HALF, "q": HALF},
     "johansson permits only 'a' and 'b'"),
    ({"variant": "bernoulli", "a": HALF, "b": HALF, "alpha": F(0)},
     "bernoulli permits only 'a' and 'b'"),
    ({"variant": "johansson", "a": HALF, "b": HALF * 2},
     "johansson is square: len(a) must equal len(b)"),
    ({"variant": "diagonal", "alpha": F(0)}, "diagonal needs a nonempty parameter list 'q'"),
    ({"variant": "pointreflection", "q": HALF, "a": HALF},
     "pointreflection permits only 'q' plus its weight parameter"),
    ({"variant": "doublysymmetric", "q": HALF}, "doublysymmetric needs 'alpha'"),
    ({"variant": "antidiagonal", "q": HALF, "alpha": F(0)}, "antidiagonal needs 'beta'"),
    ({"variant": "antidiagonal", "q": HALF, "alpha": F(0), "beta": F(0)},
     "'alpha' not permitted for antidiagonal"),
    ({"variant": "pointreflection", "q": HALF, "alpha": F(0), "beta": F(0)},
     "'alpha' not permitted for pointreflection"),
    ({"variant": "diagonal", "q": HALF, "alpha": F(0), "beta": F(0)},
     "'beta' not permitted for diagonal"),
    ({"variant": "johansson", "a": (F(1, 2), F(3, 2)), "b": HALF * 2},
     "a[1] = 3/2 outside [0, 1)"),
    ({"variant": "doublysymmetric", "q": HALF, "alpha": F(3, 2)}, "alpha = 3/2 outside [0, 1)"),
    ({"variant": "antidiagonal", "q": HALF, "beta": F(1)}, "beta = 1 outside [0, 1)"),
]


def test_model_spec_rejection_messages():
    for kwargs, message in REJECTIONS:
        with pytest.raises(ValueError) as exc:
            ModelSpec(**kwargs)
        assert str(exc.value) == message


def test_model_spec_json_round_trip():
    specs = [
        ModelSpec("johansson", a=(F(1, 2), F(0)), b=(F(1, 3), F(2, 5))),
        ModelSpec("bernoulli", a=(F(1, 2),), b=(F(1, 3), F(1, 4))),
        ModelSpec("antidiagonal", q=(F(1, 2),), beta=F(1, 3)),
        ModelSpec("diagonal", q=(F(1, 2), F(1, 5)), alpha=F(0)),
        ModelSpec("doublysymmetric", q=(F(1, 2),), alpha=F(1, 7)),
        ModelSpec("pointreflection", q=(F(1, 2), F(1, 3))),
    ]
    for spec in specs:
        assert ModelSpec.from_json_dict(spec.to_json_dict()) == spec
    with pytest.raises(ValueError, match="variant"):
        ModelSpec.from_json_dict({"q": ["1/2"]})
    with pytest.raises(ValueError, match="unknown fields"):
        ModelSpec.from_json_dict({"variant": "diagonal", "q": ["1/2"],
                                  "alpha": "0", "gamma": "1/2"})


def test_distribution_table_invariants():
    DistributionTable({0: F(1, 2), 1: F(3, 4)}, exact=True)
    with pytest.raises(ValueError):
        DistributionTable({0: F(3, 4), 1: F(1, 2)}, exact=True)
    with pytest.raises(ValueError):
        DistributionTable({0: F(3, 2)}, exact=True)
    with pytest.raises(ValueError):
        DistributionTable({0: 0.5}, exact=True)
    rows = DistributionTable({0: F(1, 2)}, exact=True).to_rows()
    assert rows == [{"l": 0, "p": "1/2", "approx": False}]


def test_records_keep_the_dataclass_semantics():
    c = F(1, 3)
    # equality needs the same class, so records of two classes never collide
    # as cache keys
    assert PolyPlus(c) == PolyPlus(c, 1) and GeomInv(c) != PolyPlus(c)
    spec = ModelSpec("johansson", a=(F(1, 2),), b=(c,))
    twin = ModelSpec.from_json_dict({"variant": "johansson", "a": ["1/2"], "b": ["1/3"]})
    assert spec == twin and spec is not twin and hash(spec) == hash(twin)
    assert _site_plan(spec) is _site_plan(twin)  # one lru_cache entry
    assert spec != ModelSpec("johansson", a=(F(1, 2),), b=(F(1, 4),))
    with pytest.raises(AttributeError):
        spec.variant = "diagonal"
    with pytest.raises(AttributeError):
        del spec.a
    assert repr(spec) == ("ModelSpec(variant='johansson', a=(Fraction(1, 2),), "
                          "b=(Fraction(1, 3),), q=(), alpha=None, beta=None)")
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"
    assert repr(PolyPlus(c, -1)) == "PolyPlus(c=Fraction(1, 3), exponent_sign=-1)"
    # __post_init__ still validates and normalises
    with pytest.raises(ValueError, match="weakly decrease"):
        Partition((1, 2))
    with pytest.raises(ValueError, match=r"\|c\| < 1"):
        GeomInv(F(3, 2))
    with pytest.raises(ValueError, match="outside"):
        ModelSpec("diagonal", q=(F(1),), alpha=c)
    assert Partition((2, 0)) == Partition((2,)) and PolyPlus(1).c == F(1)
    # each report holds the notes dict it is given; a record holding a dict
    # is unhashable, as a frozen dataclass holding one is
    first, second = (VerificationReport({}, "exact", [], "PASS", {}) for _ in range(2))
    first.notes["seed"] = 1
    assert second.notes == {} and first != second
    with pytest.raises(TypeError):
        hash(first)
    with pytest.raises(AttributeError):
        first.verdict = "FAIL"
    # calls that do not match the fields
    with pytest.raises(TypeError):
        Partition((1,), (2,))
    with pytest.raises(TypeError):
        ModelSpec(variant="johansson", colour="red")
    with pytest.raises(TypeError):
        ModelSpec(a=(c,))


def test_record_keeps_methods_the_class_defines():
    @record
    class Pair:
        left: int
        right: int = 0

        def __repr__(self):
            return f"<{self.left}, {self.right}>"

    assert repr(Pair(1)) == "<1, 0>" and Pair(1) == Pair(1, 0) and hash(Pair(1)) == hash(Pair(1, 0))

