"""Deterministic serialization: float formatting, key ordering, round-trips."""

import json
import math

import numpy as np
import pytest

from ordgroups import InputError, dumps, law_from_descriptor, order_from_descriptor


def test_floats_round_trip_through_seventeen_digits():
    values = [math.e, math.pi, 1.0 / 3.0, 7.5, -0.1, 1e-300, 2.0**52 + 0.5]
    for v in values:
        assert json.loads(dumps({"v": v}))["v"] == v


def test_integral_floats_keep_a_decimal_point():
    assert dumps([5.0, 7.0, 7.5]) == "[5.0,7.0,7.5]"


def test_keys_are_sorted_and_output_is_stable():
    a = dumps({"b": 1, "a": 2.5, "c": [1, 2.0]})
    b = dumps({"c": [1, 2.0], "a": 2.5, "b": 1})
    assert a == b == '{"a":2.5,"b":1,"c":[1,2.0]}'


def test_numpy_scalars_and_arrays_serialize():
    out = dumps({"x": np.float64(0.5), "y": np.array([1.0, 2.0]), "n": np.int64(3)})
    assert json.loads(out) == {"x": 0.5, "y": [1.0, 2.0], "n": 3}


def test_nonfinite_values_become_strings():
    assert json.loads(dumps([float("inf"), float("-inf")])) == ["inf", "-inf"]
    assert json.loads(dumps(float("nan"))) == "nan"


def test_order_descriptor_forms():
    assert order_from_descriptor({"significance": [1, 0]}).significance == (1, 0)
    assert order_from_descriptor([2, 0, 1]).significance == (2, 0, 1)
    with pytest.raises(InputError):
        order_from_descriptor({})


def test_law_descriptor_requires_family():
    with pytest.raises(InputError):
        law_from_descriptor({"params": {}})
    with pytest.raises(InputError):
        law_from_descriptor({"family": "g_cd", "params": {"c": 1.0}})  # missing d


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("desc", [
    {"family": "e_c", "params": {"c": None}},
    {"family": "g_cd", "params": {"c": 1.0, "d": None}},
    {"family": "t_k", "params": {"k": None}},
    {"family": "from_cocycle", "params": {"cocycle": "heis", "c": None}},
    {"family": "from_cocycle", "params": {"cocycle": "g3", "k": None}},
], ids=["e_c", "g_cd", "t_k", "from_cocycle-heis", "from_cocycle-g3"])
def test_law_parameters_must_be_finite(desc, value):
    params = {k: (value if v is None else v) for k, v in desc["params"].items()}
    with pytest.raises(InputError, match="must be finite"):
        law_from_descriptor({**desc, "params": params})


def test_law_parameters_must_be_numbers():
    with pytest.raises(InputError, match="not a number"):
        law_from_descriptor({"family": "semidirect_rr", "params": {"c": "one"}})
    with pytest.raises(InputError, match="not a number"):
        law_from_descriptor({"family": "from_cocycle", "params": {"cocycle": "g3", "k": [1]}})


@pytest.mark.parametrize("n", [2, 2.0, "2"])
def test_additive_n_is_normalised_to_an_integer(n):
    law = law_from_descriptor({"family": "additive", "params": {"n": n}})
    assert law.descriptor() == {"family": "additive", "params": {"n": 2}, "dim": 2}
    assert type(law.n) is int


def test_additive_falls_back_to_dim():
    assert law_from_descriptor({"family": "additive", "dim": 3}).dim == 3
    assert law_from_descriptor({"family": "additive"}).dim == 1


@pytest.mark.parametrize("desc", [
    {"family": ["e_c"]},
    {"family": "e_c", "params": [1]},
    {"family": "e_c", "params": "c"},
    {"family": "product", "params": {"a": {"family": "sut3"}}},
    {"family": "from_cocycle", "params": {"cocycle": "zz"}},
])
def test_malformed_descriptors_are_input_errors(desc):
    with pytest.raises(InputError):
        law_from_descriptor(desc)


def test_the_family_table_covers_every_law_class():
    from ordgroups import groups, jsonio

    laws = {cls for cls in vars(groups).values()
            if isinstance(cls, type) and issubclass(cls, groups.GroupLaw)}
    # the two abstract bases name no family
    laws -= {groups.GroupLaw, groups._Tower}
    assert set(jsonio._FAMILIES.values()) == laws


# each a descriptor that reads one of its keys wrongly, and that key
@pytest.mark.parametrize("desc, key", [
    # float(True) is 1.0, but a boolean is no parameter
    ({"family": "semidirect_rr", "params": {"c": True}}, "c"),
    ({"family": "additive", "params": {"n": True}}, "n"),
    ({"family": "from_cocycle", "params": {"cocycle": "g3", "k": False}}, "k"),
    ({"family": "additive", "params": {"n": 1}, "dim": True}, "dim"),
    # a key the descriptor does not read is no key to drop
    ({"family": "t_k", "params": {"k": 1, "c": 7}}, "c"),
    ({"family": "sut3", "params": {"c": 1}}, "c"),
    ({"family": "from_cocycle", "params": {"cocycle": "heis", "k": 5}}, "k"),
    ({"family": "from_cocycle", "params": {"cocycle": "g3", "c": 5}}, "c"),
    ({"family": "e_c", "params": {"c": 1}, "order": [0, 1, 2]}, "order"),
    ({"family": "product", "params": {"a": {"family": "additive", "params": {"n": 1}},
                                      "b": {"family": "e_c", "params": {"c": 1, "d": 2}}}}, "d"),
    # a stated dim is the law's
    ({"family": "additive", "params": {"n": 2}, "dim": 3}, "dim"),
    ({"family": "t_k", "params": {"k": 1}, "dim": 2}, "dim"),
    ({"family": "from_cocycle", "params": {"cocycle": "heis"}, "dim": 2.5}, "dim"),
], ids=repr)
def test_a_descriptor_key_read_wrongly_is_an_input_error_naming_it(desc, key):
    with pytest.raises(InputError, match=f"'{key}'"):
        law_from_descriptor(desc)


def _descriptor_laws():
    from ordgroups import CocycleLaw, Product, SemidirectRR, g3_cocycle, heis_cocycle
    from ordgroups.classify import enumerate_canonical
    from ordgroups.selftest import _law_grid

    laws = _law_grid() + [law for dim in (1, 2, 3) for _, law, _ in enumerate_canonical(dim)]
    laws += [CocycleLaw(heis_cocycle(-2.0)), CocycleLaw(g3_cocycle(0.5)),
             Product(Product(SemidirectRR(-0.5), laws[0]), laws[0])]
    return laws


@pytest.mark.parametrize("law", _descriptor_laws(), ids=lambda law: dumps(law.descriptor()))
def test_every_descriptor_round_trips(law):
    desc = law.descriptor()
    assert law_from_descriptor(desc).descriptor() == desc
    assert law_from_descriptor(json.loads(dumps(desc))).descriptor() == desc
