import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xistep.config import ConfigError, parse_config

VALID = {
    "xi": {"kingman_mass": "1",
           "atoms": [{"coords": ["1/2", "1/4"], "weight": "1"}]},
    "theta": "1",
    "mutation": {"kind": "uniform", "base": {"densities": ["1"]}},
    "u1": "1", "u2": "2",
    "e_star": {"level": 1, "cells": [0]},
    "alpha": "1/2",
    "replicas": 100,
    "seed": 7,
    "b_max": 6,
    "options": {"mode": "mc", "order": 2, "indices": [[1, 1], [2, 0]],
                "t": "1/2", "n": 1, "m": 1, "eta": [1, 2]},
}


def with_field(path, value):
    """VALID with the field at `path` (a tuple of keys and list positions)
    replaced by `value`."""
    data = copy.deepcopy(VALID)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def field_error(path, value):
    with pytest.raises(ConfigError) as info:
        parse_config(with_field(path, value))
    return info.value


class TestValidConfig:
    def test_parses(self):
        cfg = parse_config(VALID)
        assert cfg.b_max == 6 and cfg.replicas == 100
        assert cfg.options["order"] == 2
        assert cfg.options["indices"] == [[1, 1], [2, 0]]
        assert cfg.options["t"] == Fraction(1, 2)
        assert cfg.options["eta"] == [1, 2]

    def test_integer_strings_accepted(self):
        cfg = parse_config(with_field(("options", "order"), "3"))
        assert cfg.options["order"] == 3
        cfg = parse_config(with_field(("options", "eta"), ["2", 1]))
        assert cfg.options["eta"] == [2, 1]
        cfg = parse_config(with_field(("options", "n"), "2"))
        assert cfg.options["n"] == 2

    def test_scalar_params_cover_the_order(self):
        cfg = parse_config(VALID)
        assert cfg.scalar_params().table.b_max == 4
        assert cfg.scalar_params(5).table.b_max == 5
        assert cfg.scalar_params(9).table.b_max == 6
        # the named rates need 4 blocks whatever b_max is
        small = parse_config(dict(VALID, b_max=2, options={}))
        assert small.scalar_params().table.b_max == 4
        assert small.scalar_params(2).table.b_max == 4

    def test_model_params_tabulate_to_the_start_blocks(self):
        cfg = parse_config(VALID)
        assert cfg.model_params().b_max == 6
        assert cfg.model_params(2).b_max == 2
        assert cfg.model_params(9).b_max == 6
        # the rates a smaller table holds are the larger table's
        assert cfg.model_params(3)._tables[1][3] \
            == cfg.model_params()._tables[1][3]


class TestFieldErrors:
    @pytest.mark.parametrize("value", [0, -3, 2.5, "abc", "2.5", True, [2],
                                       None])
    def test_order_must_be_a_positive_integer(self, value):
        assert field_error(("options", "order"), value).field \
            == "options.order"

    def test_order_above_b_max(self):
        err = field_error(("options", "order"), 7)
        assert err.field == "options.order" and "b_max=6" in str(err)

    @pytest.mark.parametrize("value", [[], [[1]], [[1, "x"]], [[-1, 2]],
                                       [[0, 0]], [[4, 3]], "11", [5]])
    def test_indices_must_be_pairs_within_b_max(self, value):
        err = field_error(("options", "indices"), value)
        assert err.field.startswith("options.indices")

    @pytest.mark.parametrize("key,value", [
        ("replicas", [1]), ("replicas", "many"), ("replicas", 2.5),
        ("replicas", 0), ("seed", "x"), ("seed", {}), ("seed", 1.5),
        ("b_max", "8.0"), ("b_max", 0), ("b_max", 21), ("b_max", None)])
    def test_integer_fields(self, key, value):
        assert field_error((key,), value).field == key

    @pytest.mark.parametrize("key", ["u1", "u2"])
    @pytest.mark.parametrize("value", ["0", "-1", "-1/3"])
    def test_migration_rates_positive(self, key, value):
        assert field_error((key,), value).field == key

    def test_exact_engine_needs_positive_theta(self):
        # theta = 0 parses, since the dual runs without mutation, but the
        # exact engine refuses it
        cfg = parse_config(with_field(("theta",), "0"))
        assert cfg.model_params().mutation.theta == 0
        with pytest.raises(ConfigError) as info:
            cfg.scalar_params()
        assert info.value.field == "theta"

    @pytest.mark.parametrize("path,value,field", [
        (("e_star", "level"), 40, "e_star.level"),
        (("e_star", "level"), -1, "e_star.level"),
        (("e_star", "cells"), 3, "e_star.cells"),
        (("e_star", "cells"), [0, "x"], "e_star.cells[1]"),
        # one density for the two cells of grid level 1
        (("mutation", "base", "grid_level"), "1", "mutation.base.densities"),
        (("mutation", "base", "grid_level"), 99, "mutation.base.grid_level"),
        (("mutation", "base"), [1], "mutation.base"),
        (("xi", "atoms"), 5, "xi.atoms"),
        (("xi", "atoms", 0, "coords"), "1/2", "xi.atoms[0].coords"),
        (("xi",), [], "xi"),
        (("options", "eta"), [1, 2] * 4, "options.eta"),
        (("options", "eta"), [1, True], "options.eta[1]"),
        (("options", "n"), 2.5, "options.n"),
        (("options", "m"), 6, "options.n+m"),
        (("options", "t"), 0.5, "options.t"),
        (("options", "t"), "-1/2", "options.t"),
        (("options", "t"), True, "options.t"),
        (("theta",), False, "theta"),
        (("options", "mode"), ["mc"], "options.mode"),
        (("theta",), "-1/3", "theta"),
        # keys that no parser reads, at every level
        (("sed",), 5, "sed"),
        (("xi", "kingman"), "1", "xi.kingman"),
        (("xi", "atoms", 0, "weigth"), "1", "xi.atoms[0].weigth"),
        (("mutation", "knd"), "uniform", "mutation.knd"),
        (("mutation", "base", "density"), ["1"], "mutation.base.density"),
        (("mutation", "base", "atoms"), [{"at": "0", "mas": "1"}],
         "mutation.base.atoms[0].mas"),
        (("mu1",), {"densities": ["1"], "grid": 1}, "mu1.grid"),
        (("mu2",), {"densities": ["1"], "atoms": [{"at": "0", "mass": "0",
                                                   "w": "1"}]},
         "mu2.atoms[0].w"),
        (("e_star", "cell"), [0], "e_star.cell"),
        (("options", "ordr"), 6, "options.ordr"),
    ])
    def test_nested_fields_named(self, path, value, field):
        assert field_error(path, value).field == field

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError):
            parse_config([VALID])


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "0", "1", "-1", "1/2", "3/0", "abc", "2.5", "64"])
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


FIELD_PATHS = [p for p in _paths(VALID) if p]


def parses_or_config_error(data):
    try:
        parse_config(json.loads(json.dumps(data)))
    except ConfigError:
        pass


class TestFuzz:
    @given(JSON)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value(self, data):
        parses_or_config_error(data)

    @given(st.sampled_from(FIELD_PATHS), JSON)
    @settings(max_examples=400, deadline=None)
    def test_any_json_value_in_any_field(self, path, value):
        parses_or_config_error(with_field(path, value))
