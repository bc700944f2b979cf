"""Tests for JobConf."""

import pytest

from repro.config import DEFAULTS, JobConf, Keys
from repro.errors import ConfigError


class TestDefaults:
    def test_defaults_loaded(self):
        conf = JobConf()
        assert conf.get_float(Keys.SPILL_PERCENT) == 0.8
        assert conf.get_int(Keys.SPILL_BUFFER_BYTES) == DEFAULTS[Keys.SPILL_BUFFER_BYTES]

    def test_override(self):
        conf = JobConf({Keys.SPILL_PERCENT: 0.5})
        assert conf.get_float(Keys.SPILL_PERCENT) == 0.5

    def test_copy_is_independent(self):
        conf = JobConf()
        clone = conf.copy()
        clone.set(Keys.SPILL_PERCENT, 0.3)
        assert conf.get_float(Keys.SPILL_PERCENT) == 0.8


class TestTypedAccessors:
    def test_get_int_coerces_string(self):
        assert JobConf({"x": "42"}).get_int("x") == 42

    def test_get_int_rejects_fractional_float(self):
        with pytest.raises(ConfigError):
            JobConf({"x": 1.5}).get_int("x")

    def test_get_float(self):
        assert JobConf({"x": "2.5"}).get_float("x") == 2.5

    @pytest.mark.parametrize("raw,expected", [
        (True, True), ("true", True), ("YES", True), ("1", True),
        (False, False), ("false", False), ("off", False), ("0", False),
    ])
    def test_get_bool(self, raw, expected):
        assert JobConf({"x": raw}).get_bool("x") is expected

    def test_get_bool_rejects_garbage(self):
        with pytest.raises(ConfigError):
            JobConf({"x": "maybe"}).get_bool("x")

    def test_get_fraction_bounds(self):
        assert JobConf({"x": 0.0}).get_fraction("x") == 0.0
        assert JobConf({"x": 1.0}).get_fraction("x") == 1.0
        with pytest.raises(ConfigError):
            JobConf({"x": 1.01}).get_fraction("x")
        with pytest.raises(ConfigError):
            JobConf({"x": -0.1}).get_fraction("x")

    def test_get_positive_int(self):
        with pytest.raises(ConfigError):
            JobConf({"x": 0}).get_positive_int("x")

    def test_missing_key_without_default(self):
        with pytest.raises(ConfigError):
            JobConf().get_int("no.such.key")

    def test_missing_key_with_default(self):
        assert JobConf().get_int("no.such.key", 7) == 7

    def test_get_str_type_check(self):
        with pytest.raises(ConfigError):
            JobConf({"x": 5}).get_str("x")


class TestMutation:
    def test_set_rejects_empty_key(self):
        with pytest.raises(ConfigError):
            JobConf().set("", 1)

    def test_update_and_contains(self):
        conf = JobConf()
        conf.update({"a": 1, "b": 2})
        assert "a" in conf and conf.get("b") == 2

    def test_as_dict_snapshot(self):
        conf = JobConf({"a": 1})
        snapshot = conf.as_dict()
        conf.set("a", 2)
        assert snapshot["a"] == 1


def test_every_key_is_read_outside_config():
    """A key that no module but ``config.py`` references is a dead knob:
    setting it changes nothing."""
    import pathlib
    import re

    import repro
    import repro.config

    package = pathlib.Path(repro.__file__).parent
    config_path = pathlib.Path(repro.config.__file__)
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in package.rglob("*.py")
        if path != config_path
    )
    names = [name for name in vars(Keys) if name.isupper()]
    assert len(names) == len(DEFAULTS)
    dead = [name for name in names if not re.search(rf"\bKeys\.{name}\b", sources)]
    assert dead == []
