"""The configuration keys are derived from ExperimentConfig's fields."""

from dataclasses import fields

import pytest

from olala.config import CONFIG_KEYS, ExperimentConfig, config_defaults_text, parse_config
from olala.errors import ConfigError

TAGS = {"str": str, "int": int, "float": float, "bool": bool}


def test_every_field_but_input_dim_has_exactly_one_key():
    set_by = {}
    for key, (field_name, _) in CONFIG_KEYS.items():
        set_by.setdefault(field_name, []).append(key)
    names = [f.name for f in fields(ExperimentConfig)]
    assert set(set_by) == set(names) - {"input_dim"}
    assert all(len(keys) == 1 for keys in set_by.values())
    assert [field_name for field_name, _ in CONFIG_KEYS.values()] == [
        n for n in names if n != "input_dim"
    ]


def test_short_forms_are_the_only_aliases():
    aliases = {key: name for key, (name, _) in CONFIG_KEYS.items() if key != name}
    assert aliases == {"U": "n_users", "L": "lattice_dim", "R": "rate"}


@pytest.mark.parametrize("key", ["n_users", "lattice_dim", "rate", "input_dim"])
def test_long_forms_of_aliases_and_input_dim_are_unknown_keys(key):
    with pytest.raises(ConfigError, match=f"^{key}: unknown configuration key"):
        parse_config(None, [f"{key}=3"])


def test_type_tags_match_defaults():
    defaults = ExperimentConfig()
    for key, (name, tag) in CONFIG_KEYS.items():
        if tag == "lr":
            assert name == "lattice_lr"
            continue
        assert type(getattr(defaults, name)) is TAGS[tag], key


def test_short_forms_set_their_fields_and_help_lists_them():
    cfg = parse_config(None, ["U=3", "L=3", "R=2.5", "lattice_lr=auto"])
    assert (cfg.n_users, cfg.lattice_dim, cfg.rate, cfg.lattice_lr) == (3, 3, 2.5, None)
    lines = config_defaults_text().splitlines()
    assert len(lines) == len(CONFIG_KEYS)
    assert lines[2:5] == ["U = 5", "L = 2", "R = 3.0"]
    assert "lattice_lr = auto" in lines
