"""Property tests for the CLI argument domains.

Every validator in the command table (``repro.cli.COMMANDS``) maps any
text to a value inside its domain or raises ``ArgumentTypeError``, which
argparse turns into one ``repro: error:`` line; any other exception would
surface as a traceback.
"""

import argparse
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli



def validator_id(validator) -> str:
    if validator is cli.platform_list:
        return "platform_list"
    return f"{validator.bound}-{validator.kind.__name__}"


VALIDATORS = sorted(
    {
        option.settings["type"]
        for command in cli.COMMANDS
        for option in command.options
        if "type" in option.settings
    },
    key=validator_id,
)

#: Arbitrary text, plus text that parses as a number or an id list.
TEXT = st.one_of(
    st.text(),
    st.integers().map(str),
    st.integers(min_value=10**400).map(str),
    st.floats().map(repr),
    st.lists(st.sampled_from(["a100-40g", "h100-sxm", "", " "]), min_size=1).map(",".join),
)


def in_domain(validator, text, value) -> bool:
    if validator is cli.platform_list:
        return value == text and all(part.strip() for part in text.split(","))
    if type(value) is not validator.kind:
        return False
    if validator.kind is float and not math.isfinite(value):
        return False
    if validator.bound == "positive":
        return value > 0
    if validator.bound == "non-negative":
        return value >= 0
    return validator.bound == "finite"


def test_table_has_validators():
    assert len(VALIDATORS) == 6


@pytest.mark.parametrize("validator", VALIDATORS, ids=validator_id)
@given(text=TEXT)
@settings(max_examples=100, deadline=None)
def test_validator_yields_domain_value_or_argument_type_error(validator, text):
    try:
        value = validator(text)
    except argparse.ArgumentTypeError:
        return
    assert in_domain(validator, text, value), (text, value)
