import json

import pytest

from pgrouplab import cli, guards


def test_check_raises_in_the_one_format():
    guards.check("group_order", 256)
    with pytest.raises(ValueError, match=r"^group order 257 exceeds guard 256$"):
        guards.check("group_order", 257)


def test_override_restores_every_limit_after_its_body_raises():
    before = dict(guards.LIMITS)
    with pytest.raises(RuntimeError):
        with guards.override(group_order=3, walk_states=7):
            assert guards.LIMITS["group_order"] == 3
            with guards.widened("walk_steps"):
                assert guards.LIMITS["walk_steps"] == guards.UNSAFE_LIMIT
            assert guards.LIMITS["walk_steps"] == before["walk_steps"]
            raise RuntimeError
    assert guards.LIMITS == before
    with pytest.raises(KeyError):
        with guards.override(no_such_guard=1):
            pass
    assert guards.LIMITS == before


def test_unsafe_limits_end_with_the_command_that_raised(capsys):
    # the malformed matrix raises inside the widened walk-state guard
    walk = ["walk", "--p", "1009", "--d", "2", "--n", "3", "--mc", "--trials", "10"]
    assert cli.main(walk + ["--a", "1,2;3", "--unsafe-limits"]) == 2
    assert json.loads(capsys.readouterr().out) == {"failures": ["matrix must be 2x2"]}
    assert cli.main(walk + ["--a", "2"]) == 2
    assert json.loads(capsys.readouterr().out) == {"failures": ["walk states 1018081 exceeds guard 1000000"]}
    assert cli.main(walk + ["--a", "2", "--unsafe-limits"]) == 0
