import json
import tracemalloc

import pytest

from pgrouplab import cli, guards, walk


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


@pytest.mark.parametrize("d", [1000, 2000])
def test_walk_refuses_the_state_count_before_parsing_the_matrix(capsys, d):
    # a scalar --a expands to a d x d tuple, about 25 MB at d = 1000 and 92 MB at d = 2000
    tracemalloc.start()
    try:
        code = cli.main(["walk", "--p", "3", "--d", str(d), "--a", "2", "--n", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20
    assert json.loads(capsys.readouterr().out) == {"failures": [f"walk states {3**d} exceeds guard 1000000"]}


def test_walk_spec_refuses_the_state_count_before_reading_the_matrix():
    # a_matrix=None would fail with a TypeError if the matrix were reduced first
    with pytest.raises(ValueError, match=r"^walk states 3486784401 exceeds guard 1000000$"):
        walk.WalkSpec(p=3, d=20, a_matrix=None)
