import json
import time
import tracemalloc

import pytest

from pgrouplab import cli, guards, qcombin, walk


def test_check_raises_in_the_one_format():
    guards.check("group_order", 256)
    with pytest.raises(ValueError, match=r"^group order 257 exceeds guard 256$"):
        guards.check("group_order", 257)
    # a value too long for str() is written by its size, read from bit_length
    with pytest.raises(ValueError, match=r"^walk states about 10\^4771 exceeds guard 1000000$"):
        guards.check("walk_states", 3**10000)


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


def test_walk_refuses_a_state_count_too_long_to_write_out(capsys):
    assert cli.main(["walk", "--p", "3", "--d", "10000", "--a", "2", "--n", "1"]) == 2
    assert json.loads(capsys.readouterr().out) == {"failures": ["walk states about 10^4771 exceeds guard 1000000"]}


@pytest.mark.parametrize("d, n, message", [
    ("9", "3", "alphabet size 9 exceeds guard 8"),
    ("2", "1000000000", "Lie degree 1000000000 exceeds guard 12"),  # witt_dim would loop over 1..n
])
def test_lie_witt_checks_the_lie_guards_first(capsys, d, n, message):
    start = time.perf_counter()
    assert cli.main(["lie", "--d", d, "--n", n, "--witt"]) == 2
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == {"failures": [message]}


BIG_PRIME = 10000000000000061  # trial division to its square root takes about 6 s
PRIME_REFUSED = f"prime candidate {BIG_PRIME} exceeds guard 1000000000000"


@pytest.mark.parametrize("argv, message", [
    (["orbits", "--d", "2", "--p", str(BIG_PRIME)],
     f"GL(d,p) order {(BIG_PRIME**2 - 1) * (BIG_PRIME**2 - BIG_PRIME)} exceeds guard 1000000"),
    (["bounds", "--kind", "limit1", "--p", str(BIG_PRIME), "--d", "3", "--n", "3"], PRIME_REFUSED),
    (["lie", "--d", "2", "--n", "3", "--p", str(BIG_PRIME), "--witt"], PRIME_REFUSED),
], ids=["orbits", "bounds", "lie"])
def test_a_huge_prime_is_refused_before_trial_division(capsys, argv, message):
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out) == {"failures": [message]}


def test_the_prime_guard_admits_up_to_its_limit_and_refuses_above():
    assert qcombin._is_prime(999999999989)  # the largest prime below 10^12, in about 0.1 s
    with pytest.raises(ValueError, match=r"^prime candidate 1000000000001 exceeds guard 1000000000000$"):
        qcombin._is_prime(10**12 + 1)
