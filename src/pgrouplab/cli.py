"""Command-line front end: census, bounds, lie, submod, orbits, walk, selftest.

Every command writes a JSON manifest next to its output and is deterministic
given (arguments, seed).  Each command returns its list of failed checks, and
`main` alone reports them: it prints the list as JSON, {"failures": [...]},
and exits 1 when a check failed or 2 on malformed input, a tripped guard or
a file that cannot be read or written.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from typing import List, Optional

from . import __version__, bounds, fplin, freelie, guards, qcombin, submod, walk
from .groups.catalog import census as run_census
from .groups.catalog import parse_catalog

MANIFEST_GUARDS = ("group_order", "subspace_count", "gl_order", "walk_states", "walk_steps")


def _write_manifest(out_path: Optional[str], command: str, params: dict, seed: Optional[int]):
    """The manifest records the guards in force, so it is written inside a command's overrides."""
    if not out_path:
        return
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "guards": {name: guards.LIMITS[name] for name in MANIFEST_GUARDS},
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(out_path: Optional[str], header: List[str], rows: List[List]):
    if not out_path:
        return
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _parse_matrix(text: str, d: int) -> tuple:
    rows = [r for r in text.split(";") if r]
    if len(rows) == 1 and d > 1 and "," not in rows[0]:
        c = int(rows[0])
        return tuple(tuple(c if i == j else 0 for j in range(d)) for i in range(d))
    mat = tuple(tuple(int(x) for x in r.split(",")) for r in rows)
    if len(mat) != d or any(len(r) != d for r in mat):
        raise ValueError(f"matrix must be {d}x{d}")
    return mat


# ---------------------------------------------------------------------------
# subcommands


def cmd_census(args) -> List[str]:
    # --unsafe-limits widens the order guard for --catalog groups; the bundled catalog keeps the default
    with guards.widened(*(["group_order"] if args.unsafe_limits and args.catalog else [])):
        entries = None
        if args.catalog:
            entries = []
            for name, g, p in parse_catalog(args.catalog):
                if p != args.p or g.order != args.p**args.k:
                    raise ValueError(f"catalog entry {name!r} has order {g.order} and prime {p}, "
                                     f"not order {args.p}^{args.k}")
                entries.append((name, g))
        hits, total, rows = run_census(args.p, args.k, entries=entries)
        out_rows = [[r.name, r.aut_order, str(r.aut_is_p_group).lower()] for r in rows]
        _write_csv(args.out, ["name", "aut_order", "is_p_group"], out_rows)
        _write_manifest(args.out, "census", {"p": args.p, "k": args.k, "catalog": args.catalog}, None)
    print(f"{hits}/{total}")
    return []


def cmd_bounds(args) -> List[str]:
    rows = []
    ps, ds, ns = _int_list(args.p), _int_list(args.d), _int_list(args.n)
    if not (ps and ds and ns):
        raise ValueError("--p, --d and --n each need at least one value")
    if args.kind != "dn" and not all(map(qcombin._is_prime, ps)):
        raise ValueError(f"--p must list primes, not {args.p}")
    if min(ds) < 1:
        raise ValueError(f"--d must be at least 1, not {min(ds)}")
    # the dn inequalities do not depend on p: their rows carry p = 0
    for p, d, n in itertools.product([0] if args.kind == "dn" else sorted(ps), sorted(ds), sorted(ns)):
        if args.kind == "limit1":
            # the bound is 1 plus a positive term: a value to report, with nothing to check
            rep = bounds.limit1_bound(p, d, n)
            rows.append([p, d, n, "", "1", f"{rep.value.value:.12g}", "", ";".join(rep.warnings)])
        elif args.kind == "limit2":
            try:
                rep = bounds.limit2_bounds(p, d, n)
            except ValueError as exc:
                rows.append([p, d, n, "", "", "", "", f"warn:{exc}"])
                continue
            b = "" if rep.vacuous_b else f"{rep.bound_b.value:.12g}"
            rows.append([p, d, n, "", f"{rep.bound_a.value:.12g}", b,
                         not rep.vacuous_b, "vacuous_b" if rep.vacuous_b else ""])
        else:
            first, second, third = bounds.dn_inequalities(d, n)
            rows.append([p, d, n, "", "", "", all((first, second, third)),
                         f"first={first};second={second};third={third}"])
    _write_csv(args.out, ["p", "d", "n", "profile", "lhs", "rhs", "holds", "warnings"], rows)
    _write_manifest(args.out, "bounds", {"kind": args.kind, "p": ps, "d": ds, "n": ns}, None)
    for row in rows:
        print(",".join(str(x) for x in row))
    return []


def cmd_lie(args) -> List[str]:
    if not qcombin._is_prime(args.p):
        raise ValueError(f"--p must be a prime, not {args.p}")
    failures = []
    outputs = {}
    if args.witt:
        outputs["witt_dim"] = freelie.witt_dim(args.d, args.n)
        outputs["dn_dim"] = freelie.dn_dim(args.d, args.n)
        print(outputs["witt_dim"])
    if args.lyndon:
        words = freelie.lyndon_words(args.d, args.n)
        outputs["lyndon_count"] = len(words)
        print(len(words))
        if len(words) != freelie.witt_dim(args.d, args.n):
            failures.append("lyndon count disagrees with the dimension formula")
    if args.triangularity:
        for w in freelie.lyndon_words(args.d, args.n):
            _, poly = freelie.right_bracketing(w, args.p, args.d)
            if poly.coefficient(w) != 1 or any(v < w for v in poly.support()):
                failures.append(f"triangularity failed at {w}")
        outputs["triangularity"] = not failures
        print("triangularity " + ("ok" if not failures else "FAILED"))
    if args.expansion:
        report = freelie.expansion_check(
            freelie.random_lie_subspace(args.d, args.n, args.p, args.expansion_dim, args.seed),
            "homogeneous",
        )
        outputs["expansion"] = report.ratio_ok
        print(f"expansion dims {report.dim_w} -> {report.dim_result} ok={report.ratio_ok}")
        if not report.ratio_ok:
            failures.append("expansion ratio violated")
    _write_manifest(args.out, "lie", {"d": args.d, "n": args.n, "p": args.p}, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(outputs, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    return failures


def cmd_submod(args) -> List[str]:
    alpha = qcombin.Partition(_int_list(args.alpha))
    beta = qcombin.Partition(_int_list(args.beta)) if args.beta else None
    if beta is not None:
        value = submod.submodule_count(alpha, beta, args.q)
    else:
        value = submod.total_submodules(alpha, args.q)
    print(value)
    _write_csv(args.out, ["alpha", "beta", "q", "count"],
               [[args.alpha, args.beta or "", args.q, value]])
    _write_manifest(args.out, "submod", {"alpha": args.alpha, "beta": args.beta, "q": args.q}, None)
    return []


def cmd_orbits(args) -> List[str]:
    failures = []
    if args.module == "natural":
        action = fplin.natural_action(args.d, args.p)
    else:
        action = fplin.wedge_module(args.d, args.p)
    for note in action.notes:
        print(f"note: {note}", file=sys.stderr)
    cf_count, _ = fplin.cauchy_frobenius(action)
    census = fplin.regular_orbits(action)
    if cf_count != census.orbit_count:
        failures.append("orbit counts disagree between the two methods")
    rows = [
        [action.name, i, size, stab, str(stab == 1).lower()]
        for i, (size, stab) in enumerate(census.orbits)
    ]
    _write_csv(args.out, ["action_id", "orbit_index", "size", "stabilizer_order", "regular"], rows)
    _write_manifest(args.out, "orbits", {"d": args.d, "p": args.p, "module": args.module}, None)
    print(f"orbits={census.orbit_count} regular={census.regular_count}")
    return failures


def cmd_walk(args) -> List[str]:
    with guards.widened(*(["walk_states"] if args.unsafe_limits else [])):
        spec = walk.WalkSpec(p=args.p, d=args.d, a_matrix=_parse_matrix(args.a, args.d), q_weight=args.q)
        rows = []
        failures = []
        if args.mode == "exact":
            eigs = [spec.a_matrix[i][i] for i in range(args.d)]
            diagonal = all(
                spec.a_matrix[i][j] == 0 for i in range(args.d) for j in range(args.d) if i != j
            )
            fou = walk.fourier_steps(spec, args.n)
            ubs = walk.ubthm_series(args.p, args.d, eigs, args.q, args.n) if diagonal else None
            for k, dist in enumerate(walk.evolve_steps(spec, args.n)):
                f = next(fou)
                neg, drift = walk.dist_diagnostics(dist)
                if neg < -1e-12 or drift > 1e-9:
                    failures.append(f"distribution sanity violated at step {k}: "
                                    f"min entry {neg:.3e}, mass drift {drift:.3e}")
                tv = walk.tv_distance(dist)
                chi = walk.chi2_rhs(f)
                ub = next(ubs) if diagonal else ""
                rows.append([k, f"{tv:.12g}", f"{chi:.12g}", f"{ub:.12g}" if ub != "" else ""])
            print(f"TV {float(rows[-1][1]):.4f}")
        else:
            if args.trials < spec.n_states:
                print(f"warning: {args.trials} trials for {spec.n_states} states "
                      f"({args.trials / spec.n_states:.3g} per state); the Monte-Carlo TV "
                      f"mostly measures sampling noise", file=sys.stderr)
            dist = walk.monte_carlo(spec, args.n, args.trials, args.seed)
            tv = walk.tv_distance(dist)
            rows.append([args.n, f"{tv:.12g}", "", ""])
            print(f"TV {tv:.4f}")
        _write_csv(args.out, ["n", "tv", "chi2_rhs", "ubthm_bound"], rows)
        _write_manifest(
            args.out, "walk",
            {
                "p": args.p, "d": args.d, "a": args.a, "q": args.q, "n": args.n,
                "mode": args.mode,
                "tolerances": {"distribution_sum": 1e-9, "entry_floor": -1e-12},
            },
            args.seed,
        )
    return failures


def cmd_selftest(args) -> List[str]:
    """A fast battery of cross-checks across the modules."""
    failures = []

    def check(label: str, ok: bool):
        print(f"{'ok' if ok else 'FAIL'}  {label}")
        if not ok:
            failures.append(label)

    check("gauss_binom(4,2,2) = 35", qcombin.gauss_binom(4, 2, 2) == 35)
    check("galois_number(3,2) = 16", qcombin.galois_number(3, 2) == 16)
    check("qests n=8 q=3", qcombin.check_qests(8, 3).all_ok)
    check("witt(2,3) = lyndon count", freelie.witt_dim(2, 3) == len(freelie.lyndon_words(2, 3)))
    check(
        "submodule formula matches C2xC2",
        submod.submodule_count(qcombin.Partition((2,)), qcombin.Partition((1,)), 2) == 3,
    )
    g = fplin.wedge_matrix(((1, 1), (0, 1)), 2)
    check("wedge of a transvection is invertible", fplin.is_invertible(g, 2))
    hits, total, _ = run_census(2, 3)
    check("census(2,3) = 3/5", (hits, total) == (3, 5))
    spec = walk.scalar_spec(3, 2, 1.0)
    dist = walk.evolve_exact(spec, 1)
    check("one-step scalar walk TV = 1/3", abs(walk.tv_distance(dist) - 1 / 3) < 1e-12)
    _write_manifest(args.out, "selftest", {}, None)
    return failures


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as ValueError, so that `main` lists them; subparsers inherit it."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pgrouplab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="automorphism-group census over a catalog")
    p_census.add_argument("--p", type=int, required=True)
    p_census.add_argument("--k", type=int, required=True)
    p_census.add_argument("--catalog", type=str, default=None)
    p_census.add_argument("--unsafe-limits", action="store_true",
                          help="widen the group-order guard on --catalog groups")
    p_census.add_argument("--out", type=str, default=None)
    p_census.set_defaults(func=cmd_census)

    p_bounds = sub.add_parser("bounds", help="evaluate bound expressions over a grid")
    p_bounds.add_argument("--kind", choices=("limit1", "limit2", "dn"), default="limit1")
    p_bounds.add_argument("--p", type=str, default="2")
    p_bounds.add_argument("--d", type=str, default="6")
    p_bounds.add_argument("--n", type=str, default="3")
    p_bounds.add_argument("--out", type=str, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_lie = sub.add_parser("lie", help="free Lie algebra reports")
    p_lie.add_argument("--d", type=int, required=True)
    p_lie.add_argument("--n", type=int, required=True)
    p_lie.add_argument("--p", type=int, default=2)
    p_lie.add_argument("--witt", action="store_true")
    p_lie.add_argument("--lyndon", action="store_true")
    p_lie.add_argument("--triangularity", action="store_true")
    p_lie.add_argument("--expansion", action="store_true")
    p_lie.add_argument("--expansion-dim", type=int, default=1)
    p_lie.add_argument("--seed", type=int, default=0)
    p_lie.add_argument("--out", type=str, default=None)
    p_lie.set_defaults(func=cmd_lie)

    p_sub = sub.add_parser("submod", help="submodule counts")
    p_sub.add_argument("--alpha", type=str, required=True)
    p_sub.add_argument("--beta", type=str, default=None)
    p_sub.add_argument("--q", type=int, required=True)
    p_sub.add_argument("--out", type=str, default=None)
    p_sub.set_defaults(func=cmd_submod)

    p_orb = sub.add_parser("orbits", help="orbit census for GL actions on subspaces")
    p_orb.add_argument("--d", type=int, required=True)
    p_orb.add_argument("--p", type=int, required=True)
    p_orb.add_argument("--module", choices=("natural", "wedge"), default="natural")
    p_orb.add_argument("--out", type=str, default=None)
    p_orb.set_defaults(func=cmd_orbits)

    p_walk = sub.add_parser("walk", help="twisted-walk experiments")
    p_walk.add_argument("--p", type=int, required=True)
    p_walk.add_argument("--d", type=int, required=True)
    p_walk.add_argument("--a", type=str, required=True)
    p_walk.add_argument("--q", type=float, default=1.0)
    p_walk.add_argument("--n", type=int, required=True)
    mode = p_walk.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact")
    mode.add_argument("--mc", dest="mode", action="store_const", const="mc")
    p_walk.add_argument("--trials", type=int, default=10000)
    p_walk.add_argument("--seed", type=int, default=0)
    p_walk.add_argument("--unsafe-limits", action="store_true", help="widen the walk-state guard")
    p_walk.add_argument("--out", type=str, default=None)
    p_walk.set_defaults(func=cmd_walk, mode="exact")

    p_self = sub.add_parser("selftest", help="fast cross-module checks")
    p_self.add_argument("--out", type=str, default=None)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        failures = args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"failures": [str(exc)]}))
        return 2
    if failures:
        print(json.dumps({"failures": failures}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
