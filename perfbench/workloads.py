"""The four benchmark workloads.

Each workload has three parts:

- `setup(seed)` builds the inputs from the seed, through pgrouplab's
  constructors where the inputs are groups or matrices.  Its time, with
  `import pgrouplab`, is `setup_s`.
- `run(r, inputs)` issues the operations one after another through
  `r.op(...)` (a closed loop with one caller) and returns their outputs.
  Every operation is a call of a public pgrouplab function or of
  `pgrouplab.cli.main([...])`.
- `check(inputs, outputs)` runs after the clock stops and returns a list of
  failures, found by comparing the stored outputs with `oracles`.

pgrouplab is imported inside the functions so that `setup_s` includes it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random

import oracles as orc


class Outcome:
    """Result of one CLI call: exit code and printed text."""

    def __init__(self, rc, text):
        self.rc = rc
        self.text = text


def cli_call(argv):
    import pgrouplab.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pgrouplab.cli.main(argv)
    return Outcome(rc, buf.getvalue())


def cli_op(r, label, argv, ok=None):
    """Issue one `pgrouplab.cli.main(argv)` call as an operation; a nonzero exit fails it."""
    return r.op(label, cli_call, argv, ok=ok or cli_ok)


def cli_ok(out) -> bool:
    return out.rc == 0


def cli_rejects(out) -> bool:
    """Malformed input must give exit code 2 and a JSON failure list."""
    if out.rc != 2:
        return False
    try:
        return bool(json.loads(out.text.strip().splitlines()[-1]).get("failures"))
    except (ValueError, IndexError, AttributeError):
        return False


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def relabel(g, rng):
    """The same group with its elements renamed by a seeded permutation."""
    import numpy as np

    from pgrouplab.groups import CayleyGroup

    perm = np.array(rng.permutation(g.order), dtype=np.int32)
    table = np.empty_like(g.table)
    table[perm[:, None], perm[None, :]] = perm[g.table]
    return CayleyGroup(table, name=g.name)


def numpy_rng(seed, salt):
    import numpy as np

    return np.random.default_rng([seed, salt])


# ---------------------------------------------------------------------------


class AutCensus:
    """Aut(G) counting and isomorphism testing through the groups.aut backtrack."""

    ORDERS = ((2, 3), (3, 3), (2, 4), (5, 3))
    # (p, k, catalog file, group left out, names written without spaces).
    # Without a file the census reads the bundled catalog.  The order-125
    # census reads a file holding every group of that order except C_5^3,
    # whose 1,488,000 automorphisms take 13 s to count; its names are written
    # without spaces so that `parse_catalog`, which splits the header on
    # whitespace, can read "E(5^3,exp 5)" back.  The order-27 file keeps the
    # names as the library gives them, so that census fails until
    # `write_catalog` and `parse_catalog` agree.
    CENSUSES = ((2, 3, None, None, False), (3, 3, None, None, False), (2, 4, None, None, False),
                (5, 3, "catalog_125.cat", "C5^3", True), (3, 3, "catalog_27.cat", None, False))
    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    # A catalog group of order 8 with only five of its eight table rows.
    TRUNCATED = "group C2^3 order 8 prime 2\n" + "".join(
        " ".join(str(a ^ b) for b in range(8)) + "\n" for a in range(5))

    @staticmethod
    def setup(seed):
        import pgrouplab.groups as G

        rng = numpy_rng(seed, 1)
        catalogs = {pk: G.catalog(*pk) for pk in AutCensus.ORDERS}
        relabelled = {pk: [relabel(g, rng) for _, g in entries] for pk, entries in catalogs.items()}
        catalog_orders = {p**k for p, k in AutCensus.ORDERS}
        # Criterion 11 groups, less C_2^5 (106 s) and the groups the census already counts.
        closed_form = []
        for p in AutCensus.PRIMES:
            size = 1
            while p**size <= 64:
                for lam in orc.partitions(size):
                    order = p**size
                    if order ** len(lam) > 10**8 or order in catalog_orders or (p, lam) == (2, (1,) * 5):
                        continue
                    closed_form.append((f"C{p}{lam}", G.abelian_of_type(p, lam), p,
                                        orc.hillar_rhea_aut_order(p, lam)))
                size += 1
        d8, q8 = G.dihedral(8), G.quaternion(8)
        zd = int(d8.center()[d8.center() != d8.identity][0])
        zq = int(q8.center()[q8.center() != q8.identity][0])
        closed_form.append(("D8oD8", G.central_product(d8, G.dihedral(8), zd, zd), 2,
                            orc.extraspecial_2_aut_order(2, +1)))
        closed_form.append(("D8oQ8", G.central_product(d8, q8, zd, zq), 2,
                            orc.extraspecial_2_aut_order(2, -1)))
        for p, k, path, skip, strip in AutCensus.CENSUSES:
            if path:
                G.write_catalog(path, [(name.replace(" ", "") if strip else name, g, p)
                                       for name, g in catalogs[(p, k)] if name != skip])
        with open("truncated.cat", "w") as fh:
            fh.write(AutCensus.TRUNCATED)
        return {"catalogs": catalogs, "relabelled": relabelled, "closed_form": closed_form}

    @staticmethod
    def run(r, inp):
        import pgrouplab.groups as G

        out = {"census": [], "closed_form": [], "self_iso": [], "pair_iso": []}
        for i, (p, k, catalog_path, _, _) in enumerate(AutCensus.CENSUSES):
            path = f"census_{i}.csv"
            extra = ["--catalog", catalog_path] if catalog_path else []
            out["census"].append(cli_op(r, f"census {p}^{k} {catalog_path or 'bundled'}",
                                        ["census", "--p", str(p), "--k", str(k), "--out", path] + extra))
        cli_op(r, "census truncated catalog", ["census", "--p", "2", "--k", "3", "--catalog", "truncated.cat"],
               ok=cli_rejects)
        for label, g, p, _ in inp["closed_form"]:
            out["closed_form"].append(r.op(f"aut_order {label}", G.aut_order, g, p))
        for (p, k), entries in inp["catalogs"].items():
            twins = inp["relabelled"][(p, k)]
            for (name, g), h in zip(entries, twins):
                out["self_iso"].append(r.op(f"are_isomorphic {name}", G.are_isomorphic, g, h, p))
            # One operation tests every pair of distinct groups of this order.
            pairs = list(itertools.combinations(range(len(entries)), 2))
            found = r.op(f"are_isomorphic pairs {p}^{k}", lambda: [
                G.are_isomorphic(entries[i][1], twins[j], p) for i, j in pairs])
            out["pair_iso"] += found if found is not None else []
        return out

    @staticmethod
    def check(inp, out):
        bad = []
        for i, ((p, k, catalog_path, skip, strip), res) in enumerate(zip(AutCensus.CENSUSES, out["census"])):
            if res is None:
                continue
            path = f"census_{i}.csv"
            want = {name.replace(" ", "") if strip else name: n
                    for name, n in orc.CATALOG_AUT_ORDERS[(p, k)].items() if name != skip}
            table = (sum(orc.is_power_of(n, p) for n in want.values()), len(want))
            if skip is None and table != orc.CENSUS_TABLE[(p, k)]:
                bad.append(f"reference census for {p}^{k} is {table}")
            if res.text.split() != ["%d/%d" % table]:
                bad.append(f"census {p}^{k} printed {res.text.strip()!r}, expected {table}")
                continue
            rows = {name: (int(n), flag) for name, n, flag in read_csv(path)}
            if set(rows) != set(want):
                bad.append(f"census {p}^{k} lists {sorted(rows)}")
            for name, (n, flag) in rows.items():
                if want.get(name) != n or flag != str(orc.is_power_of(n, p)).lower():
                    bad.append(f"census {p}^{k}: {name} has |Aut| {n}, p-group {flag}; expected {want.get(name)}")
        for (label, _, _, want), got in zip(inp["closed_form"], out["closed_form"]):
            if got is not None and got != want:
                bad.append(f"aut_order {label} = {got}, expected {want}")
        bad += [f"a relabelled catalog group tested non-isomorphic ({i})"
                for i, x in enumerate(out["self_iso"]) if x is False]
        bad += [f"two distinct catalog groups tested isomorphic ({i})"
                for i, x in enumerate(out["pair_iso"]) if x is True]
        return bad


# ---------------------------------------------------------------------------


class SubgroupLattice:
    """Subgroup enumeration and the lower p-series through groups.cayley."""

    FAMILY_ORDERS = (8, 16, 32, 64)
    PROFILE_ORDERS = ((2, 3), (2, 4), (3, 3))

    @staticmethod
    def setup(seed):
        import pgrouplab.groups as G

        rng = numpy_rng(seed, 2)
        families = []
        for n in SubgroupLattice.FAMILY_ORDERS:
            families.append((f"D{n}", 2, relabel(G.dihedral(n), rng), orc.dihedral_subgroup_total(n)))
            families.append((f"Q{n}", 2, relabel(G.quaternion(n), rng), orc.quaternion_subgroup_total(n)))
        profiles = [(name, p, relabel(g, rng)) for p, k in SubgroupLattice.PROFILE_ORDERS
                    for name, g in G.catalog(p, k)]
        # Criterion 02: every module type alpha, i.e. every abelian p-group of
        # type lambda = alpha', up to order 2^5 and 3^4.
        types = [(p, alpha, orc.conjugate(alpha)) for p, top in ((2, 5), (3, 4))
                 for size in range(top + 1) for alpha in orc.partitions(size)]
        return {"families": families, "profiles": profiles, "types": types}

    @staticmethod
    def run(r, inp):
        import pgrouplab.bounds as bd
        import pgrouplab.submod as sm

        out = {"census": [], "formula": [], "families": [], "series": [], "profiles": []}
        for p, alpha, lam in inp["types"]:
            out["census"].append(r.op(f"type census {p} {lam}", sm.abelian_subgroup_type_census, p, lam))
            betas = orc.subpartitions(alpha)
            out["formula"].append(r.op(f"submodule counts {p} {alpha}",
                                       lambda: [sm.submodule_count(alpha, b, p) for b in betas]))
        for name, _, g, _ in inp["families"]:
            out["families"].append(r.op(f"all_subgroups {name}", g.all_subgroups))
        for name, p, g in inp["profiles"]:
            series = r.op(f"lower_p_series {name}", g.lower_p_series, p)
            out["series"].append(series)
            if series is None:
                out["profiles"].append(None)
                continue
            dims = [round(math.log(series[i].size // series[i + 1].size, p)) for i in range(len(series) - 1)]
            counts = []
            for u in itertools.product(*[range(x + 1) for x in dims]):
                counts.append(r.op(f"normal profile {name} {u}", lambda: (
                    g.normal_profile_count(p, list(u)), bd.normalthm_bound(dims, list(u), None, None, p))))
            out["profiles"].append(counts)
        return out

    @staticmethod
    def check(inp, out):
        bad = []
        for (p, alpha, lam), census, counts in zip(inp["types"], out["census"], out["formula"]):
            want = {mu: orc.birkhoff_subgroup_count(p, lam, mu) for mu in orc.subpartitions(lam)}
            if census is not None:
                if census != want:
                    bad.append(f"subgroup types of {p}{lam}: {census}, expected {want}")
                by_order: dict = {}
                for mu, c in census.items():
                    by_order[p ** sum(mu)] = by_order.get(p ** sum(mu), 0) + c
                bad += [f"{p}{lam}: {m}" for m in orc.sylow_congruence_failures(p, by_order, p ** sum(lam))]
            if counts is not None:
                expect = [orc.birkhoff_subgroup_count(p, lam, orc.conjugate(b)) for b in orc.subpartitions(alpha)]
                if counts != expect:
                    bad.append(f"submodule counts for {p}{alpha}: {counts}, expected {expect}")
        for (name, p, g, total), subs in zip(inp["families"], out["families"]):
            if subs is None:
                continue
            keys = {tuple(int(x) for x in s) for s in subs}
            if len(subs) != total or len(keys) != total:
                bad.append(f"{name}: {len(subs)} subgroups ({len(keys)} distinct), expected {total}")
            if orc.closure_failures(g.table, subs):
                bad.append(f"{name}: a listed subgroup is not closed under the product")
            by_order: dict = {}
            for s in subs:
                by_order[len(s)] = by_order.get(len(s), 0) + 1
            bad += [f"{name}: {m}" for m in orc.sylow_congruence_failures(p, by_order, g.order)]
        for (name, p, g), series, counts in zip(inp["profiles"], out["series"], out["profiles"]):
            if series is None:
                continue
            if [frozenset(s.tolist()) for s in series] != orc.lower_p_series(g.table, p):
                bad.append(f"{name}: lower {p}-series differs from brute force")
            done = [c for c in counts if c is not None]
            bad += [f"{name}: {c} normal subgroups with one profile, above the bound {b}"
                    for c, b in done if c > b]
            if len(done) == len(counts) and sum(c for c, _ in done) != orc.normal_subgroup_count(g.table):
                bad.append(f"{name}: profile counts do not add up to the normal subgroups")
        return bad


# ---------------------------------------------------------------------------


class FpModules:
    """Submodule counts and orbit censuses over F_p through fplin and submod."""

    ORBITS = (("natural", "2", "5"), ("wedge", "2", "5"))  # module, d, p

    @staticmethod
    def setup(seed):
        import pgrouplab.fplin as fp

        rng = random.Random(seed)
        gl33 = fp.gl_enumerate(3, 3)
        wedge25 = [fp.wedge_matrix(g, 5) for g in fp.gl_enumerate(2, 5)]
        rng.shuffle(gl33)
        rng.shuffle(wedge25)
        conjugators = [orc.random_invertible(rng, 3, 3) for _ in range(3)]
        return {"gl33": gl33, "wedge25": wedge25, "conjugators": conjugators}

    @staticmethod
    def run(r, inp):
        import pgrouplab.submod as sm

        count = sm.structural_submodule_count
        out = {
            "gl33": [r.op("count GL(3,3)", count, g, 3) for g in inp["gl33"]],
            "wedge25": [r.op("count wedge GL(2,5)", count, w, 5) for w in inp["wedge25"]],
        }
        for module, d, p in FpModules.ORBITS:
            out[module] = cli_op(r, f"orbits {module} {d} {p}", ["orbits", "--d", d, "--p", p, "--module", module,
                                                                  "--out", f"orbits_{module}.csv"])
        return out

    @staticmethod
    def check(inp, out):
        import numpy as np

        bad = []
        gl33 = inp["gl33"]
        if len(gl33) != orc.gl_order(3, 3) or len(set(gl33)) != len(gl33):
            bad.append(f"GL(3,3) input has {len(gl33)} elements")
        counts = out["gl33"]
        if None not in counts:
            wrong = int((np.array(counts) != orc.invariant_subspace_counts(gl33, 3)).sum())
            if wrong:
                bad.append(f"{wrong} GL(3,3) submodule counts differ from brute force")
            # Burnside: GL(3,3) has 4 orbits on subspaces (one per dimension).
            if sum(counts) != 4 * orc.gl_order(3, 3):
                bad.append(f"sum of GL(3,3) counts {sum(counts)} != 4 |GL(3,3)|")
            value = dict(zip(gl33, counts))
            for h in inp["conjugators"]:
                conj = (np.array(h) @ np.array(gl33) @ np.array(orc.inverse_mod(h, 3))) % 3
                if any(value[tuple(map(tuple, c.tolist()))] != s for c, s in zip(conj, counts)):
                    bad.append("the GL(3,3) count is not a class function")
        w25 = out["wedge25"]
        orbit_sizes = orc.orbit_sizes(inp["wedge25"], 5)
        if None not in w25:
            if list(orc.invariant_subspace_counts(inp["wedge25"], 5)) != w25:
                bad.append("GL(2,5) wedge-module counts differ from brute force")
            if sum(w25) != len(w25) * len(orbit_sizes):
                bad.append("GL(2,5) wedge-module counts break Burnside's identity")
        for module, d, p in FpModules.ORBITS:
            res = out[module]
            if res is None:
                continue
            d, p = int(d), int(p)
            rows = [(int(size), int(stab)) for _, _, size, stab, _ in read_csv(f"orbits_{module}.csv")]
            sizes = sorted(size for size, _ in rows)
            if module == "natural":  # one orbit per dimension
                want = sorted(orc.gaussian_binomial(d, k, p) for k in range(d + 1))
            else:
                want = orbit_sizes
            regular = sum(1 for _, stab in rows if stab == 1)
            if (sizes != want or any(size * stab != orc.gl_order(d, p) for size, stab in rows)
                    or res.text.split() != [f"orbits={len(want)}", f"regular={regular}"]):
                bad.append(f"orbits {module}: sizes {sizes}, expected {want}; printed {res.text.strip()!r}")
        return bad


# ---------------------------------------------------------------------------


class WalkEstimates:
    """The twisted walk, bound grids, estimate suite and free Lie algebra checks."""

    EXACT = ("61", "3", "2", "120")  # p, d, a, n
    # p, d, a, n, trials; the exact TV at n = 4 is 0.184.  With more trials the
    # Monte-Carlo samples, not the exact walk, would set the peak memory.
    MC = (11, 2, 2, 4, 200000)
    MC_TOLERANCE = 0.02  # |TV_mc - TV| stayed below 0.003 on 40 seeds at this many trials
    CHECK_STEPS = (1, 2, 4, 8, 16, 32)  # TV through an inverse FFT; chi-square at every step up to 32
    GRID = ("2,3,5", "6,7,17", "3,4")
    DN_GRID = ("5,6,7,8,17", "3,4,5,10")
    DN_FIRST_SECOND = ((6, 3), (7, 3), (6, 4), (5, 10))
    DN_THIRD = ((17, 3), (8, 4), (6, 5), (5, 10))

    @staticmethod
    def setup(seed):
        import pgrouplab.fplin as fp
        import pgrouplab.freelie as fl

        exhaustive = []
        for p in (2, 3, 5):
            basis = fl.lambda_basis(3, 2, p)
            for sub in fp.enumerate_subspaces(len(basis), p):
                polys = []
                for row in sub.rows:
                    f = fl.NcPoly.zero(p, 3)
                    for c, b in zip(row, basis):
                        f = f + b.scale(c)
                    polys.append(f)
                exhaustive.append(fl.LieSubspace.from_polys(polys, p, 3, degrees=(2,)))
        rng = random.Random(seed)
        randoms = [(p, i % 9, rng.randrange(2**31)) for p in (2, 3, 5) for i in range(100)]
        return {"seed": seed, "exhaustive": exhaustive, "randoms": randoms}

    @staticmethod
    def run(r, inp):
        import pgrouplab.bounds as bd
        import pgrouplab.freelie as fl
        import pgrouplab.qcombin as qc

        p, d, a, n = WalkEstimates.EXACT
        mp, md, ma, mn, trials = WalkEstimates.MC
        ps, ds, ns = WalkEstimates.GRID
        out = {
            "exact": cli_op(r, "walk exact", ["walk", "--p", p, "--d", d, "--a", a, "--n", n,
                                                   "--exact", "--out", "walk_exact.csv"]),
            "mc": cli_op(r, "walk mc", ["walk", "--p", str(mp), "--d", str(md), "--a", str(ma),
                                             "--n", str(mn), "--mc", "--trials", str(trials),
                                             "--seed", str(inp["seed"]), "--out", "walk_mc.csv"]),
            "limit1": cli_op(r, "bounds limit1", ["bounds", "--kind", "limit1", "--p", ps, "--d", ds,
                                                       "--n", ns, "--out", "bounds_limit1.csv"]),
            "limit2": cli_op(r, "bounds limit2", ["bounds", "--kind", "limit2", "--p", ps, "--d", ds,
                                                       "--n", ns, "--out", "bounds_limit2.csv"]),
            "dn_grid": cli_op(r, "bounds dn", ["bounds", "--kind", "dn", "--d", WalkEstimates.DN_GRID[0],
                                               "--n", WalkEstimates.DN_GRID[1], "--out", "bounds_dn.csv"]),
        }
        cli_op(r, "walk malformed matrix", ["walk", "--p", "5", "--d", "2", "--a", "1,2;3", "--n", "3"],
             ok=cli_rejects)
        out["qests"] = [r.op(f"check_qests {n} {q}", qc.check_qests, n, q)
                        for q in (2, 3, 5, 7, 9) for n in range(1, 13)]
        out["gaussprods"] = []
        for gp, gd, gn in itertools.product((2, 3), (6,), (3, 4)):
            tables = r.op(f"gaussprods_tables {gp} {gd} {gn}", bd.gaussprods_tables, gp, gd, gn)
            for i in range(1, gn - 1):
                for u in range(sum(orc.necklace_count(gd, j) for j in range(1, i + 1)) + 1):
                    out["gaussprods"].append(r.op(f"gaussprods_ai {gp} {gd} {gn} {i} {u}", bd.gaussprods_ai,
                                                  gp, gd, gn, i, u, tables=tables))
        out["dn"] = [r.op(f"dn_inequalities {dd} {nn}", bd.dn_inequalities, dd, nn)
                     for dd, nn in WalkEstimates.DN_FIRST_SECOND + WalkEstimates.DN_THIRD]
        out["witt"] = [r.op(f"witt {dd} {nn}", lambda dd=dd, nn=nn: (
            fl.witt_dim(dd, nn), fl.lyndon_words(dd, nn), fl.dn_dim(dd, nn)))
            for dd in range(1, 6) for nn in range(1, 9)]
        out["triangularity"] = [
            r.op(f"right_bracketing {tp} {td} {tn}", lambda tp=tp, td=td, tn=tn: [
                (w, fl.right_bracketing(w, tp, td)[1]) for w in fl.lyndon_words(td, tn)])
            for tp in (2, 3, 5) for td in (2, 3) for tn in range(1, 7)]
        out["exhaustive"] = [r.op("expansion degree 2", fl.expansion_check, w, "homogeneous")
                             for w in inp["exhaustive"]]
        out["random"] = [r.op("expansion degree 3", lambda ep=ep, dim=dim, s=s: fl.expansion_check(
            fl.random_lie_subspace(3, 3, ep, dim, s), "homogeneous")) for ep, dim, s in inp["randoms"]]
        return out

    @staticmethod
    def check(inp, out):
        bad = []
        res = out["exact"]
        if res is not None:
            bad += WalkEstimates._check_exact(res)
        res = out["mc"]
        if res is not None:
            mp, md, ma, mn, _ = WalkEstimates.MC
            for k, f in orc.walk_transforms(mp, md, ma, 1.0, mn):
                pass
            tv = float(read_csv("walk_mc.csv")[0][1]) if cli_ok(res) else math.nan
            if not abs(tv - orc.walk_tv(f)) <= WalkEstimates.MC_TOLERANCE:
                bad.append(f"Monte-Carlo TV {tv} against exact {orc.walk_tv(f)}")
        if out["limit1"] is not None and not cli_ok(out["limit1"]):
            bad.append("bounds limit1 failed")
        res = out["limit2"]
        if res is not None:
            rows = read_csv("bounds_limit2.csv") if cli_ok(res) else []
            if len(rows) != 18:
                bad.append(f"bounds limit2 wrote {len(rows)} rows")
            for row in rows:
                if row[5] and not 1.0 <= float(row[4]) <= float(row[5]):
                    bad.append(f"limit2 row {row[:3]}: two-sided bound below the one-sided one")
        res = out["dn_grid"]
        if res is not None:
            rows = read_csv("bounds_dn.csv") if cli_ok(res) else []
            if len(rows) != 20:
                bad.append(f"bounds dn wrote {len(rows)} rows")
            for row in rows:
                flags = orc.dn_inequalities(int(row[1]), int(row[2]))
                if row[7] != "first={};second={};third={}".format(*flags):
                    bad.append(f"dn row {row[1:3]}: {row[7]} against {flags}")
        bad += [f"q-estimate fails ({i})" for i, x in enumerate(out["qests"]) if x is not None and not x.all_ok]
        bad += [f"gaussprods estimate fails ({i})" for i, x in enumerate(out["gaussprods"])
                if x is not None and not x.holds]
        pairs = WalkEstimates.DN_FIRST_SECOND + WalkEstimates.DN_THIRD
        for i, ((dd, nn), flags) in enumerate(zip(pairs, out["dn"])):
            if flags is None:
                continue
            expected = flags[:2] == (True, True) if i < 4 else flags[2]
            if tuple(flags) != orc.dn_inequalities(dd, nn) or not expected:
                bad.append(f"dn_inequalities({dd}, {nn}) = {flags}")
        for (dd, nn), res in zip([(a, b) for a in range(1, 6) for b in range(1, 9)], out["witt"]):
            if res is None:
                continue
            witt, words, partial = res
            want = orc.necklace_count(dd, nn)
            if (witt != want or len(words) != want or not all(map(orc.is_lyndon, words))
                    or any(x >= y for x, y in zip(words, words[1:]))
                    or partial != sum(orc.necklace_count(dd, j) for j in range(1, nn + 1))):
                bad.append(f"Witt/Lyndon disagreement at d={dd}, n={nn}")
        for i, res in enumerate(out["triangularity"]):
            for w, poly in res or ():
                if poly.coeffs.get(w) != 1 or any(v < w for v in poly.coeffs):
                    bad.append(f"right bracketing of {w} is not unitriangular ({i})")
        for name in ("exhaustive", "random"):
            for rep in out[name]:
                if rep is not None and not (rep.ratio_ok and rep.hypothesis_ok and 2 * rep.dim_result >= 3 * rep.dim_w):
                    bad.append(f"{name} expansion fails: {rep}")
        return bad

    @staticmethod
    def _check_exact(res):
        if not cli_ok(res):
            return [f"walk exact exited {res.rc}"]
        rows = [[float(x) if x else math.inf for x in row] for row in read_csv("walk_exact.csv")]
        bad = []
        if len(rows) != int(WalkEstimates.EXACT[3]) + 1:
            bad.append(f"walk exact wrote {len(rows)} rows")
        for (k, tv, chi, ub), nxt in zip(rows, rows[1:] + [None]):
            if nxt is not None and nxt[1] > tv + 1e-12:
                bad.append(f"TV grows at step {k}")
            if 4 * tv * tv > chi + 1e-12 or 4 * tv * tv > ub + 1e-12:
                bad.append(f"4 TV^2 above a bound at step {k}")
        p, d, a, n = (int(x) for x in WalkEstimates.EXACT)
        for k, f in orc.walk_transforms(p, d, a, 1.0, max(WalkEstimates.CHECK_STEPS)):
            _, tv, chi, _ = rows[k]
            if abs(chi - orc.walk_chi2(f)) > 1e-9 * max(1.0, chi):
                bad.append(f"chi-square sum at step {k}: {chi} against {orc.walk_chi2(f)}")
            if k in WalkEstimates.CHECK_STEPS and abs(tv - orc.walk_tv(f)) > 1e-9:
                bad.append(f"TV at step {k}: {tv} against {orc.walk_tv(f)}")
        return bad


WORKLOADS = {
    "aut_census": AutCensus,
    "subgroup_lattice": SubgroupLattice,
    "fp_modules": FpModules,
    "walk_estimates": WalkEstimates,
}
