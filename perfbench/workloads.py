"""The two orbdim workloads, their seeded inputs and their correctness checks.

Both are closed loops with a single caller: the next operation starts when
the previous one returns.  Inputs are drawn from the seed by a separate
import of the program (the generator) and handed to the measured import as
plain tuples, so the measured program receives only the generated inputs.

* pipeline       - `verify_all` cold, `regenerate_tables` against the goldens,
                   `verify_all` warm.  Screening-heavy; no Freudenthal, no q-series.
* kernel_queries - single calls into every other layer: weight systems with
                   the brute-force min-term oracle, alcove reductions, Kac-class
                   enumeration, Schellekens scans, eta-quotient expansions and
                   cusp divisors.  No screening.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from harness import GOLDENS, jsonable_str

# Ramanujan tau(1..30): the q-expansion of eta(tau)^24 (OEIS A000594).
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
       534612, -370944, -577738, 401856, 1217160, 987136, -6905934, 2727432,
       10661420, -7109760, -4219488, -12830688, 18643272, 21288960, -25499225,
       13865712, -73279080, 24647168, 128406630, -29211840)


def _rows(rows):
    return [{k: jsonable_str(v) for k, v in row.items() if k != "passed"} for row in rows]


class Pipeline:
    """`orbdim case run --all` cold and warm, and `orbdim tables regen`.

    The cases run in their numbered order, as `case run --all` runs them, so
    each case's share of the cache filling is the same on every seed.  The
    seed permutes the structure table handed to `verify_all`; the work done
    is the same for every seed.
    """

    name = "pipeline"

    def __init__(self, gen, rng):
        self.table_order = list(range(len(gen.table)))
        rng.shuffle(self.table_order)
        self.goldens = {p.name: p.read_text() for p in sorted(GOLDENS.glob("*.json"))}
        self.summary = json.loads(self.goldens["case_summary.json"])
        self.lists = json.loads(self.goldens["screening_lists.json"])

    def batch(self, prog, phase, check, ops):
        table = [prog.table[i] for i in self.table_order]
        cases_mod = prog.cases_mod
        inner = cases_mod.verify_case

        def timed_case(*args):
            return ops.time("case", inner, *args)

        cases_mod.verify_case = timed_case
        try:
            reports, rows = cases_mod.verify_all(prog.cases, table)
        except Exception as err:        # a raised pipeline is one failed answer
            check.raised(f"{phase} verify_all", err)
            return
        finally:
            cases_mod.verify_case = inner
        self._check_reports(reports, rows, phase, check)
        if phase == "cold":
            self._regen(prog, check, ops)

    def _check_reports(self, reports, rows, phase, check):
        for report in reports:
            check(report.passed, f"{phase}: case {report.case_id} report fails")
        check(_rows(rows) == _rows(self.summary),
              f"{phase}: summary rows differ from case_summary.json")
        by_id = {r.case_id: r for r in reports}
        for cid, expected in self.lists.items():
            got_list = [{k: jsonable_str(v) for k, v in row.items()}
                        for row in by_id[cid].screening.get(1, [])]
            want = [{k: jsonable_str(v) for k, v in row.items()} for row in expected]
            check(got_list == want, f"{phase}: case {cid} i=1 list differs from screening_lists.json")

    def _regen(self, prog, check, ops):
        def regen():
            tables = prog.cli.regenerate_tables()
            texts = {name: json.dumps(value, indent=1, sort_keys=True) + "\n"
                     for name, value in tables.items()}
            return {name: texts.get(name) == golden for name, golden in self.goldens.items()}

        try:
            same = ops.time("regen", regen)
        except Exception as err:
            check.raised("regenerate_tables", err)
            return
        for name, ok in same.items():
            check(ok, f"regenerated {name} is not byte-identical to the golden")


# -- kernel_queries -----------------------------------------------------------

WEIGHT_KINDS = [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 6)] + \
    [("C", r) for r in range(3, 6)] + [("D", r) for r in range(4, 7)] + \
    [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
WEIGHT_MAX_DIM = 600
WEIGHTS_PER_KIND = 8
ALCOVE_KINDS = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 6)] + \
    [("C", r) for r in range(3, 6)] + [("D", r) for r in range(4, 7)] + \
    [("E", 6), ("F", 4), ("G", 2)]
ALCOVES_PER_KIND = 3
KAC_KINDS = [("A", r) for r in range(1, 8)] + [("B", r) for r in range(2, 9)] + \
    [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)] + \
    [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
KAC_ORDERS = range(2, 11)
KAC_MAX_SOLUTIONS = 2000
KAC_PAIRS = 40
GENERATED_SCANS = 20
GENERATED_ORDERS = (2, 3, 4)
GENERATED_MAX_RANK = 9
SERIES_PRECISIONS = (12, 24)
DELTA_PRECISIONS = (20, len(TAU) + 1)
SUPPORTED_LEVELS = (2, 3, 4, 5, 6, 7, 8, 13)


def _random_coweight(rng, rank):
    return tuple(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 6, 8)))
                 for _ in range(rank))


def _label_solutions(labels, total):
    """Number of non-negative s with sum labels[i] * s[i] == total."""
    ways = [1] + [0] * total
    for a in labels:
        for t in range(a, total + 1):
            ways[t] += ways[t - a]
    return ways[total]


def _weyl_dimension(rs, lam):
    """Weyl's product formula in integers, only to size the drawn inputs.

    (lambda + rho, alpha^vee) / (rho, alpha^vee) for alpha = sum a_i alpha_i
    is sum (m_i + 1) a_i |alpha_i|^2 / sum a_i |alpha_i|^2; squared lengths
    are 2, 1 or 2/3, so three times them are integers.
    """
    d = [int(3 * x) for x in rs.norms]
    num = den = 1
    for root in rs.positive_roots:
        num *= sum((m + 1) * a * di for m, a, di in zip(lam, root, d))
        den *= sum(a * di for a, di in zip(root, d))
    return num // den


class KernelQueries:
    """A seeded stream of single calls into every layer except screening.

    Per pass, in a seeded order:
    * weights - WEIGHTS_PER_KIND highest weights per simple type, one from
      each Weyl-dimension band up to WEIGHT_MAX_DIM, each through
      `weight_system`, a reflection and the brute-force min-term oracle;
    * alcove  - ALCOVES_PER_KIND random coweights per type through
      `alcove_representative`;
    * kac     - KAC_PAIRS distinct (type, order) pairs through
      `enumerate_classes`, each with at most KAC_MAX_SOLUTIONS label vectors;
    * scan    - the fifteen paper scans and GENERATED_SCANS scans for the
      fixed algebra of a random automorphism of a table entry;
    * series  - every shipped cusp function at SERIES_PRECISIONS and eta^24
      at DELTA_PRECISIONS;
    * divisor - every shipped cusp function's divisor.
    The kinds of input and their counts are the same for every seed, so the
    median and the 95th percentile fall in the same groups on every seed.  No
    input repeats within a pass.
    """

    name = "kernel_queries"

    def __init__(self, gen, rng):
        self.queries = self._kernel_inputs(gen, rng) + self._scan_inputs(gen, rng)
        cusps = [(n, c.a, c.c) for n in SUPPORTED_LEVELS for c in gen.modcurve.cusp_classes(n)]
        self.queries += [("series", ("delta", None, prec)) for prec in DELTA_PRECISIONS]
        self.queries += [("series", ("cusp", cusp, prec))
                         for cusp in cusps for prec in SERIES_PRECISIONS]
        self.queries += [("divisor", cusp) for cusp in cusps]
        rng.shuffle(self.queries)

    @staticmethod
    def _kernel_inputs(gen, rng):
        liealg = gen.liealg
        out = []
        for kind in WEIGHT_KINDS:
            rs = liealg.build_root_system(kind)
            # grow the level bound until a whole comark's worth of levels adds nothing
            pool, level, grown = [], 0, 0
            while level < 12 and level - grown <= max(rs.comarks):
                level += 1
                fitting = [(d, lam) for lam in liealg.dominant_weights_of_level(rs, level)
                           if 2 <= (d := _weyl_dimension(rs, lam)) <= WEIGHT_MAX_DIM]
                if len(fitting) > len(pool):
                    pool, grown = fitting, level
            pool.sort()
            bands = min(WEIGHTS_PER_KIND, len(pool))
            for b in range(bands):
                band = pool[b * len(pool) // bands:(b + 1) * len(pool) // bands]
                _, lam = rng.choice(band)
                out.append(("weights", (kind, lam, _random_coweight(rng, rs.rank),
                                        rng.randrange(rs.rank))))
        out += [("alcove", (kind, _random_coweight(rng, kind[1])))
                for kind in ALCOVE_KINDS for _ in range(ALCOVES_PER_KIND)]
        pool = []
        for kind in KAC_KINDS:
            labels = [1] + list(liealg.build_root_system(kind).marks)
            pool.extend((kind, order) for order in KAC_ORDERS
                        if _label_solutions(labels, order) <= KAC_MAX_SOLUTIONS)
        return out + [("kac", pair) for pair in rng.sample(pool, KAC_PAIRS)]

    @staticmethod
    def _scan_inputs(gen, rng):
        kacaut = gen.kacaut
        out = [("scan", ("paper", c.id)) for c in gen.cases]
        dims_ok = {}
        for entry in gen.table:
            small = all(k[1] <= GENERATED_MAX_RANK for k in entry.structure.kinds())
            dims_ok[entry.dim] = dims_ok.get(entry.dim, True) and small
        sources = [e for e in gen.table if e.structure.components and dims_ok[e.dim]]
        while len(out) < len(gen.cases) + GENERATED_SCANS:
            entry = rng.choice(sources)
            kinds = entry.structure.kinds()
            n = rng.choice(GENERATED_ORDERS)
            parts = []
            for index, kind in enumerate(kinds):
                r = rng.choice([d for d in range(1, n + 1) if n % d == 0])
                parts.append(kacaut.CyclePart((index,), rng.choice(kacaut.enumerate_classes(kind, r))))
            aut = kacaut.SemisimpleAut(tuple(parts))
            order = aut.order(kinds)
            if order < 2:
                continue
            comps, abelian, _ = kacaut.fixed_subalgebra_semisimple(aut, kinds)
            out.append(("scan", ("generated", entry.no, entry.dim, comps, abelian, order)))
        return out

    def batch(self, prog, phase, check, ops):
        handlers = {"weights": self._weights, "alcove": self._alcove, "kac": self._kac,
                    "scan": self._scan, "series": self._series, "divisor": self._divisor}
        for kind, query in self.queries:
            try:
                handlers[kind](prog, query, check, ops)
            except Exception as err:        # a raised answer is a failed answer
                check.raised(f"{kind} {query}", err)

    @staticmethod
    def _weights(prog, query, check, ops):
        kind, lam, h, i = query
        liealg = prog.liealg

        def kernel():
            rs = liealg.build_root_system(kind)
            ws = liealg.weight_system(rs, lam)
            reflected = {tuple(int(x) for x in rs.reflect_weight(w, i)): m
                         for w, m in ws.items()}
            brute = min(rs.pair_weight_coweight(w, h) for w in ws)
            return ws, liealg.weyl_dimension(rs, lam), reflected, brute, \
                liealg.min_weight_pairing(rs, lam, h)

        ws, dim, reflected, brute, fast = ops.time("weights", kernel)
        what = f"weight system {kind} {lam}"
        check(sum(ws.values()) == dim, f"{what}: multiplicities do not sum to {dim}")
        check(reflected == ws, f"{what}: not invariant under reflection {i}")
        check(brute == fast, f"{what}: brute-force min {brute} != min_weight_pairing {fast}")

    @staticmethod
    def _alcove(prog, query, check, ops):
        kind, h = query
        rs = prog.liealg.build_root_system(kind)
        rep = ops.time("alcove", prog.orbifold.alcove_representative, rs, h)
        check(rs.in_coroot_lattice(tuple(a - b for a, b in zip(rep, h))),
              f"alcove {kind} {h}: result leaves the coroot coset")
        check(all(abs(rs.root_on_coweight(r, rep)) <= 1 for r in rs.roots),
              f"alcove {kind} {h}: some |alpha(h)| > 1")

    @staticmethod
    def _kac(prog, query, check, ops):
        kind, order = query
        classes = ops.time("kac", prog.kacaut.enumerate_classes, kind, order)
        what = f"Kac classes {kind} order {order}"
        check(bool(classes), f"{what}: no classes")
        for cls in classes:
            check(gcd(*cls.s) == 1 and cls.order == order
                  and sum(a * s for a, s in zip(cls.diagram.labels, cls.s)) * cls.twist == order,
                  f"{what}: class {cls.s} breaks gcd(s) = 1 or sum a_i s_i = order / twist")

    @staticmethod
    def _survivors(prog, dim, comps, abelian, order):
        admits = prog.kacaut.admits_fixed_subalgebra
        return [e.no for e in prog.table
                if e.dim == dim and admits(e.structure.kinds(), comps, abelian, order)[0]]

    def _scan(self, prog, query, check, ops):
        if query[0] == "paper":
            case = next(c for c in prog.cases if c.id == query[1])
            got = ops.time("scan", self._survivors, prog, case.expected_d,
                         case.fixed_components, case.fixed_abelian, case.n)
            want = [e.no for e in prog.table if e.structure == case.target]
            check(got == want, f"paper scan for case {case.id}: {got} != {want}")
            source = next(e for e in prog.table if e.no == case.schellekens_no)
            check(source.structure == case.source,
                  f"case {case.id}: schellekensNo {case.schellekens_no} is not its source")
        else:
            _, no, dim, comps, abelian, order = query
            got = ops.time("scan", self._survivors, prog, dim, comps, abelian, order)
            # cross-check of two code paths: Kac enumeration built the target,
            # the admissibility search has to find its source again
            check(no in got, f"generated scan from entry {no}: source missing from {got}")

    @staticmethod
    def _series(prog, query, check, ops):
        what, arg, prec = query
        qseries, modcurve = prog.qseries, prog.modcurve
        if what == "delta":
            f = qseries.parse_eta_quotient("1:24")
        else:
            n, a, c = arg
            f = modcurve.cusp_function(n, modcurve.find_cusp(n, a, c)).quotient
        series = ops.time("series", qseries.etaq_expand, f, prec)
        if what == "delta":
            got = [series.coefficient(k) for k in range(1, prec)]
            check(got == list(TAU[:prec - 1]), f"eta 1:24 to q^{prec}: not Ramanujan tau")
        else:
            lead = series.leading_exponent()
            check(lead == f.leading_exponent() and series.coefficient(lead) == 1,
                  f"{what} {arg}: leading term is not q^{f.leading_exponent()}")

    @staticmethod
    def _divisor(prog, query, check, ops):
        n, a, c = query
        modcurve = prog.modcurve
        cusp = modcurve.find_cusp(n, a, c)
        f = modcurve.cusp_function(n, cusp).quotient
        divisor = ops.time("divisor", modcurve.divisor, f, n)
        check(sum(s.width * order for s, order in divisor) == 0,
              f"divisor of f_{a}/{c} at level {n}: degree is not 0")
        poles = [s.label() for s, order in divisor if order < 0]
        check(poles == [cusp.label()], f"f_{a}/{c} at level {n}: poles at {poles}")


WORKLOADS = {w.name: w for w in (Pipeline, KernelQueries)}
