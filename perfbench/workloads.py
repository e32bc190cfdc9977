"""The benchmark's workloads: seeded inputs, library calls, independent checks.

Each workload is a closed loop with one client: the next request is sent
only after the previous verdict has returned.  A workload provides

  setup(tracer, p)          build the rings/orders of pass p (timed as setup_s)
  specs(env, p)             the pass's requests, pure data derived from the seed
  execute(env, spec, tr)    the request: calls into ringsieve, one span per call
  check(env, spec, result)  independent re-evaluation (see checks.py)
  digest(env, spec, result) one canonical line per request for the output digest

``fresh_per_pass`` workloads rebuild their rings for every pass, so no
request ever finds a cache that an earlier request filled.
"""

import io
import math
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import checks
from ringsieve import catalog
from ringsieve.cli import dispatch
from ringsieve.config import PERIOD_CAP
from ringsieve.ideals import all_ideals
from ringsieve.localstruct import classify
from ringsieve.orders import (
    OrderPresentation,
    nonmaximality_probe,
    order_ideal,
    order_quotient,
    rogers_check_order,
    validate_order,
)
from ringsieve.rings import make_product
from ringsieve.rogers import coset_representatives, counterexample, rogers_check, theorem2_verify
from ringsieve.sieve import Progression, rogers_min_density, union_density


def _coords(elements) -> str:
    return ";".join(",".join(map(str, e.coords)) for e in elements)


def _spread(rng, values, count) -> list:
    """``count`` picks spread evenly over ``values``, in seeded order."""
    values = list(values)
    picks = [values[int((k + rng.random()) * len(values) / count)] for k in range(count)]
    rng.shuffle(picks)
    return picks


def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# -- the acceptance catalog, listed without building it -------------------------

CATALOG_SIZE = 2925
CARRIER_LIMIT = 4096


def _base_catalog() -> list[tuple[str, int, int]]:
    """(name, order, ideal count) of the 77 base rings of the acceptance catalog."""
    base = [(f"Zn:{n}", n, _divisor_count(n)) for n in range(2, 65)]
    base += [(f"Fq:{q}", q, 2) for q in (2, 3, 4, 5, 7, 8, 9)]
    base += [(f"dual:{p}", p * p, 3) for p in (2, 3)]
    base += [(f"socle2:{q}", q ** 3, q + 4) for q in (2, 3)]
    base.append(("C1", 16, 7))
    return base


def catalog_entries() -> list[tuple[tuple[str, ...], int, int]]:
    """(factor names, order, ideal count) for all catalog rings.

    Ideals of a product are products of ideals, so the count multiplies.
    Sorted by (ideal count, order): the ideal count drives the cost of
    enumeration and of the triple scan, so neighbours cost about the same.
    """
    base = _base_catalog()
    entries = [((name,), order, count) for name, order, count in base]
    for i, (na, oa, ca) in enumerate(base):
        for nb, ob, cb in base[i:]:
            if oa * ob <= CARRIER_LIMIT:
                entries.append(((na, nb), oa * ob, ca * cb))
    if len(entries) != CATALOG_SIZE:
        raise RuntimeError(f"catalog listing has {len(entries)} rings, expected {CATALOG_SIZE}")
    entries.sort(key=lambda e: (e[2], e[1], e[0]))
    return entries


def _build_ring(tr, names, base):
    """Resolve base rings once per build and multiply them out."""
    for name in names:
        if name not in base:
            base[name] = tr.call("catalog.resolve", catalog.resolve, name)[1]
    if len(names) == 1:
        return base[names[0]]
    ring, _ = tr.call("rings.make_product", make_product, [base[n] for n in names])
    return ring


class Workload:
    name = ""
    fresh_per_pass = False

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.workers = workers

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + parts)))

    def close(self, env) -> None:
        pass


# -- catalog-decide ----------------------------------------------------------------


class CatalogDecide(Workload):
    """all_ideals -> classify -> theorem2_verify (-> counterexample) per ring.

    The sorted catalog (see catalog_entries) is cut into 325 blocks of 9;
    pass p takes one ring per block (a seeded permutation per block, so nine
    passes cover the catalog once).  Requests visit the blocks with stride
    25, so every run of 13 consecutive requests spans the whole cost range.
    """

    name = "catalog-decide"
    fresh_per_pass = True
    BLOCK = 9
    STRIDE = 25

    def __init__(self, seed, workers):
        super().__init__(seed, workers)
        entries = catalog_entries()
        self.blocks = [entries[i:i + self.BLOCK] for i in range(0, len(entries), self.BLOCK)]
        rng = self.rng()
        self.perms = [rng.sample(range(self.BLOCK), self.BLOCK) for _ in self.blocks]
        self.visit = [b for r in range(self.STRIDE) for b in range(r, len(self.blocks), self.STRIDE)]

    def setup(self, tr, p):
        base = {}
        env = []
        for b in self.visit:
            names = self.blocks[b][self.perms[b][p % self.BLOCK]][0]
            env.append(("*".join(names), _build_ring(tr, names, base)))
        return env

    def specs(self, env, p):
        return list(range(len(env)))

    def execute(self, env, spec, tr):
        _, ring = env[spec]
        ideals = tr.call("ideals.all_ideals", all_ideals, ring)
        verdict = tr.call("localstruct.classify", classify, ring)
        holds = tr.call("rogers.theorem2_verify", theorem2_verify, ring)
        witness = None
        if not verdict.is_chain_local_product:
            witness = tr.call("rogers.counterexample", counterexample, ring)
        tr.count("ideals.count", len(ideals))
        tr.count("localstruct.factors", len(verdict.per_factor))
        return verdict, holds, witness

    def check(self, env, spec, result):
        name, ring = env[spec]
        verdict, holds, witness = result
        problems = []
        if holds != verdict.is_chain_local_product:
            problems.append(f"{name}: classify says {verdict.is_chain_local_product}, "
                            f"theorem2_verify says {holds}")
        if witness is not None:
            if any(i.ring is not ring for i in witness.ideals):
                problems.append(f"{name}: witness ideals belong to another ring")
            problems += checks.check_witness(witness, name)
        return problems

    def digest(self, env, spec, result):
        verdict, holds, witness = result
        line = f"{env[spec][0]} chain={verdict.is_chain_local_product} t2={holds}"
        if witness is not None:
            line += (f" shifts={_coords(witness.shifts)}"
                     f" union={witness.union_shifted}/{witness.union_baseline}")
        return line


# -- shift-scan --------------------------------------------------------------------


class ShiftScan(Workload):
    """coset_representatives into a fresh cache, then rogers_check(workers=2);
    plus rogers_min_density and union_density on moduli triples.

    Four fixed catalog products, ideals enumerated in setup; the seed picks
    the ideals and moduli.  Each block of 20 requests holds 10 triples whose
    shift spaces are log-stratified over [1e4, 2.5e5] tuples, 6 pairs and 4
    moduli triples log-stratified over [2e3, 6e4] tuples.  A pass's sizes
    and rings do not depend on the seed, so neither does its tail.
    """

    name = "shift-scan"
    # one product per size band 512-4,096; the two smaller have a non-chain
    # factor, so some triples shrink and their witnesses get re-evaluated
    RINGS = (("Zn:36", "socle2:3"), ("Zn:60", "socle2:3"), ("Zn:48", "Zn:48"), ("Zn:60", "Zn:60"))
    TRIPLE_TUPLES = (1e4, 2.5e5)
    SIEVE_TUPLES = (2e3, 6e4)
    SIEVE_MASK_WORK = 4_000_000  # sum of moduli times period: cost of the residue masks
    BLOCK = ("triple",) * 10 + ("pair",) * 6 + ("sieve",) * 4
    PASS_BLOCKS = 10

    def setup(self, tr, p):
        base = {}
        env = []
        for names in self.RINGS:
            ring = _build_ring(tr, names, base)
            ideals = tr.call("ideals.all_ideals", all_ideals, ring)
            tr.count("ideals.count", len(ideals))
            env.append(("*".join(names), ring, ideals))
        return env

    def specs(self, env, p):
        rng = self.rng(p)
        out = []
        for b in range(self.PASS_BLOCKS):
            # Block b puts every size at the same point u of its stratum and
            # turns the rings by b, so the sizes and rings of a pass are the
            # same for every seed; the seed picks the ideals and the order.
            u = (b + 0.5) / self.PASS_BLOCKS
            kinds = list(self.BLOCK)
            rng.shuffle(kinds)
            seen = {"triple": 0, "pair": 0, "sieve": 0}
            for kind in kinds:
                k = seen[kind]
                seen[kind] += 1
                if kind == "sieve":
                    out.append(("sieve", self._moduli(rng, self._stratum(self.SIEVE_TUPLES, k + u, 4))))
                    continue
                r = (k + b) % len(env)
                _, ring, ideals = env[r]
                indices = [ring.order // i.size for i in ideals]
                if kind == "pair":
                    out.append(("pair", r, self._pair(rng, indices)))
                else:
                    target = self._stratum(self.TRIPLE_TUPLES, k + u, 10)
                    out.append(("triple", r, self._triple(rng, indices, target)))
        return out

    @staticmethod
    def _stratum(bounds, at, of):
        lo, hi = math.log10(bounds[0]), math.log10(bounds[1])
        return 10 ** (lo + at * (hi - lo) / of)

    @staticmethod
    def _pair(rng, indices):
        proper = [j for j, s in enumerate(indices) if s > 1]
        first = rng.randrange(len(indices))
        return (first, rng.choice([j for j in proper if j != first]))

    @staticmethod
    def _triple(rng, indices, target):
        """Three ideals whose coset counts [R:I_2][R:I_3] lie within 15% of ``target``."""
        proper = [j for j, s in enumerate(indices) if s > 1]
        fits = [(a, b) for a in proper for b in proper
                if target / 1.15 <= indices[a] * indices[b] <= target * 1.15]
        if fits:
            return (rng.choice(proper),) + rng.choice(fits)
        # no product of two indices comes that close: take the closest one
        _, second, third = min(
            (abs(math.log(indices[a] * indices[b] / target)), a, b)
            for a in proper for b in proper
        )
        return (rng.choice(proper), second, third)

    def _moduli(self, rng, target):
        """Three seeded moduli with q_2 q_3 within 15% of ``target``."""
        while True:
            q = [round(10 ** rng.uniform(math.log10(2), math.log10(400))) for _ in range(3)]
            period = math.lcm(*q)
            if (target / 1.15 <= q[1] * q[2] <= target * 1.15
                    and period <= PERIOD_CAP and sum(q) * period <= self.SIEVE_MASK_WORK):
                return tuple(q)

    def execute(self, env, spec, tr):
        if spec[0] == "sieve":
            moduli = spec[1]
            report = tr.call("sieve.rogers_min_density", rogers_min_density, moduli,
                             workers=self.workers)
            progressions = [Progression(a, q) for a, q in zip(report.witness_shifts, moduli)]
            at_witness = tr.call("sieve.union_density", union_density, progressions)
            tr.count("sieve.tuples", moduli[1] * moduli[2])
            return report, at_witness
        _, ring, ideals = env[spec[1]]
        chosen = [ideals[j] for j in spec[2]]
        cache = {}
        for ideal in chosen[1:]:
            if ideal not in cache:
                cache[ideal] = tr.call("rogers.coset_representatives", coset_representatives, ideal)
                tr.count("rogers.cosets", len(cache[ideal][0]))
        report = tr.call("rogers.rogers_check", rogers_check, ring, chosen,
                         coset_cache=cache, workers=self.workers)
        tr.count("rogers.tuples", report.tuples_examined)
        return report

    def check(self, env, spec, result):
        if spec[0] == "sieve":
            report, at_witness = result
            moduli = spec[1]
            period = math.lcm(*moduli)
            zero = checks.progression_union((0, 0, 0), moduli, period)
            at = checks.progression_union(report.witness_shifts, moduli, period)
            problems = []
            if (report.period, report.residues, report.min_density) != (
                    period, zero, Fraction(zero, period)):
                problems.append(f"sieve {moduli}: minimum {report.min_density} over period "
                                f"{report.period}, zero-shift count is {zero}/{period}")
            if not at == at_witness.residues == zero:
                problems.append(f"sieve {moduli}: witness covers {at} residues, union_density "
                                f"says {at_witness.residues}, zero shifts cover {zero}")
            return problems
        what = f"{spec[0]} {env[spec[1]][0]} {spec[2]}"
        problems = checks.check_report(result, what)
        if spec[0] == "pair" and result.minimum != result.baseline:
            problems.append(f"{what}: a pair shrank ({result.minimum} < {result.baseline})")
        return problems

    def digest(self, env, spec, result):
        if spec[0] == "sieve":
            report, _ = result
            return f"sieve {spec[1]} min={report.min_density} shifts={report.witness_shifts}"
        return (f"{spec[0]} {env[spec[1]][0]} {spec[2]} min={result.minimum}"
                f" base={result.baseline} shifts={_coords(result.witness_shifts)}")


# -- order-probe ---------------------------------------------------------------------


def order_pool() -> list[tuple[str, int, dict]]:
    """(family, parameter, presentation table) for every order the workload may use."""
    pool = []
    for d in range(-40, 41):
        if d not in (0, 1) and (d < 0 or math.isqrt(d) ** 2 != d):
            pool.append(("sqrt", d, {(1, 1): (d, 0)}))  # Z[sqrt d]: t^2 = d
    for d in range(-63, 64, 4):
        if d != 1 and (d < 0 or math.isqrt(d) ** 2 != d):
            pool.append(("half", d, {(1, 1): ((d - 1) // 4, 1)}))  # Z[(1+sqrt d)/2]
    for f in range(2, 9):
        pool.append(("gauss", f, {(1, 1): (-f * f, 0)}))  # Z[f i]: t^2 = -f^2
    for m in range(2, 31):
        if round(m ** (1 / 3)) ** 3 != m:
            # Z[cbrt m], basis (1, t, t^2)
            pool.append(("cbrt", m, {(1, 1): (0, 0, 1), (1, 2): (m, 0, 0), (2, 2): (0, m, 0)}))
    return pool


class OrderProbe(Workload):
    """nonmaximality_probe, order_ideal -> order_quotient -> classify, and
    rogers_check_order, over quadratic and cubic orders.

    Setup validates the whole order pool.  Each block of 12 requests holds
    every (kind, family) pair once, in seeded order.  Within a pass, each
    pair's orders and its size parameter (probe bound, quotient modulus,
    modulus of the rogers triple) are spread evenly over their ranges;
    generators are seeded.
    """

    name = "order-probe"
    FAMILIES = ("sqrt", "half", "gauss", "cbrt")
    KINDS = ("probe", "quotient", "rogers")
    PASS_BLOCKS = 20
    PROBE_BOUND = {2: (4, 9), 3: (3, 5)}  # by rank: quotients of up to 81 / 125 elements
    QUOTIENT_MODULUS = {2: 24, 3: 8}
    ROGERS_MODULUS = {2: 16, 3: 6}

    def __init__(self, seed, workers):
        super().__init__(seed, workers)
        self.pool = order_pool()
        self.tables = [checks.full_table(3 if fam == "cbrt" else 2, table)
                       for fam, _, table in self.pool]
        self.maximal = [checks.squarefree(checks.trace_discriminant(t)) for t in self.tables]

    def setup(self, tr, p):
        return [
            tr.call("orders.validate_order", validate_order,
                    OrderPresentation(rank=len(self.tables[i]), table=table))
            for i, (_, _, table) in enumerate(self.pool)
        ]

    def specs(self, env, p):
        rng = self.rng(p)
        plan = {}
        for family in self.FAMILIES:
            orders = [i for i, e in enumerate(self.pool) if e[0] == family]
            rank = len(self.tables[orders[0]])
            lo, hi = self.PROBE_BOUND[rank]
            for kind, values in (("probe", range(lo, hi + 1)),
                                 ("quotient", range(2, self.QUOTIENT_MODULUS[rank] + 1)),
                                 ("rogers", range(2, self.ROGERS_MODULUS[rank] + 1))):
                plan[kind, family] = zip(_spread(rng, orders, self.PASS_BLOCKS),
                                         _spread(rng, values, self.PASS_BLOCKS))
        out = []
        for _ in range(self.PASS_BLOCKS):
            block = list(plan)
            rng.shuffle(block)
            for kind, family in block:
                o, value = next(plan[kind, family])
                if kind == "probe":
                    out.append(("probe", o, value))
                elif kind == "quotient":
                    out.append(("quotient", o, self._ideal(rng, o, value)))
                else:
                    moduli = [c for c in range(2, value + 1) if value % c == 0]
                    out.append(("rogers", o, tuple(
                        self._ideal(rng, o, rng.choice(moduli)) for _ in range(3))))
        return out

    def _ideal(self, rng, o, c):
        """Generators (g, c*1) of an ideal of index >= 2 (bench-computed).

        When c is inert no small g lies in a proper ideal above it; after a
        few tries the ideal falls back to (c) itself.
        """
        n = len(self.tables[o])
        lone = (c,) + (0,) * (n - 1)
        for _ in range(40):
            g = tuple(rng.randint(-4, 4) for _ in range(n))
            if any(g) and checks.ideal_index(self.tables[o], (g, lone)) >= 2:
                return (g, lone)
        return (lone,)

    def execute(self, env, spec, tr):
        kind, o, arg = spec
        order = env[o]
        if kind == "probe":
            found = tr.call("orders.nonmaximality_probe", nonmaximality_probe, order, arg)
            tr.count("orders.conductors", (arg if found is None else found.conductor) - 1)
            return found
        if kind == "quotient":
            lattice = tr.call("orders.order_ideal", order_ideal, order, arg)
            ring, _ = tr.call("orders.order_quotient", order_quotient, order, lattice)
            verdict = tr.call("localstruct.classify", classify, ring)
            tr.count("localstruct.factors", len(verdict.per_factor))
            return ring, verdict
        return tr.call("orders.rogers_check_order", rogers_check_order, order, arg,
                       workers=self.workers)

    def check(self, env, spec, result):
        kind, o, arg = spec
        family, param, _ = self.pool[o]
        what = f"{kind} {family}:{param} {arg}"
        maximal = self.maximal[o]
        problems = []
        if kind == "probe":
            if result is None:
                return problems
            if maximal:
                problems.append(f"{what}: squarefree discriminant, but the probe found "
                                f"conductor {result.conductor}")
            if not 2 <= result.conductor <= arg:
                problems.append(f"{what}: conductor {result.conductor} outside [2, {arg}]")
            problems += checks.check_witness(result.quotient_witness, what + " quotient")
            problems += checks.check_report(result.report, what + " lifted")
            if result.report.satisfied:
                problems.append(f"{what}: lifted witness does not shrink")
            return problems
        if kind == "quotient":
            ring, verdict = result
            index = checks.ideal_index(self.tables[o], arg)
            if ring.order != index:
                problems.append(f"{what}: quotient has {ring.order} elements, index is {index}")
            if maximal and not verdict.is_chain_local_product:
                problems.append(f"{what}: quotient of a maximal order is not a chain-local product")
            return problems
        problems += checks.check_report(result, what)
        if maximal and not result.satisfied:
            problems.append(f"{what}: a maximal order's ideals shrank")
        return problems

    def digest(self, env, spec, result):
        kind, o, arg = spec
        head = f"{kind} {self.pool[o][0]}:{self.pool[o][1]} {arg}"
        if kind == "probe":
            if result is None:
                return head + " none"
            return f"{head} conductor={result.conductor} shifts={result.shifts}"
        if kind == "quotient":
            ring, verdict = result
            return f"{head} df={ring.invariant_factors} chain={verdict.is_chain_local_product}"
        return (f"{head} min={result.minimum} base={result.baseline}"
                f" shifts={_coords(result.witness_shifts)}")


# -- cli-mix -----------------------------------------------------------------------


def _ring_text(pres) -> str:
    lines = ["ring %d %s" % (pres.rank, " ".join(map(str, pres.invariant_factors)))]
    for (i, j), vec in sorted(pres.structure_constants.items()):
        lines.append("mul %d %d %s" % (i + 1, j + 1, " ".join(map(str, vec))))
    lines.append("one " + " ".join(map(str, pres.unit)))
    return "\n".join(lines) + "\n"


def _order_text(rank, table) -> str:
    lines = [f"order {rank}"]
    for (i, j), vec in sorted(table.items()):
        lines.append("mul %d %d %s" % (i + 1, j + 1, " ".join(map(str, vec))))
    return "\n".join(lines) + "\n"


def _parse_pairs(stdout: str) -> dict[str, str]:
    """key=value tokens of either output format (first occurrence wins)."""
    out = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep and key not in out:
            out[key] = value
    return out


def _vectors(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";") if chunk]


class CliMix(Workload):
    """In-process cli.dispatch on a seeded mix of the README commands.

    Every request re-parses and re-validates its ring or order cold.  Two
    requests in every 20 are malformed inputs that must end in ``error: ...``
    with exit code 1.
    """

    name = "cli-mix"
    RINGS = ("catalog:Z12", "catalog:F2xy", "catalog:F3xy", "catalog:C1", "catalog:dual:2",
             "catalog:dual:3", "catalog:Fq:4", "catalog:Fq:9", "catalog:Zn:30", "catalog:Zn:36",
             "catalog:socle2:2")
    PRODUCTS = (("Zn:4", "socle2:2"), ("Zn:6", "dual:2"), ("Zn:2", "C1"), ("Zn:9", "Zn:3"))
    # (name, table, True for a catalog: entry / False for a file written in setup)
    ORDERS = (("Z2i", {(1, 1): (-4, 0)}, True), ("Zi", {(1, 1): (-1, 0)}, True),
              ("sqrt5", {(1, 1): (5, 0)}, False), ("3i", {(1, 1): (-9, 0)}, False),
              ("cbrt2", {(1, 1): (0, 0, 1), (1, 2): (2, 0, 0), (2, 2): (0, 2, 0)}, False))
    BLOCK = ("validate", "ideals", "classify", "classify", "counterexample", "counterexample",
             "verify-theorem2", "verify-theorem2", "rogers-check", "rogers-check", "rogers-check",
             "order-check", "order-check", "probe", "probe", "sieve", "sieve-min", "sieve-min",
             "malformed", "malformed")
    MALFORMED = ("ring-header", "mul-line", "order-header", "workers", "carrier-bound")
    PASS_BLOCKS = 10

    def setup(self, tr, p):
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        rings = {}
        for source in self.RINGS:
            _, ring = tr.call("catalog.resolve", catalog.resolve, source[len("catalog:"):])
            rings[source] = ring.presentation
        base = {}
        for names in self.PRODUCTS:
            pres = _build_ring(tr, names, base).presentation
            path = tmp / ("ring-" + "-".join(n.replace(":", "") for n in names) + ".txt")
            path.write_text(_ring_text(pres), encoding="utf-8")
            rings[str(path)] = pres
        orders = {}
        for name, table, in_catalog in self.ORDERS:
            rank = 1 + max(j for _, j in table)
            if in_catalog:
                orders[f"catalog:{name}"] = checks.full_table(rank, table)
            else:
                path = tmp / f"order-{name}.txt"
                path.write_text(_order_text(rank, table), encoding="utf-8")
                orders[str(path)] = checks.full_table(rank, table)
        bad = {"ring-header": "ring\n", "mul-line": "ring 1 6\nmul 1\none 1\n",
               "order-header": "order\n"}
        for key, text in bad.items():
            (tmp / f"bad-{key}.txt").write_text(text, encoding="utf-8")
        return {"dir": tmp, "rings": rings, "orders": orders}

    def close(self, env):
        shutil.rmtree(env["dir"], ignore_errors=True)

    def specs(self, env, p):
        rng = self.rng(p)
        rings = sorted(env["rings"])
        orders = sorted(env["orders"])
        out = []
        bad_turn = p * self.PASS_BLOCKS * 2
        for _ in range(self.PASS_BLOCKS):
            block = list(self.BLOCK)
            rng.shuffle(block)
            for cmd in block:
                fmt = rng.choice(("human", "machine"))
                if cmd == "malformed":
                    variant = self.MALFORMED[bad_turn % len(self.MALFORMED)]
                    bad_turn += 1
                    out.append(("malformed", self._malformed(env, variant, fmt)))
                    continue
                argv = ["--format", fmt, "--workers", str(self.workers)]
                if cmd in ("validate", "ideals", "classify", "counterexample", "verify-theorem2"):
                    argv += [cmd, rng.choice(rings)]
                elif cmd == "rogers-check":
                    ring = rng.choice(rings)
                    pres = env["rings"][ring]
                    argv += ["rogers-check", ring]
                    for _ in range(3):
                        g = [rng.randrange(d) for d in pres.invariant_factors]
                        argv += ["--ideal", ",".join(map(str, g))]
                elif cmd == "order-check":
                    order = rng.choice(orders)
                    table = env["orders"][order]
                    argv += ["order-check", order]
                    top = rng.choice((4, 6, 8))
                    for _ in range(3):
                        c = rng.choice([c for c in range(2, top + 1) if top % c == 0])
                        while True:  # index >= 2 keeps the quotient nonzero
                            gens = (tuple(rng.randint(-3, 3) for _ in table),
                                    (c,) + (0,) * (len(table) - 1))
                            if checks.ideal_index(table, gens) >= 2:
                                break
                        argv.append("--ideal=" + ";".join(",".join(map(str, g)) for g in gens))
                elif cmd == "probe":
                    argv += ["probe", rng.choice(orders), "--bound", str(rng.randint(3, 6))]
                elif cmd == "sieve":
                    argv.append("sieve")
                    for _ in range(rng.randint(2, 4)):
                        q = rng.randint(2, 30)
                        argv += ["--prog", f"{rng.randrange(q)}:{q}"]
                else:
                    moduli = [rng.randint(2, 24) for _ in range(3)]
                    argv += ["sieve-min", "--moduli", ",".join(map(str, moduli))]
                out.append((cmd, argv))
        return out

    @staticmethod
    def _malformed(env, variant, fmt):
        tmp = env["dir"]
        if variant == "ring-header":
            return ["--format", fmt, "validate", str(tmp / "bad-ring-header.txt")]
        if variant == "mul-line":
            return ["--format", fmt, "classify", str(tmp / "bad-mul-line.txt")]
        if variant == "order-header":
            return ["--format", fmt, "probe", str(tmp / "bad-order-header.txt"), "--bound", "3"]
        if variant == "workers":
            return ["--format", fmt, "--workers", "0", "sieve-min", "--moduli", "2,3"]
        return ["--format", fmt, "--carrier-bound", "0", "validate", "catalog:Z12"]

    def execute(self, env, spec, tr):
        cmd, argv = spec
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = tr.call(f"cli.{cmd}", dispatch, argv)
            except SystemExit as exc:  # argparse rejects a command line by exiting
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, env, spec, result):
        cmd, argv = spec
        code, stdout, stderr = result
        what = " ".join(argv)
        if cmd == "malformed":
            if code != 1 or not stderr.startswith("error:"):
                return [f"{what}: exit {code} without an error line"]
            return []
        kv = _parse_pairs(stdout)
        expect = {
            "classify": lambda: 0 if kv["chain_local_product"] == "true" else 2,
            "verify-theorem2": lambda: 0 if kv["satisfied_all_triples"] == "true" else 2,
            "counterexample": lambda: 0 if kv.get("witness") == "none" else 2,
            "rogers-check": lambda: 0 if kv["satisfied"] == "true" else 2,
            "order-check": lambda: 0 if kv["satisfied"] == "true" else 2,
            "probe": lambda: 0 if kv.get("witness") == "none" else 2,
        }.get(cmd, lambda: 0)
        try:
            wanted = expect()
        except KeyError as exc:
            return [f"{what}: output lacks {exc.args[0]}"]
        if code != wanted:
            return [f"{what}: exit {code}, verdict implies {wanted}"]
        if cmd == "validate":
            size = math.prod(env["rings"][argv[-1]].invariant_factors)
            if kv.get("order") != str(size) or kv.get("valid") != "true":
                return [f"{what}: order {kv.get('order')} != {size} or not valid"]
        elif cmd == "ideals":
            if stdout.count("ideal_") != int(kv["count"]):
                return [f"{what}: {kv['count']} ideals announced, "
                        f"{stdout.count('ideal_')} listed"]
        elif cmd == "counterexample" and code == 2:
            gens = [_vectors(kv[f"ideal_{i}"]) for i in (1, 2, 3)]
            return self._union_problems(env["rings"][argv[-1]], gens, _vectors(kv["shifts"]),
                                        int(kv["union_shifted"]), int(kv["union_baseline"]),
                                        what, shrinks=True)
        elif cmd == "rogers-check":
            ring = argv[argv.index("rogers-check") + 1]
            gens = [[tuple(int(x) for x in argv[i + 1].split(","))]
                    for i, a in enumerate(argv) if a == "--ideal"]
            return self._union_problems(env["rings"][ring], gens, _vectors(kv["shifts"]),
                                        int(kv["minimum"]), int(kv["baseline"]), what)
        elif cmd == "order-check":
            if int(kv["minimum"]) > int(kv["baseline"]):
                return [f"{what}: minimum {kv['minimum']} above baseline {kv['baseline']}"]
        elif cmd == "probe" and code == 2:
            if not int(kv["union_shifted"]) < int(kv["union_baseline"]):
                return [f"{what}: probe witness does not shrink"]
        elif cmd == "sieve":
            progs = [tuple(int(x) for x in argv[i + 1].split(":"))
                     for i, a in enumerate(argv) if a == "--prog"]
            moduli = [q for _, q in progs]
            period = math.lcm(*moduli)
            covered = checks.progression_union([a for a, _ in progs], moduli, period)
            if Fraction(kv["density"]) != Fraction(covered, period):
                return [f"{what}: density {kv['density']} != {covered}/{period}"]
        elif cmd == "sieve-min":
            moduli = [int(x) for x in argv[-1].split(",")]
            period = math.lcm(*moduli)
            zero = checks.progression_union([0] * len(moduli), moduli, period)
            if Fraction(kv["min"]) != Fraction(zero, period):
                return [f"{what}: min {kv['min']} != zero-shift density {zero}/{period}"]
        return []

    @staticmethod
    def _union_problems(pres, gens, shifts, shifted, baseline, what, shrinks=False):
        df = pres.invariant_factors
        sc = pres.structure_constants
        members = [checks.ideal_closure(df, sc, g) for g in gens]
        problems = []
        got = checks.shifted_union(df, members, shifts)
        if got != shifted:
            problems.append(f"{what}: union at printed shifts is {got}, printed {shifted}")
        got = checks.shifted_union(df, members, [(0,) * len(df)] * len(members))
        if got != baseline:
            problems.append(f"{what}: unshifted union is {got}, printed {baseline}")
        if shrinks and not shifted < baseline:
            problems.append(f"{what}: printed witness does not shrink")
        return problems

    def digest(self, env, spec, result):
        cmd, argv = spec
        code, stdout, _ = result
        if cmd != "malformed":  # output must not depend on the worker count: leave it out
            argv = argv[:2] + argv[4:]
        # file arguments live in a per-run directory; digest their base names
        shown = [Path(a).name if a.startswith(str(env["dir"])) else a for a in argv]
        return f"{' '.join(shown)} -> {code}\n{stdout}"


WORKLOADS = {w.name: w for w in (CatalogDecide, ShiftScan, OrderProbe, CliMix)}
