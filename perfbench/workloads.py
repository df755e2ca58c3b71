"""The four workloads: set-up from generated inputs, jobs, and output checks.

A workload object is built from the data ``inputs.py`` generates (this is
the set-up a user pays on every command-line run: parsing, group closure,
conjugacy classes).  ``jobs()`` yields the jobs of one cycle; the benchmark
runs whole cycles back to back.  Each job's ``run(stage)`` calls only the
package's public functions, looked up on the modules at call time so the
tracer's wrappers are seen, and calls ``stage()`` between its stages, where
the benchmark times its reference work; ``check`` returns a list of problems
(empty when the output is right), using algorithms that share no code path
with the one being checked.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from cheblink import cli, covers, freewords, permgroup, quotients, sft

import inputs

FLAGSHIP_ARGV = ["a5", "--max-len", "11", "--format", "rows"]
# the frozen 25486-orbit table of the bundled A5 shift at length 11
FLAGSHIP_EXPECTED = {"type:(1,1,1,1,1)": 414, "type:(2,2,1)": 6381,
                     "type:(3,1,1)": 8505, "type:(5)": 10186}
# surjections up to conjugacy from each knot group of inputs.BRAID_KNOTS,
# counted by brute force over all generator image triples
BRAID_KNOT_QUOTIENTS = ({"S4": 1, "A5": 2}, {"S4": 0, "A5": 2},
                        {"S4": 0, "A5": 4}, {"S4": 0, "A5": 2})
REALIZATION_BOUND = 8
ENUMERATION_CHECK_LEN = 7   # transfer-long: compare the DP with enumeration up to here


@dataclass
class Job:
    kind: str
    run: Callable[[Callable[[], None]], Any]
    check: Callable[[Any], list]
    orbits: Callable[[Any], int] = lambda out: 0


def divisor_inversion(g, totals_by_n):
    """Primitive orbits per (length, class) from exact_counts totals.

    ``totals_by_n[n-1]`` counts based closed paths of length n by class.  An
    orbit of length d dividing n contributes d of them, labelled by its
    holonomy to the power n/d; peeling the proper divisors off and dividing
    by n leaves the primitive counts without enumerating any orbit.  Raises
    ValueError when a count comes out fractional or negative.
    """
    classes = permgroup.conjugacy_classes(g)
    k = len(classes)
    max_n = len(totals_by_n)

    def power(i, m):
        acc = g.identity
        for _ in range(m):
            acc = g.mul(acc, i)
        return acc

    power_class = {(dj, m): permgroup.class_index(g, power(classes[dj].representative, m))
                   for dj in range(k) for m in range(1, max_n + 1)}
    counts = {}
    for n in range(1, max_n + 1):
        for ci in range(k):
            t = totals_by_n[n - 1][ci]
            for d in range(1, n):
                if n % d == 0:
                    t -= sum(d * counts[(d, dj)] for dj in range(k)
                             if power_class[(dj, n // d)] == ci)
            if t % n or t < 0:
                raise ValueError(f"divisor inversion not integral at n={n}, class {ci}")
            counts[(n, ci)] = t // n
    return counts


def _edges_of(data):
    return [(e["from"], e["to"]) for e in data["edges"]]


# ---------------------------------------------------------------- a5-density

class A5Density:
    """Flagship table plus a density report on a generated A5 shift per job."""

    name = "a5-density"
    trace_jobs = 6
    warmup_jobs = 0

    def __init__(self, data):
        self.hom = freewords.parse_hom_data(data["hom"])
        permgroup.conjugacy_classes(self.hom.target)
        self.specs = data["shifts"]
        self.shifts = [sft.parse_sft_data(sp["sft"], self.hom) for sp in self.specs]
        self._oracle: dict[int, dict] = {}
        self._next = 0

    def sizes(self):
        return {"flagship_max_len": 11, "pool": len(self.shifts), "group_order": 60,
                "states": dict(Counter(sp["sft"]["states"] for sp in self.specs)),
                "max_len": inputs.A5_DENSITY_MAX_LEN,
                "orbits": [min(sp["orbits"] for sp in self.specs),
                           max(sp["orbits"] for sp in self.specs)]}

    def jobs(self):
        i = self._next % len(self.shifts)
        self._next += 1
        s, spec = self.shifts[i], self.specs[i]

        def run(stage):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(FLAGSHIP_ARGV)
            stage()
            real = sft.realization_check(s, REALIZATION_BOUND)
            report = sft.chebotarev_report(s, spec["max_len"])
            return rc, buf.getvalue(), real, report

        def check(out):
            rc, text, real, report = out
            problems = check_flagship(rc, text)
            if not real.passed:
                problems.append(f"shift {i}: realization check failed")
            if report.total_counted != spec["orbits"]:
                problems.append(f"shift {i}: {report.total_counted} orbits, "
                                f"trace formula gives {spec['orbits']}")
            if i not in self._oracle:
                self._oracle[i] = divisor_inversion(self.hom.target, [
                    sft.exact_counts(s, n) for n in range(1, spec["max_len"] + 1)])
            counts = self._oracle[i]
            k = len(permgroup.conjugacy_classes(self.hom.target))
            for cutoff in range(1, spec["max_len"] + 1):
                got = [r.count for r in report.rows_at(cutoff)]
                want = [sum(counts[(n, ci)] for n in range(1, cutoff + 1)) for ci in range(k)]
                if got != want:
                    problems.append(f"shift {i}: cutoff {cutoff} class counts {got} != DP {want}")
                    break
            return problems

        yield Job("density", run, check,
                  lambda out: inputs.FLAGSHIP_ORBITS + out[3].total_counted)


def check_flagship(rc, text):
    """The flagship rows at length 11 must reproduce the frozen table."""
    if rc != 0:
        return [f"flagship exited {rc}"]
    final = {}
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) == 6 and fields[0] == "11":
            final[fields[1]] = int(fields[2])
    if final != FLAGSHIP_EXPECTED:
        return [f"flagship table {final} != frozen {FLAGSHIP_EXPECTED}"]
    return []


# ---------------------------------------------------------------- transfer-long

class TransferLong:
    """exact_counts(s, n) for n = 1..N on a generated S6 shift per job, the
    pool taken in turn.  One pass over the pool, untimed, first fills the
    group's product cache, so timed jobs see the same warm cache."""

    name = "transfer-long"
    trace_jobs = 8
    warmup_jobs = inputs.TRANSFER_POOL

    def __init__(self, data):
        self.hom = freewords.parse_hom_data(data["hom"])
        permgroup.conjugacy_classes(self.hom.target)
        self.specs = data["shifts"]
        self.shifts = [sft.parse_sft_data(sp["sft"], self.hom) for sp in self.specs]
        self._enumerated: dict[int, Counter] = {}
        self._next = 0

    def sizes(self):
        return {"pool": len(self.shifts), "group_order": 720,
                "states": inputs.TRANSFER_STATES, "out_degree": inputs.TRANSFER_OUT_DEGREE,
                "max_n": inputs.TRANSFER_MAX_N,
                "muls": [min(sp["muls"] for sp in self.specs),
                         max(sp["muls"] for sp in self.specs)]}

    def jobs(self):
        i = self._next % len(self.shifts)
        self._next += 1
        s, spec = self.shifts[i], self.specs[i]

        def run(stage):
            return [sft.exact_counts(s, n) for n in range(1, spec["max_n"] + 1)]

        def check(out):
            problems = []
            g = self.hom.target
            k = len(permgroup.conjugacy_classes(g))
            traces = inputs.path_traces(spec["sft"]["states"], _edges_of(spec["sft"]),
                                        spec["max_n"])
            primitive = inputs.primitive_orbit_counts(spec["sft"]["states"],
                                                      _edges_of(spec["sft"]), spec["max_n"])
            for n, totals in enumerate(out, start=1):
                if sum(totals) != traces[n]:
                    return [f"shift {i}: n={n} total {sum(totals)} != trace {traces[n]}"]
            try:
                counts = divisor_inversion(g, out)
            except ValueError as e:
                return [f"shift {i}: {e}"]
            for n in range(1, spec["max_n"] + 1):
                if sum(counts[(n, ci)] for ci in range(k)) != primitive[n]:
                    problems.append(f"shift {i}: n={n} orbit total differs from Moebius count")
            if i not in self._enumerated:
                self._enumerated[i] = Counter(
                    (o.length, o.frobenius_class)
                    for o in sft.enumerate_orbits(s, ENUMERATION_CHECK_LEN))
            enumerated = self._enumerated[i]
            for n in range(1, min(ENUMERATION_CHECK_LEN, spec["max_n"]) + 1):
                for ci in range(k):
                    if counts[(n, ci)] != enumerated[(n, ci)]:
                        problems.append(f"shift {i}: ({n}, {ci}) DP {counts[(n, ci)]} "
                                        f"!= enumeration {enumerated[(n, ci)]}")
            return problems

        yield Job("transfer", run, check)


# ---------------------------------------------------------------- subgroup-lattice

def loop_word(g, z):
    """A nonempty cyclic word over g's generators whose image is z, or for the
    identity the first generator raised to its order."""
    letters = g.word_for(z)
    if not letters:
        m, x = 1, g.generators[0]
        while x != g.identity:
            x = g.mul(x, g.generators[0])
            m += 1
        letters = (1,) * m
    return freewords.cyclic_reduce(freewords.Word(letters))


class SubgroupLattice:
    """Every subgroup of A5 and S4, each checked by verify_artin and by
    verify_component_bijection on every element's loop."""

    name = "subgroup-lattice"
    trace_jobs = 2
    warmup_jobs = 0

    def __init__(self, data):
        self.groups = []
        for spec in data["groups"]:
            g = permgroup.parse_group_data(spec["group"])
            permgroup.conjugacy_classes(g)
            self.groups.append((spec["name"], g, spec["subgroups"]))

    def sizes(self):
        return {name: {"order": g.order, "subgroups": n} for name, g, n in self.groups}

    def jobs(self):
        def run(stage):
            out = []
            for name, g, _ in self.groups:
                if out:
                    stage()
                subs = permgroup.all_subgroups(g)
                stage()
                artin = [covers.verify_artin(g, h) for h in subs]
                stage()
                hom = freewords.GroupHom(freewords.Presentation(len(g.generators), ()),
                                         g, g.generators)
                words = [loop_word(g, z) for z in range(g.order)]
                bijections = []
                for h in subs:
                    cover = covers.build_cover(hom, h)
                    bijections.extend(covers.verify_component_bijection(cover, w)
                                      for w in words)
                out.append((subs, artin, bijections))
            return out

        def check(out):
            problems = []
            for (name, g, n_subs), (subs, artin, bijections) in zip(self.groups, out):
                if len(subs) != n_subs:
                    problems.append(f"{name}: {len(subs)} subgroups, expected {n_subs}")
                mismatches = sum(len(r.mismatches) for r in artin)
                if mismatches or any(r.checked != g.order for r in artin):
                    problems.append(f"{name}: {mismatches} Artin mismatches")
                if len(bijections) != len(subs) * g.order or not all(b.passed for b in bijections):
                    problems.append(f"{name}: component bijection failed")
            return problems

        yield Job("lattice", run, check)


# ---------------------------------------------------------------- braid-quotients

class BraidQuotients:
    """One job per braid word: its presentation, abelianization (Smith form,
    genericity), then surjections onto S4 and onto A5 up to conjugacy.  The
    pool takes the knots of inputs.BRAID_KNOTS in turn.  A cycle is one job,
    so a run stops within one job of ``--seconds``."""

    name = "braid-quotients"
    trace_jobs = len(inputs.BRAID_KNOTS)
    warmup_jobs = 0

    def __init__(self, data):
        self.targets = [(t["name"], permgroup.parse_group_data(t["group"]))
                        for t in data["targets"]]
        for _, g in self.targets:
            permgroup.conjugacy_classes(g)
        self.braids = [(b["knot"], freewords.parse_braid(b["braid"])) for b in data["braids"]]
        self._next = 0

    def sizes(self):
        return {"pool": len(self.braids), "strands": 3, "knots": len(inputs.BRAID_KNOTS),
                "braid_length": len(inputs.BRAID_KNOTS[0]),
                "targets": {name: g.order for name, g in self.targets}}

    def jobs(self):
        i = self._next % len(self.braids)
        self._next += 1
        knot, b = self.braids[i]

        def run(stage):
            p = freewords.braid_presentation(b)
            a = freewords.abelianized_matrix(p)
            sf = quotients.smith_normal_form(a)
            meridian = quotients.generic_check(p, [freewords.parse_word("x1")])
            bare = quotients.generic_check(p, [])
            homs = []
            for _, g in self.targets:
                homs.append(quotients.quotient_search(p, g, surjective_only=True,
                                                      dedup_conjugacy=True))
                stage()
            return p, (a, sf, meridian, bare), homs

        def check(out):
            p, abelian, homs = out
            problems = _abelian_check(i, p, *abelian)
            for (name, g), found in zip(self.targets, homs):
                problems += _quotient_check(i, name, g, BRAID_KNOT_QUOTIENTS[knot][name],
                                            p, found)
            return problems

        yield Job("braid", run, check)


def _abelian_check(i, p, a, sf, meridian, bare):
    problems = []
    if _matmul(_matmul(sf.u.entries, sf.s.entries), sf.v.entries) != [
            list(r) for r in a.entries]:
        problems.append(f"braid {i}: a != u @ s @ v")
    # a knot's abelianization is Z
    if tuple(sf.diagonal) != (1, 1, 0):
        problems.append(f"braid {i}: invariant factors {sf.diagonal} != (1, 1, 0)")
    if not meridian.generated:
        problems.append(f"braid {i}: the meridian does not span the abelianization")
    if bare.generated or not any(bare.witness):
        problems.append(f"braid {i}: no witness without class words")
    else:
        for r in p.relators:
            vec = r.exponent_vector(p.generator_count)
            if sum(c * x for c, x in zip(vec, bare.witness)) % bare.witness_prime:
                problems.append(f"braid {i}: witness does not kill relator {r}")
    return problems


def _quotient_check(i, name, g, expected, p, homs):
    problems = []
    if len(homs) != expected:
        problems.append(f"braid {i} -> {name}: {len(homs)} surjections, expected {expected}")
    seen = []
    ident = tuple(range(g.degree))
    for hom in homs:
        images = [g.elements[x].images for x in hom.images]
        for r in p.relators:
            if inputs.word_perm(r.letters, images) != ident:
                problems.append(f"braid {i} -> {name}: relator {r} not killed")
        if inputs.closure_order(images, g.degree) != g.order:
            problems.append(f"braid {i} -> {name}: hom is not surjective")
        if any(_conjugate(g, images, other) for other in seen):
            problems.append(f"braid {i} -> {name}: conjugate homs both kept")
        seen.append(images)
    return problems


def _conjugate(g, xs, ys):
    """Is there an element c of g with c x c^-1 == y for every pair?"""
    for c in g.elements:
        c = c.images
        ci = inputs.inverse(c)
        if all(inputs.compose(inputs.compose(c, x), ci) == y for x, y in zip(xs, ys)):
            return True
    return False


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]) if b else 0)]
            for i in range(len(a))]


WORKLOADS = {w.name: w for w in (A5Density, TransferLong, SubgroupLattice, BraidQuotients)}
