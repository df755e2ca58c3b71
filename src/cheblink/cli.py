"""Command-line front end.

Exit codes: 0 on success, 1 when a verification or tolerance check fails
(the computation itself succeeded and said "no"), 2 on bad input.  Numeric
output renders exact fractions to 6 decimal places by integer arithmetic;
deviations are recomputed from the *rendered* densities so that parsing a
row and redoing the subtraction reproduces the printed digits exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .covers import ARTIN_WORK_BUDGET, build_cover, decompose_loop, verify_artin
from .freewords import (abelianized_matrix, braid_presentation, cyclic_reduce, evaluate,
                        format_letters, load_hom_file, parse_braid, parse_word)
from .permgroup import (FiniteGroup, Subgroup, all_subgroups, conjugacy_classes,
                        cycle_type, load_group_file, parse_digits, Permutation, shorten)
from .quotients import (generic_check, load_matrix_file, quotient_search,
                        smith_normal_form)
from .sft import (DensityReport, bundled_a5, chebotarev_report,
                  enumerate_orbits, load_sft_file, realization_check)


class CheckFailed(Exception):
    """A verification or tolerance check came back negative (exit code 1)."""


PLACES = 6  # decimal places of every printed density and deviation


def _scaled(n: int, d: int) -> int:
    """|n|/d times 10^PLACES, rounded half up; d > 0."""
    return (2 * abs(n) * 10 ** PLACES + d) // (2 * d)


def _digits(scaled: int) -> str:
    digits = str(scaled).rjust(PLACES + 1, "0")
    return f"{digits[:-PLACES]}.{digits[-PLACES:]}"


def decimal_str(x: Fraction) -> str:
    """Render an exact fraction to PLACES decimal places, round half up."""
    scaled = _scaled(x.numerator, x.denominator)
    return ("-" if x.numerator < 0 and scaled else "") + _digits(scaled)


def rendered(count: int, total: int, size: int, order: int) -> tuple[str, int, str]:
    """The density count/total as printed, its deviation from the target
    size/order (|printed - target|, times 10^PLACES and rounded) and the
    target as a reduced fraction, all by integer arithmetic.

    ``total`` 0 reads as density 0.  The printed density is scaled/10^PLACES,
    so the deviation is |scaled·order - size·10^PLACES| over
    10^PLACES·order, which needs no gcd; only the target is reduced.
    """
    scaled = _scaled(count, total or 1)
    dev = _scaled(scaled * order - size * 10 ** PLACES, 10 ** PLACES * order)
    k = math.gcd(size, order)
    target = str(size // k) if k == order else f"{size // k}/{order // k}"
    return _digits(scaled), dev, target


def render_row(cutoff: int, key: str, count: int, total: int, size: int, order: int) -> str:
    """One machine-readable line: cutoff, key, count, density, target, deviation.

    Tab-separated; the deviation is |rendered density - target| so the line
    round-trips: parse the fields, redo the arithmetic, get the same digits.
    """
    dens, dev, target = rendered(count, total, size, order)
    return f"{cutoff}\t{key}\t{count}\t{dens}\t{target}\t{_digits(dev)}"


@contextlib.contextmanager
def _any_digits():
    """Let the block print ints past CPython's 4300-digit limit, and put the limit back."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _print_rows(report: DensityReport, *, types: bool) -> None:
    """Every cutoff's rows of the report, one ``render_row`` line each."""
    order, write = report.group_order, sys.stdout.write
    for cutoff in range(1, report.max_len + 1):
        keys, counts, sizes, total = report.tally(cutoff, types=types)
        write("".join(render_row(cutoff, key, c, total, size, order) + "\n"
                      for key, c, size in zip(keys, counts, sizes)))


def parse_subgroup(group: FiniteGroup, spec: str) -> Subgroup:
    """Subgroup spec: 'stab:<point>' (1-based), 'trivial', 'whole', or
    semicolon-separated generator permutations in cycle notation."""
    spec = spec.strip()
    if spec == "trivial":
        return Subgroup.trivial(group)
    if spec == "whole":
        return Subgroup.whole(group)
    if spec.startswith("stab:"):
        point = parse_digits(spec[5:].strip())
        if point is None:
            raise ValueError(f"subgroup spec {shorten(spec)!r}: the point must be an "
                             f"integer in 1..{group.degree}")
        if not 1 <= point <= group.degree:
            raise ValueError(f"subgroup spec {shorten(spec)!r}: point "
                             f"{shorten(str(point))} outside 1..{group.degree}")
        return Subgroup.point_stabilizer(group, point - 1)
    gens = []
    for part in spec.split(";"):
        p = Permutation.parse(part, group.degree)
        if p not in group.index:
            raise ValueError(f"{shorten(part.strip())!r} is not an element of the group")
        gens.append(group.index[p])
    return Subgroup.generated(group, gens)


def run_a5_experiment(*, sft_path: Optional[str] = None, hom_path: Optional[str] = None,
                      subgroup: str = "stab:5", max_len: int = 11, skip: int = 0,
                      bound: int = 6) -> tuple[DensityReport, Subgroup]:
    """The Chebotarev report of the flagship experiment, and its subgroup.

    Loads the shift and its labeling hom (the bundled 3-symbol full shift
    and its labels by default), insists the target is the alternating group
    on 5 points, gates on the realization check with length bound ``bound``,
    then reads each Frobenius class's decomposition type on the cosets of
    ``subgroup`` from its permutation character.
    """
    hom = load_hom_file(hom_path) if hom_path else None
    if sft_path is None:
        s = bundled_a5(hom)[0]
    else:
        s = load_sft_file(sft_path, hom or bundled_a5()[1])
    g = s.hom.target
    if g.degree != 5 or g.order != 60:
        raise CheckFailed(
            f"hom target has degree {g.degree} and order {g.order}; "
            "the experiment needs the alternating group on 5 points")
    h = parse_subgroup(g, subgroup)
    real = realization_check(s, bound)
    if not real.passed:
        missing = ", ".join(str(i) for i in real.missing_classes) or "none"
        raise CheckFailed(
            "realization check failed: "
            f"strongly_connected={real.strongly_connected}, period={real.period}, "
            f"holonomy order {real.holonomy_order} of {g.order}, "
            f"classes without an orbit of length <= {real.bound}: [{missing}]")
    return chebotarev_report(s, max_len, skip=skip, subgroup=h), h


def _cmd_a5(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ValueError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    tolerance = Fraction(args.tolerance).limit_denominator(10 ** 9)
    report, h = run_a5_experiment(sft_path=args.sft, hom_path=args.hom, subgroup=args.subgroup,
                                  max_len=args.max_len, skip=args.skip, bound=args.bound)
    within = max(r.deviation for r in report.rows_at(args.max_len, types=True)) <= tolerance
    # the type rows at the cutoff, rendered once: the table, the verdict
    # line and the FAIL line all quote these digits
    keys, counts, sizes, total = report.tally(args.max_len, types=True)
    table = [(key, size, c, *rendered(c, total, size, report.group_order))
             for key, c, size in zip(keys, counts, sizes)]
    shown = _digits(max(dev for *_, dev, _ in table))
    with _any_digits():
        if args.format == "rows":
            _print_rows(report, types=True)
        else:
            print(f"orbits counted: {report.total_counted} "
                  f"(length <= {report.max_len}, skip {report.skip}); "
                  f"subgroup of order {len(h)}, index {h.index}")
            print(f"{'type':<14} {'elements':>8} {'orbits':>8} {'density':>10} "
                  f"{'target':>8} {'deviation':>10}")
            for key, size, c, dens, dev, target in table:
                print(f"{key.removeprefix('type:'):<14} {size:>8} {c:>8} {dens:>10} "
                      f"{target:>8} {_digits(dev):>10}")
            verdict = "within" if within else "OVER"
            print(f"max deviation {shown} — {verdict} tolerance {decimal_str(tolerance)}")
    if not within:
        raise CheckFailed(f"max deviation {shown} exceeds tolerance {decimal_str(tolerance)}")
    return 0


def _cmd_group_classes(args) -> int:
    g = load_group_file(args.group)
    classes = conjugacy_classes(g)
    print(f"group of order {g.order} on {g.degree} points; {len(classes)} classes")
    for i, c in enumerate(classes):
        rep = g.elements[c.representative]
        t = "(" + ",".join(map(str, cycle_type(rep))) + ")"
        print(f"class {i}: size {len(c.members):>4}  type {t:<12} rep {rep.cycle_string()}")
    return 0


def _cmd_braid_presentation(args) -> int:
    b = parse_braid(args.braid)
    p = braid_presentation(b)
    print(f"closure of braid on {b.strands} strands: "
          f"{p.generator_count} generators, {len(p.relators)} relators")
    for i, r in enumerate(p.relators):
        print(f"r{i + 1} = {r}")
    sf = smith_normal_form(abelianized_matrix(p))
    print(f"abelianization invariant factors: {list(sf.diagonal)}")
    return 0


def _cmd_cover_decompose(args) -> int:
    hom = load_hom_file(args.hom)
    h = parse_subgroup(hom.target, args.subgroup)
    cover = build_cover(hom, h)
    w = cyclic_reduce(parse_word(args.word))
    if not w.letters:
        raise ValueError(f"word {shorten(args.word)!r} is trivial after cyclic reduction")
    lift = decompose_loop(cover, w)
    z = evaluate(hom, w)
    print(f"cover on {h.index} vertices (subgroup order {len(h)})")
    print(f"loop {format_letters(w.letters)} maps to {hom.target.elements[z].cycle_string()}")
    print(f"decomposition type: {lift.decomposition_type}")
    for i, comp in enumerate(lift.components):
        print(f"component {i}: degree {comp.degree}, vertices {sorted(comp.vertices)}")
    return 0


def _cmd_cover_verify_artin(args) -> int:
    if bool(args.subgroup) == args.all_subgroups:
        raise ValueError("give exactly one of --subgroup SPEC and --all-subgroups")
    g = load_group_file(args.group)
    subs = all_subgroups(g) if args.all_subgroups else [parse_subgroup(g, args.subgroup)]
    work = g.order * sum(h.index for h in subs)
    if work > ARTIN_WORK_BUDGET:
        raise ValueError(f"tracing {len(subs)} subgroup(s) of a group of order {g.order} "
                         f"costs {work} (|G| [G:H] summed), over the budget of {ARTIN_WORK_BUDGET}")
    total, failures = len(subs), 0
    while subs:
        h = subs.pop(0)  # let go once checked, with the coset trace it keeps
        rep = verify_artin(g, h)
        status = "ok" if rep.passed else f"{len(rep.mismatches)} MISMATCHES"
        print(f"subgroup order {len(h):>4} index {h.index:>4}: "
              f"checked {rep.checked} elements, {status}")
        failures += len(rep.mismatches)
    if failures:
        raise CheckFailed(f"{failures} decomposition/cycle-type mismatches")
    print(f"all {total} subgroup(s) verified")
    return 0


def _cmd_sft_orbits(args) -> int:
    if args.limit < 0:
        raise ValueError(f"--limit must be nonnegative, got {shorten(str(args.limit))}")
    hom = load_hom_file(args.hom)
    s = load_sft_file(args.sft, hom)
    g = hom.target
    shown = 0
    for orbit in enumerate_orbits(s, args.max_len):
        cyc = g.elements[orbit.holonomy].cycle_string()
        edges = " ".join(map(str, orbit.edges))
        print(f"len {orbit.length:>3}  edges [{edges}]  holonomy {cyc}  "
              f"class {orbit.frobenius_class}")
        shown += 1
        if args.limit and shown >= args.limit:
            print(f"... stopped at --limit {args.limit}")
            break
    return 0


def _cmd_sft_chebotarev(args) -> int:
    hom = load_hom_file(args.hom)
    s = load_sft_file(args.sft, hom)
    report = chebotarev_report(s, args.max_len, skip=args.skip)
    with _any_digits():
        if args.format == "rows":
            _print_rows(report, types=False)
            _print_rows(report, types=True)
            return 0
        print(f"group order {report.group_order}; orbits counted: {report.total_counted} "
              f"(length <= {report.max_len}, skip {report.skip})")
        print(f"{'key':<28} {'count':>8} {'density':>10} {'target':>8} {'deviation':>10}")
        for types in (False, True):
            keys, counts, sizes, total = report.tally(report.max_len, types=types)
            for key, c, size in zip(keys, counts, sizes):
                dens, dev, target = rendered(c, total, size, report.group_order)
                print(f"{key:<28} {c:>8} {dens:>10} {target:>8} {_digits(dev):>10}")
    return 0


def _cmd_sft_realization(args) -> int:
    hom = load_hom_file(args.hom)
    s = load_sft_file(args.sft, hom)
    rep = realization_check(s, args.bound)
    g = hom.target
    print(f"strongly connected: {rep.strongly_connected}")
    print(f"period: {rep.period} (aperiodic: {rep.aperiodic})")
    print(f"holonomy subgroup order {rep.holonomy_order} of {g.order} "
          f"(generates: {rep.holonomy_generates})")
    classes = conjugacy_classes(g)
    for i, w in enumerate(rep.class_witnesses):
        rep_str = g.elements[classes[i].representative].cycle_string()
        if w is None:
            print(f"class {i} ({rep_str}): NO orbit of length <= {rep.bound}")
        else:
            print(f"class {i} ({rep_str}): orbit of length {w.length}, "
                  f"edges {list(w.edges)}")
    if not rep.passed:
        raise CheckFailed("realization check failed")
    print("realization check passed")
    return 0


def _cmd_quotient_search(args) -> int:
    p = braid_presentation(parse_braid(args.braid))
    target = load_group_file(args.target)
    homs = quotient_search(p, target, surjective_only=args.surjective_only,
                           dedup_conjugacy=args.dedup_conjugacy, budget=args.budget)
    kind = "surjection(s)" if args.surjective_only else "homomorphism(s)"
    suffix = " up to conjugacy" if args.dedup_conjugacy else ""
    print(f"{len(homs)} {kind}{suffix} onto group of order {target.order}")
    for hom in homs:
        imgs = ", ".join(target.elements[i].cycle_string() for i in hom.images)
        print(f"  [{imgs}]")
    return 0


def _cmd_snf(args) -> int:
    with _any_digits():
        a = load_matrix_file(args.matrix)
        sf = smith_normal_form(a)
        print(f"matrix {a.rows}x{a.cols}; invariant factors {list(sf.diagonal)}")
        for name, m in (("u", sf.u), ("s", sf.s), ("v", sf.v)):
            print(f"{name}:")
            for row in m.entries:
                print("  " + " ".join(f"{x:>4}" for x in row))
    ok = (sf.u @ sf.s @ sf.v) == a
    print(f"u @ s @ v == input: {ok}")
    if not ok:
        raise CheckFailed("transform reconstruction failed")
    return 0


def _cmd_generic_check(args) -> int:
    p = braid_presentation(parse_braid(args.braid))
    classes = []
    if args.classes:
        classes = [parse_word(part) for part in args.classes.split(";") if part.strip()]
    res = generic_check(p, classes)
    print(f"generators {p.generator_count}, relators {len(p.relators)}, "
          f"class words {len(classes)}")
    print(f"invariant factors per generator: {list(res.factors)}")
    if res.generated:
        print("GENERATED: the classes plus relators span the abelianization")
    else:
        coeffs = ", ".join(f"x{k + 1} -> {c}" for k, c in enumerate(res.witness))
        print(f"NOT GENERATED: witness surjection onto Z/{res.witness_prime} "
              f"with {coeffs}")
    return 0


def _integer(text: str) -> int:
    """The type of every integer option: an optional '-' and ASCII digits,
    read by ``parse_digits``; a bad value is quoted through ``shorten``."""
    n = parse_digits(text.removeprefix("-"))
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {shorten(text)!r}")
    return -n if text.startswith("-") else n


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line on stderr, exit 2, like any other
    input error; ``-h`` still prints the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # one tree per process, built at the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cheblink",
        description="decomposition types in finite covers and orbit density "
                    "statistics for labeled shifts of finite type")
    sub = ap.add_subparsers(dest="command", required=True)

    a5 = sub.add_parser("a5", help="the flagship density table over the 5-point "
                                   "alternating group")
    a5.add_argument("--sft", help="shift file (default: bundled 3-symbol full shift)")
    a5.add_argument("--hom", help="hom file (default: bundled labels into the "
                                  "5-point alternating group)")
    a5.add_argument("--subgroup", default="stab:5",
                    help="subgroup spec (default stab:5, the point stabilizer)")
    a5.add_argument("--max-len", type=_integer, default=11)
    a5.add_argument("--skip", type=_integer, default=0,
                    help="drop this many of the shortest orbits first")
    a5.add_argument("--tolerance", type=float, default=0.02)
    a5.add_argument("--bound", type=_integer, default=6,
                    help="realization-check length bound")
    a5.add_argument("--format", choices=("text", "rows"), default="text")
    a5.set_defaults(func=_cmd_a5)

    group = sub.add_parser("group", help="finite group utilities")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    gc = gsub.add_parser("classes", help="list conjugacy classes")
    gc.add_argument("group", help="group file (json)")
    gc.set_defaults(func=_cmd_group_classes)

    braid = sub.add_parser("braid", help="braid closures")
    bsub = braid.add_subparsers(dest="subcommand", required=True)
    bp = bsub.add_parser("presentation", help="presentation of the braid closure")
    bp.add_argument("braid", help="e.g. '2:s1 s1 s1'")
    bp.set_defaults(func=_cmd_braid_presentation)

    cover = sub.add_parser("cover", help="covering-graph computations")
    csub = cover.add_subparsers(dest="subcommand", required=True)
    cd = csub.add_parser("decompose", help="decomposition type of a loop")
    cd.add_argument("--hom", required=True)
    cd.add_argument("--subgroup", required=True)
    cd.add_argument("--word", required=True)
    cd.set_defaults(func=_cmd_cover_decompose)
    cv = csub.add_parser("verify-artin", help="trace every element and compare "
                                              "against the coset action")
    cv.add_argument("--group", required=True)
    cv.add_argument("--subgroup")
    cv.add_argument("--all-subgroups", action="store_true")
    cv.set_defaults(func=_cmd_cover_verify_artin)

    sft = sub.add_parser("sft", help="labeled shift of finite type computations")
    ssub = sft.add_subparsers(dest="subcommand", required=True)
    so = ssub.add_parser("orbits", help="stream primitive orbits")
    so.add_argument("--sft", required=True)
    so.add_argument("--hom", required=True)
    so.add_argument("--max-len", type=_integer, required=True)
    so.add_argument("--limit", type=_integer, default=0)
    so.set_defaults(func=_cmd_sft_orbits)
    sc = ssub.add_parser("chebotarev", help="empirical class/type densities")
    sc.add_argument("--sft", required=True)
    sc.add_argument("--hom", required=True)
    sc.add_argument("--max-len", type=_integer, required=True)
    sc.add_argument("--skip", type=_integer, default=0)
    sc.add_argument("--format", choices=("text", "rows"), default="text")
    sc.set_defaults(func=_cmd_sft_chebotarev)
    sr = ssub.add_parser("realization", help="lift on states x G strongly connected "
                                             "with period 1 (the period shown is the "
                                             "lift's), and class witnesses")
    sr.add_argument("--sft", required=True)
    sr.add_argument("--hom", required=True)
    sr.add_argument("--bound", type=_integer, default=6)
    sr.set_defaults(func=_cmd_sft_realization)

    quo = sub.add_parser("quotient", help="finite quotients of braid closures")
    qsub = quo.add_subparsers(dest="subcommand", required=True)
    qs = qsub.add_parser("search", help="all homs (or surjections) to a target")
    qs.add_argument("--braid", required=True)
    qs.add_argument("--target", required=True, help="group file (json)")
    qs.add_argument("--surjective-only", action="store_true")
    qs.add_argument("--dedup-conjugacy", action="store_true")
    qs.add_argument("--budget", type=_integer, default=10 ** 8)
    qs.set_defaults(func=_cmd_quotient_search)

    snf = sub.add_parser("snf", help="Smith normal form with transforms")
    snf.add_argument("matrix", help="text file, one row per line")
    snf.set_defaults(func=_cmd_snf)

    gen = sub.add_parser("generic", help="abelianization generation checks")
    gensub = gen.add_subparsers(dest="subcommand", required=True)
    gch = gensub.add_parser("check", help="do relators + class words span the "
                                          "abelianization?")
    gch.add_argument("--braid", required=True)
    gch.add_argument("--classes", default="",
                     help="semicolon-separated words, e.g. 'x1;x2 x1^-1'")
    gch.set_defaults(func=_cmd_generic_check)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the output is UTF-8 in any locale (the verdict line has an em dash); a
    # stream that cannot be reconfigured, such as a StringIO, is left alone
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(encoding="utf-8")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except CheckFailed as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader stopped early (`| head`): not an error; point stdout at
        # devnull so the interpreter's last flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
