"""Command-line front end.

Exit codes: 0 = verified / pass, 1 = violation found, 2 = inconclusive
(fuel or window exhausted before a verdict), 3 = input error.  Every report
is deterministic, and a run exits with its combined status.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict

from . import families
from .conditions import ck_for_section, cuntz_krieger_condition, separating_condition
from .dynamics import check_reduction_necessary, check_reduction_sufficient, classes
from .gcmap import (  # PASS, VIOLATION and INCONCLUSIVE are also this CLI's exit codes
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    DomainError,
    GCMap,
    Inconclusive,
    combine,
    load_map,
    verdict,
)
from .operators import (
    BasisWindow,
    build_section_ops,
    descent_check,
    norm_bound_check,
    span_vs_class,
    verify_branch_relations,
    verify_section_relations,
)

SCHEMA_VERSION = 1

INPUT_ERROR = 3

DEFAULT_COUNT = 10_000  # --fuel and --window wherever they are read


def _resolve_map(ref: str, validate: bool = True) -> GCMap:
    """A preset, or a map file that must pass ``GCMap.validate`` when ``validate`` is set."""
    try:
        return families.preset_map(ref)
    except KeyError:
        pass
    except ValueError as exc:
        raise SystemExit(_fail_input(f"bad preset argument: {exc}"))
    try:
        gcmap = load_map(ref)
    except OSError as exc:  # no such file, a directory, or no permission to read it
        raise SystemExit(_fail_input(f"unknown preset and no readable map file {ref!r}: {exc.strerror}"))
    except (ValueError, KeyError) as exc:
        raise SystemExit(_fail_input(f"could not parse map file {ref!r}: {exc}"))
    failures = gcmap.validate().failures() if validate else []
    if failures:
        first = failures[0]
        raise SystemExit(_fail_input(f"map file {ref!r} fails {first.name}: {first.detail}"))
    return gcmap


def _section(gcmap: GCMap) -> families.Section | None:
    """The map's section by ``families.section_of``, or None for a map without one."""
    try:
        return families.section_of(gcmap)
    except KeyError:
        return None


def _fail_input(msg: str) -> int:
    _emit({"error": msg})
    return INPUT_ERROR


def _emit(payload: dict) -> None:
    print(json.dumps({"schemaVersion": SCHEMA_VERSION, **payload}))


def _emit_table(payload: dict, fmt: str, header: tuple[str, str], rows) -> None:
    """The JSON payload, or under ``--format csv`` the rows under a header line.

    Exact values print in full: Python's int-to-str digit limit (3.11 and
    later), which a divergent orbit passes within a few thousand steps, is
    lifted meanwhile and then restored.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        if fmt == "json":
            _emit(payload)
        else:
            w = csv.writer(sys.stdout)
            w.writerow(header)
            w.writerows(rows)
    finally:
        set_limit(limit)


# --- subcommands -----------------------------------------------------------


def cmd_orbit(args: argparse.Namespace) -> int:
    gcmap = _resolve_map(args.map)
    try:
        rec = gcmap.orbit(args.start, args.fuel)
    except DomainError as exc:
        return _fail_input(str(exc))
    exhausted = isinstance(rec.outcome, Inconclusive)
    payload = {
        "command": "orbit",
        "map": args.map,
        "start": rec.start,
        "prefix": list(rec.prefix),
        "outcome": "fuelExhausted"
        if exhausted
        else {"entryIndex": rec.outcome.entry_index, "cycle": list(rec.outcome.cycle)},
    }
    _emit_table(payload, args.format, ("index", "value"), enumerate(rec.prefix))
    return verdict(inconclusive=exhausted)


def cmd_classes(args: argparse.Namespace) -> int:
    gcmap = _resolve_map(args.map)
    rep = classes(gcmap, args.window, args.fuel)
    payload = {
        "command": "classes",
        "map": args.map,
        "window": args.window,
        "numClasses": rep.num_classes,
        "flagged": sorted(rep.flagged),
        "classes": {str(k): v for k, v in rep.classes().items()},
    }
    rows = enumerate(rep.minima.tolist(), 1)
    _emit_table(payload, args.format, ("n", "representative"), rows)
    return verdict(inconclusive=bool(rep.flagged))


def _suite_bounded(gcmap: GCMap, args) -> tuple[dict, int]:
    rep = gcmap.validate()
    return rep.to_dict(), rep.status


def _suite_separating(gcmap: GCMap, args) -> tuple[dict, int]:
    try:
        x = int(args.suite.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"bad separating point in {args.suite!r}") from None
    res = separating_condition(gcmap, x, args.fuel)
    if isinstance(res, Inconclusive):
        return {"x": x, "periodic": False, "fuel": args.fuel}, res.status
    payload = {
        "x": x,
        "periodic": True,
        "period": res.period,
        "word": list(res.word),
        "aperiodic": res.aperiodic,
    }
    return payload, res.status


def _suite_ck(gcmap: GCMap, args) -> tuple[dict, int]:
    section = _section(gcmap)
    if section is None:
        ok, detail = cuntz_krieger_condition(gcmap)
        found = {"matrix": detail.as_lists()} if ok else asdict(detail)  # branch, witness, reason
        return {"level": "partition", "passed": ok, **found}, verdict(violation=not ok)
    rep = ck_for_section(
        section.map,
        section.n1,
        section.n2,
        section.witnesses,
        args.window,
        args.fuel,
        removed=section.n2_removed,
    )
    return {"level": "section", **rep.to_dict()}, rep.status


def _suite_section(gcmap: GCMap, args) -> tuple[dict, int]:
    try:
        section = families.section_of(gcmap)
    except KeyError as exc:  # its message names the reason
        raise ValueError(f"no first-return section for {args.map!r}: {exc.args[0]}") from None
    suff = check_reduction_sufficient(gcmap, section.sigma, args.window, args.fuel)
    x0 = section.sigma.min_member()
    nec = check_reduction_necessary(gcmap, section.sigma, x0, args.fuel)
    payload = {"sufficient": suff.to_dict(), "necessaryAt": x0, "necessary": nec.to_dict()}
    return payload, combine([suff.status, nec.status])


def _suite_relations(gcmap: GCMap, args) -> tuple[dict, int]:
    window = BasisWindow.range(1, args.window)
    branch = verify_branch_relations(gcmap, window)
    payload = {"branch": branch.to_dict()}
    statuses = [branch.status]
    section = _section(gcmap)
    if section is not None:
        win = BasisWindow.section(section.sigma, args.window)
        ops = build_section_ops(
            section.map, section.n1, section.n2, win, args.fuel, n2_removed=section.n2_removed
        )
        rep = verify_section_relations(ops)
        payload["section"] = rep.to_dict()
        payload["inconclusiveColumns"] = sorted(ops.inconclusive_columns)
        statuses += [rep.status, verdict(inconclusive=bool(ops.inconclusive_columns))]
    norm = norm_bound_check(gcmap, window, trials=200)
    payload["normBound"] = {
        "trials": norm.trials,
        "k": norm.k,
        "maxRatio": str(norm.max_ratio),
        "violations": norm.violations,
    }
    return payload, combine(statuses + [norm.status])


def _suite_span(gcmap: GCMap, args) -> tuple[dict, int]:
    window = BasisWindow.range(1, args.window)
    starts = range(1, min(1000, args.window) + 1)
    rep = span_vs_class(gcmap, window, args.fuel, depth=args.depth, starts=starts)
    status = rep.status
    payload = {
        "starts": len(rep.start),
        "ok": status == PASS,
        "failures": rep.start[rep.statuses == VIOLATION][:20].tolist(),
        "boundaryAffected": int((rep.boundary_members > 0).sum()),
    }
    if args.depth is not None:
        payload["depthCapped"] = int(rep.depth_capped.sum())
    return payload, status


def _suite_descent(gcmap: GCMap, args) -> tuple[dict, int]:
    if gcmap != families.collatz():
        raise ValueError("descent suite is specific to the collatz preset")
    rep = descent_check(args.window)
    payload = {
        "limit": rep.limit,
        "checked": rep.checked,
        "counterexamples": list(rep.counterexamples),
        "fixedVector": rep.fixed_vector_ok,
    }
    return payload, rep.status


def _suite_modular(gcmap: GCMap, args) -> tuple[dict, int]:
    kind, _, arg = args.map.partition(":")
    if kind == "mersenne" and arg:
        rep = families.verify_mersenne_identities(int(arg))
    elif args.map == "qx1:5":
        rep = families.verify_q5_group()
    else:
        raise ValueError("modular suite needs mersenne:<k> or qx1:5")
    return rep.to_dict(), rep.status


# Each suite returns its JSON payload and the combined status of its reports;
# a ValueError it raises is an input error.  Next to it, the options it reads:
# any other option given to it is an input error.  ck and relations read these
# on any map with a section (``families.section_of``), map files included; on
# other maps ck reads neither and relations only --window, which is not checked.
SUITES = {
    "bounded": (_suite_bounded, ()),
    "separating": (_suite_separating, ("fuel",)),  # spelled separating:<x>
    "ck": (_suite_ck, ("fuel", "window")),
    "section": (_suite_section, ("fuel", "window")),
    "relations": (_suite_relations, ("fuel", "window")),
    "span": (_suite_span, ("depth", "fuel", "window")),
    "descent": (_suite_descent, ("window",)),
    "modular": (_suite_modular, ()),
}


def cmd_verify(args: argparse.Namespace) -> int:
    # the bounded suite exists to list a map file's validation failures
    gcmap = _resolve_map(args.map, validate=args.suite != "bounded")
    name = "separating" if args.suite.startswith("separating:") else args.suite
    if name not in SUITES:
        return _fail_input(f"unknown suite {args.suite!r}")
    suite, reads = SUITES[name]
    for option in ("depth", "fuel", "window"):
        if getattr(args, option) is not None and option not in reads:
            readers = ", ".join(s for s, (_, r) in SUITES.items() if option in r)
            return _fail_input(f"--{option} applies only to --suite {readers}")
    args.fuel = DEFAULT_COUNT if args.fuel is None else args.fuel
    args.window = DEFAULT_COUNT if args.window is None else args.window
    payload, status = suite(gcmap, args)
    body = {"command": "verify", "map": args.map, "suite": args.suite, "exitCode": status}
    _emit({**body, **payload})
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="collatzlab",
        description="orbit, class, and operator-relation verification for Collatz-type maps",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand declares only the options it reads
    count = {"type": int, "default": DEFAULT_COUNT}  # --fuel and --window
    fmt = {"choices": ("json", "csv"), "default": "json"}

    sp = sub.add_parser("orbit", help="print the orbit of a start value")
    sp.add_argument("map", help="preset (collatz, qx1:<q>, 3xd:<d>, mersenne:<k>, identity) or a map file")
    sp.add_argument("start", type=int)
    sp.add_argument("--fuel", **count)
    sp.add_argument("--format", **fmt)
    sp.set_defaults(func=cmd_orbit)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("map")
    sp.add_argument(
        "--suite",
        required=True,
        help="bounded | separating:<x> | ck | section | relations | span | descent | modular",
    )
    # unset means not given: each suite rejects what it does not read (default DEFAULT_COUNT)
    sp.add_argument("--depth", type=int, default=None, help="span only: cap on word length")
    sp.add_argument("--fuel", type=int, default=None)
    sp.add_argument("--window", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("classes", help="partition a window into orbit-equivalence classes")
    sp.add_argument("map")
    sp.add_argument("--fuel", **count)
    sp.add_argument("--window", **count)
    sp.add_argument("--format", **fmt)
    sp.set_defaults(func=cmd_classes)

    return p


# ``main`` parses with one tree, built on its first call and kept for the life
# of the process; ``build_parser`` still hands each caller a tree of its own.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; report 3 per our contract
        code = exc.code if isinstance(exc.code, int) else INPUT_ERROR
        return PASS if code == 0 else INPUT_ERROR
    given = (args.fuel, getattr(args, "window", None))  # orbit takes no window
    if any(v is not None and v < 1 for v in given):
        return _fail_input("fuel and window must be positive")
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else INPUT_ERROR
    except (DomainError, ValueError) as exc:
        return _fail_input(str(exc))
    except (OverflowError, MemoryError) as exc:  # a size too large to hold is bad input, not a violation
        given = {o: getattr(args, o, None) for o in ("window", "fuel", "depth")}
        sizes = " ".join(f"--{o} {v}" for o, v in given.items() if v is not None)
        room = "memory" if isinstance(exc, MemoryError) else "int64"
        return _fail_input(f"a request of {sizes} does not fit in {room}: {exc or type(exc).__name__}")


if __name__ == "__main__":
    sys.exit(main())
