"""Command-line entry point.

Output is strictly deterministic: identical inputs produce identical
bytes at any worker count.  Records are groups of key=value pairs in a
fixed key order; ``--format machine`` packs each record onto one line for
diffing, the default prints one pair per line.

Exit codes: 0 success or verdict "satisfied/true"; 2 verdict false with a
witness printed; 1 usage or validation errors.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog, config
from .errors import AlreadyChainLocalProduct, RingSieveError
from .ideals import all_ideals, ideal_generated
from .localstruct import classify
from .orders import nonmaximality_probe, parse_order_text, rogers_check_order
from .rings import Element, parse_ring_text
from .rogers import counterexample, rogers_check, theorem2_verify
from .sieve import Progression, rogers_min_density, union_density


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Element):
        return ",".join(map(str, v.coords))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, (list, tuple)):
        return ";".join(_fmt_value(x) for x in v)
    return str(v)


def _emit(records, fmt: str):
    """records: list of (record_name, [(key, value), ...])."""
    lines = []
    for name, pairs in records:
        rendered = [f"{k}={_fmt_value(v)}" for k, v in pairs]
        if fmt == "machine":
            lines.append(" ".join([f"record={name}"] + rendered))
        else:
            if len(records) > 1:
                lines.append(f"record={name}")
            lines.extend(rendered)
    sys.stdout.write("\n".join(lines) + "\n")


def _parse_vector(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty coordinate vector")
    return tuple(int(x) for x in parts)


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk.strip()]


def _load_source(source: str, kind: str, cfg: config.RunConfig):
    if source.startswith("catalog:"):
        try:
            got_kind, obj = catalog.resolve(source[len("catalog:"):], cfg.carrier_bound)
        except KeyError as exc:
            raise RingSieveError(f"unknown catalog entry: {exc.args[0]}") from exc
        if got_kind != kind:
            raise RingSieveError(f"{source} is a {got_kind}, expected {kind}")
        return obj
    text = Path(source).read_text(encoding="utf-8")
    if kind == "ring":
        return parse_ring_text(text, carrier_bound=cfg.carrier_bound)
    return parse_order_text(text)


def _ring_ideals(ring, ideal_args):
    ideals = []
    for arg in ideal_args:
        gens = [ring.element(v) for v in _parse_vectors(arg)]
        ideals.append(ideal_generated(ring, gens))
    return ideals


def _report_records(report, extra_pairs=()):
    pairs = list(extra_pairs)
    pairs += [
        ("baseline", report.baseline),
        ("minimum", report.minimum),
        ("satisfied", report.satisfied),
        ("shifts", list(report.witness_shifts)),
        ("tuples", report.tuples_examined),
    ]
    return [("report", pairs)]


def _witness_records(witness):
    pairs = []
    for i, ideal in enumerate(witness.ideals, start=1):
        pairs.append((f"ideal_{i}", list(ideal.generators)))
    pairs += [
        ("shifts", list(witness.shifts)),
        ("union_shifted", witness.union_shifted),
        ("union_baseline", witness.union_baseline),
    ]
    return [("witness", pairs)]


def dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = config.RunConfig(
            carrier_bound=args.carrier_bound,
            tuple_cap=args.tuple_cap,
            worker_count=args.workers,
            output_format=args.format,
        )
        return args.handler(args, cfg)
    except (RingSieveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_validate(args, cfg):
    ring = _load_source(args.ring, "ring", cfg)
    _emit(
        [("ring", [
            ("order", ring.order),
            ("invariant_factors", list(ring.invariant_factors)),
            ("unit", ring.unit),
            ("valid", True),
        ])],
        cfg.output_format,
    )
    return 0


def _cmd_ideals(args, cfg):
    ring = _load_source(args.ring, "ring", cfg)
    ideals = all_ideals(ring)
    records = [("summary", [("order", ring.order), ("count", len(ideals))])]
    for i, ideal in enumerate(ideals):
        records.append(
            (f"ideal_{i}", [("size", ideal.size), ("gens", list(ideal.generators))])
        )
    _emit(records, cfg.output_format)
    return 0


def _cmd_classify(args, cfg):
    ring = _load_source(args.ring, "ring", cfg)
    verdict = classify(ring)
    records = [("verdict", [
        ("chain_local_product", verdict.is_chain_local_product),
        ("factors", len(verdict.per_factor)),
        ("offending_factor",
         "none" if verdict.offending_factor is None else verdict.offending_factor),
    ])]
    for idx, is_loc, chain in verdict.per_factor:
        records.append((f"factor_{idx}", [
            ("order", verdict.decomposition.factor_ideals[idx].size),
            ("local", is_loc),
            ("chain", chain),
        ]))
    _emit(records, cfg.output_format)
    return 0 if verdict.is_chain_local_product else 2


def _cmd_rogers_check(args, cfg):
    ring = _load_source(args.ring, "ring", cfg)
    ideals = _ring_ideals(ring, args.ideal or [])
    if not ideals:
        raise RingSieveError("need at least one --ideal")
    shifts = None
    if args.shifts:
        shifts = [ring.element(v) for v in _parse_vectors(args.shifts)]
    report = rogers_check(ring, ideals, shifts=shifts, tuple_cap=cfg.tuple_cap)
    _emit(_report_records(report), cfg.output_format)
    return 0 if report.satisfied else 2


def _cmd_counterexample(args, cfg):
    ring = _load_source(args.ring, "ring", cfg)
    try:
        witness = counterexample(ring)
    except AlreadyChainLocalProduct:
        _emit([("verdict", [("chain_local_product", True), ("witness", "none")])],
              cfg.output_format)
        return 0
    _emit(_witness_records(witness), cfg.output_format)
    return 2


def _cmd_verify_theorem2(args, cfg):
    ring = _load_source(args.ring, "ring", cfg)
    ok = theorem2_verify(ring, r_max=args.rmax, tuple_cap=cfg.tuple_cap)
    _emit([("verdict", [("satisfied_all_triples", ok)])], cfg.output_format)
    return 0 if ok else 2


def _cmd_order_check(args, cfg):
    order = _load_source(args.order, "order", cfg)
    gen_lists = [_parse_vectors(arg) for arg in args.ideal or []]
    if not gen_lists:
        raise RingSieveError("need at least one --ideal")
    shifts = _parse_vectors(args.shifts) if args.shifts else None
    report = rogers_check_order(order, gen_lists, shifts=shifts, tuple_cap=cfg.tuple_cap,
                                carrier_bound=cfg.carrier_bound)
    ring = report.ideals[0].ring
    extra = [
        ("quotient_order", ring.order),
        ("quotient_invariants", list(ring.invariant_factors)),
    ]
    _emit(_report_records(report, extra), cfg.output_format)
    return 0 if report.satisfied else 2


def _cmd_probe(args, cfg):
    order = _load_source(args.order, "order", cfg)
    found = nonmaximality_probe(order, args.bound, tuple_cap=cfg.tuple_cap,
                                carrier_bound=cfg.carrier_bound)
    if found is None:
        _emit([("probe", [("bound", args.bound), ("witness", "none")])], cfg.output_format)
        return 0
    pairs = [("conductor", found.conductor), ("quotient_order", found.quotient.order)]
    for i, gens in enumerate(found.ideal_generators, start=1):
        pairs.append((f"ideal_{i}", [",".join(map(str, g)) for g in gens]))
    pairs += [
        ("shifts", [",".join(map(str, s)) for s in found.shifts]),
        ("union_shifted", found.report.minimum),
        ("union_baseline", found.report.baseline),
    ]
    _emit([("witness", pairs)], cfg.output_format)
    return 2


def _cmd_sieve(args, cfg):
    progressions = []
    for spec in args.prog or []:
        a, _, q = spec.partition(":")
        progressions.append(Progression(int(a), int(q)))
    if not progressions:
        raise RingSieveError("need at least one --prog a:q")
    report = union_density(progressions)
    _emit([("density", [
        ("density", report.density),
        ("period", report.period),
        ("residues", report.residues),
    ])], cfg.output_format)
    return 0


def _cmd_sieve_min(args, cfg):
    moduli = [int(x) for x in args.moduli.split(",") if x.strip()]
    report = rogers_min_density(moduli, tuple_cap=cfg.tuple_cap)
    _emit([("density", [
        ("min", report.min_density),
        ("density", report.density),
        ("period", report.period),
        ("residues", report.residues),
        ("witness", list(report.witness_shifts)),
    ])], cfg.output_format)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so dispatch ends them in ``error: ...`` and exit 1."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringsieve",
        description="Shift-minimization checks for finite rings, orders and progressions",
    )
    parser.add_argument("--format", choices=["human", "machine"], default="human")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--carrier-bound", type=int, default=config.CARRIER_BOUND)
    parser.add_argument("--tuple-cap", type=int, default=config.TUPLE_CAP)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="validate a ring presentation")
    p.add_argument("ring")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("ideals", help="enumerate all ideals")
    p.add_argument("ring")
    p.set_defaults(handler=_cmd_ideals)

    p = sub.add_parser("classify", help="chain-local-product classification")
    p.add_argument("ring")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("rogers-check", help="shift minimization for given ideals")
    p.add_argument("ring")
    p.add_argument("--ideal", action="append", metavar="GENS")
    p.add_argument("--shifts", metavar="SHIFTS")
    p.set_defaults(handler=_cmd_rogers_check)

    p = sub.add_parser("counterexample", help="construct a violating witness")
    p.add_argument("ring")
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("verify-theorem2", help="scan all ideal triples")
    p.add_argument("ring")
    p.add_argument("--rmax", type=int, default=3)
    p.set_defaults(handler=_cmd_verify_theorem2)

    p = sub.add_parser("order-check", help="shift minimization for order ideals")
    p.add_argument("order")
    p.add_argument("--ideal", action="append", metavar="GENS")
    p.add_argument("--shifts", metavar="SHIFTS")
    p.set_defaults(handler=_cmd_order_check)

    p = sub.add_parser("probe", help="scan conductors for non-maximality evidence")
    p.add_argument("order")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("sieve", help="exact union density of progressions")
    p.add_argument("--prog", action="append", metavar="A:Q")
    p.set_defaults(handler=_cmd_sieve)

    p = sub.add_parser("sieve-min", help="exact minimal union density over shifts")
    p.add_argument("--moduli", required=True)
    p.set_defaults(handler=_cmd_sieve_min)

    return parser


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
