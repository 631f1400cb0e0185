"""Batch command line front end.

    gbengine run [flags] INPUT     compute a basis (INPUT: file path or a
                                   builtin name like katsura10 / cyclic5 /
                                   hcyclic6)
    gbengine gen NAME              print a builtin ideal in the file format

Results are printed deterministically: the reduced Groebner basis (one
canonical polynomial per line, ascending lead term), for sb the minimal
syzygy signatures as "mono*e_i" lines, and with --stats the counter block
in the standard row order.  Wall time goes to stderr so result bytes stay
identical across data-structure configurations.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .buchberger import ClassicConfig, buchberger_run
from .generators import DEFAULT_CHAR, builtin_ideal
from .idealfile import mono_str, parse_ideal, poly_str, print_ideal
from .lookup import DEFAULT_LOOKUP, LOOKUP_KINDS
from .ring import clip, is_decimal
from .sigbasis import (BASE_DIVISORS, MODULE_ORDERS, TIEBREAKS, SBConfig,
                       sb_run)
from .spairqueue import DEFAULT_SPAIR_QUEUE, SPAIR_QUEUE_KINDS
from .termqueue import BACKENDS, QueueConfig


def _build_parser():
    ap = argparse.ArgumentParser(prog="gbengine")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute a Groebner basis")
    run.add_argument("input", help="ideal file path or builtin name")
    run.add_argument("--algorithm", choices=("sb", "classic"), default="sb")
    run.add_argument("--reducer", choices=BACKENDS,
                     default=QueueConfig.backend)
    run.add_argument("--hashed", action="store_true")
    run.add_argument("--dedup", action="store_true")
    run.add_argument("--compressed", action="store_true",
                     help="queue each product as one cursor (not hashed)")
    run.add_argument("--plain", action="store_true",
                     help="turn off the default hashed reducer table")
    run.add_argument("--lookup", choices=LOOKUP_KINDS,
                     default=DEFAULT_LOOKUP)
    run.add_argument("--spair-queue", choices=SPAIR_QUEUE_KINDS,
                     default=DEFAULT_SPAIR_QUEUE)
    run.add_argument("--module-order", choices=MODULE_ORDERS)
    run.add_argument("--schreyer-tiebreak", choices=TIEBREAKS)
    run.add_argument("--base-divisors", metavar="N",
                     help="0, 1 (high only) or 2")
    run.add_argument("--early-singular", action="store_true", default=None)
    run.add_argument("--no-interreduce", action="store_true",
                     help="skip input interreduction")
    run.add_argument("--char", help="characteristic for builtin ideals "
                     "(default %d)" % DEFAULT_CHAR)
    run.add_argument("--stats", action="store_true")
    run.add_argument("--out", metavar="FILE")

    gen = sub.add_parser("gen", help="print a builtin ideal")
    gen.add_argument("name", help="katsuraN, cyclicN or hcyclicN")
    gen.add_argument("--char", default=str(DEFAULT_CHAR))
    return ap


# the flags of the signature engine only, with their defaults there
_SB_FLAGS = (("module_order", SBConfig.module_order),
             ("schreyer_tiebreak", SBConfig.tiebreak),
             ("base_divisors", str(SBConfig.base_divisors)),
             ("early_singular", SBConfig.early_singular))


def _char(text):
    if is_decimal(text) and len(text) <= 10:    # every p < 2**31 fits
        return int(text)
    raise ValueError("bad --char value %r" % clip(text))


def _load_input(args):
    if os.path.exists(args.input):
        if args.char is not None:
            raise ValueError("--char applies to builtin ideals only")
        with open(args.input) as fh:
            return parse_ideal(fh.read())
    return builtin_ideal(args.input, DEFAULT_CHAR if args.char is None
                         else _char(args.char))


def _queue_config(args):
    """The reducer queue of the four flavour flags, QueueConfig's default
    flavour if none is given; --plain turns hashing off, and so does
    --dedup or --compressed."""
    if args.hashed and args.plain:
        raise ValueError("--hashed excludes --plain")
    if args.hashed and args.dedup:
        # hashing already merges all like terms
        raise ValueError("hashed excludes dedup")
    if args.compressed and (args.hashed or args.dedup):
        # a compressed product is one cursor: no like terms to merge
        raise ValueError("compressed excludes %s"
                         % ("hashed" if args.hashed else "dedup"))
    flavour = ("compressed" if args.compressed else "dedup" if args.dedup
               else "plain" if args.plain else "hashed" if args.hashed
               else QueueConfig.flavour)
    return QueueConfig(args.reducer, flavour)


def _divmask_rows(stats_obj):
    hits, misses, divs = (stats_obj.hits, stats_obj.misses,
                          stats_obj.divisibilities)
    return [
        ("# divmask hits", hits),
        ("# divmask misses", misses),
        ("# divisibilities", divs),
        ("hit rate", "%.1f%%" % (100.0 * stats_obj.hit_rate())),
        ("effective hit rate", "%.1f%%" % (100.0 *
                                           stats_obj.effective_hit_rate())),
    ]


def _format_rows(rows):
    return "".join("%s: %s\n" % (name, value) for name, value in rows)


def _cmd_run(args) -> int:
    for name, default in _SB_FLAGS:
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.algorithm == "classic":
            raise ValueError("--%s applies to --algorithm sb only"
                             % name.replace("_", "-"))
    ring, polys = _load_input(args)
    if not polys:
        raise ValueError("input has no polynomials")
    qcfg = _queue_config(args)
    if args.base_divisors not in map(str, BASE_DIVISORS):
        raise ValueError("--base-divisors takes 0, 1 or 2")
    t0 = time.monotonic()
    lines, texts = [], {}       # texts: poly_str's memo for this output
    if args.algorithm == "classic":
        cfg = ClassicConfig(queue=qcfg, lookup=args.lookup,
                            spair_queue=args.spair_queue,
                            interreduce=not args.no_interreduce)
        basis, stats = buchberger_run(ring, polys, cfg)
        lines += [poly_str(ring, g, texts) for g in basis]
        stat_rows = ([("algorithm", "classic"),
                      ("#basis", stats.basis_size),
                      ("#monomials", stats.monomials)] + stats.rows()
                     + _divmask_rows(stats.divmask))
    else:
        cfg = SBConfig(module_order=args.module_order,
                       tiebreak=args.schreyer_tiebreak, queue=qcfg,
                       lookup=args.lookup, spair_queue=args.spair_queue,
                       base_divisors=int(args.base_divisors),
                       early_singular=args.early_singular,
                       interreduce=not args.no_interreduce)
        res = sb_run(ring, polys, cfg)
        basis = res.groebner_basis()
        lines += [poly_str(ring, g, texts) for g in basis]
        lines += ["%s*e_%d" % (mono_str(ring, m), c + 1)
                  for m, c in res.syzygies]
        stat_rows = ([("algorithm", "sb"),
                      ("#SB", res.stats.sb_size),
                      ("#monomials", res.stats.monomials),
                      ("#basis", len(basis))] + res.stats.rows()
                     + _divmask_rows(res.stats.divmask))
    elapsed = time.monotonic() - t0
    out = "\n".join(lines) + "\n"
    if args.stats:
        out += _format_rows(stat_rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    if args.stats:
        print("wall time: %.3fs" % elapsed, file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    ring, polys = builtin_ideal(args.name, _char(args.char))
    sys.stdout.write(print_ideal(ring, polys))
    return 0


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_gen(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
