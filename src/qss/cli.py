"""Command-line interface.

Every subcommand prints one JSON report object to stdout (except `bounds`
and `fixture`, which emit their raw CSV / graph-text artifacts) and sends
diagnostics to stderr. Reports with the same inputs and seed are
byte-identical apart from the wall_time field.

Exit codes: 0 success, 1 argument/parse error, 2 precondition violation,
3 budget exceeded, 4 oracle-verify found a graph/oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from itertools import combinations

import numpy as np

from . import bounds as bounds_mod
from .access import classify
from .multigraph import DealerGraph, Multigraph, parse_graph, rs747_fixture, serialize_graph
from .oracle import AMPLITUDE_BUDGET, BudgetExceeded, _admit, cq_round, oracle_reports, qq_decode_bell, qq_encode
from .search import exhaustive_search, random_trials, scheme_k

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # the top-level parser's subcommand parsers, by name

    def error(self, message):
        raise _ParseError(message)


def _read_graph(path: str, dealer: int) -> Multigraph:
    """Parse the graph file (- for stdin) and check that the dealer is one of its vertices."""
    if path == "-":
        g = parse_graph(sys.stdin.read())
    else:
        with open(path) as fh:
            g = parse_graph(fh.read())
    if not 0 <= dealer < g.n:
        raise ValueError(f"dealer {dealer} out of range")
    return g


def _parse_set(spec: str, dealer: int, n: int) -> tuple[int, ...]:
    if spec.strip() == "":
        return ()
    try:
        vals = sorted({int(tok) for tok in spec.split(",")})
    except ValueError as exc:
        raise _ParseError(f"vertex set {spec!r} is not comma-separated integers") from exc
    if any(v < 0 or v >= n for v in vals):
        raise ValueError(f"vertex set {spec!r} leaves the range 0..{n - 1}")
    if dealer in vals:
        print(f"warning: dealer {dealer} removed from the player set", file=sys.stderr)
        vals = [v for v in vals if v != dealer]
    return tuple(vals)


def _witness_payload(vec) -> dict | None:
    """A witness vector as its vertex -> multiplicity map of nonzero entries."""
    return None if vec is None else {str(v): w for v, w in enumerate(vec.tolist()) if w}


def _inputs(args, *keys, b=None) -> dict:
    """A report's inputs: the named flags and, when given, the player set b."""
    fields = {key: getattr(args, key) for key in keys}
    return fields if b is None else {**fields, "set": list(b)}


# Each report subcommand's handler (args, g, b, rng) -> (inputs, result, exit
# code) gets the graph, the player set of --set and an rng seeded by --seed
# when it reads a graph file, else None. A result dataclass is reported as
# vars(result): its fields are flat, so json writes them as it would
# dataclasses.asdict's deep copy.


def _access(args, g, b, rng):
    verdict = classify(g, args.dealer, b)
    result = {**vars(verdict), "witness_d": _witness_payload(verdict.witness_d),
              "witness_c": _witness_payload(verdict.witness_c)}
    return _inputs(args, "graph", "dealer", b=b), result, EXIT_OK


def _scheme_k(args, g, b, rng):
    return _inputs(args, "graph", "dealer"), vars(scheme_k(DealerGraph(g, args.dealer))), EXIT_OK


def _search(args, g, b, rng):
    res = exhaustive_search(args.n, args.q, args.k, dealer_fixed=not args.all_dealers, budget=args.budget,
                            workers=args.workers, checkpoint_path=args.checkpoint)
    code = EXIT_BUDGET if res.status == "budget_exceeded" else EXIT_OK
    return _inputs(args, "n", "q", "k", "budget", "workers"), vars(res), code


def _sample(args, g, b, rng):
    summary = random_trials(args.n, args.q, args.alpha, args.trials, args.seed, workers=args.workers)
    return _inputs(args, "n", "q", "alpha", "trials"), vars(summary), EXIT_OK


def _oracle_verify(args, g, b, rng):
    players = [v for v in range(g.n) if v != args.dealer]
    cap = len(players) if args.max_size is None else args.max_size
    sets = [s for size in range(cap + 1) for s in combinations(players, size)]
    rows = oracle_reports(g, args.dealer, sets, rng, budget=args.budget)
    disagree = sum(row["verdict_graph"] != row["verdict_oracle"] for row in rows)
    result = {"rows": rows, "disagreements": disagree}
    return _inputs(args, "graph", "dealer"), result, EXIT_DISAGREEMENT if disagree else EXIT_OK


def _cq_round(args, g, b, rng):
    rounds = []
    for _ in range(args.rounds):
        s, m = cq_round(g, args.dealer, b, args.t, rng, on_unauthorized=args.on_unauthorized, budget=args.budget)
        rounds.append({"s": s, "m": m})
    result = {"rounds": rounds, "agreements": sum(r["s"] == r["m"] for r in rounds), "total": args.rounds}
    return _inputs(args, "graph", "dealer", "t", "rounds", b=b), result, EXIT_OK


def _qq_decode(args, g, b, rng):
    # the Bell decode's q^(n+1) amplitudes are the most any stage holds, so
    # they are admitted before qq_encode builds a codeword
    _admit(g.q ** (g.n + 1), args.budget)
    secret = rng.normal(size=g.q) + 1j * rng.normal(size=g.q)
    secret = secret / np.linalg.norm(secret)
    res = qq_decode_bell(g, args.dealer, b, qq_encode(g, args.dealer, secret, budget=args.budget), rng, secret,
                         budget=args.budget)
    result = {"fidelity": res.fidelity, "syndrome": list(res.syndrome), "used_fallback": res.used_fallback,
              "secret_real": [round(float(x.real), 12) for x in secret],
              "secret_imag": [round(float(x.imag), 12) for x in secret]}
    return _inputs(args, "graph", "dealer", b=b), result, EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args keeps no state
    between calls, so every main call after the first only parses. Its
    commands map each subcommand to its own parser (see main)."""
    p = _Parser(prog="qss", description="Secret sharing on qudit graph states.")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices
    shared = {
        "graph": (["graph"], {"help": "graph file in the text format, or - for stdin"}),
        "dealer": (["--dealer"], {"type": int, "required": True}),
        "set": (["--set"], {"dest": "vset", "required": True, "help": "comma-separated 0-based vertices"}),
        "seed": (["--seed"], {"type": int, "required": True}),
        "budget": (["--budget"], {"type": int, "default": AMPLITUDE_BUDGET, "help": "max state-vector amplitudes"}),
    }

    def add_shared(sp, *names):
        for name in names:
            sp.add_argument(*shared[name][0], **shared[name][1])
        return sp

    def command(name, help, run, *names):
        """A subcommand run by its handler (a report) or its text function (a
        raw artifact), with the shared arguments names in that order."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(**run)
        return add_shared(sp, *names)

    command("access", "classify a player set on a graph", {"handler": _access}, "graph", "dealer", "set")
    command("scheme-k", "exact threshold of a dealer graph", {"handler": _scheme_k}, "graph", "dealer")

    se = command("search", "exhaustive scheme existence search", {"handler": _search})
    se.add_argument("--n", type=int, required=True, help="graph order (players + dealer)")
    se.add_argument("--q", type=int, required=True)
    se.add_argument("--k", type=int, required=True)
    se.add_argument("--budget", type=int, default=None, help="max graphs to examine")
    se.add_argument("--workers", type=int, default=1)
    se.add_argument("--checkpoint", default=None, help="append-only progress file; reruns resume")
    se.add_argument("--all-dealers", action="store_true", help="try every dealer instead of vertex 0")

    sa = command("sample", "random-graph scheme success rate", {"handler": _sample})
    sa.add_argument("--n", type=int, required=True)
    sa.add_argument("--q", type=int, required=True)
    sa.add_argument("--alpha", type=float, required=True)
    sa.add_argument("--trials", type=int, required=True)
    add_shared(sa, "seed")
    sa.add_argument("--workers", type=int, default=1)

    bo = command("bounds", "threshold bound curve as CSV",
                 {"text": lambda args: bounds_mod.emit_curve(args.qmin, args.qmax, tol=args.tol)})
    bo.add_argument("--qmin", type=int, required=True)
    bo.add_argument("--qmax", type=int, required=True)
    bo.add_argument("--tol", type=float, default=1e-8)

    ov = command("oracle-verify", "cross-check rank verdicts against the simulator", {"handler": _oracle_verify},
                 "graph", "dealer", "seed", "budget")
    ov.add_argument("--max-size", type=int, default=None, help="cap player-set size (default: all)")

    fx = command("fixture", "emit a named graph fixture", {"text": lambda args: serialize_graph(rs747_fixture().graph)})
    fx.add_argument("name", choices=["rs747"])

    cq = command("cq-round", "run classical protocol rounds", {"handler": _cq_round},
                 "graph", "dealer", "set", "seed", "budget")
    cq.add_argument("--t", type=int, default=0)
    cq.add_argument("--rounds", type=int, default=10)
    cq.add_argument("--on-unauthorized", choices=["raise", "measure"], default="raise")

    command("qq-decode", "encode a random secret and Bell-decode it", {"handler": _qq_decode},
            "graph", "dealer", "set", "seed", "budget")
    return p


def _run(args) -> int:
    started = time.monotonic()
    for flag in ("seed", "max_size", "rounds", "budget"):  # checked before any file is read
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} {value} is negative")
    if "text" in args:
        print(args.text(args), end="")
        return EXIT_OK
    g = b = rng = None
    if "graph" in args:
        g = _read_graph(args.graph, args.dealer)
        b = _parse_set(args.vset, args.dealer, g.n) if "vset" in args else None
        rng = np.random.default_rng(args.seed) if "seed" in args else None
    inputs, result, code = args.handler(args, g, b, rng)
    report = {"command": args.command, "inputs": inputs, "result": result, "seed": getattr(args, "seed", None),
              "wall_time": round(time.monotonic() - started, 6)}
    print(json.dumps(report, sort_keys=True))
    return code


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser parses it. When argv starts with
    a subcommand, the top-level parser only hands every later argument to
    that subcommand's parser, so that parser is called directly and the
    top-level pass is saved. No argument, -h or an unknown command goes to
    the top-level parser."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    try:
        return _run(_parse(sys.argv[1:] if argv is None else list(argv)))
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
