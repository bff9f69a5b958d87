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
from .oracle import AMPLITUDE_BUDGET, BudgetExceeded, cq_round, oracle_reports, qq_decode_bell, qq_encode
from .search import exhaustive_search, random_trials, scheme_k

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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


def _emit(command: str, inputs: dict, result, seed, started: float) -> None:
    # a result dataclass comes as vars(result): its fields are flat, so
    # json writes them as it would dataclasses.asdict's deep copy
    report = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "seed": seed,
        "wall_time": round(time.monotonic() - started, 6),
    }
    print(json.dumps(report, sort_keys=True))


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parse_args keeps no state
    between calls, so every main call after the first only parses."""
    p = _Parser(prog="qss", description="Secret sharing on qudit graph states.")
    sub = p.add_subparsers(dest="command", required=True)

    acc = sub.add_parser("access", help="classify a player set on a graph")
    acc.add_argument("graph", help="graph file in the text format, or - for stdin")
    acc.add_argument("--dealer", type=int, required=True)
    acc.add_argument("--set", dest="vset", required=True, help="comma-separated 0-based vertices")

    sk = sub.add_parser("scheme-k", help="exact threshold of a dealer graph")
    sk.add_argument("graph")
    sk.add_argument("--dealer", type=int, required=True)

    se = sub.add_parser("search", help="exhaustive scheme existence search")
    se.add_argument("--n", type=int, required=True, help="graph order (players + dealer)")
    se.add_argument("--q", type=int, required=True)
    se.add_argument("--k", type=int, required=True)
    se.add_argument("--budget", type=int, default=None, help="max graphs to examine")
    se.add_argument("--workers", type=int, default=1)
    se.add_argument("--checkpoint", default=None, help="append-only progress file; reruns resume")
    se.add_argument("--all-dealers", action="store_true", help="try every dealer instead of vertex 0")

    sa = sub.add_parser("sample", help="random-graph scheme success rate")
    sa.add_argument("--n", type=int, required=True)
    sa.add_argument("--q", type=int, required=True)
    sa.add_argument("--alpha", type=float, required=True)
    sa.add_argument("--trials", type=int, required=True)
    sa.add_argument("--seed", type=int, required=True)
    sa.add_argument("--workers", type=int, default=1)

    bo = sub.add_parser("bounds", help="threshold bound curve as CSV")
    bo.add_argument("--qmin", type=int, required=True)
    bo.add_argument("--qmax", type=int, required=True)
    bo.add_argument("--tol", type=float, default=1e-8)

    ov = sub.add_parser("oracle-verify", help="cross-check rank verdicts against the simulator")
    ov.add_argument("graph")
    ov.add_argument("--dealer", type=int, required=True)
    ov.add_argument("--seed", type=int, required=True)
    ov.add_argument("--max-size", type=int, default=None, help="cap player-set size (default: all)")
    ov.add_argument("--budget", type=int, default=AMPLITUDE_BUDGET, help="max state-vector amplitudes")

    fx = sub.add_parser("fixture", help="emit a named graph fixture")
    fx.add_argument("name", choices=["rs747"])

    cq = sub.add_parser("cq-round", help="run classical protocol rounds")
    cq.add_argument("graph")
    cq.add_argument("--dealer", type=int, required=True)
    cq.add_argument("--set", dest="vset", required=True)
    cq.add_argument("--t", type=int, default=0)
    cq.add_argument("--rounds", type=int, default=10)
    cq.add_argument("--seed", type=int, required=True)
    cq.add_argument("--on-unauthorized", choices=["raise", "measure"], default="raise")
    cq.add_argument("--budget", type=int, default=AMPLITUDE_BUDGET, help="max state-vector amplitudes")

    qq = sub.add_parser("qq-decode", help="encode a random secret and Bell-decode it")
    qq.add_argument("graph")
    qq.add_argument("--dealer", type=int, required=True)
    qq.add_argument("--set", dest="vset", required=True)
    qq.add_argument("--seed", type=int, required=True)
    qq.add_argument("--budget", type=int, default=AMPLITUDE_BUDGET, help="max state-vector amplitudes")

    return p


def _run(args) -> int:
    started = time.monotonic()
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed {args.seed} is negative")

    if args.command == "fixture":
        print(serialize_graph(rs747_fixture().graph), end="")
        return EXIT_OK

    if args.command == "bounds":
        print(bounds_mod.emit_curve(args.qmin, args.qmax, tol=args.tol), end="")
        return EXIT_OK

    if args.command == "access":
        g = _read_graph(args.graph, args.dealer)
        b = _parse_set(args.vset, args.dealer, g.n)
        verdict = classify(g, args.dealer, b)
        result = {
            "classical": verdict.classical,
            "quantum": verdict.quantum,
            "pi": verdict.pi,
            "derivative": verdict.derivative,
            "witness_d": _witness_payload(verdict.witness_d),
            "witness_c": _witness_payload(verdict.witness_c),
        }
        inputs = {"graph": args.graph, "dealer": args.dealer, "set": list(b)}
        _emit("access", inputs, result, None, started)
        return EXIT_OK

    if args.command == "scheme-k":
        g = _read_graph(args.graph, args.dealer)
        report = scheme_k(DealerGraph(g, args.dealer))
        _emit("scheme-k", {"graph": args.graph, "dealer": args.dealer}, vars(report), None, started)
        return EXIT_OK

    if args.command == "search":
        res = exhaustive_search(
            args.n,
            args.q,
            args.k,
            dealer_fixed=not args.all_dealers,
            budget=args.budget,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
        )
        inputs = {"n": args.n, "q": args.q, "k": args.k, "budget": args.budget, "workers": args.workers}
        _emit("search", inputs, vars(res), None, started)
        return EXIT_BUDGET if res.status == "budget_exceeded" else EXIT_OK

    if args.command == "sample":
        summary = random_trials(args.n, args.q, args.alpha, args.trials, args.seed, workers=args.workers)
        inputs = {"n": args.n, "q": args.q, "alpha": args.alpha, "trials": args.trials}
        _emit("sample", inputs, vars(summary), args.seed, started)
        return EXIT_OK

    if args.command == "oracle-verify":
        if args.max_size is not None and args.max_size < 0:
            raise ValueError(f"--max-size {args.max_size} is negative")
        g = _read_graph(args.graph, args.dealer)
        rng = np.random.default_rng(args.seed)
        players = [v for v in range(g.n) if v != args.dealer]
        cap = len(players) if args.max_size is None else args.max_size
        sets = [b for size in range(cap + 1) for b in combinations(players, size)]
        rows = oracle_reports(g, args.dealer, sets, rng, budget=args.budget)
        disagree = sum(row["verdict_graph"] != row["verdict_oracle"] for row in rows)
        result = {"rows": rows, "disagreements": disagree}
        _emit("oracle-verify", {"graph": args.graph, "dealer": args.dealer}, result, args.seed, started)
        return EXIT_DISAGREEMENT if disagree else EXIT_OK

    if args.command == "cq-round":
        if args.rounds < 0:
            raise ValueError(f"--rounds {args.rounds} is negative")
        g = _read_graph(args.graph, args.dealer)
        b = _parse_set(args.vset, args.dealer, g.n)
        rng = np.random.default_rng(args.seed)
        rounds = []
        agree = 0
        for _ in range(args.rounds):
            s, m = cq_round(g, args.dealer, b, args.t, rng,
                            on_unauthorized=args.on_unauthorized, budget=args.budget)
            rounds.append({"s": s, "m": m})
            agree += int(s == m)
        result = {"rounds": rounds, "agreements": agree, "total": args.rounds}
        inputs = {"graph": args.graph, "dealer": args.dealer, "set": list(b), "t": args.t, "rounds": args.rounds}
        _emit("cq-round", inputs, result, args.seed, started)
        return EXIT_OK

    if args.command == "qq-decode":
        g = _read_graph(args.graph, args.dealer)
        b = _parse_set(args.vset, args.dealer, g.n)
        rng = np.random.default_rng(args.seed)
        secret = rng.normal(size=g.q) + 1j * rng.normal(size=g.q)
        secret = secret / np.linalg.norm(secret)
        encoded = qq_encode(g, args.dealer, secret, budget=args.budget)
        res = qq_decode_bell(g, args.dealer, b, encoded, rng, secret, budget=args.budget)
        result = {
            "fidelity": res.fidelity,
            "syndrome": list(res.syndrome),
            "used_fallback": res.used_fallback,
            "secret_real": [round(float(x.real), 12) for x in secret],
            "secret_imag": [round(float(x.imag), 12) for x in secret],
        }
        inputs = {"graph": args.graph, "dealer": args.dealer, "set": list(b)}
        _emit("qq-decode", inputs, result, args.seed, started)
        return EXIT_OK

    raise _ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _run(args)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
