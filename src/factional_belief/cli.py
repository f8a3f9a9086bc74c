"""Command-line interface.

Subcommands: analyze, promise, sweep, validate, oracle, epistemic, gen,
bounds. All take --config and --out; every other flag sits only on the
subcommands whose handler reads it, and flags that pick the same thing (a
variant, an input, a task) are mutually exclusive. A flag that only one
branch of a handler reads is rejected when another branch runs, and gets
its default inside the branch that reads it.
--config (or --config=PATH) points at a JSON file whose keys pre-fill that
subcommand's options as flags would; explicit flags win.

Exit codes: 0 success, 2 validation/parse error, 3 enumeration budget
exceeded, 4 promise answered Null under --strict.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import fileio
from .algorithms import (
    PromiseOutcome,
    algorithm1,
    algorithm1_auto,
    algorithm1_general,
    crucial_threshold_pairs,
    multistate_fixpoint,
    smallest_revolt,
)
from .epistemic import (
    belief_operator,
    common_belief_by_search,
    common_belief_fixpoint,
    is_evident_belief,
)
from .errors import (
    BudgetExceededError,
    Error,
    MislabeledStatesError,
    ValidationError,
)
from .experiments import (
    ANALYZE_COLUMNS,
    MAP_COLUMNS,
    SWEEP_COLUMNS,
    VALIDATE_COLUMNS,
    SweepConfig,
    grid,
    prop1_battery,
    run_promise_map,
    run_sweep,
    run_validate,
)
from .netgen import FAMILIES, GenSpec, generate_graph, generate_sequence, torus_grid
from .oracle import (
    OracleBudget,
    clique_exists,
    clique_reduction,
    revolt_decision,
    RevoltInstance,
)

RAT = fileio.parse_rational


def _add_common(sub: argparse.ArgumentParser, seed=False, fmt=False) -> None:
    sub.add_argument("--config", help="JSON file with option defaults")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="master 64-bit seed")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="output path (stdout when omitted)")


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", required=True)
    p.add_argument("--degrees", required=True)
    variant = p.add_mutually_exclusive_group()
    for flag in ("smallest", "general", "multistate", "auto-relabel"):
        variant.add_argument(
            f"--{flag}", dest="variant", action="store_const", const=flag
        )
    p.add_argument("--cutoff-c", help="hub cutoff constant, with --general (default 1)")
    p.add_argument("--epsilon", help="least hub fraction, with --general (default 1/100)")
    _add_common(p, fmt=True)


def _promise_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", required=True)
    p.add_argument("--degrees", required=True)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--mu-star")
    point.add_argument("--grid-step")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--show-thresholds", action="store_true")
    _add_common(p, fmt=True)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", required=True)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--axis", choices=("param", "p"), default="param")
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--param", help="fixed family parameter (p-axis sweeps)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_common(p, seed=True, fmt=True)


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", required=True)
    p.add_argument("--state", default="A")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--level", default="1/100")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="edge-list file")
    source.add_argument("--torus", nargs=2, type=int, metavar=("ROWS", "COLS"))
    source.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--param")
    _add_common(p, seed=True, fmt=True)


def _oracle_args(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="edge-list file")
    source.add_argument(
        "--edges", help="inline adjacency, e.g. '0-1,1-2,0-2' (config-friendly)"
    )
    p.add_argument("--n", type=int, help="vertex count for --edges (optional)")
    instance = p.add_mutually_exclusive_group(required=True)
    instance.add_argument("--prior")
    instance.add_argument("--clique-reduce", type=int, metavar="K")
    p.add_argument("--mu-star")
    p.add_argument("--q-star")
    p.add_argument("--budget-pairs", type=int, default=OracleBudget.max_cell_cost)
    p.add_argument(
        "--budget-assignments", type=int, default=OracleBudget.max_assignments
    )
    _add_common(p)


def _epistemic_args(p: argparse.ArgumentParser) -> None:
    task = p.add_mutually_exclusive_group(required=True)
    task.add_argument("--model")
    task.add_argument("--verify-prop1", type=int, metavar="COUNT")
    p.add_argument("--p", help="belief level, with --model (default 1/2)")
    p.add_argument("--mu", help="agent fraction, with --model (default 1/2)")
    p.add_argument("--event", help="comma-separated outcome labels")
    p.add_argument("--omega")
    _add_common(p, seed=True)
    p.set_defaults(seed=None)  # read by --verify-prop1 alone, default 0


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--kind", choices=("sequence", "graph"), default="sequence")
    _add_common(p, seed=True)


def _bounds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", required=True)
    p.add_argument("--degrees")
    p.add_argument("--n", type=int)
    p.add_argument("--epsilon", help="tail deviation fraction, with --degrees (default 1/50)")
    p.add_argument("--epsilon0", default="1/10")
    p.add_argument("--c", default="1")
    _add_common(p, fmt=True)


# Each subcommand: its help line and the function that adds its options.
SUBCOMMANDS = {
    "analyze": ("largest/smallest supported revolt sizes", _analyze_args),
    "promise": ("promise decision / region map", _promise_args),
    "sweep": ("parameter sweeps with seeded trials", _sweep_args),
    "validate": ("Monte-Carlo concentration check", _validate_args),
    "oracle": ("exact small-instance revolt decision", _oracle_args),
    "epistemic": ("belief operators and common belief", _epistemic_args),
    "gen": ("degree-sequence / graph generators", _gen_args),
    "bounds": ("closed-form probability bounds", _bounds_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argparse tree: every subcommand, or only `command`'s. The
    top-level usage lists every subcommand either way."""
    parser = argparse.ArgumentParser(
        prog="revolt",
        description="Belief-threshold revolt games on networks: exact "
        "equilibrium-size algorithms, oracle checks, and experiments.",
    )
    # The full tree keeps argparse's own metavar, which also names the
    # missing subcommand "command" in its error.
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in SUBCOMMANDS if command is None else (command,):
        help_text, add_arguments = SUBCOMMANDS[name]
        add_arguments(subs.add_parser(name, help=help_text))
    return parser


def _apply_config(argv: list[str]) -> tuple[list[str], str | None]:
    """Pre-scan for --config (either spelling) and splice the file's values
    in as flags right after the subcommand. argparse keeps the last value it
    sees, so explicit flags, which come later, win; and config values get
    the same conversions, choices and required-option checks as flags.
    Returns the new argv and the config path found."""
    if not any(word.startswith("--config") for word in argv):
        return argv, None
    pre = argparse.ArgumentParser(prog="revolt", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return argv, None
    path = known.config
    doc = fileio.read_input(path, "config", json.loads)
    if not isinstance(doc, dict):
        raise fileio.ParseError(f"config {path}: expected a JSON object")
    extra = []
    for key, value in doc.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        elif isinstance(value, (list, tuple)):
            extra.append(flag)
            extra.extend(str(v) for v in value)
        else:
            extra.extend([flag, str(value)])
    return argv[:1] + extra + argv[1:], path


_NEGATIVE_FRACTION = re.compile(r"-\d+/\d+")


def _join_negative_fractions(argv: list[str]) -> list[str]:
    """Glue a word like -1/2 to the flag before it (--mu -1/2 becomes
    --mu=-1/2): argparse takes -1 and -0.5 as values but reads -1/2 as an
    option, so the value would never reach the option's own range check."""
    out: list[str] = []
    for word in argv:
        flag = out[-1] if out else ""
        bare_flag = flag.startswith("--") and "=" not in flag
        if bare_flag and _NEGATIVE_FRACTION.fullmatch(word):
            out[-1] = f"{flag}={word}"
        else:
            out.append(word)
    return out


def _reject_unread(args, owner: str, chosen: str, *dests: str) -> None:
    """Exit 2 on a flag, given on the command line or as a --config key,
    that only the `owner` branch reads while `chosen` runs."""
    for dest in dests:
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ValidationError(f"{flag} goes with {owner}, not {chosen}")


def _write(args, text: str) -> None:
    """Write `text` to --out, else to stdout."""
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _report(args, doc, rows=None, columns=None) -> None:
    """Write `doc` as JSON, or `rows` as CSV under `columns` when the
    subcommand was given --format csv."""
    if rows is not None and args.format == "csv":
        text = fileio.rows_to_csv(rows, columns)
    else:
        text = json.dumps(doc, indent=2, default=str) + "\n"
    _write(args, text)


def cmd_analyze(args) -> int:
    if args.variant != "general":
        chosen = f"--{args.variant}" if args.variant else "the plain largest revolt"
        _reject_unread(args, "--general", chosen, "cutoff_c", "epsilon")
    prior = fileio.load_prior(args.prior)
    degseq = fileio.load_degree_sequence(args.degrees)
    relabeled = False
    if args.variant == "multistate":
        sizes = multistate_fixpoint(degseq, prior)[0]
    elif args.variant == "smallest":
        sizes = smallest_revolt(degseq, prior)
    elif args.variant == "general":
        sizes = algorithm1_general(
            degseq,
            prior,
            cutoff_c=RAT(args.cutoff_c if args.cutoff_c is not None else "1"),
            epsilon=RAT(args.epsilon if args.epsilon is not None else "1/100"),
        )
    elif args.variant == "auto-relabel":
        sizes, relabeled = algorithm1_auto(degseq, prior)
        if relabeled:
            print("note: state labels were swapped to restore X_A >= X_B", file=sys.stderr)
    else:
        try:
            sizes = algorithm1(degseq, prior)
        except MislabeledStatesError as exc:
            raise ValidationError(f"{exc} (rerun with --auto-relabel)") from None
    rows = [
        {
            "state": s,
            "X_exact": fileio.format_rational(x),
            "X_decimal": fileio.format_decimal(x),
        }
        for s, x in sizes.items()
    ]
    doc = {"sizes": {r["state"]: r["X_exact"] for r in rows}, "relabeled": relabeled}
    _report(args, doc, rows, ANALYZE_COLUMNS)
    return 0


def cmd_promise(args) -> int:
    prior = fileio.load_prior(args.prior)
    degseq = fileio.load_degree_sequence(args.degrees)
    epsilon, delta = RAT(args.epsilon), RAT(args.delta)
    # A point is the one-point map, reported as that row's mu_star and
    # outcome. The answer comes first, so an invalid request lists no
    # thresholds.
    point = not args.grid_step
    mu_grid = [RAT(args.mu_star)] if point else grid(0, 1, RAT(args.grid_step))
    rows = run_promise_map(degseq, prior, mu_grid, epsilon, delta)
    null = any(r["outcome"] == PromiseOutcome.NULL.value for r in rows)
    payload = {k: rows[0][k] for k in ("mu_star", "outcome")} if point else rows
    if args.show_thresholds:
        thresholds = {
            k: fileio.format_reduced(*q)
            for k, q in crucial_threshold_pairs(degseq, prior).items()
        }
        print(json.dumps(thresholds, indent=2), file=sys.stderr)
    _report(args, payload, rows, MAP_COLUMNS)
    return 4 if args.strict and null else 0


def cmd_sweep(args) -> int:
    if args.axis != "p":
        _reject_unread(args, "--axis p", "--axis param", "param")
    prior = fileio.load_prior(args.prior)
    cfg = SweepConfig(
        family=args.family,
        n=args.n,
        axis=args.axis,
        values=grid(RAT(args.start), RAT(args.stop), RAT(args.step)),
        prior=prior,
        fixed_param=RAT(args.param) if args.param is not None else None,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
    )
    rows = run_sweep(cfg)
    _report(args, rows, rows, SWEEP_COLUMNS)
    return 0


def _validate_graph(args):
    if args.family is None:
        chosen = "--graph" if args.graph is not None else "--torus"
        _reject_unread(args, "--family", chosen, "n", "param")
    if args.graph is not None:
        return fileio.load_edge_list(args.graph)
    if args.torus is not None:
        return torus_grid(args.torus[0], args.torus[1])
    if args.n is None or args.param is None:
        raise ValidationError("generated validate graphs need --n and --param")
    return generate_graph(GenSpec(args.family, args.n, RAT(args.param), args.seed))


def cmd_validate(args) -> int:
    prior = fileio.load_prior(args.prior)
    graph = _validate_graph(args)
    report = run_validate(
        graph, prior, args.state, args.trials, args.seed, RAT(args.level)
    )
    _report(args, report, report["trial_rows"], VALIDATE_COLUMNS)
    if args.format == "csv":
        summary = {k: v for k, v in report.items() if k != "trial_rows"}
        print(json.dumps(summary, indent=2, default=str), file=sys.stderr)
    return 0


def _inline_graph(text: str, n):
    try:
        pairs = [
            tuple(int(x) for x in chunk.split("-"))
            for chunk in text.split(",")
            if chunk.strip()
        ]
    except ValueError:
        raise ValidationError(f"bad inline edge list {text!r}; want 'u-v,u-v'")
    if any(len(p) != 2 for p in pairs):
        raise ValidationError(f"bad inline edge list {text!r}; want 'u-v,u-v'")
    size = n if n is not None else (max((max(p) for p in pairs), default=-1) + 1)
    from .model import ConcreteGraph

    return ConcreteGraph(size, pairs)


def cmd_oracle(args) -> int:
    if args.graph is not None:
        _reject_unread(args, "--edges", "--graph", "n")
        graph = fileio.load_edge_list(args.graph)
    else:
        graph = _inline_graph(args.edges, args.n)
    budget = OracleBudget(args.budget_pairs, args.budget_assignments)
    if args.clique_reduce is not None:
        _reject_unread(args, "--prior", "--clique-reduce", "mu_star", "q_star")
        inst = clique_reduction(graph, args.clique_reduce)
        has_clique = (
            clique_exists(graph, args.clique_reduce) if graph.n <= 20 else None
        )
    else:
        if args.mu_star is None or args.q_star is None:
            raise ValidationError("--prior needs --mu-star and --q-star")
        prior = fileio.load_prior(args.prior)
        inst = RevoltInstance(graph, prior, RAT(args.mu_star), RAT(args.q_star))
        has_clique = None
    supported, prob = revolt_decision(inst, budget)
    payload = {
        "n": graph.n,
        "mu_star": fileio.format_rational(inst.mu_star),
        "q_star": fileio.format_rational(inst.q_star),
        "revolt_supported": supported,
        "probability_exact": fileio.format_rational(prob),
        "probability_decimal": fileio.format_decimal(prob),
    }
    if has_clique is not None:
        payload["k"] = args.clique_reduce
        payload["clique_exists"] = has_clique
    _report(args, payload)
    return 0


def cmd_epistemic(args) -> int:
    if args.verify_prop1 is not None:
        _reject_unread(args, "--model", "--verify-prop1", "event", "omega", "p", "mu")
        if args.verify_prop1 < 1:
            raise ValidationError("--verify-prop1 needs a positive COUNT")
        seed = args.seed if args.seed is not None else 0
        agree, total = prop1_battery(args.verify_prop1, seed)
        payload = {"models": total, "agreeing": agree, "all_agree": agree == total}
        _report(args, payload)
        return 0 if agree == total else 2
    _reject_unread(args, "--verify-prop1", "--model", "seed")
    if args.event is None:
        raise ValidationError("--model needs --event")
    model = fileio.load_epistemic_model(args.model)
    event = frozenset(s.strip() for s in args.event.split(",") if s.strip())
    p = RAT(args.p if args.p is not None else "1/2")
    mu = RAT(args.mu if args.mu is not None else "1/2")
    evident, witnesses = is_evident_belief(model, p, mu, event)
    fix = common_belief_fixpoint(model, p, mu, event)
    payload = {
        "event": sorted(event),
        "p": str(p),
        "mu": str(mu),
        "beliefs": {
            a: sorted(belief_operator(model, a, p, event)) for a in model.agents
        },
        "evident": evident,
        "witnesses": sorted(witnesses),
        "common_belief_event": sorted(fix),
    }
    if args.omega is not None:
        payload["omega"] = args.omega
        payload["common_at_omega_fixpoint"] = args.omega in fix
        payload["common_at_omega_search"] = common_belief_by_search(
            model, p, mu, event, args.omega
        )
    _report(args, payload)
    return 0


def cmd_gen(args) -> int:
    spec = GenSpec(args.family, args.n, RAT(args.param), args.seed)
    meta = {
        "family": spec.family,
        "n": spec.n,
        "param": str(spec.param),
        "seed": spec.seed,
    }
    if spec.family == "powerlaw":
        meta["support"] = [1, spec.n - 1]  # truncation window of the pmf
    if args.kind == "graph":
        graph = generate_graph(spec)
        _write(args, fileio.format_edge_list(graph))
        meta["edges"] = len(graph.indices) // 2
    else:
        seq = generate_sequence(spec)
        _write(args, fileio.format_degree_sequence(seq))
        meta["sum"] = sum(seq)
    print(json.dumps(meta), file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    if not args.degrees:
        _reject_unread(args, "--degrees", "--n alone", "epsilon")
    prior = fileio.load_prior(args.prior)
    degseq = fileio.load_degree_sequence(args.degrees) if args.degrees else None
    if args.n is not None and args.n < 1:
        raise ValidationError("--n must be at least 1")
    n = args.n if args.n is not None else (len(degseq) if degseq else None)
    if n is None:
        raise ValidationError("bounds needs --degrees or --n")
    epsilon0, c = RAT(args.epsilon0), RAT(args.c)
    reports = []
    if degseq:
        epsilon = RAT(args.epsilon if args.epsilon is not None else "1/50")
        chi_star = bounds_mod.dependency_chi_star_bound(degseq)
        reports.append(
            bounds_mod.BoundReport.build(
                "dependency_chi_star_bound",
                {"d_max": max(degseq)},
                Fraction(chi_star),
                probability=False,
            )
        )
        reports.append(
            bounds_mod.BoundReport.build(
                "dependent_chernoff_tail",
                {"n": n, "t": epsilon * n, "chi_star": chi_star},
                bounds_mod.dependent_chernoff(n, epsilon * n, chi_star),
            )
        )
        if set(degseq) == {4} and set(prior.labels) == {"A", "B"}:
            expect = {}
            for state in ("A", "B"):
                expect[state] = bounds_mod.noncandidate_expectation_torus(prior, state)
                reports.append(
                    bounds_mod.BoundReport.build(
                        f"noncandidate_expectation_{state}", {"state": state}, expect[state]
                    )
                )
            markov = bounds_mod.markov_noncandidate_bound(expect["A"], prior.mu, n)
            reports.append(
                bounds_mod.BoundReport.build(
                    "markov_noncandidate_bound",
                    {"expect": expect["A"], "threshold": prior.mu},
                    markov,
                )
            )
    reports.append(
        bounds_mod.BoundReport.build(
            "high_degree_state_bound",
            {"epsilon0": epsilon0, "c": c, "n": n},
            bounds_mod.high_degree_state_bound(epsilon0, c, n),
        )
    )
    if set(prior.labels) == {"A", "B"}:
        ok = bounds_mod.high_degree_separation(prior, epsilon0)
        reports.append(
            bounds_mod.BoundReport.build(
                "high_degree_separation_ok",
                {"epsilon0": epsilon0},
                Fraction(int(ok)),
                probability=False,
            )
        )
    rows = [
        {
            "name": r.name,
            "value": r.value_str(),
            "clamped": r.clamped,
            "inputs": json.dumps({k: str(v) for k, v in r.inputs.items()}, sort_keys=True).replace(",", ";"),
        }
        for r in reports
    ]
    _report(args, rows, rows, ("name", "value", "clamped", "inputs"))
    return 0


HANDLERS = {
    "analyze": cmd_analyze,
    "promise": cmd_promise,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
    "epistemic": cmd_epistemic,
    "gen": cmd_gen,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config = _apply_config(argv)
        # Only the named subcommand's parser is built; a call that names
        # none (help, a typo, nothing) gets the whole tree.
        parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
        args = parser.parse_args(_join_negative_fractions(argv))
        # The pre-scan matches --config only in full; an abbreviation would
        # otherwise be accepted and its file silently ignored.
        if args.config != config:
            raise ValidationError("spell out --config in full")
        return HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
