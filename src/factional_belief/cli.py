"""Command-line interface.

Subcommands: analyze, promise, sweep, validate, oracle, epistemic, gen,
bounds. All take --config and --out; every other flag sits only on the
subcommands whose handler reads it, and flags that pick the same thing (a
variant, an input, a task) are mutually exclusive. A flag that only one
branch of a handler reads is rejected when another branch runs, and gets
its default inside the branch that reads it.
--config (or --config=PATH) points at a JSON file whose keys pre-fill that
subcommand's options as flags would; explicit flags win.

Each subcommand's flags are one table of `Flag` rows in SUBCOMMANDS, read by
one pass over the command line (`parse_args`): --flag value or
--flag=value, a long flag cut to a unique prefix, the last of a repeated
flag winning, and usage errors (exit 2) and --help (exit 0) as argparse
gives them.

Exit codes: 0 success, 2 validation/parse error, 3 enumeration budget
exceeded, 4 promise answered Null under --strict.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

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


class Flag(NamedTuple):
    """One row of a subcommand's flag table.

    `kind` is "value" (the word as given), "int", "int2" (two ints), "const"
    (stores the flag's name, less its dashes, under its group's name),
    "true" or "help". Flags that share a `group` are mutually exclusive, and
    `required` on a grouped flag means that one flag of the group is
    required."""

    name: str
    kind: str = "value"
    default: object = None
    required: bool = False
    choices: tuple = ()
    group: str = ""
    help: str = ""
    metavar: str = ""

    @property
    def dest(self) -> str:
        return self.group if self.kind == "const" else self.name[2:].replace("-", "_")

    def usage(self) -> str:
        if self.kind in _BARE:
            return self.name
        if self.choices:
            return f"{self.name} {{{','.join(self.choices)}}}"
        return f"{self.name} {self.metavar or self.dest.upper()}"


_BARE = ("const", "true", "help")  # kinds that take no value
HELP = Flag("--help", "help", help="show this help message and exit")
CONFIG = Flag("--config", help="JSON file with option defaults")
SEED = Flag("--seed", "int", 0, help="master 64-bit seed")
FORMAT = Flag("--format", default="csv", choices=("csv", "json"))
OUT = Flag("--out", help="output path (stdout when omitted)")

# Each subcommand: its help line and its flag table.
SUBCOMMANDS = {
    "analyze": ("largest/smallest supported revolt sizes", (
        Flag("--prior", required=True),
        Flag("--degrees", required=True),
        Flag("--smallest", "const", group="variant"),
        Flag("--general", "const", group="variant"),
        Flag("--multistate", "const", group="variant"),
        Flag("--auto-relabel", "const", group="variant"),
        Flag("--cutoff-c", help="hub cutoff constant, with --general (default 1)"),
        Flag("--epsilon", help="least hub fraction, with --general (default 1/100)"),
        CONFIG, FORMAT, OUT,
    )),
    "promise": ("promise decision / region map", (
        Flag("--prior", required=True),
        Flag("--degrees", required=True),
        Flag("--mu-star", required=True, group="point"),
        Flag("--grid-step", required=True, group="point"),
        Flag("--epsilon", required=True),
        Flag("--delta", required=True),
        Flag("--strict", "true", False),
        Flag("--show-thresholds", "true", False),
        CONFIG, FORMAT, OUT,
    )),
    "sweep": ("parameter sweeps with seeded trials", (
        Flag("--prior", required=True),
        Flag("--family", required=True, choices=FAMILIES),
        Flag("--n", "int", 1000),
        Flag("--axis", default="param", choices=("param", "p")),
        Flag("--start", required=True),
        Flag("--stop", required=True),
        Flag("--step", required=True),
        Flag("--param", help="fixed family parameter (p-axis sweeps)"),
        Flag("--trials", "int", 100),
        Flag("--jobs", "int", 1, help="parallel workers"),
        CONFIG, SEED, FORMAT, OUT,
    )),
    "validate": ("Monte-Carlo concentration check", (
        Flag("--prior", required=True),
        Flag("--state", default="A"),
        Flag("--trials", "int", 200),
        Flag("--level", default="1/100"),
        Flag("--graph", required=True, group="source", help="edge-list file"),
        Flag("--torus", "int2", required=True, group="source", metavar="ROWS COLS"),
        Flag("--family", required=True, group="source"),
        Flag("--n", "int"),
        Flag("--param"),
        CONFIG, SEED, FORMAT, OUT,
    )),
    "oracle": ("exact small-instance revolt decision", (
        Flag("--graph", required=True, group="source", help="edge-list file"),
        Flag("--edges", required=True, group="source",
             help="inline adjacency, e.g. '0-1,1-2,0-2' (config-friendly)"),
        Flag("--n", "int", help="vertex count for --edges (optional)"),
        Flag("--prior", required=True, group="instance"),
        Flag("--clique-reduce", "int", required=True, group="instance", metavar="K"),
        Flag("--mu-star"),
        Flag("--q-star"),
        Flag("--budget-pairs", "int", OracleBudget.max_cell_cost),
        Flag("--budget-assignments", "int", OracleBudget.max_assignments),
        CONFIG, OUT,
    )),
    "epistemic": ("belief operators and common belief", (
        Flag("--model", required=True, group="task"),
        Flag("--verify-prop1", "int", required=True, group="task", metavar="COUNT"),
        Flag("--p", help="belief level, with --model (default 1/2)"),
        Flag("--mu", help="agent fraction, with --model (default 1/2)"),
        Flag("--event", help="comma-separated outcome labels"),
        Flag("--omega"),
        CONFIG,
        Flag("--seed", "int", help="master 64-bit seed, with --verify-prop1 (default 0)"),
        OUT,
    )),
    "gen": ("degree-sequence / graph generators", (
        Flag("--family", required=True, choices=FAMILIES),
        Flag("--n", "int", required=True),
        Flag("--param", required=True),
        Flag("--kind", default="sequence", choices=("sequence", "graph")),
        CONFIG, SEED, OUT,
    )),
    "bounds": ("closed-form probability bounds", (
        Flag("--prior", required=True),
        Flag("--degrees"),
        Flag("--n", "int"),
        Flag("--epsilon", help="tail deviation fraction, with --degrees (default 1/50)"),
        Flag("--epsilon0", default="1/10"),
        Flag("--c", default="1"),
        CONFIG, FORMAT, OUT,
    )),
}

# Each subcommand's flags by every spelling they are looked up under.
_LOOKUP = {
    command: {"-h": HELP, "--help": HELP, **{flag.name: flag for flag in flags}}
    for command, (_text, flags) in SUBCOMMANDS.items()
}

# A word that starts with "-" is still a value when it is a negative number
# (as argparse reads one) or a negative fraction, so that --mu -1/2 reaches
# the option's own range check.
_NEGATIVE = re.compile(r"-(?:\d+|\d*\.\d+)$|-\d+/\d+\Z")


def _usage(command: str | None) -> str:
    """The usage line, wrapped at 79 columns under the subcommand."""
    if command is None:
        return "revolt [-h] {" + ",".join(SUBCOMMANDS) + "} ..."
    flags = SUBCOMMANDS[command][1]
    parts, groups = ["[-h]"], set()
    for flag in flags:
        if not flag.group:
            parts.append(flag.usage() if flag.required else f"[{flag.usage()}]")
        elif flag.group not in groups:
            groups.add(flag.group)
            either = " | ".join(f.usage() for f in flags if f.group == flag.group)
            parts.append(f"({either})" if flag.required else f"[{either}]")
    lines = [f"revolt {command}"]
    indent = " " * len(lines[0])
    for part in parts:
        if len(f"usage: {lines[-1]} {part}") > 79:
            lines.append(f"{indent} {part}")
        else:
            lines[-1] += " " + part
    return "\n       ".join(lines)  # under the "usage: " of the first line


def _help(command: str | None) -> str:
    """The --help text: the usage, then one line per subcommand or flag."""
    if command is None:
        lines = [
            "Belief-threshold revolt games on networks: exact equilibrium-size "
            "algorithms, oracle checks, and experiments.",
            "",
            "subcommands:",
        ] + [f"  {name:<10} {text}" for name, (text, _flags) in SUBCOMMANDS.items()]
    else:
        lines = [SUBCOMMANDS[command][0], "", "options:", f"  {'-h, --help':<30} {HELP.help}"]
        for flag in SUBCOMMANDS[command][1]:
            text = flag.help
            if flag.default not in (None, False):
                text = f"{text} (default {flag.default})".lstrip()
            lines.append(f"  {flag.usage():<30} {text}".rstrip())
    return f"usage: {_usage(command)}\n\n" + "\n".join(lines) + "\n"


def _fail(command: str | None, message: str):
    """Print the usage and `message` to stderr and exit 2."""
    prog = "revolt" if command is None else f"revolt {command}"
    sys.stderr.write(f"usage: {_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(command: str, word: str):
    """How `command`'s line reads `word`: None for a value, else (flag, the
    text after "=" or None), with flag None for a word that looks like a
    flag no row names. A long flag may be cut to a unique prefix."""
    if word[:1] != "-" or word == "-":
        return None
    lookup = _LOOKUP[command]
    if word in lookup:
        return lookup[word], None
    name, eq, explicit = word.partition("=")
    if eq and name in lookup:
        return lookup[name], explicit
    if word[1] == "-":
        hits = [spelling for spelling in lookup if spelling.startswith(name)]
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {name} could match {', '.join(hits)}")
        if hits:
            return lookup[hits[0]], explicit if eq else None
    elif word[1] == "h":
        return HELP, word[2:]
    if _NEGATIVE.match(word) or " " in word:
        return None
    return None, word


def _is_value(command: str, word: str) -> bool:
    return word != "--" and _option(command, word) is None


def _parse(argv: list[str]) -> SimpleNamespace:
    """One pass over a command line: its subcommand and each flag's value,
    or the flag's default. A repeated flag's last value wins; a usage error
    exits 2 and --help exits 0, each as argparse would."""
    if not argv or argv[0] not in SUBCOMMANDS:
        first = argv[0] if argv else ""
        if first == "-h" or (len(first) > 2 and "--help".startswith(first)):
            sys.stdout.write(_help(None))
            raise SystemExit(0)
        if not argv:
            _fail(None, "the following arguments are required: command")
        choices = ", ".join(map(repr, SUBCOMMANDS))
        _fail(None, f"argument command: invalid choice: {first!r} (choose from {choices})")
    command, words = argv[0], argv[1:]
    flags = SUBCOMMANDS[command][1]
    values = {flag.dest: flag.default for flag in flags}
    given, chosen, extra, asked = set(), {}, [], False
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        if word == "--":  # only positional words follow, and no subcommand takes one
            extra += words[i - 1:]
            break
        hit = _option(command, word)
        if asked:  # past --help only an ambiguous prefix still counts
            continue
        if hit is None or hit[0] is None:
            extra.append(word)
            continue
        flag, explicit = hit
        if flag.kind in _BARE:
            if explicit is not None:
                _fail(command, f"argument {flag.name}: ignored explicit argument {explicit!r}")
            asked = flag.kind == "help"
            value = True if flag.kind == "true" else flag.name[2:]
        else:
            count = 2 if flag.kind == "int2" else 1
            if explicit is not None and count == 1:
                args = [explicit]
            else:
                args = words[i:i + count]
                if explicit is not None or len(args) < count or not all(
                    _is_value(command, a) for a in args
                ):
                    expected = "one argument" if count == 1 else f"{count} arguments"
                    _fail(command, f"argument {flag.name}: expected {expected}")
                i += count
            if flag.kind != "value":
                for j, arg in enumerate(args):
                    try:
                        args[j] = int(arg)
                    except ValueError:
                        _fail(command, f"argument {flag.name}: invalid int value: {arg!r}")
            value = args if count > 1 else args[0]
            if flag.choices and value not in flag.choices:
                choices = ", ".join(map(repr, flag.choices))
                _fail(command, f"argument {flag.name}: invalid choice: {value!r} "
                      f"(choose from {choices})")
        if flag.group:
            other = chosen.setdefault(flag.group, flag.name)
            if other != flag.name:
                _fail(command, f"argument {flag.name}: not allowed with argument {other}")
        values[flag.dest] = value
        given.add(flag.name)
    if asked:
        sys.stdout.write(_help(command))
        raise SystemExit(0)
    missing = [f.name for f in flags if f.required and not f.group and f.name not in given]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    for group in dict.fromkeys(f.group for f in flags if f.group and f.required):
        if group not in chosen:
            either = " ".join(f.name for f in flags if f.group == group)
            _fail(command, f"one of the arguments {either} is required")
    if extra:
        _fail(None, f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(command=command, **values)


def _apply_config(argv: list[str]) -> tuple[list[str], str | None]:
    """Splice the values of the --config file (either spelling; the last one
    given) in as flags right after the subcommand. The last value of a flag
    wins, so explicit flags, which come later, win; and config values get
    the same conversions, choices and required-flag checks as flags.
    Returns the new argv and the config path found."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return argv, None  # refused by the parse
    path = None
    for i, word in enumerate(argv):
        if word == "--":
            break
        if word.startswith("--config="):
            path = word[len("--config="):]
        elif word == "--config" and i + 1 < len(argv) and _is_value(argv[0], argv[i + 1]):
            path = argv[i + 1]
    if path is None:
        return argv, None
    return argv[:1] + _config_words(path) + argv[1:], path


def _config_words(path: str) -> list[str]:
    """The config file at `path` as command-line words: a flag per key, and
    its value as one word, or as one word per item of a list; true is the
    bare flag and false leaves it out."""
    doc = fileio.read_input(path, "config", json.loads)
    if not isinstance(doc, dict):
        raise fileio.ParseError(f"config {path}: expected a JSON object")
    words = []
    for key, value in doc.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                words.append(flag)
        elif isinstance(value, (list, tuple)):
            words.append(flag)
            words.extend(str(v) for v in value)
        else:
            words.extend([flag, str(value)])
    return words


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The handler's namespace for one command line (without the program
    name), --config values spliced in. A usage error raises SystemExit(2)."""
    argv, config = _apply_config(argv)
    args = _parse(argv)
    # The scan matches --config only in full; an abbreviation would
    # otherwise be accepted and its file silently ignored.
    if args.config != config:
        raise ValidationError("spell out --config in full")
    return args


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
        args = parse_args(argv)
        return HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
