import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path
from time import perf_counter

import pytest

from factional_belief import algorithms, cli, experiments, netgen
from factional_belief.cli import HANDLERS, SUBCOMMANDS, main
from factional_belief.fileio import (
    format_decimal,
    format_edge_list,
    format_rational,
    parse_edge_list,
    prior_from_dict,
)
from factional_belief.model import ConcreteGraph
from factional_belief.oracle import RevoltInstance, revolt_decision

MOTIVATING = {
    "p": "2/5",
    "mu": "1/2",
    "states": {
        "A": {"prob": "1/2", "types": {"alpha": "0", "chi": "4/5", "nu": "1/5"}},
        "B": {"prob": "1/2", "types": {"alpha": "0", "chi": "1/5", "nu": "4/5"}},
    },
}


@pytest.fixture
def prior_file(tmp_path):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(MOTIVATING))
    return str(path)


@pytest.fixture
def const4_file(tmp_path):
    path = tmp_path / "degs.txt"
    path.write_text("1000 x 4\n")
    return str(path)


class TestAnalyze:
    def test_largest(self, prior_file, const4_file, capsys):
        assert main(["analyze", "--prior", prior_file, "--degrees", const4_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "state,X_exact,X_decimal"
        assert out[1] == "A,2432/3125,0.77824"
        assert out[2] == "B,113/3125,0.03616"

    def test_smallest_leq_largest(self, prior_file, const4_file, capsys):
        assert (
            main(
                [
                    "analyze",
                    "--prior",
                    prior_file,
                    "--degrees",
                    const4_file,
                    "--smallest",
                ]
            )
            == 0
        )
        rows = capsys.readouterr().out.splitlines()[1:]
        values = {r.split(",")[0]: F(r.split(",")[1]) for r in rows}
        assert values["A"] <= F(2432, 3125) and values["B"] <= F(113, 3125)

    def test_empty_degree_file(self, prior_file, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert (
            main(["analyze", "--prior", prior_file, "--degrees", str(empty)]) == 2
        )
        assert "error" in capsys.readouterr().err

    def test_multistate(self, prior_file, const4_file, capsys):
        argv = ["analyze", "--prior", prior_file, "--degrees", const4_file]
        assert main(argv + ["--multistate"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "state,X_exact,X_decimal", "A,2432/3125,0.77824", "B,113/3125,0.03616"
        ]

    @pytest.mark.parametrize("variant", [[], ["--multistate"]])
    def test_zero_probability_state_rejected(self, variant, tmp_path, capsys):
        # Contexts only the zero-probability state produces have no posterior;
        # the two-state and multistate paths used to disagree on them.
        doc = dict(MOTIVATING, states={
            "A": {"prob": "1", "types": {"alpha": "0", "chi": "3/4", "nu": "1/4"}},
            "B": {"prob": "0", "types": {"alpha": "1/4", "chi": "1/2", "nu": "1/4"}},
        })
        prior = tmp_path / "zero.json"
        prior.write_text(json.dumps(doc))
        degrees = tmp_path / "degs2.txt"
        degrees.write_text("10 x 2\n")
        argv = ["analyze", "--prior", str(prior), "--degrees", str(degrees), *variant]
        assert main(argv) == 2
        assert "positive probability" in capsys.readouterr().err

    def test_auto_relabel(self, tmp_path, const4_file, capsys):
        swapped = dict(MOTIVATING, states={
            "A": MOTIVATING["states"]["B"],
            "B": MOTIVATING["states"]["A"],
        })
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(swapped))
        assert main(["analyze", "--prior", str(path), "--degrees", const4_file]) == 2
        assert "--auto-relabel" in capsys.readouterr().err
        assert (
            main(
                [
                    "analyze",
                    "--prior",
                    str(path),
                    "--degrees",
                    const4_file,
                    "--auto-relabel",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "swapped" in captured.err

    def test_auto_relabel_failure_names_given_labels(self, tmp_path, capsys):
        # p = 1: no context is certain of a state, so the sizes are the alpha
        # masses. A alone reaches mu but X_A = 1/10 < X_B = 1/5.
        doc = dict(MOTIVATING, p="1", states={
            "A": {"prob": "1/2", "types": {"alpha": "1/10", "chi": "1/2", "nu": "2/5"}},
            "B": {"prob": "1/2", "types": {"alpha": "1/5", "chi": "1/5", "nu": "3/5"}},
        })
        prior = tmp_path / "only_a.json"
        prior.write_text(json.dumps(doc))
        degrees = tmp_path / "degs.txt"
        degrees.write_text("2\n2\n3\n")
        argv = ["analyze", "--prior", str(prior), "--degrees", str(degrees)]
        assert main([*argv, "--auto-relabel"]) == 2
        assert capsys.readouterr().err == (
            "error: only state A is a candidate, but computed X_A < X_B; "
            "no labeling satisfies X_A >= X_B\n"
        )
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: computed X_A < X_B; labels appear swapped (rerun with --auto-relabel)\n"
        )

    def test_json_format(self, prior_file, const4_file, capsys):
        assert (
            main(
                [
                    "analyze",
                    "--prior",
                    prior_file,
                    "--degrees",
                    const4_file,
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["sizes"] == {"A": "2432/3125", "B": "113/3125"}


ALPHA_PRIOR = dict(MOTIVATING, states={
    "A": {"prob": "1/2", "types": {"alpha": "1/10", "chi": "7/10", "nu": "1/5"}},
    "B": {"prob": "1/2", "types": {"alpha": "1/20", "chi": "1/5", "nu": "3/4"}},
})
# Both states reach mu on chi+alpha, so only the threshold report builds tables.
BOTH_SURVIVE_PRIOR = dict(MOTIVATING, states={
    "A": {"prob": "1/2", "types": {"alpha": "1/10", "chi": "7/10", "nu": "1/5"}},
    "B": {"prob": "1/2", "types": {"alpha": "1/10", "chi": "1/2", "nu": "2/5"}},
})


@pytest.mark.parametrize("doc, task", [
    (ALPHA_PRIOR, ["analyze"]),
    (BOTH_SURVIVE_PRIOR, ["promise", "--mu-star", "1/2", "--epsilon", "1/100",
                          "--delta", "1/100", "--show-thresholds"]),
])
@pytest.mark.usefixtures("cold_caches")
def test_table_row_guard_exits_2(doc, task, tmp_path, monkeypatch, capsys):
    # alpha and nu are both possible, so degree 1000 has 1001 * 1002 / 2 =
    # 501,501 rows, past TABLE_ROW_GUARD, which refuses them before any is
    # listed or any kernel runs.
    def listed(*_args):
        raise AssertionError("listed rows past the guard")

    for name in ("_rows", "_row_scan", "_boundary_walk", "_multistate_walk"):
        monkeypatch.setattr(algorithms, name, listed)
    prior = tmp_path / "alpha.json"
    prior.write_text(json.dumps(doc))
    degrees = tmp_path / "degs1000.txt"
    degrees.write_text("10 x 1000\n")
    argv = [task[0], "--prior", str(prior), "--degrees", str(degrees), *task[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "501501" in captured.err and not captured.out


@pytest.mark.usefixtures("cold_caches")
def test_validate_all_survive_builds_no_table(tmp_path, monkeypatch, capsys):
    # Every state survives, so every chi vertex is a candidate and no row is
    # listed or tested; a star's leaves and degree-1000 hub still trip the
    # row guard, at 3 + 501,501 rows.
    def listed(*_args):
        raise AssertionError("listed rows")

    for name in ("_rows", "_row_scan", "_boundary_walk", "_multistate_walk"):
        monkeypatch.setattr(algorithms, name, listed)
    prior = tmp_path / "both.json"
    prior.write_text(json.dumps(BOTH_SURVIVE_PRIOR))
    path = tmp_path / "path.txt"
    path.write_text(format_edge_list(ConcreteGraph(4, [(0, 1), (1, 2), (2, 3)])))
    star = tmp_path / "star.txt"
    star.write_text(format_edge_list(ConcreteGraph(1001, [(0, v) for v in range(1, 1001)])))
    argv = ["validate", "--prior", str(prior), "--trials", "2", "--graph"]
    assert main([*argv, str(path)]) == 0
    capsys.readouterr()
    assert main([*argv, str(star)]) == 2
    captured = capsys.readouterr()
    assert "501504" in captured.err and not captured.out


# Degrees 1-8 three times and a degree-128 hub (n = 25). Outputs recorded
# with the full degree-table row scan; --general --cutoff-c 8 reveals the
# hub (cutoff 24) and runs the low degrees.
HUB_DEGREES = "".join(f"{d}\n" for d in [*range(1, 9)] * 3 + [128])
HUB_SMALLEST_PRIOR = dict(MOTIVATING, states={
    "A": {"prob": "1/2", "types": {"alpha": "3/5", "chi": "3/10", "nu": "1/10"}},
    "B": {"prob": "1/2", "types": {"alpha": "1/10", "chi": "1/5", "nu": "7/10"}},
})
HUB_SIZES = {
    "": {
        "A": (
            "349753912587384318112024144584191966709229340571862829720836127780"
            "076141617984958138474507680889030142600630326581/44408920985006261"
            "616945266723632812500000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000"
        ),
        "B": (
            "716569874124795833615382017477235384746178777392484547899767305992"
            "083087438063335583773864603416022080874596513309405736054645631995"
            "993/59863107065073783529622930748058952485106996960296960000000000"
            "000000000000000000000000000000000000000000000000000000000000000000"
            "00000000"
        ),
    },
    "--multistate": {
        "A": (
            "349753912587384318112024144584191966709229340571862829720836127780"
            "076141617984958138474507680889030142600630326581/44408920985006261"
            "616945266723632812500000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000"
        ),
        "B": (
            "716569874124795833615382017477235384746178777392484547899767305992"
            "083087438063335583773864603416022080874596513309405736054645631995"
            "993/59863107065073783529622930748058952485106996960296960000000000"
            "000000000000000000000000000000000000000000000000000000000000000000"
            "00000000"
        ),
    },
    "--smallest": {
        "A": (
            "888138714599999999921558909659314839198898445485256353115802785075"
            "789786843177471909993528226721211397401327028801573036491459731/10"
            "000000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000000000000000000000000000"
        ),
        "B": (
            "306425686600000000269539876043020508911021625822780130823329790072"
            "229323010993718465024726023352385900750032529524400742544257849/25"
            "000000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000000000000000000000000000"
        ),
    },
    "--general --cutoff-c 8": {
        "A": "61529359/78125000",
        "B": "122574251/1024000000",
    },
}
# sha256 of the 8,554-line `--show-thresholds` listing.
HUB_THRESHOLDS_SHA256 = "6d597a30e69ee7d9f6e79aa5e8af3705ba2560a69d3a492b36fd334bd0be3365"


@pytest.fixture
def hub_files(tmp_path):
    files = {"degrees": tmp_path / "hub.txt", "prior": tmp_path / "alpha.json",
             "smallest": tmp_path / "smallest.json"}
    files["degrees"].write_text(HUB_DEGREES)
    files["prior"].write_text(json.dumps(ALPHA_PRIOR))
    files["smallest"].write_text(json.dumps(HUB_SMALLEST_PRIOR))
    return {k: str(v) for k, v in files.items()}


@pytest.mark.parametrize("variant", HUB_SIZES)
def test_hub_analyze_matches_recorded_sizes(variant, hub_files, capsys):
    prior = hub_files["smallest" if variant == "--smallest" else "prior"]
    argv = ["analyze", "--prior", prior, "--degrees", hub_files["degrees"],
            *variant.split(), "--format", "json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"sizes": HUB_SIZES[variant], "relabeled": False}
    assert captured.err == ""


def test_hub_promise_matches_recorded_outcomes(hub_files, capsys):
    argv = ["promise", "--prior", hub_files["prior"], "--degrees", hub_files["degrees"],
            "--epsilon", "1/100", "--delta", "1/100", "--format", "json"]
    assert main([*argv, "--grid-step", "1/5"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["mu_star"], r["outcome"]) for r in rows] == [
        ("0", "omega"), ("1/5", "A"), ("2/5", "A"), ("3/5", "A"),
        ("4/5", "empty"), ("1", "empty"),
    ]
    assert main([*argv, "--mu-star", "1/2", "--show-thresholds"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"mu_star": "1/2", "outcome": "A"}
    listing = captured.err.encode()
    assert hashlib.sha256(listing).hexdigest() == HUB_THRESHOLDS_SHA256
    assert listing.count(b"\n") == 8554


VERTICES, TRIALS = netgen.VERTEX_GUARD + 1, experiments.TRIAL_GUARD + 1


@pytest.mark.parametrize("argv, count, expensive", [
    (f"gen --family constant --n {VERTICES} --param 2", VERTICES, "cli.generate_sequence"),
    (f"gen --family ba --n {VERTICES} --param 2 --kind graph", VERTICES,
     "cli.generate_graph"),
    (f"sweep --prior {{prior}} --family ba --n {VERTICES} --start 1 --stop 2 --step 1",
     VERTICES, "cli.run_sweep"),
    (f"sweep --prior {{prior}} --family ba --trials {TRIALS} --start 1 --stop 2 --step 1",
     TRIALS, "cli.run_sweep"),
    (f"validate --prior {{prior}} --family ba --n {VERTICES} --param 2", VERTICES,
     "cli.generate_graph"),
    ("validate --prior {prior} --torus 1001 1000", 1001000, "netgen.ConcreteGraph"),
    (f"validate --prior {{prior}} --torus 3 3 --trials {TRIALS}", TRIALS,
     "experiments.revolting_rule"),
])
def test_size_guards_exit_2(argv, count, expensive, prior_file, monkeypatch, capsys):
    # Refused before the sequence, graph, edges or trials are made.
    def made(*_args):
        raise AssertionError("made past the guard")

    monkeypatch.setattr(f"factional_belief.{expensive}", made)
    assert main(shlex.split(argv.format(prior=prior_file))) == 2
    captured = capsys.readouterr()
    assert str(count) in captured.err and not captured.out


@pytest.mark.parametrize("task", [
    ["promise", "--degrees", "{degrees}", "--epsilon", "1/200", "--delta", "1/200",
     "--grid-step", "1e-12"],
    ["sweep", "--family", "constant", "--axis", "param", "--start", "0",
     "--stop", "1", "--step", "1e-12", "--n", "10"],
])
def test_grid_point_guard_exits_2(task, prior_file, const4_file, monkeypatch, capsys):
    # 10^12 + 1 grid points, past GRID_POINT_GUARD: refused before any point
    # is built or any grid point is run.
    def ran(*_args):
        raise AssertionError("ran a grid past the guard")

    monkeypatch.setattr(cli, "run_promise_map", ran)
    monkeypatch.setattr(cli, "run_sweep", ran)
    argv = [a.format(degrees=const4_file) for a in task]
    assert main([argv[0], "--prior", prior_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert "1000000000001" in captured.err and not captured.out


class TestPromise:
    def test_single_point(self, prior_file, const4_file, capsys):
        assert (
            main(
                [
                    "promise",
                    "--prior",
                    prior_file,
                    "--degrees",
                    const4_file,
                    "--mu-star",
                    "0",
                    "--epsilon",
                    "1/200",
                    "--delta",
                    "1/200",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["outcome"] == "omega"

    @pytest.mark.parametrize("value", ["2", "-1"])
    def test_mu_star_out_of_range_exits_2(self, value, prior_file, const4_file, capsys):
        argv = ["promise", "--prior", prior_file, "--degrees", const4_file,
                f"--mu-star={value}", "--epsilon", "1/200", "--delta", "1/200"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mu_star must lie in [0, 1]\n"

    @pytest.mark.parametrize("request_flags, error", [
        (["--mu-star=2", "--epsilon", "1/100"], "mu_star must lie in [0, 1]"),
        (["--grid-step", "1/4", "--epsilon", "0"], "epsilon and delta must be positive"),
    ])
    def test_invalid_request_lists_no_thresholds(
        self, request_flags, error, prior_file, tmp_path, capsys
    ):
        degrees = tmp_path / "degs.txt"
        degrees.write_text("1\n2\n3\n16\n")
        argv = ["promise", "--prior", prior_file, "--degrees", str(degrees),
                *request_flags, "--delta", "1/100", "--show-thresholds"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_show_thresholds(self, prior_file, const4_file, capsys):
        argv = ["promise", "--prior", prior_file, "--degrees", const4_file,
                "--mu-star", "3/5", "--epsilon", "1/200", "--delta", "1/200",
                "--show-thresholds"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "mu_star,mu_star_decimal,outcome\n3/5,0.6,A\n"
        thresholds = json.loads(captured.err)
        assert {k: thresholds[k] for k in list(thresholds)[:4]} == {
            "e_A(chi+alpha)": "4/5",
            "e_B(chi+alpha)": "1/5",
            "e_A(candidates+alpha)": "2432/3125",
            "posterior_A_level_0": "1/65",
        }

    def test_point_is_its_grid_row(self, prior_file, const4_file, capsys):
        base = ["promise", "--prior", prior_file, "--degrees", const4_file,
                "--epsilon", "1/200", "--delta", "1/200"]
        assert main(base + ["--grid-step", "1/20"]) == 0
        grid_rows = capsys.readouterr().out.splitlines()
        assert len(grid_rows) == 22
        for row in grid_rows[1:]:
            mu_star, _, outcome = row.split(",")
            assert main(base + ["--mu-star", mu_star]) == 0
            assert capsys.readouterr().out.splitlines() == [grid_rows[0], row]
            assert main(base + ["--mu-star", mu_star, "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == {"mu_star": mu_star, "outcome": outcome}

    def test_strict_null_exit_code(self, tmp_path, const4_file):
        # mu placed inside the epsilon/3 window around e_B(chi+alpha) = 1/5
        doc = dict(MOTIVATING, mu="241/1200")
        path = tmp_path / "null.json"
        path.write_text(json.dumps(doc))
        args = [
            "promise",
            "--prior",
            str(path),
            "--degrees",
            const4_file,
            "--mu-star",
            "3/20",
            "--epsilon",
            "1/200",
            "--delta",
            "1/200",
        ]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 4


def test_p_sweep_range_checked_before_sampling(prior_file, monkeypatch, capsys):
    def sampled(*_args):
        raise AssertionError("sampled a sequence")

    monkeypatch.setattr(experiments, "generate_sequence", sampled)
    argv = (f"sweep --prior {prior_file} --family er --axis p --param 1/30 "
            "--start 1/2 --stop 3/2 --step 1/2 --n 50 --trials 3")
    assert main(shlex.split(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p sweep values must lie in [0, 1]\n"


class TestSweepDeterminism:
    def test_same_seed_byte_identical(self, prior_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep",
            "--prior",
            prior_file,
            "--family",
            "er",
            "--axis",
            "param",
            "--start",
            "1/500",
            "--stop",
            "1/100",
            "--step",
            "1/250",
            "--n",
            "120",
            "--trials",
            "4",
            "--seed",
            "99",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_differs(self, prior_file, tmp_path):
        outs = []
        for seed in ("99", "100"):
            path = tmp_path / f"s{seed}.csv"
            main(
                [
                    "sweep",
                    "--prior",
                    prior_file,
                    "--family",
                    "er",
                    "--axis",
                    "param",
                    "--start",
                    "1/100",
                    "--stop",
                    "1/100",
                    "--step",
                    "1",
                    "--n",
                    "120",
                    "--trials",
                    "4",
                    "--seed",
                    seed,
                    "--out",
                    str(path),
                ]
            )
            outs.append(path.read_bytes())
        assert outs[0] != outs[1]


class TestOracleCommand:
    def test_triangle_clique_reduce(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text(format_edge_list(ConcreteGraph(3, [(0, 1), (1, 2), (0, 2)])))
        assert main(["oracle", "--graph", str(path), "--clique-reduce", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["revolt_supported"] and doc["clique_exists"]
        assert doc["probability_exact"] == "970299/2000000"

    def test_budget_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c30.txt"
        path.write_text(
            format_edge_list(ConcreteGraph(30, [(i, (i + 1) % 30) for i in range(30)]))
        )
        assert main(["oracle", "--graph", str(path), "--clique-reduce", "3"]) == 3

    def test_inline_edges(self, capsys):
        assert main(["oracle", "--edges", "0-1,1-2,0-2", "--clique-reduce", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["revolt_supported"]

    def test_bad_inline_edges(self, capsys):
        assert main(["oracle", "--edges", "0:1", "--clique-reduce", "1"]) == 2

    @pytest.mark.parametrize("source, graph", [
        ("graph", ConcreteGraph(3, [(0, 1), (1, 2), (0, 2)])),
        ("edges", ConcreteGraph(4, [(0, 1), (1, 2)])),  # vertex 3 is isolated
    ])
    def test_prior_decision(self, source, graph, tmp_path, capsys):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps(ALPHA_PRIOR))
        if source == "graph":
            path = tmp_path / "graph.txt"
            path.write_text(format_edge_list(graph))
            argv = ["--graph", str(path)]
        else:
            argv = ["--edges", "0-1,1-2", "--n", "4"]
        thresholds = ["--mu-star", "1/2", "--q-star", "1/4"]
        assert main(["oracle", *argv, "--prior", str(prior), *thresholds]) == 0
        doc = json.loads(capsys.readouterr().out)
        inst = RevoltInstance(graph, prior_from_dict(ALPHA_PRIOR), F(1, 2), F(1, 4))
        supported, prob = revolt_decision(inst)
        assert doc == {
            "n": graph.n,
            "mu_star": "1/2",
            "q_star": "1/4",
            "revolt_supported": supported,
            "probability_exact": format_rational(prob),
            "probability_decimal": format_decimal(prob),
        }


HALVES = {"1": "1/2", "2": "1/2"}


class TestEpistemicCommand:
    def test_die_report(self, tmp_path, capsys):
        model = {
            "outcomes": ["1", "2", "3", "4", "5", "6"],
            "prob": {str(i): "1/6" for i in range(1, 7)},
            "partitions": {"i": [["1", "2", "3", "4", "5", "6"]]},
        }
        path = tmp_path / "die.json"
        path.write_text(json.dumps(model))
        assert (
            main(
                [
                    "epistemic",
                    "--model",
                    str(path),
                    "--p",
                    "1/2",
                    "--mu",
                    "1",
                    "--event",
                    "2,4,6",
                    "--omega",
                    "3",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["common_belief_event"] == ["1", "2", "3", "4", "5", "6"]
        assert doc["common_at_omega_fixpoint"] and doc["common_at_omega_search"]

    def test_int_labelled_model(self, tmp_path, capsys):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({
            "outcomes": [1, 2],
            "prob": {"1": "1/2", "2": "1/2"},
            "partitions": {"i": [[1], [2]]},
        }))
        assert main(["epistemic", "--model", str(path), "--event", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beliefs"] == {"i": ["1"]} and doc["common_belief_event"] == ["1"]

    @pytest.mark.parametrize("doc, message", [
        ([{"outcomes": ["1"]}], "model document must be a JSON object"),
        ({"outcomes": ["1"], "prob": ["1"], "partitions": {"i": [["1"]]}},
         "model prob must be a JSON object"),
        ({"outcomes": ["1"], "prob": {"1": "1"}, "partitions": [["1"]]},
         "model partitions must be a JSON object"),
        # The model checks the loader reaches.
        ({"outcomes": [], "prob": {}, "partitions": {"i": []}}, "outcome space must be nonempty"),
        ({"outcomes": ["1", "2"], "prob": {"1": "0", "2": "1"}, "partitions": {"i": [["1", "2"]]}},
         "outcome '1' must have positive probability"),
        ({"outcomes": ["1", "2"], "prob": {"1": "1/2", "2": "1/3"},
          "partitions": {"i": [["1", "2"]]}}, "probabilities must sum to exactly 1"),
        ({"outcomes": ["1", "2"], "prob": HALVES, "partitions": {"i": [[], ["1", "2"]]}},
         "partition cells must be nonempty"),
        ({"outcomes": ["1", "2"], "prob": HALVES, "partitions": {}}, "at least one agent required"),
        ({"outcomes": ["1", "2"], "prob": HALVES, "partitions": {"i": [["1", "3"], ["2"]]}},
         "partition of agent 'i' leaves the outcome space"),
        ({"outcomes": ["1", "2"], "prob": HALVES, "partitions": {"i": [["1", "2"], ["2"]]}},
         "partition cells of agent 'i' overlap"),
        ({"outcomes": ["1", "2"], "prob": HALVES, "partitions": {"i": [["1"]]}},
         "partition of agent 'i' does not cover the space"),
    ])
    def test_malformed_model_exits_2(self, doc, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["epistemic", "--model", str(path), "--event", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--mu", "-1/2", "mu must lie in [0, 1]"),
        ("--p", "-1/3", "p must lie in [0, 1]"),
        ("--p", "-5.", "p must lie in [0, 1]"),
        ("--mu-star", "-2.5E-3", "mu_star must lie in [0, 1]"),
    ])
    def test_negative_fraction_reaches_range_check(self, flag, value, message, files, capsys):
        # A negative number in any spelling of the rational grammar is the
        # flag's value, not a flag (--mu-star is promise's).
        command = PROMISE if flag == "--mu-star" else "epistemic --model {model} --event 1 "
        argv = [*command.format(**files).split(), flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_verify_prop1(self, capsys):
        assert main(["epistemic", "--verify-prop1", "8", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_agree"] and doc["models"] == 8


class TestGenCommand:
    def test_sequence_deterministic(self, tmp_path):
        args = [
            "gen",
            "--family",
            "ba",
            "--n",
            "40",
            "--param",
            "2",
            "--seed",
            "8",
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_graph_output(self, tmp_path):
        out = tmp_path / "g.txt"
        assert (
            main(
                [
                    "gen",
                    "--family",
                    "er",
                    "--n",
                    "15",
                    "--param",
                    "1/5",
                    "--seed",
                    "3",
                    "--kind",
                    "graph",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        from factional_belief.fileio import load_edge_list

        assert load_edge_list(out).n == 15

    @pytest.mark.parametrize("family, param", [
        ("er", "1/5"), ("ba", "2"), ("powerlaw", "5/2"), ("constant", "3"),
    ])
    @pytest.mark.parametrize("kind", ["graph", "sequence"])
    def test_stdout_equals_out_file(self, family, param, kind, tmp_path, capsys):
        argv = ["gen", "--family", family, "--n", "30", "--param", param,
                "--seed", "5", "--kind", kind]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "g.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout != ""

    def test_stdout_graph_keeps_isolated_last_vertex(self, capsys):
        # This graph's vertex 19 has no edge; only the "# n 20" header
        # keeps it on reload.
        argv = ["gen", "--family", "er", "--n", "20", "--param", "1/20",
                "--seed", "0", "--kind", "graph"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text.startswith("# n 20\n")
        assert parse_edge_list(text).n == 20


class TestBoundsCommand:
    def test_table(self, prior_file, const4_file, capsys):
        assert (
            main(["bounds", "--prior", prior_file, "--degrees", const4_file]) == 0
        )
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "name,value,clamped,inputs"
        table = {line.split(",")[0]: line.split(",")[1] for line in out[1:]}
        assert table["dependency_chi_star_bound"] == "17"
        assert table["noncandidate_expectation_A"] == "693/3125"
        assert table["markov_noncandidate_bound"] == "1386/3125"

    @pytest.mark.parametrize("n", ["0", "-3", "-5"])
    @pytest.mark.parametrize("with_degrees", [False, True])
    def test_n_below_one_exits_2(self, n, with_degrees, prior_file, const4_file, capsys):
        # --n 0 is refused, not read as absent.
        argv = ["bounds", "--prior", prior_file, "--n", n]
        assert main(argv + (["--degrees", const4_file] if with_degrees else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--n must be at least 1" in captured.err

    def test_bound_below_decimal_range_exits_2(self, prior_file, capsys):
        # The tail e^(-2*10^20) is refused, never printed as 0.
        argv = ["bounds", "--prior", prior_file, "--n", "1", "--epsilon0", "10000000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bound is below 1E-" in captured.err


@pytest.mark.parametrize("level", ["4", "3/2", "0", "-1/2"])
def test_validate_level_outside_unit_interval_exits_2(level, prior_file, capsys):
    argv = ["validate", "--prior", prior_file, "--torus", "3", "3", "--trials", "1"]
    assert main(argv + [f"--level={level}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "0 < level <= 1" in captured.err


class TestConfigFile:
    def test_config_supplies_defaults(self, prior_file, const4_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": prior_file, "degrees": const4_file}))
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert "2432/3125" in capsys.readouterr().out

    def test_flag_overrides_config(self, prior_file, const4_file, tmp_path, capsys):
        other = tmp_path / "degs1.txt"
        other.write_text("1000 x 1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": prior_file, "degrees": str(other)}))
        assert (
            main(["analyze", "--config", str(cfg), "--degrees", const4_file]) == 0
        )
        assert "2432/3125" in capsys.readouterr().out

    def test_config_equals_form(self, prior_file, const4_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": prior_file, "degrees": const4_file}))
        assert main(["analyze", f"--config={cfg}"]) == 0
        assert "2432/3125" in capsys.readouterr().out

    def test_flag_equals_form_overrides_config(
        self, prior_file, const4_file, tmp_path, capsys
    ):
        flat = dict(MOTIVATING, states={
            "A": MOTIVATING["states"]["B"],
            "B": MOTIVATING["states"]["B"],
        })
        other = tmp_path / "flat.json"
        other.write_text(json.dumps(flat))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": str(other), "degrees": const4_file}))
        assert main(["analyze", "--config", str(cfg), f"--prior={prior_file}"]) == 0
        assert "2432/3125" in capsys.readouterr().out

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["--smallest"]))
        assert main(["analyze", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {cfg}: expected a JSON object\n"

    def test_list_value_is_spliced_as_words(self, prior_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"torus": [3, 3]}))
        argv = ["validate", "--prior", prior_file, "--trials", "2"]
        assert main(argv + ["--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(argv + ["--torus", "3", "3"]) == 0
        assert capsys.readouterr().out == from_config != ""

    def test_abbreviated_config_flag_exits_2(self, prior_file, const4_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"smallest": True}))
        argv = ["analyze", "--prior", prior_file, "--degrees", const4_file]
        assert main(argv + ["--conf", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spell out --config in full\n"

    def test_jobs_is_a_sweep_flag(self, prior_file, const4_file):
        argv = ["analyze", "--prior", prior_file, "--degrees", const4_file]
        with pytest.raises(SystemExit):
            main(argv + ["--jobs", "7"])

    def test_validate_command_on_small_torus(self, prior_file, capsys):
        assert (
            main(
                [
                    "validate",
                    "--prior",
                    prior_file,
                    "--torus",
                    "5",
                    "8",
                    "--trials",
                    "20",
                    "--seed",
                    "4",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 20
        assert doc["expected_candidate_fraction"] == "2432/3125"
        assert doc["envelope_violations"] == 0


@pytest.fixture
def files(prior_file, const4_file, tmp_path):
    """Input paths for the flag-surface tests, keyed for str.format."""
    tri = tmp_path / "tri.txt"
    tri.write_text(format_edge_list(ConcreteGraph(3, [(0, 1), (1, 2), (0, 2)])))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "outcomes": ["1", "2"],
        "prob": {"1": "1/2", "2": "1/2"},
        "partitions": {"i": [["1"], ["2"]]},
    }))
    smallest = tmp_path / "smallest.json"
    smallest.write_text(json.dumps({"smallest": True}))
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({"seed": 3}))
    return {
        "prior": prior_file, "degrees": const4_file, "tri": str(tri),
        "model": str(model), "cfg_smallest": str(smallest), "cfg_seed": str(seed),
    }


ANALYZE = "analyze --prior {prior} --degrees {degrees} "
PROMISE = "promise --prior {prior} --degrees {degrees} --epsilon 1/200 --delta 1/200 "
VALIDATE = "validate --prior {prior} --trials 2 "
ORACLE = "oracle --graph {tri} --clique-reduce 3 "
SWEEP = "sweep --prior {prior} --family er --n 10 --start 1/2 --stop 1/2 --step 1 --trials 2 "

PARSER_CONFLICTS = [
    ANALYZE + f"--{a} --{b}"
    for a, b in combinations(("smallest", "general", "multistate", "auto-relabel"), 2)
] + [
    ANALYZE + "--config {cfg_smallest} --multistate",
    PROMISE + "--mu-star 3/5 --grid-step 1/2",
    PROMISE,
    VALIDATE + "--graph {tri} --torus 5 5",
    VALIDATE + "--graph {tri} --family er --n 10 --param 1/2",
    VALIDATE + "--torus 5 5 --family er --n 10 --param 1/2",
    VALIDATE,
    "oracle --graph {tri} --edges 0-1 --n 5 --clique-reduce 3",
    "oracle --clique-reduce 3",
    "oracle --graph {tri} --clique-reduce 2 --prior {prior} --mu-star 1/2 --q-star 1/2",
    "oracle --graph {tri}",
    "epistemic --model {model} --event 1 --verify-prop1 2",
    "epistemic --p 1/2",
]

HANDLER_CONFLICTS = [
    (ORACLE + "--mu-star 1/2 --q-star 1/2", "not --clique-reduce"),
    (ORACLE + "--q-star 1/2", "not --clique-reduce"),
    ("oracle --graph {tri} --prior {prior} --mu-star 1/2", "needs --mu-star and --q-star"),
    ("epistemic --verify-prop1 2 --event 1", "not --verify-prop1"),
    ("epistemic --verify-prop1 2 --omega 1", "not --verify-prop1"),
    ("epistemic --verify-prop1 0", "positive COUNT"),
    ("epistemic --model {model} --omega 1", "needs --event"),
]

REMOVED_FLAGS = [
    ANALYZE + "--seed 3",
    ANALYZE + "--config {cfg_seed}",
    PROMISE + "--mu-star 3/5 --seed 3",
    ORACLE + "--seed 3",
    "bounds --prior {prior} --seed 3",
    ORACLE + "--format csv",
    "epistemic --verify-prop1 2 --format csv",
    "gen --family constant --n 5 --param 2 --format csv",
]


class TestFlagSurface:
    @pytest.mark.parametrize("line", PARSER_CONFLICTS + REMOVED_FLAGS)
    def test_parser_rejects(self, line, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(shlex.split(line.format(**files)))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("line, message", HANDLER_CONFLICTS)
    def test_handler_rejects(self, line, message, files, capsys):
        assert main(shlex.split(line.format(**files))) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_seed_and_format_placement(self):
        takes = {
            flag: {
                name for name, (_text, flags) in SUBCOMMANDS.items()
                if any(f.name == flag for f in flags)
            }
            for flag in ("--seed", "--format", "--config", "--out")
        }
        assert takes["--seed"] == {"sweep", "validate", "epistemic", "gen"}
        assert takes["--format"] == {"analyze", "promise", "sweep", "validate", "bounds"}
        assert takes["--config"] == takes["--out"] == set(SUBCOMMANDS)


def _readme_commands() -> list[str]:
    """Every `revolt <subcommand> ...` line of README.md, with backslash
    continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = text.replace("\\\n", " ")
    return [
        line.strip()
        for line in text.splitlines()
        if re.match(r"\s*revolt [a-z]", line)
    ]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    argv = shlex.split(line)
    assert argv[0] == "revolt"
    assert cli.parse_args(argv[1:]).command == argv[1]


def test_readme_has_an_example_per_subcommand():
    used = {shlex.split(line)[1] for line in _readme_commands()}
    assert used == set(HANDLERS)


UNREAD_FLAGS = [
    (ANALYZE + "--cutoff-c 7", "--cutoff-c goes with --general"),
    (ANALYZE + "--epsilon 1/3 --multistate", "--epsilon goes with --general"),
    (ANALYZE + "--config {cfg_cutoff}", "--cutoff-c goes with --general"),
    (ORACLE + "--n 5", "--n goes with --edges"),
    ("epistemic --model {model} --event 1 --seed 5", "--seed goes with --verify-prop1"),
    ("epistemic --model {model} --event 1 --config {cfg_seed}", "--seed goes with"),
    ("epistemic --verify-prop1 2 --p 1/3", "--p goes with --model"),
    ("epistemic --verify-prop1 2 --mu 1/3", "--mu goes with --model"),
    (VALIDATE + "--torus 5 5 --n 10", "--n goes with --family"),
    (VALIDATE + "--graph {tri} --param 1/2", "--param goes with --family"),
    ("bounds --prior {prior} --n 5 --epsilon -1", "--epsilon goes with --degrees"),
    (SWEEP + "--param 7/3", "--param goes with --axis p"),
]


class TestUnreadFlags:
    """A flag whose value only another branch reads exits 2, also as a
    --config key; left out, the branch that reads it applies its default."""

    @pytest.fixture
    def unread_files(self, files, tmp_path):
        cutoff = tmp_path / "cutoff.json"
        cutoff.write_text(json.dumps({"cutoff_c": "7"}))
        return dict(files, cfg_cutoff=str(cutoff))

    @pytest.mark.parametrize("line, message", UNREAD_FLAGS)
    def test_rejected(self, line, message, unread_files, capsys):
        assert main(shlex.split(line.format(**unread_files))) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize(
        "line, defaults",
        [
            (ANALYZE + "--general", "--cutoff-c 1 --epsilon 1/100"),
            ("epistemic --model {model} --event 1", "--p 1/2 --mu 1/2"),
            ("epistemic --verify-prop1 3", "--seed 0"),
            ("bounds --prior {prior} --degrees {degrees}", "--epsilon 1/50"),
        ],
    )
    def test_defaults(self, line, defaults, files, capsys):
        outputs = []
        for argv in (line, f"{line} {defaults}"):
            assert main(shlex.split(argv.format(**files))) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""


OUT_OF_RANGE = [
    (SWEEP + "--jobs -3", "jobs must be at least 1"),
    (SWEEP + "--jobs 0", "jobs must be at least 1"),
    ("oracle --edges 0-1,1-2 --prior {prior} --mu-star 1/2 --q-star -1",
     "mu_star and q_star must lie in [0, 1]"),
    ("oracle --edges 0-1,1-2 --prior {prior} --mu-star 2 --q-star 1/2",
     "mu_star and q_star must lie in [0, 1]"),
    (SWEEP + "--seed -1", "seed must be an unsigned 64-bit integer"),
    ("sweep --prior {prior} --family constant --n 10 --start 2 --stop 2 --step 1 --seed -1",
     "seed must be an unsigned 64-bit integer"),
    (VALIDATE + "--torus 3 3 --seed -1", "seed must be an unsigned 64-bit integer"),
    (VALIDATE + f"--torus 3 3 --seed {2**64}", "seed must be an unsigned 64-bit integer"),
    ("epistemic --verify-prop1 2 --seed -1", "seed must be an unsigned 64-bit integer"),
    ("gen --family er --n 5 --param 1/2 --seed -1", "seed must be an unsigned 64-bit integer"),
]


# Arguments that are missing or malformed exit the same way.
MISSING_ARGUMENTS = [
    (VALIDATE + "--family ba", "generated validate graphs need --n and --param"),
    (VALIDATE + "--family ba --n 10", "generated validate graphs need --n and --param"),
    (VALIDATE + "--family ba --param 2", "generated validate graphs need --n and --param"),
    ("oracle --edges 0-1-2 --clique-reduce 3", "bad inline edge list '0-1-2'; want 'u-v,u-v'"),
    ("bounds --prior {prior}", "bounds needs --degrees or --n"),
    ("gen --family ba --n 10 --param 3/2", "family 'ba' needs an integer parameter, got 3/2"),
    (VALIDATE + "--family ba --n 10 --param 3/2",
     "family 'ba' needs an integer parameter, got 3/2"),
]


@pytest.mark.parametrize("line, message", OUT_OF_RANGE + MISSING_ARGUMENTS)
def test_out_of_range_exits_2(line, message, files, capsys):
    assert main(shlex.split(line.format(**files))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


UNREADABLE = [
    ("analyze --prior {bad} --degrees {degrees}", "prior file"),
    ("analyze --prior {prior} --degrees {bad}", "degree file"),
    ("epistemic --model {bad} --event 1", "model file"),
    ("oracle --graph {bad} --clique-reduce 3", "edge list"),
    ("validate --prior {prior} --graph {bad}", "edge list"),
    ("analyze --prior {prior} --degrees {degrees} --config {bad}", "config"),
]


@pytest.mark.parametrize("line, what", UNREADABLE)
def test_missing_input_file_exits_2(line, what, files, tmp_path, capsys):
    bad = tmp_path / "missing.txt"
    assert main(shlex.split(line.format(bad=bad, **files))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {what} {bad}: [Errno 2] No such file or directory: {str(bad)!r}\n"
    )


@pytest.mark.parametrize("line, what", UNREADABLE)
def test_non_utf8_input_file_exits_2(line, what, files, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    data = b"\xff\xfe4 4\n"
    bad.write_bytes(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        detail = str(exc)
    assert main(shlex.split(line.format(bad=bad, **files))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: cannot read {what} {bad}: {detail}\n"


@pytest.mark.parametrize("line, what", [
    ("epistemic --model {bad} --event 1", "model file"),
    ("analyze --prior {bad} --degrees {degrees}", "prior file"),
    ("analyze --prior {prior} --degrees {degrees} --config {bad}", "config"),
])
def test_malformed_json_input_exits_2(line, what, files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    try:
        json.loads("{")
    except json.JSONDecodeError as exc:
        detail = str(exc)
    assert main(shlex.split(line.format(bad=bad, **files))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: cannot read {what} {bad}: {detail}\n"


class TestHugeNumbers:
    def test_huge_cutoff_means_no_hubs(self, files, capsys):
        assert main(shlex.split(ANALYZE.format(**files))) == 0
        plain = capsys.readouterr().out
        line = ANALYZE + "--general --cutoff-c 1e120"
        assert main(shlex.split(line.format(**files))) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize(
        "family, message",
        [("er", "p_edge must lie in [0, 1]"), ("powerlaw", "gamma is out of float range")],
    )
    def test_generator_parameter_beyond_float(self, family, message, capsys):
        assert main(["gen", "--family", family, "--n", "5", "--param", "1e400"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestInputGuards:
    def test_bad_vertex_count_header_exits_2(self, prior_file, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("# n abc\n0 1\n")
        assert main(["validate", "--prior", prior_file, "--graph", str(graph)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {graph}:1: vertex count in '# n abc' is not a nonnegative integer\n"
        )

    @pytest.mark.parametrize("where", ["flag", "prior"])
    def test_huge_decimal_exponent_exits_2_quickly(self, where, const4_file, tmp_path, capsys):
        # Fraction would expand 10**100000000 for minutes before answering.
        huge = "1e100000000"
        doc = dict(MOTIVATING, p=huge if where == "prior" else MOTIVATING["p"])
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps(doc))
        line = PROMISE.format(prior=prior, degrees=const4_file)
        line += f"--mu-star {huge if where == 'flag' else '1/2'}"
        start = perf_counter()
        assert main(shlex.split(line)) == 2
        assert perf_counter() - start < 5
        captured = capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        assert captured.out == "" and captured.err == (
            f"error: bad rational {huge!r}: exponent past {limit}, "
            "the interpreter's integer-digit limit\n"
        )

    def test_long_decimal_exits_2_with_a_short_line(self, prior_file, const4_file, capsys):
        # Fraction would compute 10**100000 first; the error shows the text's
        # head and length, not its 100,002 characters.
        line = PROMISE.format(prior=prior_file, degrees=const4_file)
        start = perf_counter()
        assert main(shlex.split(line) + ["--mu-star", "0." + "1" * 100_000]) == 2
        assert perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 300
        assert captured.err.startswith("error: bad rational '0.111")
        assert "(100002 characters)" in captured.err

    def test_run_length_past_vertex_guard_exits_2(self, prior_file, tmp_path, monkeypatch,
                                                  capsys):
        degrees = tmp_path / "degrees.txt"
        degrees.write_text("1000000000000x4\n")
        monkeypatch.setattr(
            "factional_belief.algorithms._candidate_masses", lambda *args: pytest.fail("ran")
        )
        assert main(["analyze", "--prior", prior_file, "--degrees", str(degrees)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: graphs limited to 1000000 vertices, not 1000000000000\n"
        )


@pytest.mark.parametrize("states", [
    [{"label": "A", "prob": "1"}],
    {"A": {"prob": "1/2", "types": "chi"}, "B": {"prob": "1/2", "types": {"nu": "1"}}},
])
def test_malformed_prior_exits_2(states, const4_file, tmp_path, capsys):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps(dict(MOTIVATING, states=states)))
    assert main(["analyze", "--prior", str(prior), "--degrees", const4_file]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "JSON object" in captured.err
    assert not captured.out


@pytest.mark.parametrize("doc, value", [
    (dict(MOTIVATING, p=True), True),
    (dict(MOTIVATING, states=dict(MOTIVATING["states"], B=dict(MOTIVATING["states"]["B"],
                                                                prob=False))), False),
])
def test_boolean_in_prior_exits_2(doc, value, const4_file, tmp_path, capsys):
    # JSON true and false are not the rationals 1 and 0.
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps(doc))
    assert main(["analyze", "--prior", str(prior), "--degrees", const4_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: refusing bool {value}; pass a rational string like '2/5'\n"
    )


@pytest.mark.parametrize("argv, count, allocation", [
    ("validate --prior {prior} --graph {header}", 500000000, "model._edge_array"),
    ("oracle --graph {header} --clique-reduce 2", 500000000, "model._edge_array"),
    ("oracle --edges 0-1 --n 2000000 --clique-reduce 2", 2000000, "model._edge_array"),
    ("oracle --edges 0-1999999 --clique-reduce 2", 2000000, "model._edge_array"),
    ("gen --family er --n 1000000 --param 1/2 --kind graph", 249999750000, "netgen._Stream"),
    ("validate --prior {prior} --family er --n 1000000 --param 1/3", 166666500000,
     "netgen._Stream"),
    ("sweep --prior {prior} --family er --n 1000000 --start 1/100 --stop 1/100 --step 1",
     4999995000, "netgen._Stream"),
    ("gen --family ba --n 1000000 --param 600000", 240000000000, "netgen._Stream"),
    ("gen --family constant --n 4000 --param 3999 --kind graph", 7998000,
     "netgen.is_graphical"),
    ("validate --prior {prior} --family constant --n 1000000 --param 4", 2000000,
     "netgen.is_graphical"),
])
def test_graph_guards_exit_2(argv, count, allocation, prior_file, tmp_path, monkeypatch,
                             capsys):
    # Every graph source refuses past VERTEX_GUARD vertices or EDGE_GUARD
    # (expected) edges before the graph or its draws are made.
    def made(*_args):
        raise AssertionError("made past the guard")

    header = tmp_path / "header.txt"
    header.write_text("# n 500000000\n0 1\n")
    monkeypatch.setattr(f"factional_belief.{allocation}", made)
    assert main(shlex.split(argv.format(prior=prior_file, header=header))) == 2
    captured = capsys.readouterr()
    assert str(count) in captured.err and not captured.out


def _called(line, capsys):
    """(exit code, stdout, stderr) of one call, usage errors included."""
    try:
        code = main(shlex.split(line))
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


SUBCOMMAND_CALLS = {  # a success and a usage error the subparser reports
    "analyze": (ANALYZE, ANALYZE + "--smallest --general"),
    "promise": (PROMISE + "--mu-star 3/5", PROMISE),
    "sweep": ("sweep --prior {prior} --family constant --n 10 --start 2 --stop 4 --step 2",
              "sweep --prior {prior} --family ring --start 1 --stop 2 --step 1"),
    "validate": (VALIDATE + "--torus 5 5", VALIDATE),
    "oracle": (ORACLE, "oracle --graph {tri}"),
    "epistemic": ("epistemic --model {model} --event 1", "epistemic --event 1"),
    "gen": ("gen --family ba --n 20 --param 2 --kind graph", "gen --family ba --n x"),
    "bounds": ("bounds --prior {prior} --degrees {degrees}", "bounds --n 5"),
}


@pytest.mark.parametrize("command", SUBCOMMAND_CALLS)
def test_one_subparser_answers_as_the_full_tree(command, files, capsys):
    # Help lists one line per flag of the subcommand's table and exits 0; a
    # usage error exits 2 under the subcommand's usage; an unknown flag
    # exits 2 under the top-level usage, which lists every subcommand.
    success, usage = SUBCOMMAND_CALLS[command]
    lines = [f"{command} --help", usage, success + " --bogus 1", success]
    called = [_called(line.format(**files), capsys) for line in lines]
    assert [code for code, _out, _err in called] == [0, 2, 2, 0]
    (_, help_out, help_err), (_, _, usage_err), (_, bogus_out, bogus_err) = called[:3]
    assert help_out.startswith(f"usage: revolt {command} [-h]") and help_err == ""
    rows = help_out.partition("\noptions:\n")[2].splitlines()
    assert [row.split()[0] for row in rows] == ["-h,"] + [f.name for f in SUBCOMMANDS[command][1]]
    assert usage_err.startswith(f"usage: revolt {command} [-h]")
    assert f"\nrevolt {command}: error: " in usage_err
    assert bogus_out == "" and bogus_err == (
        "usage: revolt [-h] {analyze,promise,sweep,validate,oracle,epistemic,gen,bounds} ...\n"
        "revolt: error: unrecognized arguments: --bogus 1\n"
    )


@pytest.mark.parametrize("line", ["--help", "", "bogus --n 1", "--n 1 analyze"])
def test_unnamed_subcommand_builds_the_full_tree(line, capsys):
    code, out, err = _called(line, capsys)
    assert code == (0 if line == "--help" else 2)
    assert "{analyze,promise,sweep,validate,oracle,epistemic,gen,bounds}" in (
        out if code == 0 else err
    )


def test_help_before_a_negative_fraction_shows_help(capsys):
    # A negative fraction is a value only after a flag that takes one.
    code, out, err = _called("epistemic --help -1/2", capsys)
    assert code == 0 and out.startswith("usage: revolt epistemic [-h]") and err == ""


def test_config_prescan_only_with_a_config_flag(monkeypatch):
    def read(*_args):
        raise AssertionError("read a config file")

    monkeypatch.setattr(cli.fileio, "read_input", read)
    for argv in (
        ["analyze", "--prior", "p.json", "--degrees", "d.txt"],
        ["analyze", "--prior", "p.json", "--conf", "c.json"],
        ["analyze", "--prior", "p.json", "--", "--config", "c.json"],
    ):
        assert cli._apply_config(argv) == (argv, None)


NUMPY_MA_PROBE = """
import json, sys
from factional_belief.cli import main
for argv in json.loads(sys.argv[1]):
    main(argv)
    assert "numpy.ma" not in sys.modules, argv
"""


def test_jobs_do_not_import_numpy_ma(prior_file, tmp_path):
    # numpy.ma costs tens of ms to import in a fresh process; a plain
    # np.unique (and np.isin on wide keys) imports it.
    lines = [
        "validate --prior {prior} --family ba --n 1000 --param 2 --trials 2",
        "validate --prior {prior} --torus 10 10 --trials 2 --format json",
        "oracle --edges 0-1,1-2,2-0,2-3 --clique-reduce 3",
        "sweep --prior {prior} --family er --n 100 --start 1/50 --stop 2/50 --step 1/50 "
        "--trials 3",
        "sweep --prior {prior} --family ba --n 100 --start 1 --stop 2 --step 1 --trials 3",
        "gen --family er --n 100 --param 1/20 --kind graph",
        "gen --family ba --n 100 --param 2 --kind graph",
        "gen --family powerlaw --n 100 --param 5/2 --kind graph",
    ]
    argvs = [shlex.split(line.format(prior=prior_file)) for line in lines]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


ARGPARSE_PROBE = """
import json, sys
from factional_belief.cli import main
for argv in json.loads(sys.argv[1]):
    try:
        main(argv)
    except SystemExit:
        pass
    for name in ("argparse", "gettext"):
        assert name not in sys.modules, (name, argv)
"""


def test_jobs_do_not_import_argparse(files, tmp_path):
    # The flag tables are read by the CLI's own parser: no subcommand, help
    # text or usage error imports argparse, or gettext, which it imports.
    lines = ["--help", "bogus"] + [f"{command} --help" for command in SUBCOMMAND_CALLS]
    for success, usage in SUBCOMMAND_CALLS.values():
        lines += [success, usage, success + " --bogus 1"]
    argvs = [shlex.split(line.format(**files)) for line in lines]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", ARGPARSE_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "usage: revolt" in proc.stdout and "usage: revolt" in proc.stderr


ABC_PROBE = """
import _abc, json, numbers, sys
from collections.abc import Mapping
from factional_belief.cli import main

def negative(abc):
    return {ref() for ref in _abc._get_dump(abc)[2]}

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert list not in negative(Mapping), argv
    assert str not in negative(numbers.Rational), argv
"""


def test_jobs_make_no_first_use_abc_scans(files, tmp_path):
    # The first negative isinstance test of a type against an ABC walks the
    # ABC's whole subclass tree, which numpy grows; in a forked job that
    # walk costs hundreds of microseconds. Counter(list) asks whether a list
    # is a Mapping and Fraction(str) whether a str is a Rational, so the
    # jobs count degrees in a dict and build every rational, a decimal
    # spelling included, as Fraction(int, int).
    _abc = pytest.importorskip("_abc")
    if not hasattr(_abc, "_get_dump"):
        pytest.skip("this interpreter's _abc has no _get_dump")
    lines = [
        ANALYZE,
        PROMISE + "--mu-star 1/2",
        "promise --prior {prior} --degrees {degrees} --mu-star 0.5 --epsilon 1e-2 --delta 1e-2",
        VALIDATE + "--family ba --n 300 --param 2",
        "epistemic --model {model} --event 1",
        SWEEP,
    ]
    argvs = [shlex.split(line.format(**files)) for line in lines]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", ABC_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


NUMPY_RANDOM_PROBE = """
import sys
before = set(sys.modules)
from factional_belief.cli import main
assert main(sys.argv[1:]) == 0
assert "numpy.random" not in sys.modules
imported = {name.partition(".")[0] for name in set(sys.modules) - before}
outside = imported - set(sys.stdlib_module_names)
# A leading underscore marks an alias such as multiprocessing's __mp_main__.
assert {name for name in outside if name[0] != "_"} <= {"factional_belief", "numpy"}, outside
"""


@pytest.mark.parametrize("line", [
    "sweep --prior {prior} --family ba --n 250 --start 1 --stop 3 --step 1 --trials 5",
    "sweep --prior {prior} --family er --n 250 --start 1/100 --stop 3/100 --step 1/100 "
    "--trials 5",
    "sweep --prior {prior} --family powerlaw --n 250 --start 5/2 --stop 7/2 --step 1/2 "
    "--trials 5",
    "sweep --prior {prior} --family powerlaw --n 250 --axis p --start 1/5 --stop 4/5 "
    "--step 1/5 --param 3 --trials 10",
    "gen --family powerlaw --n 250 --param 5/2 --kind graph",
    "gen --family er --n 250 --param 3/100 --kind graph",
    "gen --family ba --n 250 --param 3",
    "validate --prior {prior} --torus 64 64 --trials 2",
    "validate --prior {prior} --family ba --n 1000 --param 2 --trials 17",
    "gen --family er --n 3000 --param 1/100",
    "epistemic --verify-prop1 3",
    "validate --prior {prior} --torus 8 8 --trials 2",
    "bounds --prior {prior} --degrees {degrees}",
])
def test_sampling_jobs_do_not_import_numpy_random(line, prior_file, const4_file, tmp_path):
    # Every draw, a bounded integer or a block of doubles of any size, is
    # made on the package's own PCG64 stream, so no job pays the
    # numpy.random import (about 15 ms in a fresh process). The bounds are
    # evaluated in the standard library's decimal, so numpy is the only
    # package outside it that a job imports.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = shlex.split(line.format(prior=prior_file, degrees=const4_file))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
