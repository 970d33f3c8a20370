import csv
import filecmp
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from avrs.bounds import BoundPoint, BoundReport
from avrs.cli import main
from avrs.coding import SessionBatch, SessionConfig, simulate_session
from avrs.derandomize import CertificationCell, CertificationReport
from avrs.model import load_policy, load_problem_spec
from avrs.rng import derive_seed, philox_stream

from test_hygiene import _tracer

DATA = Path(__file__).parent / "data"
SPEC = str(DATA / "spec_binary.json")
POLICY = str(DATA / "policy_binary.json")


def read_rows(path: Path) -> list[dict]:
    with path.open() as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def assert_same_files(a: Path, b: Path, names: list[str]) -> None:
    assert sorted(p.name for p in a.iterdir()) == sorted(names)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert (mismatch, errors) == ([], [])


class TestBoundsCommand:
    def test_golden_file(self, tmp_path):
        rc = main(
            [
                "bounds", "--spec", SPEC, "--out-dir", str(tmp_path),
                "--d-grid", "0.21,0.23,0.3", "--coarse-step", "0.05",
                "--refine-step", "0.01", "--u-upper", "2", "--u-lower", "2",
                "--seed", "0",
            ]
        )
        assert rc == 0
        golden = DATA / "golden_bounds.csv"
        assert (tmp_path / "bounds.csv").read_bytes() == golden.read_bytes()
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert doc["d0"] == pytest.approx(0.2, abs=1e-12)
        assert doc["d1"] == pytest.approx(0.25, abs=1e-12)
        assert 0.0 <= doc["d0_gap"] <= 1e-12
        assert 0.0 <= doc["d1_gap"] <= 1e-12

    def test_empty_grid_header_only(self, tmp_path):
        rc = main(
            ["bounds", "--spec", SPEC, "--out-dir", str(tmp_path), "--d-grid", "", "--u-upper", "2", "--u-lower", "2"]
        )
        assert rc == 0
        rows = read_rows(tmp_path / "bounds.csv")
        assert rows == []

    def test_above_d1_zero_columns(self, tmp_path):
        rc = main(
            [
                "bounds", "--spec", SPEC, "--out-dir", str(tmp_path),
                "--d-grid", "0.36", "--u-upper", "2", "--u-lower", "2",
            ]
        )
        assert rc == 0
        (row,) = read_rows(tmp_path / "bounds.csv")
        assert float(row["R_upper"]) == 0.0
        assert float(row["R_lower"]) == 0.0

    def test_auto_grid_between_floors(self, tmp_path):
        rc = main(
            [
                "bounds", "--spec", SPEC, "--out-dir", str(tmp_path), "--d-points", "3",
                "--coarse-step", "0.1", "--no-refine", "--u-upper", "2", "--u-lower", "2",
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "bounds.json").read_text())
        lo, hi = doc["d0"], doc["d1"]
        assert lo < hi
        expected = [lo + f * (hi - lo) for f in np.linspace(0.3, 0.9, 3)]
        assert [p["d"] for p in doc["points"]] == expected
        assert [float(r["D"]) for r in read_rows(tmp_path / "bounds.csv")] == expected

    def test_malformed_spec_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabets": {"x": 2}\n')
        rc = main(["bounds", "--spec", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_json_payload_has_strategies(self, tmp_path):
        rc = main(
            [
                "bounds", "--spec", SPEC, "--out-dir", str(tmp_path),
                "--d-grid", "0.23", "--u-upper", "2", "--u-lower", "2",
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert doc["meta"]["command"] == "bounds"
        point = doc["points"][0]
        assert point["strategy_upper"]["p_u_given_y"]
        assert point["strategy_lower"]["jammer_q"]


class TestSimulateCommand:
    ARGS = [
        "simulate", "--spec", SPEC, "--policy", POLICY, "--n", "12",
        "--trials", "40", "--eps", "0.3", "--cap", "256", "--seed", "5",
        "--jammers", "all-deterministic",
    ]

    def test_trial_rows_schema(self, tmp_path):
        rc = main(self.ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "trials.csv")
        assert len(rows) == 4 * 40
        assert set(rows[0]) == {"n", "jammer_id", "distortion", "E_enc", "E_dec1", "E_dec2"}

    def test_zero_trials_empty_rows(self, tmp_path):
        args = [a for a in self.ARGS]
        args[args.index("--trials") + 1] = "0"
        rc = main(args + ["--out-dir", str(tmp_path)])
        assert rc == 0
        assert read_rows(tmp_path / "trials.csv") == []

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out-dir", str(a)]) == 0
        assert main(self.ARGS + ["--out-dir", str(b)]) == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()
        assert (a / "simulate.json").read_bytes() == (b / "simulate.json").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t4"
        assert main(self.ARGS + ["--out-dir", str(a), "--threads", "1"]) == 0
        assert main(self.ARGS + ["--out-dir", str(b), "--threads", "4"]) == 0
        assert (a / "trials.csv").read_bytes() == (b / "trials.csv").read_bytes()

    def test_greedy_search_thread_count_does_not_change_output(self, tmp_path):
        args = [a for a in self.ARGS]
        args[args.index("--jammers") + 1] = "greedy-search"
        args[args.index("--trials") + 1] = "2"
        args += ["--search-budget", "4"]
        a, b = tmp_path / "t1", tmp_path / "t2"
        assert main(args + ["--out-dir", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out-dir", str(b), "--threads", "2"]) == 0
        assert_same_files(a, b, ["trials.csv", "simulate.json"])

    def test_cell_matches_direct_library_call(self, tmp_path):
        rc = main(self.ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 0
        rows = read_rows(tmp_path / "trials.csv")
        row = rows[3]  # jammer 0, trial 3
        spec = load_problem_spec(SPEC)
        policy = load_policy(POLICY, spec)
        config = SessionConfig(spec, policy, eps=0.3, size_cap=256)
        from avrs.adversary import deterministic_jammer_family

        jam = deterministic_jammer_family(spec)[0]
        s = derive_seed(5, "trial", 0, 3)
        cdf = np.cumsum(spec.p_x)
        cdf[-1] = 1.0
        x = np.searchsorted(cdf, philox_stream(s, "x").random(12), side="right")
        rep = simulate_session(x, jam, config, s)
        assert float(row["distortion"]) == pytest.approx(rep.distortion[0], abs=1e-12)
        assert (row["E_enc"] == "true") == rep.e_enc[0]


class TestSessionCommand:
    ARGS = ["session"] + [a for a in TestSimulateCommand.ARGS[1:] if a not in ("--trials", "40")]

    def test_transcript_is_trial_zero_of_simulate(self, tmp_path):
        assert main(TestSimulateCommand.ARGS + ["--out-dir", str(tmp_path / "sim")]) == 0
        assert main(self.ARGS + ["--out-dir", str(tmp_path / "one")]) == 0
        rows = read_rows(tmp_path / "sim" / "trials.csv")
        doc = json.loads((tmp_path / "one" / "session.json").read_text())
        assert [s["jammer_id"] for s in doc["sessions"]] == [0, 1, 2, 3]
        for s in doc["sessions"]:
            assert set(s) == {f.name for f in fields(SessionBatch)} | {"jammer_id", "descriptor"}
            assert all(len(s[k]) == 12 for k in ("x", "j", "y", "z", "u_encoded", "x_hat"))
            row = rows[40 * s["jammer_id"]]
            assert float(row["distortion"]) == s["distortion"]
            assert [row[k] == "true" for k in ("E_enc", "E_dec1", "E_dec2")] == [
                s["e_enc"], s["e_dec1"], s["e_dec2"]
            ]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out-dir", str(a)]) == 0
        assert main(self.ARGS + ["--out-dir", str(b), "--threads", "2"]) == 0
        assert_same_files(a, b, ["session.json"])


class TestDerandomizeCommand:
    def test_report_written_and_reproducible(self, tmp_path):
        args = [
            "derandomize", "--spec", SPEC, "--policy", POLICY, "--n", "8",
            "--K", "9", "--trials", "1", "--mu", "0.5", "--x-samples", "1",
            "--eps", "0.3", "--cap", "128", "--seed", "3",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "derandomize.json").read_bytes() == (b / "derandomize.json").read_bytes()
        doc = json.loads((a / "derandomize.json").read_text())
        assert doc["k"] == 9
        assert doc["rate_overhead"] == pytest.approx(np.log2(9) / 8)
        assert "cells" in doc and len(doc["cells"]) == 1

    def test_default_k_is_n_squared(self, tmp_path):
        args = [
            "derandomize", "--spec", SPEC, "--policy", POLICY, "--n", "6",
            "--trials", "1", "--mu", "0.5", "--x-samples", "1",
            "--eps", "0.3", "--cap", "64", "--seed", "3", "--out-dir", str(tmp_path),
        ]
        assert main(args) == 0
        doc = json.loads((tmp_path / "derandomize.json").read_text())
        assert doc["k"] == 36

    SMALL = [
        "derandomize", "--spec", SPEC, "--policy", POLICY, "--n", "6", "--K", "4",
        "--trials", "1", "--mu", "0.5", "--eps", "0.3", "--cap", "64", "--seed", "3",
    ]

    def test_zero_x_samples_rejected(self, tmp_path):
        out = tmp_path / "out"
        assert main(self.SMALL + ["--x-samples", "0", "--out-dir", str(out)]) == 2
        assert not (out / "derandomize.json").exists()

    def test_zero_trials_rejected(self, tmp_path):
        out = tmp_path / "out"
        assert main(self.SMALL + ["--x-samples", "1", "--trials", "0", "--out-dir", str(out)]) == 2
        assert not (out / "derandomize.json").exists()

    def test_single_session_per_side_rejected(self, tmp_path, capsys):
        # one member and one trial leave a cell's standard error undefined
        out = tmp_path / "out"
        args = list(self.SMALL)
        args[args.index("--K") + 1] = "1"
        assert main(args + ["--x-samples", "1", "--out-dir", str(out)]) == 2
        assert "two sessions" in capsys.readouterr().err
        assert not (out / "derandomize.json").exists()

    def test_empty_jammer_file_rejected(self, tmp_path, capsys):
        jammers = tmp_path / "none.json"
        jammers.write_text("[]")
        out = tmp_path / "out"
        rc = main(self.SMALL + ["--jammers", str(jammers), "--out-dir", str(out)])
        assert rc == 2
        assert "none.json" in capsys.readouterr().err
        assert not (out / "derandomize.json").exists()


class TestLemmasCommand:
    ARGS = [
        "lemmas", "--spec", SPEC, "--policy", POLICY, "--n", "8",
        "--n-ladder", "8,12", "--trials", "60", "--eps", "0.3",
        "--cap", "128", "--seed", "2",
    ]

    def test_csv_schema_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out-dir", str(a)]) == 0
        assert main(self.ARGS + ["--out-dir", str(b)]) == 0
        assert (a / "lemmas.csv").read_bytes() == (b / "lemmas.csv").read_bytes()
        rows = read_rows(a / "lemmas.csv")
        assert {r["harness"] for r in rows} >= {"conditional-typicality", "covering", "packing"}
        assert set(rows[0]) == {"harness", "n", "empirical", "bound", "sigma", "verdict"}

    def test_thread_count_does_not_change_output(self, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t2"
        assert main(self.ARGS + ["--out-dir", str(a), "--threads", "1"]) == 0
        assert main(self.ARGS + ["--out-dir", str(b), "--threads", "2"]) == 0
        assert_same_files(a, b, ["lemmas.csv"])

    def test_harness_selection(self, tmp_path):
        rc = main(self.ARGS + ["--out-dir", str(tmp_path), "--harness", "covering"])
        assert rc == 0
        rows = read_rows(tmp_path / "lemmas.csv")
        names = {r["harness"] for r in rows}
        assert "covering" in names
        assert "packing" not in names

    def test_zero_trials_empty(self, tmp_path):
        args = [a for a in self.ARGS]
        args[args.index("--trials") + 1] = "0"
        assert main(args + ["--out-dir", str(tmp_path)]) == 0
        assert read_rows(tmp_path / "lemmas.csv") == []

    def test_help_says_which_options_are_only_recorded(self, capsys):
        assert main(["lemmas", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split("options:")[1].split())
        for option in ("--n N", "--jammers JAMMERS", "--search-budget SEARCH_BUDGET"):
            start = text.index(option)
            end = text.index(" --", start + len(option))
            assert text[start:end].endswith("(only recorded in the metadata line of lemmas.csv)")

    def test_recorded_only_options_change_no_row(self, tmp_path):
        args = [a for a in self.ARGS]
        args[args.index("--trials") + 1] = "10"
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        other = ["--n", "16", "--jammers", "all-deterministic", "--search-budget", "5"]
        assert main(args + other + ["--out-dir", str(b)]) == 0
        assert read_rows(a / "lemmas.csv") == read_rows(b / "lemmas.csv")

    def test_benchmark_tracer_sees_every_harness(self, tmp_path):
        # the benchmark times each harness by replacing its module attribute;
        # a harness called past that attribute would read 0 s without error
        args = [a for a in self.ARGS]
        args[args.index("--n-ladder") + 1] = "8"
        tracer = _tracer().Tracer()
        tracer.install()
        try:
            assert main(args + ["--threads", "1", "--out-dir", str(tmp_path)]) == 0
        finally:
            tracer.uninstall()
        names = [span[2] for span in tracer.spans]
        harnesses = ("cond_typicality", "covering", "packing", "markov")
        assert [names.count(f"lemmas.{h}") for h in harnesses] == [1, 1, 1, 1]


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_spec_file(self, tmp_path):
        rc = main(["bounds", "--spec", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)])
        assert rc == 2


def _refuse_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


SMALL_RUNS = {
    "bounds": [
        "bounds", "--spec", SPEC, "--d-grid", "0.23,0.3", "--coarse-step", "0.1",
        "--no-refine", "--u-upper", "2", "--u-lower", "2",
    ],
    "simulate": [
        "simulate", "--spec", SPEC, "--policy", POLICY, "--n", "8", "--trials", "2",
        "--eps", "0.3", "--cap", "64", "--jammers", "all-deterministic",
    ],
    "session": [
        "session", "--spec", SPEC, "--policy", POLICY, "--n", "8", "--eps", "0.3",
        "--cap", "64", "--jammers", "all-deterministic",
    ],
    "derandomize": [
        "derandomize", "--spec", SPEC, "--policy", POLICY, "--n", "6", "--K", "4",
        "--trials", "1", "--mu", "0.5", "--x-samples", "1", "--eps", "0.3", "--cap", "64",
    ],
    "lemmas": [
        "lemmas", "--spec", SPEC, "--policy", POLICY, "--n", "8", "--n-ladder", "8,12",
        "--trials", "10", "--eps", "0.3", "--cap", "64",
    ],
}


class TestOutputDocuments:
    def test_every_output_is_strict_json(self, tmp_path):
        for name, args in SMALL_RUNS.items():
            out = tmp_path / name
            assert main(args + ["--out-dir", str(out)]) == 0
            for path in sorted(out.iterdir()):
                if path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=_refuse_constant)
                else:
                    first = path.read_text().splitlines()[0]
                    assert first.startswith("# ")
                    json.loads(first[2:], parse_constant=_refuse_constant)

    def test_json_keys_are_the_report_fields(self, tmp_path):
        def names(cls) -> set[str]:
            return {f.name for f in fields(cls)}

        assert main(SMALL_RUNS["bounds"] + ["--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "bounds.json").read_text())
        assert set(doc) == names(BoundReport) | {"meta"}
        assert all(set(p) == names(BoundPoint) for p in doc["points"])

        assert main(SMALL_RUNS["derandomize"] + ["--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "derandomize.json").read_text())
        assert set(doc) == names(CertificationReport) | {"meta"}
        assert all(set(c) == names(CertificationCell) for c in doc["cells"])


class TestRejectedValues:
    """Invalid numbers exit 2, with a message that names the flag, before
    any output file is written."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("bounds", "--u-upper", "0"),
            ("bounds", "--u-lower", "0"),
            ("bounds", "--d-grid", "nan,inf"),
            ("bounds", "--d-grid", "0.2,abc"),
            ("bounds", "--d-grid", "-0.5"),
            ("bounds", "--coarse-step", "0.3"),
            ("bounds", "--refine-step", "0.03"),
            ("bounds", "--refine-step", "0.2"),
            ("bounds", "--refine-step", "0.04"),
            ("simulate", "--eps", "nan"),
            ("simulate", "--gamma", "inf"),
            ("simulate", "--eps", "0"),
            ("simulate", "--delta2", "-1"),
            ("simulate", "--gamma", "-1"),
            ("simulate", "--f-eps", "-1"),
            ("simulate", "--cap", "0"),
            ("simulate", "--search-budget", "0"),
            ("session", "--delta2", "nan"),
            ("derandomize", "--mu", "inf"),
            ("derandomize", "--mu", "0"),
            ("lemmas", "--delta0", "inf"),
            ("lemmas", "--delta0", "0"),
            ("lemmas", "--n-ladder", "8,x"),
            ("lemmas", "--n-ladder", "0,8"),
            ("lemmas", "--n-ladder", "-4,8"),
            ("bounds", "--d-points", "-3"),
            ("simulate", "--trials", "-5"),
            ("lemmas", "--trials", "-1"),
            ("derandomize", "--K", "-1"),
            ("derandomize", "--K", "1"),
            ("derandomize", "--trials", "-1"),
            ("derandomize", "--trials", "0"),
            ("derandomize", "--x-samples", "-2"),
            ("derandomize", "--x-samples", "0"),
            ("simulate", "--threads", "0"),
            ("simulate", "--threads", "-4"),
            ("simulate", "--n", "-3"),
            ("session", "--n", "-3"),
            ("derandomize", "--n", "-3"),
            ("lemmas", "--n", "-5"),
            ("lemmas", "--delta4", "-1"),
        ],
    )
    def test_exit_2_without_output(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        args = list(SMALL_RUNS[command])
        if flag in args:
            del args[args.index(flag) : args.index(flag) + 2]
        # the "=" form passes a value that starts with "-"
        args.append(f"{flag}={value}")
        assert main(args + ["--out-dir", str(out)]) == 2
        assert not out.exists()
        assert flag in capsys.readouterr().err


def _nan_channel(doc: dict) -> None:
    doc["w"][0][0][0][0] = float("nan")


def _fractional_zeta(doc: dict) -> None:
    doc["zeta"] = [[0.7, 0], [1, 1]]


def _quoted_p_x(doc: dict) -> None:
    doc["p_x"] = [str(v) for v in doc["p_x"]]


def _boolean_d(doc: dict) -> None:
    doc["d"] = [[v != 0 for v in row] for row in doc["d"]]


def _mixed_boolean_d(doc: dict) -> None:
    doc["d"] = [[0, True], [True, 0]]


class TestRejectedInputs:
    """Input files with non-finite probabilities, tables of strings or
    booleans, non-integer index entries or a jamming vector of the wrong
    length exit 2 before any output file is written."""

    @pytest.mark.parametrize(
        "command, edit_spec, edit_policy, jammers",
        [
            ("bounds", _nan_channel, None, None),
            ("simulate", _nan_channel, None, None),
            ("simulate", None, _fractional_zeta, None),
            ("simulate", None, None, {"kind": "deterministic", "map": [0.9, 1.2]}),
            ("session", None, None, {"kind": "fixed-vector", "vector": [0.5, 1.7, 0, 1, 0, 1, 0, 1]}),
            ("derandomize", None, None, {"kind": "memoryless", "q": [[0.5, 0.5], [float("nan"), 1.0]]}),
            ("bounds", _quoted_p_x, None, None),
            ("simulate", _boolean_d, None, None),
            ("simulate", None, None, {"kind": "memoryless", "q": [["0.5", "0.5"], ["1", "0"]]}),
            ("session", None, None, {"kind": "memoryless", "q": [[True, False], [False, True]]}),
            # --n is 8 in both runs
            ("simulate", None, None, {"kind": "fixed-vector", "vector": [0, 1, 1]}),
            ("session", None, None, {"kind": "fixed-vector", "vector": [0, 1] * 8}),
            # numbers mixed with booleans
            ("bounds", _mixed_boolean_d, None, None),
            ("simulate", None, None, {"kind": "memoryless", "q": [[True, 0.0], [0.5, 0.5]]}),
        ],
    )
    def test_exit_2_without_output(self, tmp_path, command, edit_spec, edit_policy, jammers):
        args = list(SMALL_RUNS[command])
        for flag, path, edit in (("--spec", SPEC, edit_spec), ("--policy", POLICY, edit_policy)):
            if edit is not None:
                doc = json.loads(Path(path).read_text())
                edit(doc)
                target = tmp_path / Path(path).name
                target.write_text(json.dumps(doc))
                args[args.index(flag) + 1] = str(target)
        if jammers is not None:
            target = tmp_path / "jammers.json"
            target.write_text(json.dumps(jammers))
            args += ["--jammers", str(target)]
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_overflowing_number_is_non_finite(self, tmp_path, capsys):
        # 1e999 is valid JSON that parses to infinity, so the table check
        # rather than the JSON reader must refuse it
        spec = tmp_path / "spec.json"
        spec.write_text(Path(SPEC).read_text().replace("0.5", "1e999", 1))
        args = list(SMALL_RUNS["bounds"])
        args[args.index("--spec") + 1] = str(spec)
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 2
        assert "p_x has non-finite entries" in capsys.readouterr().err
        assert not out.exists()
