import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_spanning import kill_children

from lusztig_cones import cli, cone, spanning, words
from lusztig_cones.cli import main
from lusztig_cones.words import root_ordering


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    """(exit code, stdout, stderr) of one in-process call, without a pytest
    fixture, so that a hypothesis test can make many."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_structured_error(code, out, err):
    # exit 1, nothing on stdout, one JSON error line on stderr
    assert (code, out) == (1, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert isinstance(json.loads(err)["error"], str)


# a comma-separated token with no decimal digit, which no int() accepts
NOT_AN_INT = st.text(st.characters(exclude_categories=["Nd"], exclude_characters=","))


def replaced(values, entries):
    """``values`` with one entry, at an index drawn modulo its length,
    replaced by one drawn from ``entries``."""
    return st.tuples(st.integers(0, len(values) - 1), entries).map(
        lambda c: values[: c[0]] + (c[1],) + values[c[0] + 1 :]
    )


def malformed(values, n=None):
    """Comma-separated texts that differ from ``values`` so that no word
    or point reads them: one entry too few or too many, a token that is no
    integer, or, with ``n``, a letter outside [1, n]."""
    options = [st.just(values[:-1]), st.just(values + (1,)), replaced(values, NOT_AN_INT)]
    if n is not None:
        options.append(replaced(values, st.integers(-(2**70), 2**70).filter(
            lambda x: not 1 <= x <= n
        )))
    return st.one_of(options).map(lambda parts: ",".join(map(str, parts)))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), t=st.integers(0, 2**16))
    def test_spanning_positions_are_roots_in_root_order(self, n, seed, t):
        word = spanning.random_word(n, seed, t)
        code, out, err = run_captured(
            "spanning", "--n", n, "--word", ",".join(map(str, word.letters)), "--format", "json"
        )
        assert (code, err) == (0, "")
        vectors = json.loads(out)["vectors"]
        assert len(vectors) == word.k
        for v in vectors:
            assert v["position"] == [v["root"][f"({p},{q})"] for p, q in root_ordering(word)]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        command=st.sampled_from(["roots", "chambers", "spanning", "member"]),
        data=st.data(),
    )
    def test_malformed_word_is_structured_error(self, n, seed, command, data):
        word = spanning.random_word(n, seed, 0)
        text = data.draw(malformed(word.letters, n))
        point = ["--point", ",".join(["0"] * word.k)] if command == "member" else []
        assert_structured_error(*run_captured(command, "--n", n, f"--word={text}", *point))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        command=st.sampled_from(["member", "decompose"]),
        data=st.data(),
    )
    def test_malformed_point_is_structured_error(self, n, seed, command, data):
        word = spanning.random_word(n, seed, 0)
        text = data.draw(malformed((0,) * word.k))
        letters = ",".join(map(str, word.letters))
        assert_structured_error(
            *run_captured(command, "--n", n, "--word", letters, f"--point={text}")
        )

    @settings(max_examples=60, deadline=None)
    @given(option=st.sampled_from(["--word", "--point"]), text=st.text())
    def test_any_text_exits_0_or_with_a_structured_error(self, option, text):
        argv = {"--word": "1,3,2,1,3,2", "--point": "0,0,1,0,0,0", option: text}
        code, out, err = run_captured("member", "--n", 3, *(f"{k}={v}" for k, v in argv.items()))
        if code == 0:
            assert err == ""
        else:
            assert_structured_error(code, out, err)


class TestChambers:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "chambers", "--n", "3", "--word", "1,3,2,1,3,2")
        assert code == 0
        assert "set=134" in out and "set=3" in out and "set=13" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "chambers", "--n", "3", "--word", "1,3,2,1,3,2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["word"] == [1, 3, 2, 1, 3, 2]
        assert {"pair": [2, 5], "set": [3]} in payload["chambers"]


class TestRoots:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "roots", "--n", "2", "--word", "1,2,1")
        assert code == 0
        assert out.splitlines() == ["1 (1,2)", "2 (1,3)", "3 (2,3)"]


class TestRender:
    def test_svg_stable(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for f in (f1, f2):
            code, _, _ = run(
                capsys, "render", "--n", "3", "--word", "1,3,2,1,3,2",
                "--format", "svg", "--out", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().startswith("<?xml")

    def test_ascii_default(self, capsys):
        code, out, _ = run(capsys, "render", "--n", "2", "--word", "1,2,1")
        assert code == 0
        assert "\\/" in out


class TestVerify:
    def test_exhaustive_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--mode", "exhaustive")
        assert code == 0
        assert out.strip() == "16 words, 0 mismatches"

    def test_sample_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--mode", "sample", "--count", "5",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"n": 4, "checked": 5, "mismatches": []}

    @pytest.mark.parametrize(
        "extra",
        [["--count", "0"], ["--count", "-5"], ["--jobs", "0"], ["--jobs", "-1"]],
    )
    def test_nonpositive_count_or_jobs_exit_2(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "3", "--mode", "sample", *extra])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_exhaustive_above_the_rank_cap_is_structured_error(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "21", "--mode", "exhaustive")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "exhaustive verify takes rank at most 20, got 21: its table of chamber "
            "columns would pass 1 GB"
        }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("n", ["0", "-1", "-2"])
    def test_rank_below_one_is_structured_error_before_any_process(
        self, capsys, monkeypatch, n, jobs
    ):
        starts = []
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing.Process, "start", lambda self: starts.append(self))
        code, out, err = run(
            capsys, "verify", "--n", n, "--mode", "sample", "--count", "3", "--jobs", jobs
        )
        assert_structured_error(code, out, err)
        assert json.loads(err) == {"error": f"rank must be >= 1, got {n}"}
        assert starts == []

    def test_sample_at_rank_23(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "23", "--mode", "sample", "--count", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"n": 23, "checked": 1, "mismatches": []}


class TestSpanning:
    def test_json_matches_exact_inverse(self, capsys):
        from lusztig_cones.cone import spanning_set
        from lusztig_cones.words import ReducedWord

        code, out, _ = run(
            capsys, "spanning", "--n", "3", "--word", "1,3,2,1,3,2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] is True
        span = spanning_set(ReducedWord(3, (1, 3, 2, 1, 3, 2)))
        assert [v["position"] for v in payload["vectors"]] == [
            list(col) for col in span.columns
        ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_root_ordering_per_command(self, capsys, monkeypatch, fmt):
        # the positions of all k vectors are read through one root ordering
        # of the word, not one per vector
        calls = []
        for module in (cli, cone, words):
            real = module.root_ordering
            monkeypatch.setattr(
                module, "root_ordering", lambda w, real=real: calls.append(w) or real(w)
            )
        word = spanning.random_word(6, 1, 0)
        letters = ",".join(map(str, word.letters))
        code, out, _ = run(capsys, "spanning", "--n", "6", "--word", letters, "--format", fmt)
        assert code == 0 and out.count("\n") >= word.k
        assert calls == [word]


class TestMember:
    def test_outside_point(self, capsys):
        code, out, _ = run(
            capsys, "member", "--n", "3", "--word", "1,3,2,1,3,2",
            "--point", "0,0,1,0,0,0",
        )
        assert code == 0
        assert out.splitlines()[0] == "false"
        assert "chamber(3,6)" in out

    def test_inside_point(self, capsys):
        code, out, _ = run(
            capsys, "member", "--n", "3", "--word", "1,3,2,1,3,2",
            "--point", "0,0,1,1,1,1",
        )
        assert code == 0
        assert out.strip() == "true"

    def test_json_reports_both_coordinate_systems(self, capsys):
        code, out, _ = run(
            capsys, "member", "--n", "2", "--word", "1,2,1",
            "--point", "2,3,0", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["point"]["values"] == [2, 3, 0]
        assert payload["root"]["(1,3)"] == 3


class TestDecompose:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--n", "2", "--word", "1,2,1", "--point", "2,3,0"
        )
        assert code == 0
        assert "simple(1)" in out and "chamber(1,3)" in out

    def test_outside_point_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "decompose", "--n", "3", "--word", "1,3,2,1,3,2",
            "--point", "0,0,1,0,0,0",
        )
        assert code == 1
        assert "error" in json.loads(err)


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        assert sorted(out.split()) == ["1,2,1", "2,1,2"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
        assert len(json.loads(out)["words"]) == 16


class TestBfzWord:
    def test_rank_two(self, capsys):
        code, out, _ = run(capsys, "bfz-word", "--quiver", "R")
        assert code == 0
        assert out.strip() == "1,2,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bfz-word", "--quiver", "RLRL", "--format", "json")
        payload = json.loads(out)
        assert payload["quiver"] == "RLRL"
        assert payload["n"] == 5
        assert len(payload["word"]) == 15


class TestPq:
    def test_from_set(self, capsys):
        code, out, _ = run(capsys, "pq", "--n", "3", "--set", "1,3")
        assert code == 0
        assert "pq=LR" in out and "set=13" in out

    def test_from_string(self, capsys):
        code, out, _ = run(capsys, "pq", "--n", "3", "--pq", "L-", "--format", "json")
        payload = json.loads(out)
        assert payload["set"] == [3]
        assert payload["components"] == [{"type": "L", "a": 3, "b": 3}]

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "pq", "--n", "3")
        assert code == 1
        assert "error" in json.loads(err)


class TestErrors:
    def test_bad_word_is_domain_error(self, capsys):
        code, _, err = run(capsys, "roots", "--n", "3", "--word", "1,2,3")
        assert code == 1
        assert "error" in json.loads(err)

    def test_unwritable_out_is_structured_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "verify", "--n", "3", "--out", str(path))
        assert (code, out) == (1, "")
        assert str(path) in json.loads(err)["error"]
        assert not path.exists()

    def test_unwritable_out_fails_before_the_run(self, capsys, monkeypatch, tmp_path):
        def run_all(*args, **kwargs):
            raise AssertionError("verify_all ran before --out was opened")

        monkeypatch.setattr(spanning, "verify_all", run_all)
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "verify", "--n", "4", "--out", str(path))
        assert (code, out) == (1, "")
        assert str(path) in json.loads(err)["error"]

    def test_dead_verify_process_is_structured_error(self, capsys, monkeypatch):
        kill_children(monkeypatch)
        code, out, err = run(
            capsys, "verify", "--n", "3", "--mode", "sample", "--count", "4", "--jobs", "2"
        )
        assert (code, out) == (1, "")
        assert "exited with code 3" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "command, fmt",
        [
            ("roots", "svg"), ("chambers", "svg"), ("render", "json"),
            ("cone-matrix", "svg"), ("spanning", "svg"), ("member", "svg"),
            ("decompose", "svg"), ("verify", "svg"), ("enumerate", "svg"),
        ],
    )
    def test_unsupported_format_exit_2(self, command, fmt):
        argv = [command, "--n", "2", "--format", fmt]
        if command not in ("verify", "enumerate"):
            argv += ["--word", "1,2,1"]
        if command in ("member", "decompose"):
            argv += ["--point", "0,0,0"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bad_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chambers", "--n", "3"])  # missing --word
        assert exc.value.code == 2


def test_one_parser_serves_every_call_as_a_fresh_process(capsys):
    # the parser is built once per process; a call after a rejected one
    # must print and exit as it would in a process of its own
    calls = [
        ["verify", "--n", "3", "--format", "json"],
        ["verify", "--n", "3", "--jobs", "0"],
        ["spanning", "--n", "3", "--word", "1,3,2,1,3,2"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "lusztig_cones.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0]
    assert cli.build_parser() is cli.build_parser()
