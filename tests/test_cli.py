import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbengine import (ClassicConfig, SBConfig, builtin_ideal, cli,
                      parse_ideal, print_ideal)
from gbengine.cli import run_cli


def _run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_roundtrip(capsys):
    code, out, _ = _run(capsys, "gen", "katsura5")
    assert code == 0
    ring, polys = parse_ideal(out)
    assert ring.num_vars == 5 and len(polys) == 5
    assert print_ideal(ring, polys) == out


@pytest.mark.parametrize("command", ["gen", "run"])
def test_builtin_ideals_default_to_char_101(capsys, command):
    _, default, _ = _run(capsys, command, "katsura4")
    code, explicit, _ = _run(capsys, command, "katsura4", "--char", "101")
    assert code == 0 and default == explicit
    if command == "gen":
        assert default.startswith("101\n")


def test_python_m_gbengine_runs_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "gbengine", "gen",
                           "katsura3"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == print_ideal(*builtin_ideal("katsura3"))


def test_run_classic_two_generators(tmp_path, capsys):
    path = tmp_path / "in.ideal"
    path.write_text("101\n3\ngrevlex\nx1^2-x2\nx1*x2-x3\n")
    code, out, _ = _run(capsys, "run", "--algorithm", "classic", str(path))
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3
    assert "x2^2+100*x1*x3" in lines


def test_run_sb_prints_syzygies_and_stats(capsys):
    code, out, err = _run(capsys, "run", "--algorithm", "sb", "--stats",
                          "katsura4")
    assert code == 0
    assert any("*e_" in l for l in out.splitlines())
    assert "#spairs which need reduction:" in out
    assert "#SB:" in out and "elim via Koszul criterion:" in out
    assert "# divmask hits:" in out
    assert "wall time" in err


def test_stats_identities_match_printed_rows(capsys):
    code, out, _ = _run(capsys, "run", "--algorithm", "sb", "--stats",
                        "katsura5")
    rows = dict(l.split(": ") for l in out.splitlines() if ": " in l)
    total = int(rows["#spairs"])
    queued = int(rows["#spairs queued"])
    need = int(rows["#spairs which need reduction"])
    assert queued == total - int(rows["elim via non-regular criterion"]) \
        - int(rows["elim via base divisor criterion"]) \
        - int(rows["elim via signature criterion"])
    assert need == queued - int(rows["elim via duplicate signature"]) \
        - int(rows["elim via signature criterion(late)"]) \
        - int(rows["elim via Koszul criterion"]) \
        - int(rows["elim via rel. prime criterion"]) \
        - int(rows["elim via singular criterion(late)"])
    assert need == int(rows["reduce to SB elements"]) \
        + int(rows["reduce to new syzygy signatures"])


def test_classic_stats_rows(capsys):
    code, out, _ = _run(capsys, "run", "--algorithm", "classic", "--stats",
                        "katsura4")
    rows = dict(l.split(": ") for l in out.splitlines() if ": " in l)
    assert int(rows["#S-pairs"]) == (int(rows["rel prime"])
                                     + int(rows["lcm cache hits"])
                                     + int(rows["lcm simple hits"])
                                     + int(rows["lcm graph hits"])
                                     + int(rows["#reductions"]))


def test_hashed_dedup_is_usage_error(capsys):
    code, out, err = _run(capsys, "run", "--hashed", "--dedup", "katsura4")
    assert code != 0
    assert "hashed excludes dedup" in err


def test_hashed_plain_is_usage_error(capsys):
    code, out, err = _run(capsys, "run", "--hashed", "--plain", "katsura4")
    assert code == 1
    assert out == ""
    assert "--hashed excludes --plain" in err


def test_hashed_compressed_is_usage_error(capsys):
    code, out, err = _run(capsys, "run", "--hashed", "--compressed",
                          "katsura4")
    assert code == 1
    assert out == ""
    assert "compressed excludes hashed" in err


def test_dedup_compressed_is_usage_error(capsys):
    code, out, err = _run(capsys, "run", "--dedup", "--compressed",
                          "katsura4")
    assert code == 1
    assert out == ""
    assert "compressed excludes dedup" in err


def test_char_with_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "in.ideal"
    path.write_text("101\n2\ngrevlex\nx1^2-x2\n")
    code, out, err = _run(capsys, "run", "--char", "7", str(path))
    assert code == 1
    assert out == ""
    assert "error: --char applies to builtin ideals only" in err
    # a builtin ideal takes --char
    _, gen, _ = _run(capsys, "gen", "--char", "7", "katsura3")
    path.write_text(gen)
    assert _run(capsys, "run", "--char", "7", "katsura3") == \
        _run(capsys, "run", str(path))


@pytest.mark.parametrize("argv", [("run", "katsura" + "9" * 5000),
                                  ("gen", "hcyclic" + "9" * 5000),
                                  ("gen", "x" * 5000),
                                  ("gen", "katsura3", "--char", "9" * 5000),
                                  ("run", "katsura3", "--char", "9" * 5000),
                                  ("run", "katsura3", "--base-divisors",
                                   "9" * 5000)],
                         ids=["run-size", "gen-size", "gen-name", "gen-char",
                              "run-char", "run-base-divisors"])
def test_overlong_builtin_name_is_short_error(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and len(err) < 100, err[:100]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "basis.txt"
    code, out, _ = _run(capsys, "run", "--algorithm", "classic", "--out",
                        str(target), "katsura4")
    assert code == 0
    assert out == ""
    assert target.read_text().strip()


def test_bad_input_nonzero_exit(capsys):
    code, _, err = _run(capsys, "run", "nosuchideal99x")
    assert code != 0


def test_identical_bytes_across_structures(tmp_path, capsys):
    ref = None
    for flags in (["--reducer", "geobucket"],
                  ["--reducer", "heap", "--plain", "--compressed"],
                  ["--reducer", "heap", "--compressed"],
                  ["--lookup", "list"],
                  ["--spair-queue", "heap"],
                  ["--reducer", "tourtree", "--dedup"]):
        code, out, _ = _run(capsys, "run", "--algorithm", "sb", "katsura4",
                            *flags)
        assert code == 0
        if ref is None:
            ref = out
        else:
            assert out == ref, flags


SB_ONLY_FLAGS = [("--module-order", "potop"),
                 ("--module-order", "schreyer"),
                 ("--schreyer-tiebreak", "high-gt"),
                 ("--base-divisors", "0"),
                 ("--base-divisors", "2"),
                 ("--early-singular",)]


@pytest.mark.parametrize("flag", SB_ONLY_FLAGS, ids=" ".join)
def test_sb_only_flag_with_classic_is_usage_error(capsys, flag):
    # a default value given explicitly is refused too
    code, out, err = _run(capsys, "run", "--algorithm", "classic",
                          "katsura3", *flag)
    assert (code, out) == (1, "")
    assert err == "error: %s applies to --algorithm sb only\n" % flag[0]


@pytest.mark.parametrize("algorithm, run_name, config",
                         [("sb", "sb_run", SBConfig),
                          ("classic", "buchberger_run", ClassicConfig)])
def test_run_parser_defaults_are_the_library_defaults(monkeypatch, algorithm,
                                                      run_name, config):
    # with no flags but the algorithm, the run gets the library's default
    # config, reducer queue included: the parser keeps no default of its own
    class Made(Exception):
        pass

    def capture(ring, polys, cfg):
        raise Made(cfg)

    monkeypatch.setattr(cli, run_name, capture)
    with pytest.raises(Made) as made:
        run_cli(["run", "katsura3", "--algorithm", algorithm])
    assert made.value.args[0] == config()


def test_sb_fills_in_its_flag_defaults(capsys):
    default = _run(capsys, "run", "--stats", "katsura4")
    spelled = _run(capsys, "run", "--stats", "katsura4", "--module-order",
                   "schreyer", "--schreyer-tiebreak", "low-gt",
                   "--base-divisors", "2")
    assert default[:2] == spelled[:2] and default[0] == 0
    assert _run(capsys, "run", "--early-singular", "katsura4")[0] == 0


def test_sb_pair_signature_past_the_cap_is_short_error(tmp_path, capsys):
    # basis element 1073 (lead x2^64464 x3^1073) makes an S-pair whose
    # signature passes the 2^16 exponent cap: the run stops at pair
    # construction, before that pair is queued
    path = tmp_path / "in.ideal"
    path.write_text("101\n3\ngrevlex\nx1^65000*x3+x2\nx2^65000*x3+x1\n"
                    "x1*x2+x3^2\n")
    assert _run(capsys, "run", str(path)) == \
        (1, "", "error: exponent out of range\n")


def test_output_formats_each_distinct_monomial_once(capsys, monkeypatch):
    # one printed output keeps one text per word: a basis repeats few
    # distinct monomials over many terms
    from gbengine import cli, idealfile
    _, want, _ = _run(capsys, "run", "--algorithm", "classic", "katsura5")
    ring, polys = builtin_ideal("katsura5")
    want_ideal = print_ideal(ring, polys)
    words = []
    real = idealfile.mono_str

    def mono_str(r, m):
        words.append(m.word)
        return real(r, m)

    monkeypatch.setattr(idealfile, "mono_str", mono_str)
    monkeypatch.setattr(cli, "mono_str", mono_str)
    assert print_ideal(ring, polys) == want_ideal
    assert len(words) == len(set(words)) == \
        len({m.word for g in polys for m in g.monos})
    words.clear()
    assert _run(capsys, "run", "--algorithm", "classic", "katsura5")[1] \
        == want
    assert words and len(words) == len(set(words))
