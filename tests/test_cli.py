import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from eosieve.cli import main


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def _schema(name):
    ref = resources.files("eosieve") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _validate(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


def test_invariants_golden_m13(capsys):
    rc, out = _run(capsys, ["invariants", "4", "13"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "invariants")
    assert payload["g"] == 4
    assert payload["alpha_monogenic"] is False
    assert payload["certificate"]["q"] == 13
    assert payload["certificate"]["witness"] == 3


def test_invariants_saturates_once(capsys, monkeypatch):
    import eosieve.purefield as purefield

    _, plain = _run(capsys, ["invariants", "4", "13"])
    calls = []
    saturate = purefield.pure_maximal_order

    def counting(n, m):
        calls.append((n, m))
        return saturate(n, m)

    monkeypatch.setattr(purefield, "pure_maximal_order", counting)
    rc, out = _run(capsys, ["invariants", "4", "13"])
    assert rc == 0
    assert calls == [(4, 13)]
    assert out == plain


def test_invariants_golden_m2(capsys):
    rc, out = _run(capsys, ["invariants", "4", "2"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "invariants")
    assert payload["g"] == 1 and payload["certificate"] is None


def test_invariants_rejects_non_squarefree(capsys):
    rc = main(["invariants", "4", "12"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "squarefree" in captured.err


def test_invariants_rejects_minus_four(capsys):
    # -4 fails squarefreeness before the irreducibility check can fire
    rc = main(["invariants", "4", "-4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "squarefree" in captured.err


def test_pset_csv_matches_example(capsys):
    rc, out = _run(capsys, ["pset", "4", "6", "--limit", "40"])
    assert rc == 0
    assert out == "13\n37\n"


def test_pset_json_schema(capsys):
    rc, out = _run(capsys, ["pset", "4", "6", "--limit", "100", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "pset")
    assert payload["primes"] == [13, 37, 61, 73, 97]


def test_density_json(capsys):
    rc, out = _run(capsys, ["density", "4", "6", "--budget", "200000"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "density")
    assert payload["l_over_k"] == 3
    assert payload["delta"]["numerator"] == 1 and payload["delta"]["denominator"] == 6


def test_coset_json(capsys):
    rc, out = _run(capsys, ["coset", "4", "13", "13", "--trials", "200", "--seed", "0"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "coset")
    assert payload["failures"] == 0 and payload["trials"] == 200


def test_experiment_alpha_density_json(capsys):
    rc, out = _run(
        capsys,
        ["experiment", "alpha-density", "--n", "4", "--x-max", "20000"],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert payload["pass"] is True


def test_experiment_pg_free_json(capsys):
    rc, out = _run(
        capsys,
        ["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", "100000"],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert payload["pass"] is True


def test_experiment_mertens_json(capsys):
    rc, out = _run(
        capsys,
        [
            "experiment",
            "mertens",
            "--g",
            "4",
            "--N",
            "6",
            "--x-max",
            "100000",
            "--target-delta",
            str(1 / 6),
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert payload["pass"] is True


def test_experiment_exceptional_json(capsys):
    rc, out = _run(
        capsys,
        [
            "experiment",
            "exceptional",
            "--n",
            "4",
            "--x-max",
            "3000",
            "--checkpoints",
            "300,1000,3000",
            "--workers",
            "1",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "experiment")
    assert {row["g"] for row in payload["rows"]} >= {4}


def test_family_reports_validate(capsys):
    cases = [
        ["family", "trinomial", "--n", "4", "--t-min", "-60", "--t-max", "60"],
        ["family", "twist", "--n", "4", "--c", "2", "--values", "4"],
        ["family", "thin", "--n", "4", "--c", "2", "--limit", "3000", "--sample", "4"],
        ["family", "scaled", "--n", "4", "--coeffs", "1,1,0,0", "--t-min", "-25", "--t-max", "25"],
    ]
    for argv in cases:
        rc, out = _run(capsys, argv)
        assert rc == 0, argv
        payload = json.loads(out)
        _validate(payload, "family")


def test_family_trinomial_all_monogenic(capsys):
    rc, out = _run(capsys, ["family", "trinomial", "--n", "4", "--t-min", "-80", "--t-max", "80"])
    payload = json.loads(out)
    assert payload["all_monogenic"] is True and payload["members"] > 10


def test_byte_identical_reruns(capsys, tmp_path):
    argv = ["experiment", "pg-free", "--g", "4", "--N", "6", "--x-max", "50000"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    coset = ["coset", "4", "13", "13", "--trials", "300", "--seed", "42"]
    assert main(coset + ["--out", str(first)]) == 0
    assert main(coset + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_env_precedence(capsys, monkeypatch):
    monkeypatch.setenv("EOS_LIMIT", "40")
    rc, out = _run(capsys, ["pset", "4", "6"])
    assert rc == 0
    assert out == "13\n37\n"
    # flag beats the environment
    rc, out = _run(capsys, ["pset", "4", "6", "--limit", "14"])
    assert out == "13\n"


def test_csv_emission(capsys):
    rc, out = _run(
        capsys,
        ["experiment", "alpha-density", "--n", "4", "--x-max", "10000", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "X,count,density"
    assert len(lines) >= 4


def test_invariants_negative_radicand(capsys):
    rc, out = _run(capsys, ["invariants", "4", "-3"])
    assert rc == 0
    payload = json.loads(out)
    _validate(payload, "invariants")
    assert payload["m"] == -3 and payload["alpha_monogenic"] is False


def test_exit_code_usage_error():
    assert main(["density", "64", "6", "--budget", "200000"]) == 2


def test_exit_code_internal_consistency(monkeypatch, capsys):
    import eosieve.cli as cli_mod
    from eosieve.errors import ConsistencyError

    def boom(*args, **kwargs):
        raise ConsistencyError("brute force disagrees with closed form")

    monkeypatch.setattr(cli_mod, "pure_index", boom)
    rc = main(["invariants", "4", "13"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "consistency" in captured.err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eosieve.cli", "invariants", "4", "13"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["g"] == 4


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
