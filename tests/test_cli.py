import hashlib
import json
import math
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from powerfree.cli import (ExperimentConfig, REPRO, build_parser, count_rows,
                           main, parse_argmap, parse_condition, parse_system,
                           parse_trig)
from powerfree.dynamics import (CyclicRotation, IrrationalRotation,
                                PairObservable, TrigObservable, TwoPointSwap,
                                VectorObservable)
from powerfree.ergodic import (AllIntegers, BeattyMap, ProductKfree,
                               ProgressionMap, TwinSquarefree)
from powerfree.kfree import tail_pair_count
from powerfree.local_roots import local_root_count
from powerfree.poly import IntPolynomial, profile
from powerfree.sieve import primes_up_to


def test_parse_system_descriptors():
    cases = [
        ("twopoint:1.0,-1.0,0", TwoPointSwap, PairObservable(1.0, -1.0), 0),
        ("twopoint:2.5,0.5,1", TwoPointSwap, PairObservable(2.5, 0.5), 1),
        ("cyclic:3,0,1.0;0.0;0.0", CyclicRotation,
         VectorObservable((1.0, 0.0, 0.0)), 0),
        ("cyclic:4,2,0.25;1.5;-1.0;0.0", CyclicRotation,
         VectorObservable((0.25, 1.5, -1.0, 0.0)), 2),
        ("circle:0.5609,0.3,1.0+1.0cos1", IrrationalRotation,
         TrigObservable(1.0, ((1, 1.0),), ()), 0.3),
        ("circle:0.123,0.0,2.0+0.5cos3+1.5sin2", IrrationalRotation,
         TrigObservable(2.0, ((3, 0.5),), ((2, 1.5),)), 0.0),
    ]
    for text, kind, want_obs, want_x in cases:
        system, obs, x = parse_system(text)
        assert type(system) is kind, text
        assert obs == want_obs and x == want_x and type(x) is type(want_x)
    assert parse_system("cyclic:4,2,0.25;1.5;-1.0;0.0")[0].m == 4
    assert parse_system("circle:0.123,0.0,2.0")[0].alpha == 0.123
    for text, grammar in [("twopoint:1.0,-1.0", "twopoint:<g0>,<g1>,<x>"),
                          ("twopoint:1.0,-1.0,0,1", "twopoint:<g0>,<g1>,<x>"),
                          ("cyclic:3,0", "cyclic:<m>,<x>,<v0>;<v1>;..."),
                          ("circle:golden,0.3", "circle:<alpha>,<x>,<trig>"),
                          ("circle:golden,,1.0", "circle:<alpha>,<x>,<trig>")]:
        with pytest.raises(ValueError) as e:
            parse_system(text)
        assert str(e.value) == (f"system descriptor {text!r}: "
                                f"expected {grammar}")


def test_parse_system_golden_alpha():
    system, obs, x = parse_system("circle:golden,0.3,1.0+1.0cos1")
    assert isinstance(system, IrrationalRotation)
    assert abs(system.alpha - (math.sqrt(5.0) - 1.0) / 2.0) == 0.0
    assert x == 0.3


def test_parse_trig_grammar():
    obs = parse_trig("1.5+2cos3+0.5sin1")
    assert obs.constant == 1.5
    assert obs.cos_terms == ((3, 2.0),)
    assert obs.sin_terms == ((1, 0.5),)
    obs2 = parse_trig("1+1cos1")
    assert obs2.constant == 1.0 and obs2.cos_terms == ((1, 1.0),)
    neg = parse_trig("1.0+-0.5cos2")
    assert neg.cos_terms == ((2, -0.5),)
    assert parse_trig("0.5sin1+2cos3+1.5") == obs
    with pytest.raises(ValueError):
        parse_trig("1.0+bogus2")


def test_condition_descriptors():
    assert isinstance(parse_condition("all"), AllIntegers)
    assert isinstance(parse_condition("twinsqfree"), TwinSquarefree)
    kf = parse_condition("kfree:1,0,1:2")
    assert isinstance(kf, ProductKfree)
    assert kf.factors == (IntPolynomial.parse("1,0,1"),) and kf.k == 2
    pr = parse_condition("product:1,0,1*2,0,1:2")
    assert isinstance(pr, ProductKfree)
    with pytest.raises(ValueError):
        parse_condition("nonsense")
    for text, grammar in [("kfree:1,0,1", "kfree:<coeffs>:<k>"),
                          ("kfree:1,0,1:2:3", "kfree:<coeffs>:<k>"),
                          ("product:1,0,1*2,0,1",
                           "product:<coeffs>*<coeffs>...:<k>")]:
        with pytest.raises(ValueError) as e:
            parse_condition(text)
        assert str(e.value) == (f"condition descriptor {text!r}: "
                                f"expected {grammar}")


def test_argmap_descriptors():
    assert parse_argmap("identity") == ProgressionMap(1, 0)
    pm = parse_argmap("prog:3,1")
    assert isinstance(pm, ProgressionMap)
    assert pm.m == 3 and pm.r == 1
    bm = parse_argmap("beatty:13/8,0.5")
    assert isinstance(bm, BeattyMap)
    from fractions import Fraction
    assert bm.alpha == Fraction(13, 8)
    with pytest.raises(ValueError):
        parse_argmap("wat:1")
    for text, grammar in [("prog:3", "prog:<m>,<r>"),
                          ("beatty:1/2,", "beatty:<alpha>,<beta>")]:
        with pytest.raises(ValueError) as e:
            parse_argmap(text)
        assert str(e.value) == (f"argmap descriptor {text!r}: "
                                f"expected {grammar}")


def test_config_json_schema_keys():
    keys = set(asdict(ExperimentConfig(name="t")))
    assert keys == {"name", "coeffs", "k", "N", "checkpoints", "system",
                    "condition", "argmap", "P", "out"}


def test_rho_csv_output(tmp_path):
    out = tmp_path / "rho.csv"
    rc = main(["rho", "--poly", "1,0,1", "--k", "2", "--primes", "50",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,is_bad,rho_p,rho_pk"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    two_at = sorted(p for p, r in rows.items() if r[3] == "2")
    assert two_at == [5, 13, 17, 29, 37, 41]
    assert rows[2][1] == "1"            # p = 2 flagged bad


def test_rho_csv_matches_per_prime_counts(tmp_path):
    # rho takes rho_p from the batched counts and lifts only at singular
    # primes; the CSV must equal the one built from local_root_count alone
    f = IntPolynomial.parse("5,0,0,1")
    bad = set(profile(f).bad_primes)
    want = ["p,is_bad,rho_p,rho_pk"] + [
        f"{p},{int(p in bad)},{local_root_count(f, p, 1)},"
        f"{local_root_count(f, p, 2)}" for p in primes_up_to(10000).tolist()]
    out = tmp_path / "rho.csv"
    assert main(["rho", "--poly", "5,0,0,1", "--k", "2", "--primes", "1e4",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines() == want


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("text", ["1,0,2,0,1", "0,0,1,1", "2,4,2"])
def test_rho_csv_non_squarefree(tmp_path, text, k):
    # (x^2+1)^2, x^2(x+1) and 2(x+1)^2: rho_p comes from the batched counts
    # like any other f, and every prime is flagged singular
    f = IntPolynomial.parse(text)
    want = ["p,is_bad,rho_p,rho_pk"] + [
        f"{p},1,{local_root_count(f, p, 1)},{local_root_count(f, p, k)}"
        for p in primes_up_to(300).tolist()]
    out = tmp_path / "rho.csv"
    assert main(["rho", "--poly", text, "--k", str(k), "--primes", "300",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines() == want


def test_density_json_output(tmp_path):
    out = tmp_path / "d.json"
    rc = main(["density", "--poly", "1,0,1", "--k", "2", "--P", "10000",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["density"]["lower"] <= doc["density"]["value"]
    assert doc["config"]["coeffs"] == [1, 0, 1]
    assert doc["hypothesis_checks"]["squarefree_poly"] is True


def test_count_csv_and_checkpoint_validation(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["count", "--poly", "1,0,1", "--k", "2", "--N", "10000",
               "--checkpoints", "100,1000,10000", "--P", "10000",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,count,target,abs_error,rel_error"
    assert len(lines) == 4
    assert int(lines[3].split(",")[1]) == 8952
    bad = main(["count", "--poly", "1,0,1", "--k", "2", "--N", "10",
                "--checkpoints", "5,5"])
    assert bad == 2


def test_count_peak_is_flat_in_N(traced_peak):
    # the count streams its flags; a whole-N mask cost 1 byte per n, so
    # the peak at N = 4*10^6 stays within 1 MB of the peak at 10^6
    peaks = [traced_peak(lambda: count_rows("1,0,1", 2, N, [N], 10 ** 4))[1]
             for N in (10 ** 6, 4 * 10 ** 6)]
    assert peaks[1] < peaks[0] + 2 ** 20, peaks


def test_eftail_output(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["eftail", "--poly", "1,0,1", "--k", "2", "--N", "10000",
               "--checkpoints", "1000,10000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,Y,pairs"
    n, y, pairs = lines[1].split(",")
    assert int(y) == int(1000 ** 0.9)
    f = IntPolynomial.parse("1,0,1")
    for line, n in zip(lines[1:], (1000, 10000)):
        y = int(n ** 0.9)
        assert line == f"{n},{y},{tail_pair_count(f, 2, y, n)}"


def test_ergodic_csv(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["ergodic", "--system", "twopoint:1.0,-1.0,0", "--condition",
               "all", "--argmap", "identity", "--N", "1000",
               "--checkpoints", "10,100,1000", "--P", "1000",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,selected,average,target,residual"
    assert lines[1].split(",")[2] == "0.0"
    assert lines[3].split(",")[2] == "-0.014"


def test_exit_codes(tmp_path):
    assert main(["count", "--poly", "0,0,1", "--k", "2", "--N", "100"]) == 4
    assert main(["density", "--poly", "1,0,1", "--k", "1", "--P", "100"]) == 2
    assert main(["eftail", "--poly", "1,0,1", "--k", "2",
                 "--N", "10000000"]) == 3
    assert main(["eftail", "--poly", "1,0,1", "--k", "2", "--N", "100",
                 "--checkpoints", "200"]) == 2
    assert main(["eftail", "--poly", "1,0,1", "--k", "2", "--N", "100",
                 "--Y", "0"]) == 2
    assert main(["ergodic", "--system", "twopoint:1.0,-1.0,0", "--N", "100",
                 "--checkpoints", "10,1000"]) == 2
    assert main(["density", "--poly", "1,0,1", "--k", "2", "--P", "100",
                 "--format", "csv"]) == 2
    assert main(["count", "--poly", "1,0,1", "--k", "2", "--N", "1000",
                 "--P", "1000", "--out", str(tmp_path / "no" / "x.csv")]) == 2
    assert main(["nonsense"]) == 2
    for cond in ("kfree:1,0,1", "product:1,0,1:"):
        assert main(["ergodic", "--system", "twopoint:1.0,-1.0,0",
                     "--condition", cond, "--N", "100"]) == 2
    for argmap in ("prog:3", "beatty:1/2", "beatty:1,2,3"):
        assert main(["ergodic", "--system", "twopoint:1.0,-1.0,0",
                     "--argmap", argmap, "--N", "100"]) == 2
    assert main(["rho", "--poly", "5,0,0,1", "--k", "2",
                 "--primes", "1e9"]) == 3
    # the singular primes of this quadratic need a 31-digit cofactor of its
    # discriminant proved prime, which factorint refuses; the sieve alone
    # does not need them (test_mask_on_large_coefficient_quadratic)
    assert main(["density", "--poly=-4999999993,-4999999994,3000000008",
                 "--k", "3", "--P", "1000"]) == 2


def test_rho_rejects_k_below_one(capsys):
    # 2 is singular for x^2 + 1, so its rho(2^k) would walk to 2^(k - 1);
    # x + 1 has no singular prime, so rho never calls local_root_count
    f = IntPolynomial.parse("1,0,1")
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1 required"):
            local_root_count(f, 2, k)
        for poly in ("1,0,1", "1,1"):
            assert main(["rho", "--poly", poly, "--k", str(k),
                         "--primes", "10"]) == 2
            assert "usage: k >= 1 required" in capsys.readouterr().err


def test_out_of_memory_exits_3(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.31 GiB for an array with "
                          "shape (10000000002,) and data type bool")

    def refuse_bare(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("powerfree.cli.twin_squarefree_range", refuse)
    assert main(["count", "--poly", "twinsqfree", "--k", "2",
                 "--N", "1000"]) == 3
    assert "capacity: Unable to allocate 9.31 GiB" in capsys.readouterr().err
    monkeypatch.setattr("powerfree.kfree.kfree_range", refuse)
    assert main(["ergodic", "--system", "twopoint:1.0,-1.0,0",
                 "--condition", "kfree:1,0,1:2", "--N", "1000"]) == 3
    monkeypatch.setattr("powerfree.cli.kfree_range", refuse_bare)
    assert main(["count", "--poly", "1,0,1", "--k", "2", "--N", "1000"]) == 3
    assert "capacity: out of memory" in capsys.readouterr().err


def test_csv_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["count", "--poly", "1,0,1", "--k", "2", "--N", "20000",
            "--checkpoints", "100,20000", "--P", "10000"]
    assert main([*argv, "--threads", "1", "--out", str(a)]) == 0
    assert main([*argv, "--threads", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_repro_registry_complete():
    assert set(REPRO) == {"pnt", "carlitz", "estermann", "hb17",
                          "browning18", "thm11", "cor12", "thm31", "thm41",
                          "cor42", "thm51"}


def test_repro_writes_artifacts(tmp_path):
    rc = main(["repro", "browning18", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "browning18.csv"
    json_path = tmp_path / "browning18.json"
    assert csv_path.exists() and json_path.exists()
    doc = json.loads(json_path.read_text())
    assert doc["experiment"] == "browning18"
    assert set(doc["config"]) == {"name", "coeffs", "k", "N", "checkpoints",
                                  "system", "condition", "argmap", "P",
                                  "out"}
    assert "tolerances" in doc and "hypothesis_checks" in doc
    assert doc["results"]["within_tolerance"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,count,target,abs_error,rel_error"
    assert len(lines) == 4


# sha256 of the artifacts of `repro <id> --out .`, recorded before the
# experiments became Experiment specs; between them they cover counts of a
# polynomial, a product and twinsqfree, averages with and without
# hypothesis checks, and the thm31 progression grid
PINNED_DIGESTS = {
    "pnt.csv": "7e7b93a0b1eb01d60e1b74b4933477ef8a1d42e397e9f5d5753d007c99e51fec",
    "pnt.json": "74a26c4c003f1ca27655adcdb45b70386985f92444165ec9aa5026c87abe9783",
    "cor12.csv": "b578727b63cb136ba4c0cdacbc4a8fe09779b749dce2d7fa9bb44e9e67f4291e",
    "cor12.json": "639bc88c84def394a422d37a5a262c0c651f86d168d2a21eccb94877848121a2",
    "carlitz.csv": "8cb363f77f93891188cc1ef666ad2202ced2382766a19d13946679b5e5bd026d",
    "carlitz.json": "35b1aa03aa4b9a39ec07a933c3d29ed0c257ec5acb92f0a7b8e465e766a9b0c7",
    "hb17.csv": "754392adfa87737ea7aacee59ae0cafbcc325343081b876e850c1a10995a2c38",
    "hb17.json": "d2607e2549853ba87cf4584aae6bfa42b62295c1c3ae194aa6a89d8523a93f1f",
    "thm41.csv": "44835f7a21235dc34a969f7a6689e5f1a035d7d9dd64d3828ac7911ab42a1fdd",
    "thm41.json": "fb572988a9e0e35206917d08dc3a32769cc2c28b56cd297ad6b63494038f8f03",
    "thm31.csv": "b74aaec124258c41407c97c34f3993d9a9d7055590290aa6e5ed275daf7c563d",
    "thm31.json": "cef9c0d6bfb31629d71020d353e940a5e382b007b2c84a393b8d21f1a9f62958",
    "browning18.csv": "99f45d18ebcc744771caf88484dff4a05016340a717cf1fa867f0ee61702ef17",
    "browning18.json": "06f4c8da29afc15510a85087764886d6752d5e2af5a8f77e7c2312485def8d6c",
    "cor42.csv": "a99a4a5185de229011c6215654c9e6deeb5347581c3c988de5c5175c2b7bd334",
    "cor42.json": "cc0cbe31bef8113a9756de48dd505b6370c67a0e52a6b4cecb0722a181a457c0",
    "estermann.csv": "9ac8e4b359c5e63ac617f6e8d24cd6731ac12d60f0217c3d4ab1227565cf2cb7",
    "estermann.json": "c08900de815aa25c89cae4a55496515c578c4866e8accf322f9c715827867bde",
    "thm11.csv": "5163d16c21aceda2509d70dd1b1e040d665863bec4393408248e75819587fa92",
    "thm11.json": "ee0264fb656931b4efb4ee9d74f07924eac697ea26633a68d5381e524488c916",
    "thm51.csv": "b382eaabbeab9aacf1c42480ee68f22e40555d1227bdcf786a795506b200d5b7",
    "thm51.json": "9c6174c6a6c98871d5ae28b276c776c6a2a6dda8e0d6e0de75c4465e44ba0825",
}


def test_repro_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in sorted({f.partition(".")[0] for f in PINNED_DIGESTS}):
        assert main(["repro", name, "--out", "."]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in PINNED_DIGESTS}
    assert got == PINNED_DIGESTS


def test_console_script_stdout():
    proc = subprocess.run(
        [sys.executable, "-m", "powerfree.cli", "sieve", "--N", "6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n,omega,mobius,squarefree,liouville"
    assert proc.stdout.splitlines()[2] == "2,1,-1,1,-1"


def test_readme_command_lines_parse():
    # every `powerfree ...` line of README's shell blocks, so a flag the
    # parser drops cannot stay in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    lines = [line for block in blocks for line in
             block.partition("```")[0].splitlines()
             if line.startswith("powerfree ")]
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        commands.add(build_parser().parse_args(argv).command)
    assert commands == {"sieve", "rho", "density", "count", "eftail",
                        "ergodic", "repro"}
