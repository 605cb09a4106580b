import hashlib
import importlib.metadata
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest

from clusterpersist import (
    anneal,
    annealing,
    cli,
    gen_gaussian_mixture,
    gen_rings,
    gen_spirals,
    gen_supercluster_grid,
    gen_two_disks,
)
from clusterpersist.cli import main
from helpers import DATA_DIR, child_env, openblas_corename


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_estimate_two_disks(capsys):
    code, out, err = run_cli(
        ["estimate", "--gen", "two-disks", "--R", "1", "--gap", "4",
         "--n", "5000", "--k-max", "6", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert out == "k_t = 2\n"
    assert err == ""


def test_estimate_iris(capsys):
    code, out, _ = run_cli(
        ["estimate", "--input", str(DATA_DIR / "iris.csv"),
         "--label-col", "4", "--k-max", "10"],
        capsys,
    )
    assert code == 0
    assert out == "k_t = 2\n"


def test_estimate_writes_profile_file(capsys, tmp_path):
    out_path = tmp_path / "prof.csv"
    code, out, _ = run_cli(
        ["estimate", "--gen", "two-disks", "--n", "300", "--k-max", "4",
         "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out == "k_t = 2\n"
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "k,beta_bar,log_beta_bar,v"
    assert len(lines) == 1 + 4


def test_k_max_too_small_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--gen", "two-disks", "--k-max", "1"])
    assert exc.value.code == 2


def test_kernel_mode_requires_sigma(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--gen", "rings", "--k-max", "4", "--mode", "kernel"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--k-min", "0"], "--k-min"),
        (["--k-min", "4"], "--k-min"),
        (["--restarts", "0"], "--restarts"),
        (["--mode", "kernel", "--sigma", "0"], "--sigma"),
        (["--mode", "kernel", "--sigma", "-0.5"], "--sigma"),
        (["--mode", "kernel", "--sigma", "nan"], "--sigma"),
        (["--mode", "kernel", "--sigma", "inf"], "--sigma"),
        (["--mode", "kernel", "--sigma", "1e200"], "--sigma"),
        (["--mode", "kernel", "--sigma", "1e-200"], "--sigma"),
    ],
)
def test_bad_sweep_arguments_are_usage_errors(extra, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--gen", "rings", "--n", "20", "--k-max", "4"] + extra)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, text",
    [
        (["--k-max", "1"], "--k-max must be at least 2"),
        (["--k-min", "0"], "--k-min must lie in 1..k-max-1"),
        (["--k-min", "4"], "--k-min must lie in 1..k-max-1"),
        (["--restarts", "0"], "--restarts must be at least 1"),
        (["--mode", "kernel"], "--sigma is required in kernel mode; pass a positive sigma"),
        (["--mode", "kernel", "--sigma", "nan"],
         "--sigma must be positive with 2 sigma^2 finite and nonzero, got nan"),
    ],
)
def test_sweep_rule_usage_texts(extra, text, capsys):
    # the sweep's own rules, each worded once, for the flag that broke it
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--gen", "rings", "--n", "20", "--k-max", "4"] + extra)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"clusterpersist profile: error: {text}"


def test_missing_source_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--k-max", "4"])
    assert exc.value.code == 2


def test_unknown_shape_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "torus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [
        ["estimate", "--gen", "two-disks", "--n", "20", "--k-max", "3"],
        ["profile", "--gen", "two-disks", "--n", "20", "--k-max", "3"],
        ["gen", "two-disks", "--n", "20"],
        ["da-trace", "--gen", "two-disks", "--n", "20"],
    ],
    ids=["estimate", "profile", "gen", "da-trace"],
)
def test_negative_seed_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err


def test_missing_input_file_is_runtime_error(capsys, tmp_path):
    code, out, err = run_cli(
        ["estimate", "--input", str(tmp_path / "nope.csv"), "--k-max", "3"],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_gen_rings_deterministic(capsys):
    argv = ["gen", "rings", "--n", "50", "--seed", "3"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    rows = first.strip().split("\n")
    assert len(rows) == 150
    for row in rows:
        x, y, label = row.split(",")
        float(x)
        float(y)
        assert label in ("0", "1", "2")


def dataset_csv(data):
    rows = [",".join(repr(float(x)) for x in p) + f",{int(y)}\n"
            for p, y in zip(data.points, data.labels)]
    return "".join(rows)


# each shape's dataset at the CLI's default parameters and seed
GEN_DEFAULTS = {
    "two-disks": lambda: gen_two_disks(1.0, 4.0, 500, 0),
    "rings": lambda: gen_rings([1.0, 2.0, 3.0], 300, 0.01, 0),
    "spirals": lambda: gen_spirals(3, 300, 0.02, 0),
    "gaussians4": lambda: gen_gaussian_mixture(
        [(-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0)], [0.25 * np.eye(2)] * 4, [250] * 4, 0
    ),
    "superclusters": lambda: gen_supercluster_grid(20.0, 2.0, 0.0625 * np.eye(2), 150, 0),
}


@pytest.mark.parametrize("shape", list(GEN_DEFAULTS))
def test_gen_without_generator_flags_uses_the_default_parameters(shape, capsys):
    code, out, err = run_cli(["gen", shape], capsys)
    assert (code, err) == (0, "")
    assert out == dataset_csv(GEN_DEFAULTS[shape]())


def test_gen_respects_output_path(capsys, tmp_path):
    p = tmp_path / "disks.csv"
    code, out, _ = run_cli(
        ["gen", "two-disks", "--n", "20", "--output", str(p)], capsys
    )
    assert code == 0
    assert out == ""
    rows = p.read_text().strip().split("\n")
    assert len(rows) == 40
    labels = {row.split(",")[-1] for row in rows}
    assert labels == {"0", "1"}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "rings", "--radii", "1,x"], "--radii"),
        (["gen", "rings", "--radii", "2,1"], "--radii"),
        (["gen", "rings", "--radii", "1,inf"], "--radii"),
        (["gen", "gaussians4", "--n", "0"], "--n"),
        (["gen", "gaussians4", "--sd", "0"], "--sd"),
        (["gen", "gaussians4", "--sd", "1e-200"], "--sd"),
        (["gen", "superclusters", "--super-spacing", "1"], "--super-spacing"),
        (["gen", "superclusters", "--sub-spacing", "30"], "--super-spacing"),
        (["gen", "superclusters", "--sub-spacing", "-1"], "--sub-spacing"),
        (["gen", "spirals", "--arms", "0"], "--arms"),
        (["gen", "spirals", "--noise", "nan"], "--noise"),
        (["gen", "two-disks", "--R", "inf"], "--R"),
        (["gen", "two-disks", "--gap", "0"], "--gap"),
        (["profile", "--gen", "rings", "--n", "0", "--k-max", "3"], "--n"),
        (["da-trace", "--gen", "gaussians4", "--gap", "-1"], "--gap"),
    ],
)
def test_bad_generator_flags_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {flag} " in capsys.readouterr().err


def test_a_generator_flag_error_shows_the_value_in_effect(capsys):
    # --super-spacing is omitted, so its default of 20 is below --sub-spacing
    with pytest.raises(SystemExit):
        main(["gen", "superclusters", "--sub-spacing", "30"])
    err = capsys.readouterr().err
    assert err.endswith("error: --super-spacing must be finite and exceed --sub-spacing, got 20.0\n")


def test_generator_flags_of_another_shape_are_not_checked(capsys):
    # --arms is not a rings parameter, so its value is ignored as before
    code, out, _ = run_cli(["gen", "rings", "--n", "2", "--arms", "0"], capsys)
    assert code == 0
    assert out == dataset_csv(gen_rings([1.0, 2.0, 3.0], 2, 0.01, 0))


@pytest.mark.parametrize(
    "argv, work",
    [
        (["profile", "--gen", "two-disks", "--n", "20", "--k-max", "3"], "persistence_profile"),
        (["estimate", "--gen", "two-disks", "--n", "20", "--k-max", "3"], "persistence_profile"),
        (["da-trace", "--gen", "two-disks", "--n", "20"], "anneal"),
    ],
    ids=["profile", "estimate", "da-trace"],
)
def test_unwritable_output_fails_before_the_work(argv, work, capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: ran.append(args))
    path = tmp_path / "nodir" / "x.csv"
    code, out, err = run_cli(argv + ["--output", str(path)], capsys)
    assert (code, out, ran) == (1, "", [])
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.parametrize(
    "argv",
    [
        # k-max above N - 1, which the sweep refuses
        ["profile", "--gen", "two-disks", "--n", "20", "--k-max", "60"],
        # a schedule of more than 100000 steps, refused before the anneal
        ["da-trace", "--gen", "two-disks", "--n", "20", "--ratio", "1.000000001"],
    ],
    ids=["profile", "da-trace"],
)
def test_output_is_left_as_it_was_when_the_run_fails_later(argv, capsys, tmp_path):
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("earlier output\n")
    for path in (kept, fresh):
        code, _, err = run_cli(argv + ["--output", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: ")
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()


def test_profile_csv_stdout(capsys):
    code, out, _ = run_cli(
        ["profile", "--gen", "two-disks", "--n", "2000", "--k-max", "6",
         "--seed", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,beta_bar,log_beta_bar,v"
    assert len(lines) == 1 + 6
    assert lines[1].split(",")[3] == ""
    v2 = float(lines[2].split(",")[3])
    assert v2 == pytest.approx(3.53, abs=0.15)
    vs = [float(line.split(",")[3]) for line in lines[2:]]
    assert max(vs) == v2


def test_profile_kernel_rings_at_default_n(capsys):
    # regression: at the generator's default size the merged partial-ring
    # clusters carry near-degenerate kernel scatter pairs that once pushed
    # the eigensolver past its iteration cap and aborted the whole profile
    code, out, _ = run_cli(
        ["profile", "--gen", "rings", "--normalize", "--k-max", "6",
         "--mode", "kernel", "--sigma", "0.01"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,beta_bar,log_beta_bar,v"
    assert len(lines) == 1 + 6


def test_profile_json_document(capsys):
    code, out, _ = run_cli(
        ["profile", "--gen", "two-disks", "--n", "300", "--k-max", "4",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"version", "config", "profile"}
    cfg = doc["config"]
    assert cfg["source"] == "two-disks"
    assert cfg["mode"] == "linear"
    assert cfg["k_max"] == 4
    assert cfg["normalize"] is False
    assert doc["profile"]["k_t"] == 2
    assert set(doc["profile"]["beta_bar"]) == {"1", "2", "3", "4"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_output_file_holds_the_stdout_bytes(fmt, capsys, tmp_path):
    # profile --output and estimate --output write what profile prints
    out_path = tmp_path / f"profile.{fmt}"
    args = ["--gen", "two-disks", "--n", "300", "--k-max", "4", "--format", fmt]
    code, out, _ = run_cli(["profile"] + args, capsys)
    assert code == 0
    for command, stdout in (("profile", ""), ("estimate", "k_t = 2\n")):
        out_path.unlink(missing_ok=True)
        code, printed, _ = run_cli([command] + args + ["--output", str(out_path)], capsys)
        assert code == 0
        assert printed == stdout
        assert out_path.read_bytes() == out.encode()


def test_profile_json_normalize_defaults_on_for_files(capsys):
    code, out, _ = run_cli(
        ["profile", "--input", str(DATA_DIR / "iris.csv"), "--label-col", "4",
         "--k-max", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["normalize"] is True
    assert doc["config"]["source"].endswith("iris.csv")


def test_normalize_flag_changes_scale_sensitivity(capsys):
    # raw coordinates put beta_bar at the data's own scale; z-scoring first
    # moves it, so the two runs must disagree
    base = ["profile", "--gen", "two-disks", "--n", "400", "--k-max", "3"]
    _, raw, _ = run_cli(base, capsys)
    _, normed, _ = run_cli(base + ["--normalize"], capsys)
    _, raw_again, _ = run_cli(base + ["--no-normalize"], capsys)
    assert raw_again == raw
    b_raw = float(raw.strip().split("\n")[1].split(",")[1])
    b_norm = float(normed.strip().split("\n")[1].split(",")[1])
    assert b_norm != pytest.approx(b_raw, rel=1e-3)


def test_da_trace_gaussians(capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    argv = ["da-trace", "--gen", "gaussians4", "--seed", "0",
            "--output", str(out_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("predicted critical beta = ")
    assert lines[1].startswith("first split observed at beta = ")
    rel = float(lines[2].removeprefix("relative error = ").removesuffix("%"))
    assert rel < 5.0
    assert lines[3] == "final distinct centroids = 4"
    trace_lines = out_path.read_text().strip().split("\n")
    assert trace_lines[0] == "beta,k_distinct,free_energy"
    assert len(trace_lines) > 10
    code2, again, _ = run_cli(argv, capsys)
    assert code2 == 0
    assert again == out


# Three README commands (the Experiments table's profile form for the first
# two); the da-trace one also writes a file, whose free energies its stdout
# does not show.
PINNED_COMMANDS = {
    "superclusters": "profile --gen superclusters --super-spacing 5 --k-max 12",
    "iris": "profile --input {data}/iris.csv --label-col 4 --k-max 10",
    "da-trace": "da-trace --gen gaussians4 --output {tmp}/trace.csv",
}
# The sha256 of each command's stdout and of the file it writes, per OpenBLAS
# kernel core as helpers.openblas_corename names it. Identical arguments give
# byte-identical output on one BLAS build, kernel and thread count (README,
# Determinism), so a change that moves any output bit fails here and has to
# re-record the digests and say why. The Haswell ones are read in a child
# interpreter run with OPENBLAS_CORETYPE=Haswell.
PINNED_STDOUT = {
    "SkylakeX": {
        "superclusters": ("2afa212bd4303248a2f9272f431d8e0eb9c0656f5c9f97396008d190b6a6c07c", None),
        "iris": ("c27108be695bff34623e38b31bd09a0af12ccadafd5919197cf0a6bee3c572e0", None),
        "da-trace": ("6d99c50a2d8b7bd81e60ba6bf639d5fa9bdf41d82a990bb19c2665b43ef7bd4f",
                     "d74918c3784bd639475172c9670c1d3f02561fe14bb43195cb997abca8a2a6e8"),
    },
    "Haswell": {
        "superclusters": ("dc15d13805378702284f026d878b6da4a5514f8374c76ffe06b4a1ef6842897d", None),
        "iris": ("c27108be695bff34623e38b31bd09a0af12ccadafd5919197cf0a6bee3c572e0", None),
        "da-trace": ("edc8c8b311a08b468f93866f344bb7809360e332ecef06f28e6b50c24be5ac79",
                     "4e74a8d2bb53a632e34b17cadd29c1ec10ffc5e1be4502928063ab42c1689a7b"),
    },
}


def pinned_digests(core):
    """The digests recorded for this core; a core without them skips, naming
    itself, rather than passing unchecked."""
    if core not in PINNED_STDOUT:
        pytest.skip(f"no README stdout digests recorded for OpenBLAS core {core}")
    return PINNED_STDOUT[core]


def pinned_argv(name, tmp_path):
    return shlex.split(PINNED_COMMANDS[name].format(data=DATA_DIR, tmp=tmp_path))


@pytest.mark.parametrize("name", list(PINNED_COMMANDS))
def test_readme_command_stdout_is_pinned(name, capsys, tmp_path):
    digest, file_digest = pinned_digests(openblas_corename())[name]
    code, out, _ = run_cli(pinned_argv(name, tmp_path), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
    if file_digest is not None:
        written = (tmp_path / "trace.csv").read_bytes()
        assert hashlib.sha256(written).hexdigest() == file_digest


# Runs the pinned commands, given as a JSON object of argument lists, in a
# child interpreter and prints the OpenBLAS core name it ran on, each exit
# code with the sha256 of its stdout, and the sha256 of the file named last,
# as one JSON object. A child whose core is not the one asked for stops
# before the commands.
_PINNED_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from clusterpersist.cli import main
from helpers import openblas_corename

out = {"core": openblas_corename()}
if out["core"] == sys.argv[1]:
    for name, argv in json.loads(sys.argv[2]).items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[name] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
    out["file"] = hashlib.sha256(Path(sys.argv[3]).read_bytes()).hexdigest()
print(json.dumps(out))
"""


def test_readme_command_stdout_is_pinned_under_haswell_kernels(tmp_path):
    want = "Haswell"
    commands = {name: pinned_argv(name, tmp_path) for name in PINNED_COMMANDS}
    res = subprocess.run(
        [sys.executable, "-c", _PINNED_CHILD, want, json.dumps(commands),
         str(tmp_path / "trace.csv")],
        capture_output=True,
        text=True,
        env=child_env(OPENBLAS_CORETYPE=want),
    )
    assert res.returncode == 0, res.stderr
    child = json.loads(res.stdout.strip().splitlines()[-1])
    if child["core"] != want:
        pytest.skip(f"OpenBLAS did not switch to {want} kernels; its core is {child['core']}")
    for name, (digest, file_digest) in PINNED_STDOUT[want].items():
        assert child[name] == [0, digest], name
        if file_digest is not None:
            assert child["file"] == file_digest


def test_da_trace_output_file_is_the_trace_csv(capsys, tmp_path, monkeypatch):
    traces = []

    def recorded(*args, **kwargs):
        traces.append(anneal(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "anneal", recorded)
    out_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        ["da-trace", "--gen", "two-disks", "--n", "100", "--output", str(out_path)], capsys
    )
    assert code == 0
    trace, = traces
    assert out_path.read_bytes() == trace.to_csv().encode()


def test_da_trace_two_disks_meets_every_fixed_point_before_the_cap(capsys, monkeypatch):
    # without accept, a fixed point that ends at the iteration cap raises
    # instead of returning its residual movement, and the command fails
    fixed_point = annealing.da_fixed_point

    def strict(*args, accept=None, **kwargs):
        return fixed_point(*args, **kwargs)

    monkeypatch.setattr(annealing, "da_fixed_point", strict)
    code, _, err = run_cli(["da-trace", "--gen", "two-disks", "--n", "100"], capsys)
    assert code == 0, err


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_da_trace_rejects_an_unusable_scale(scale, capsys, monkeypatch):
    # a usage error, raised before the data is built
    def no_data(args):
        raise AssertionError("data built despite a bad --scale")

    monkeypatch.setattr(cli, "_load_dataset", no_data)
    with pytest.raises(SystemExit) as exc:
        main(["da-trace", "--gen", "two-disks", "--n", "50", "--scale", scale])
    assert exc.value.code == 2
    assert "--scale must be positive and finite" in capsys.readouterr().err


def test_da_trace_rejects_a_scale_whose_offset_overflows(capsys):
    # a usable --scale times the data's diameter can still overflow; only the
    # data tells, so this is a runtime failure
    code, out, err = run_cli(
        ["da-trace", "--gen", "two-disks", "--n", "50", "--scale", "1e308"], capsys
    )
    assert code == 1
    assert "split_perturbation_scale" in err
    assert "raise --beta-max" not in out


def test_da_trace_on_a_single_point_is_a_runtime_error(capsys):
    code, out, err = run_cli(["da-trace", "--gen", "spirals", "--arms", "1", "--n", "1"], capsys)
    assert (code, out, err) == (1, "", "error: degenerate dataset: zero covariance\n")


def test_da_trace_without_split_reports_failure(capsys):
    code, out, _ = run_cli(
        ["da-trace", "--gen", "two-disks", "--n", "200",
         "--beta-min", "0.001", "--beta-max", "0.002"],
        capsys,
    )
    assert code == 1
    assert "no split observed; raise --beta-max" in out


def test_da_trace_rejects_bad_schedule(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["da-trace", "--gen", "two-disks", "--n", "100",
              "--beta-min", "0.5", "--beta-max", "0.1"])
    assert exc.value.code == 2
    assert "--beta-min must be below --beta-max" in capsys.readouterr().err
    # a bound derived from the data is checked once the data is built
    code, _, err = run_cli(
        ["da-trace", "--gen", "two-disks", "--n", "100", "--beta-min", "1e6"], capsys
    )
    assert code == 1
    assert "require 0 < beta-min < beta-max" in err


def test_da_trace_refuses_overlong_schedule_before_building_it(capsys, monkeypatch):
    # annealing is stubbed out: an accepted schedule reaches it and stops
    # there, so a schedule that slips past the guard fails the test at the
    # cost of about _MAX_SCHEDULE_STEPS floats rather than annealing them
    def no_anneal(*args, **kwargs):
        raise RuntimeError("anneal reached")

    monkeypatch.setattr(cli, "anneal", no_anneal)
    base = ["da-trace", "--gen", "two-disks", "--n", "50",
            "--beta-min", "1.0", "--beta-max", repr(math.e)]
    for steps, message in (
        (cli._MAX_SCHEDULE_STEPS + 10, "schedule would exceed"),
        (cli._MAX_SCHEDULE_STEPS - 10, "anneal reached"),
    ):
        ratio = repr(math.exp(1.0 / steps))
        code, _, err = run_cli(base + ["--ratio", ratio], capsys)
        assert code == 1
        assert message in err
    # a NaN or infinite number is a usage error, caught before the data is
    # built, rather than a schedule too long to build
    for args, message in (
        (base[:-1] + ["inf"], "--beta-max must be positive and finite, got inf"),
        (base[:-1] + ["nan"], "--beta-max must be positive and finite, got nan"),
        (base[:-3] + ["nan", "--beta-max", repr(math.e)], "--beta-min must be positive and finite"),
        (base + ["--ratio", "nan"], "--ratio must exceed 1, got nan"),
        (base + ["--ratio", "1"], "--ratio must exceed 1, got 1.0"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def run_console_script(args, **run_kwargs):
    """Run the declared `clusterpersist` console script as pip's wrapper would.

    The entry point is read from `[project.scripts]` in pyproject.toml;
    without `tomllib` (Python 3.10) or a pyproject.toml, from the installed
    distribution's console_scripts metadata. Like the generated wrapper, a
    fresh interpreter loads it, sets sys.argv[0] to the script name and exits
    with its return value, so no install is needed.
    """
    name = "clusterpersist"
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if tomllib is not None and pyproject.is_file():
        with pyproject.open("rb") as f:
            scripts = tomllib.load(f).get("project", {}).get("scripts", {})
        if name not in scripts:
            pytest.fail(f"{pyproject} declares no [project.scripts] {name}")
        value = scripts[name]
    else:
        found = importlib.metadata.entry_points(group="console_scripts", name=name)
        if not found:
            pytest.fail(
                f"console script {name!r} not found: no tomllib or "
                "pyproject.toml to read it from, and no installed "
                "distribution declares it"
            )
        value = next(iter(found)).value
    code = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name={name!r}, value={value!r}, "
        "group='console_scripts').load()\n"
        f"sys.argv[0] = {name!r}\n"
        "sys.exit(main())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=child_env(), **run_kwargs
    )


def test_console_script_runs():
    res = run_console_script(["--version"], text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("clusterpersist ")
    installed = shutil.which("clusterpersist")
    if installed is not None:
        # an installed wrapper on PATH must behave like the declared entry point
        via_path = subprocess.run(
            [installed, "--version"], capture_output=True, text=True
        )
        assert via_path.returncode == 0
        assert via_path.stdout == res.stdout


def test_module_entry_point_matches_console_script():
    argv = ["gen", "spirals", "--n", "10", "--seed", "1"]
    res = subprocess.run(
        [sys.executable, "-m", "clusterpersist.cli", *argv],
        capture_output=True,
        env=child_env(),
    )
    assert res.returncode == 0
    assert len(res.stdout.decode().strip().split("\n")) == 30
    script = run_console_script(argv)
    assert script.returncode == 0
    assert script.stdout == res.stdout


README = Path(__file__).resolve().parents[1] / "README.md"
# a code-block line that runs the CLI, installed or from the checkout
COMMAND_LINE = re.compile(r"(?:PYTHONPATH=\S+ python -m clusterpersist\.cli|clusterpersist) (.*)")


def readme_commands():
    """Every CLI command in the README's code blocks and Experiments table,
    as the arguments after the program name."""
    text = README.read_text()
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            m = COMMAND_LINE.match(line)
            if m:
                commands.append(m.group(1))
    table = text.split("## Experiments", 1)[1].split("\n## ", 1)[0]
    commands += re.findall(r"^\|.*`clusterpersist ([^`]*)`", table, re.M)
    return [re.sub(r"--seed S\b", "--seed 3", c) for c in commands]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 17
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            pytest.fail(f"README command does not parse: clusterpersist {command}")
