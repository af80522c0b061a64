"""CLI surface: argument parsing, exit codes, and files written."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import irsoob.experiments as experiments
from irsoob.cli import main


def test_list_presets_prints_every_name(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for i in range(3, 13):
        assert f"fig{i}" in out


def test_run_writes_csv_and_manifest(tmp_path, capsys):
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps({"n_sweep": [4], "slots": 100, "trials": 2, "seed": 5}),
                    encoding="utf-8")
    out = tmp_path / "results"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    assert (out / "tiny.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["tiny"]["seed"] == 5
    assert "tiny: " in capsys.readouterr().out


def test_a_pf_tau_one_run_raises_no_warning(tmp_path):
    """At pf_tau = 1 every unserved PF average is 0, so the metric reads inf
    by design; the run must not warn about it."""
    spec = tmp_path / "tau.json"
    spec.write_text(json.dumps({"scheduler": "pf", "pf_tau": 1, "n_sweep": [4], "q_ues": 3,
                                "slots": 100, "trials": 2, "seed": 5,
                                "outputs": ["sumse", "pf_gap"]}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(spec), "--out", str(tmp_path / "r")]) == 0


def test_run_seed_flag_overrides_config(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text("{}", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["run", str(spec), "--out", str(out), "--seed", "99",
                 "--analytic-only"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["s"]["seed"] == 99


def test_run_reports_bad_config(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text('{"gamma_db_sweep": [999]}', encoding="utf-8")
    assert main(["run", str(spec)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_reports_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_preset_with_overrides(tmp_path, capsys):
    out = tmp_path / "p"
    code = main(["preset", "fig3", "--out", str(out), "--seed", "3",
                 "--override", "slots=100", "--override", "trials=2",
                 "--override", "gamma_db_sweep=[120,130]"])
    assert code == 0
    assert (out / "fig3.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["fig3"]["spec"]["slots"] == 100
    assert manifest["fig3"]["spec"]["gamma_db_sweep"] == [120, 130]


def test_preset_unknown_name_exits_two(capsys):
    assert main(["preset", "fig99"]) == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("preset,override", [("fig3", "bogus=1"), ("fig8", "n_sweep=[4,7]")])
def test_preset_reports_bad_override(tmp_path, capsys, preset, override):
    # an unknown field, or a value the spec rejects (odd N in a mmWave preset)
    out = tmp_path / "bad"
    assert main(["preset", preset, "--override", override, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_preset_nested_override_replaces_the_field(tmp_path):
    out = tmp_path / "nested"
    assert main(["preset", "fig8", "--out", str(out), "--analytic-only",
                 "--override", 'path_loss={"c0_db": -50}',
                 "--override", 'geometry={"irs": [1000, 1000]}']) == 0
    spec = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["fig8"]["spec"]
    assert spec["path_loss"]["c0_db"] == -50 and spec["path_loss"]["alpha_direct"] == 4.5
    assert spec["geometry"]["irs"] == [1000, 1000]
    assert spec["geometry"]["bs_inband"] == [0.0, 50.0]


def test_preset_nested_override_names_an_unknown_field(tmp_path, capsys):
    out = tmp_path / "bad"
    assert main(["preset", "fig8", "--override", 'path_loss={"alpha": 3}',
                 "--out", str(out)]) == 2
    assert "path_loss.alpha" in capsys.readouterr().err
    assert not out.exists()


def test_preset_errors_past_spec_resolution_propagate(tmp_path, monkeypatch):
    # the spec is valid; a trial then fails, and that is no usage error
    def fail(*args, **kwargs):
        raise ArithmeticError("trial failed")

    monkeypatch.setattr(experiments, "run_trial", fail)
    with pytest.raises(ArithmeticError, match="trial failed"):
        main(["preset", "fig3", "--override", "slots=50", "--override", "trials=2",
              "--out", str(tmp_path)])


@pytest.mark.parametrize("flags,field", [
    (["--seed", "-1"], "seed"),
    (["--override", "slots=100.0"], "slots"),
    (["--override", "trials=2.5"], "trials"),
    (["--override", "k_ues=true"], "k_ues"),
    (["--override", 'iid_ues="no"'], "iid_ues"),
    (["--override", "n_sweep=[64.7]"], "n_sweep"),
])
def test_preset_names_the_field_of_a_bad_count_or_flag(tmp_path, capsys, flags, field):
    # a fractional, boolean or negative value is a usage error, not a
    # traceback, a truncation or a truthy string
    out = tmp_path / "bad"
    assert main(["preset", "fig3", "--analytic-only", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("override,field", [
    ("pf_tau=NaN", "pf_tau"), ("pf_tau=true", "pf_tau"),
    ('path_loss={"c0_db": NaN}', "c0_db"), ('path_loss={"alpha_direct": NaN}', "alpha_direct"),
    ('geometry={"irs": [NaN, 0]}', "irs"), ("gamma_db_sweep=[true]", "gamma_db_sweep"),
    ('gamma_db_sweep=["130"]', "gamma_db_sweep"),
])
def test_preset_names_a_float_field_that_is_not_finite(tmp_path, capsys, override, field):
    # no PF row from NaN averages, no tau of 1 from true, no nan analytic cell
    out = tmp_path / "bad"
    assert main(["preset", "fig11", "--analytic-only", "--override", override,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}: expected a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["fig3", "fig11"])
def test_a_d0_no_ue_can_clear_exits_two_before_any_draw(tmp_path, capsys, monkeypatch, preset):
    # fig3 drops its UEs in a region whose every point lies within 1000 m of
    # the reflector; fig11 places them at the iid point, 35 m from it
    import irsoob.engine as engine

    def refuse(*args, **kwargs):
        raise AssertionError("a UE drop or a link budget ran")

    monkeypatch.setattr(engine, "draw_ue_positions", refuse)
    monkeypatch.setattr(engine, "link_budget", refuse)
    out = tmp_path / "bad"
    assert main(["preset", preset, "--analytic-only", "--override", 'path_loss={"d0": 1000}',
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "path_loss.d0 = 1000 exceeds" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[]", "not json"])
def test_a_manifest_that_cannot_be_merged_fails_before_any_trial(tmp_path, capsys,
                                                                 monkeypatch, text):
    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trial", fail)
    out = tmp_path / "r"
    out.mkdir()
    (out / "manifest.json").write_text(text, encoding="utf-8")
    assert main(["preset", "fig3", "--out", str(out)]) == 2
    assert str(out / "manifest.json") in capsys.readouterr().err
    assert (out / "manifest.json").read_text(encoding="utf-8") == text
    assert not (out / "fig3.csv").exists()


def test_run_rejects_a_negative_seed(tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text("{}", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["run", str(spec), "--out", str(out), "--seed", "-1", "--analytic-only"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_pf_gap_outside_sub6(tmp_path, capsys):
    # the PF ceiling and the scheduler forms are Rayleigh ones; the spec refuses
    # the output before any trial runs
    spec = tmp_path / "mm.json"
    spec.write_text(json.dumps({"regime": "mmwave_los", "l2": 4, "outputs": ["pf_gap"]}),
                    encoding="utf-8")
    out = tmp_path / "r"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert "needs regime 'sub6'" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_correlation_response_in_sub6(tmp_path, capsys):
    # the response needs on-grid path angles; a sub6 run would write a header-only CSV
    spec = tmp_path / "s6.json"
    spec.write_text(json.dumps({"outputs": ["correlation_response"]}), encoding="utf-8")
    out = tmp_path / "r"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert "'correlation_response' needs an mmWave regime" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data,field", [
    ({"n_sweep": [16, 16], "gamma_db_sweep": [130, 130]}, "n_sweep"),
    ({"gamma_db_sweep": [130, 110, 130]}, "gamma_db_sweep"),
])
def test_run_names_a_sweep_with_a_duplicate_entry(tmp_path, capsys, data, field):
    # each repeat would write a second row, with other values, at one coordinate
    spec = tmp_path / "dup.json"
    spec.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "r"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}: duplicate entries" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma,code", [("210", 0), ("210.5", 2)])
def test_fig9_runs_at_the_top_of_the_snr_range(tmp_path, capsys, gamma, code):
    # 210 dB is the transmit budget of the sparse multipath acceptance check
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["preset", "fig9", "--analytic-only", "--override",
                     f"gamma_db_sweep=[{gamma}]", "--out", str(out)]) == code
    if code:
        assert "gamma_db_sweep: 210.5 dB outside" in capsys.readouterr().err
        assert not out.exists()
    else:
        lines = (out / "fig9.csv").read_text(encoding="utf-8").splitlines()[1:]
        # 9 element counts x 2 path counts x (in-band, OOB), each with a finite form
        assert len(lines) == 36 and all(",210," in line for line in lines)
        assert all(math.isfinite(float(line.split(",")[9])) for line in lines)


def test_override_requires_key_value_shape():
    with pytest.raises(SystemExit):
        main(["preset", "fig3", "--override", "slots"])


def test_bare_string_override_needs_no_quoting(tmp_path):
    out = tmp_path / "q"
    assert main(["preset", "fig3", "--out", str(out), "--override", "scheduler=mr",
                 "--override", "slots=100", "--override", "trials=2",
                 "--analytic-only"]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["fig3"]["spec"]["scheduler"] == "mr"


def _run_python(args, cwd):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=60)


def test_module_entry_point_runs(tmp_path):
    done = _run_python(["-m", "irsoob", "list-presets"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "fig12" in done.stdout


def test_a_run_loads_no_scipy(tmp_path):
    # scipy's import alone costs more than most preset runs; the package
    # needs numpy only, and a lazy import on the run path would bring it back
    argv = ["preset", "fig10", "--analytic-only", "--out", str(tmp_path)]
    script = ("import sys\n"
              "from irsoob import cli\n"
              f"assert cli.main({argv!r}) == 0\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    done = _run_python(["-c", script], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "fig10.csv").exists()
