"""Config loading and validation: defaults, rejection messages, hashing."""

import ast
import importlib
import json
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import irsoob
from irsoob.channels import NodeGeometry, PathLossParams
from irsoob.config import (OUTPUT_KINDS, ExperimentSpec, load_spec, spec_from_dict, spec_hash,
                           spec_to_dict)
from irsoob.engine import budgets_for
from irsoob.experiments import PRESETS, preset_spec
from oracles import PINNED_UES, spec_rows


def write(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_empty_file_yields_defaults(tmp_path):
    spec = load_spec(write(tmp_path, ""))
    assert spec == ExperimentSpec()
    assert spec.regime == "sub6" and spec.scheduler == "rr"
    assert spec.n_sweep == (64,) and spec.gamma_db_sweep == (130.0,)
    assert spec.k_ues == spec.q_ues == 10 and spec.slots == 5000
    assert spec.geometry.bs_inband == (0.0, 50.0)
    assert spec.geometry.bs_oob == (50.0, 0.0)
    assert spec.geometry.irs == (1025.0, 1025.0)
    assert spec.path_loss.c0_db == -30.0 and spec.path_loss.alpha_direct == 4.5


def test_whitespace_only_file_is_empty(tmp_path):
    assert load_spec(write(tmp_path, "  \n\t")) == ExperimentSpec()


def test_unknown_field_is_named(tmp_path):
    with pytest.raises(ValueError, match="elements"):
        load_spec(write(tmp_path, '{"elements": 64}'))
    with pytest.raises(ValueError, match=r"geometry\.bs_third"):
        load_spec(write(tmp_path, '{"geometry": {"bs_third": [1, 2]}}'))
    with pytest.raises(ValueError, match=r"path_loss\.alpha"):
        load_spec(write(tmp_path, '{"path_loss": {"alpha": 3.0}}'))


def test_invalid_json_and_non_object(tmp_path):
    with pytest.raises(ValueError, match="not valid JSON"):
        load_spec(write(tmp_path, "{regime: sub6}"))
    with pytest.raises(ValueError, match="object"):
        load_spec(write(tmp_path, "[1, 2]"))


def test_nested_overrides_parse(tmp_path):
    spec = load_spec(write(tmp_path, json.dumps({
        "regime": "mmwave_nlos", "l1": 2, "l2": 5,
        "geometry": {"irs": [500.0, 500.0], "ue_region": [[0, 0], [10, 10]]},
        "path_loss": {"c0_db": -60.0},
        "n_sweep": [16, 64], "outputs": ["sumse", "ccdf"],
    })))
    assert spec.geometry.irs == (500.0, 500.0)
    assert spec.geometry.ue_region == ((0, 0), (10, 10))
    assert spec.path_loss.c0_db == -60.0
    assert spec.n_sweep == (16, 64) and spec.outputs == ("sumse", "ccdf")


def test_gamma_range_enforced():
    with pytest.raises(ValueError, match=r"\[0\.0, 210\.0\]"):
        ExperimentSpec(gamma_db_sweep=(210.5,))
    with pytest.raises(ValueError, match="outside"):
        ExperimentSpec(gamma_db_sweep=(-5.0,))
    ExperimentSpec(gamma_db_sweep=(0.0, 210.0))  # inclusive endpoints


@pytest.mark.parametrize("data,field", [
    ({"n_sweep": [16, 16]}, "n_sweep"),
    ({"n_sweep": [4, 16, 4]}, "n_sweep"),
    ({"gamma_db_sweep": [130, 130]}, "gamma_db_sweep"),
    ({"gamma_db_sweep": [120, 130, 130.0]}, "gamma_db_sweep"),
    ({"n_sweep": [16, 16], "gamma_db_sweep": [130, 130]}, "n_sweep"),
])
def test_duplicate_sweep_entries_are_refused(data, field):
    # each repeat would write a second row, with other values, at one coordinate
    with pytest.raises(ValueError, match=f"{field}: duplicate entries"):
        spec_from_dict(data)


def test_distinct_sweeps_keep_their_hash():
    # the duplicate check adds no field, so a valid spec hashes as the 17-field
    # schema does; adding or removing a field moves both pins
    assert spec_hash(ExperimentSpec()) == (
        "acea20ae6a1ce625f7e2f61cec0e6cbd91f0a55e4704056f8ac63874a7053e14")
    assert spec_hash(PRESETS["fig9"].spec) == (
        "9eec177a4cae84f49d678dd9b125fc00d7011964c9d4826c693b757246121dc0")


def test_sweeps_must_be_nonempty():
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentSpec(n_sweep=())
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentSpec(gamma_db_sweep=())
    with pytest.raises(ValueError, match="outputs must be non-empty"):
        ExperimentSpec(outputs=())


def test_element_count_guardrails():
    with pytest.raises(ValueError, match=">= 0"):
        ExperimentSpec(n_sweep=(-1,))
    with pytest.raises(ValueError, match="max_elements"):
        ExperimentSpec(n_sweep=(2048,))
    # raising the cap is the documented way to run large sweeps deliberately
    assert ExperimentSpec(n_sweep=(2048,), max_elements=4096).n_sweep == (2048,)


def test_mmwave_element_counts_must_be_even_and_at_least_two():
    # the sparse channel model needs even N >= 2, so the spec refuses the rest
    # before the closed forms or the simulator see it
    for regime in ("mmwave_los", "mmwave_nlos"):
        with pytest.raises(ValueError, match="n_sweep: .*even"):
            ExperimentSpec(regime=regime, n_sweep=(4, 7))
        with pytest.raises(ValueError, match="n_sweep: .*even"):
            ExperimentSpec(regime=regime, n_sweep=(0,))
        assert ExperimentSpec(regime=regime, n_sweep=(2, 4)).n_sweep == (2, 4)
    assert ExperimentSpec(regime="sub6", n_sweep=(0, 7)).n_sweep == (0, 7)
    for analytic_only in (False, True):
        with pytest.raises(ValueError, match="n_sweep"):
            spec_rows(preset_spec("fig8", {"n_sweep": [4, 7]}), analytic_only,
                     PRESETS["fig8"].variants)


def test_slot_budget_guardrail():
    with pytest.raises(ValueError, match="slot_budget"):
        ExperimentSpec(slots=10_000_000, trials=10)
    ExperimentSpec(slots=10_000_000, trials=10, slot_budget=100_000_000)


def test_assorted_field_validation():
    with pytest.raises(ValueError, match="regime"):
        ExperimentSpec(regime="thz")
    with pytest.raises(ValueError, match="scheduler"):
        ExperimentSpec(scheduler="edf")
    with pytest.raises(ValueError, match="output"):
        ExperimentSpec(outputs=("sumse", "histogram"))
    with pytest.raises(ValueError, match="l1 and l2"):
        ExperimentSpec(l1=0)
    with pytest.raises(ValueError, match="k_ues and q_ues"):
        ExperimentSpec(q_ues=0)
    with pytest.raises(ValueError, match="pf_tau"):
        ExperimentSpec(pf_tau=0.5)


@pytest.mark.parametrize("field,value", [
    ("slots", 100.0), ("trials", 2.5), ("k_ues", True), ("q_ues", "3"), ("l1", 1.0),
    ("l2", False), ("slot_budget", 5e7), ("max_elements", 1024.0), ("seed", 1.5),
    ("n_sweep", (64.7,)), ("n_sweep", (64, True)),
])
def test_count_fields_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"{field}: expected an integer"):
        ExperimentSpec(**{field: value})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("data,field", [
    ({"pf_tau": NAN}, "pf_tau"), ({"pf_tau": INF}, "pf_tau"), ({"pf_tau": True}, "pf_tau"),
    ({"path_loss": {"c0_db": NAN}}, "c0_db"),
    ({"path_loss": {"alpha_direct": NAN}}, "alpha_direct"),
    ({"path_loss": {"d0": INF}}, "d0"), ({"path_loss": {"d0": True}}, "d0"),
    ({"geometry": {"irs": [NAN, 0]}}, "irs"), ({"geometry": {"bs_oob": [0, -INF]}}, "bs_oob"),
    ({"geometry": {"ue_region": [[0, 0], [INF, 10]]}}, "ue_region"),
    ({"gamma_db_sweep": [True]}, "gamma_db_sweep"),
    ({"gamma_db_sweep": ["130"]}, "gamma_db_sweep"),
    ({"gamma_db_sweep": [130, NAN]}, "gamma_db_sweep"),
])
def test_float_fields_must_be_finite_numbers(data, field):
    """A NaN, an infinity or a bool in a float field is named, not computed
    with: NaN averages would reach the PF rows, NaN path losses the analytic
    cells, and a NaN node would keep the UE drop from ever accepting a UE.
    A bool or a string SNR would otherwise be converted: true runs at 1 dB."""
    with pytest.raises(ValueError, match=f"{field}: expected a finite number"):
        spec_from_dict(data)


def test_a_ue_region_without_corner_pairs_is_a_value_error():
    """Corners that are not coordinate pairs are refused through the usual
    ValueError, named by the geometry field, not a TypeError."""
    with pytest.raises(ValueError, match="geometry"):
        spec_from_dict({"geometry": {"ue_region": [1, 2]}})


def test_finite_float_fields_are_kept_as_given():
    spec = spec_from_dict({"pf_tau": 500, "geometry": {"irs": [1000, 1000.5]},
                           "path_loss": {"d0": 2}})
    assert type(spec.pf_tau) is int and spec.geometry.irs == (1000, 1000.5)
    assert type(spec.path_loss.d0) is int


def test_gamma_entries_become_floats_and_keep_the_hash():
    for sweep in ([130], (np.float64(130.0),), np.array([130])):
        spec = spec_from_dict({"gamma_db_sweep": sweep})
        assert spec.gamma_db_sweep == (130.0,) and type(spec.gamma_db_sweep[0]) is float
        assert spec_hash(spec) == spec_hash(ExperimentSpec())


@pytest.mark.parametrize("data,where", [
    ({"path_loss": {"d0": 1500}}, "bs_inband-to-irs distance"),
    ({"path_loss": {"d0": 100}, "geometry": {"bs_oob": [1025, 1100]}}, "bs_oob-to-irs distance"),
    ({"path_loss": {"d0": 36}, "geometry": {"ue_region": PINNED_UES.ue_region}},
     "distance from every UE point to irs"),
    ({"path_loss": {"d0": 600}, "geometry": {"irs": [5000, 5000], "bs_inband": [1000, 500],
                                            "ue_region": PINNED_UES.ue_region}},
     "distance from every UE point to bs_inband"),
    ({"path_loss": {"d0": 107}}, "distance from every UE point to irs"),
    ({"path_loss": {"d0": 80}, "geometry": {"ue_region": [[0, 0], [60, 60]], "irs": [500, 500]}},
     "distance from every UE point to bs_inband"),
])
def test_a_d0_that_a_link_cannot_clear_is_refused(data, where):
    """A d0 above a feeder distance, above a distance from a one-point UE
    region, or holding every corner of the UE region within it, names the
    field before any draw: path_loss or the UE drop would refuse it at run time."""
    with pytest.raises(ValueError, match=f"path_loss.d0 = .* exceeds the {where}"):
        spec_from_dict(data)


@pytest.mark.parametrize("d0,pinned", [(35, True), (100, False)])
def test_a_d0_just_inside_the_geometry_is_kept_and_runs(d0, pinned):
    # the pinned point sits 35.36 m from the reflector, the region's corners 106.07 m
    spec = ExperimentSpec(path_loss=PathLossParams(d0=d0), k_ues=2, q_ues=2,
                          geometry=PINNED_UES if pinned else NodeGeometry())
    _, budget_x, budget_y = budgets_for(spec, np.random.default_rng(0))
    assert np.all(budget_x.beta_g > 0) and np.all(budget_y.beta_d > 0)


def test_seed_validation():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ExperimentSpec(seed=-1)


def test_numpy_integer_counts_become_ints_and_keep_the_hash():
    spec = ExperimentSpec(slots=np.int64(5000), seed=np.uint32(0), n_sweep=np.array([64]))
    assert type(spec.slots) is int and type(spec.seed) is int
    assert spec == ExperimentSpec()
    assert spec_hash(spec) == spec_hash(ExperimentSpec())


@pytest.mark.parametrize("output", ["pf_gap", "inband_offset"])
def test_rayleigh_only_outputs_need_sub6(output):
    for regime in ("mmwave_los", "mmwave_nlos"):
        with pytest.raises(ValueError, match=f"'{output}' needs regime 'sub6'"):
            ExperimentSpec(regime=regime, n_sweep=(16,), outputs=("sumse", output))
    assert ExperimentSpec(outputs=(output,)).outputs == (output,)


def test_spec_hash_stable_and_sensitive(tmp_path):
    a = ExperimentSpec()
    b = load_spec(write(tmp_path, "{}"))
    assert spec_hash(a) == spec_hash(b)
    assert len(spec_hash(a)) == 64
    assert spec_hash(a) != spec_hash(ExperimentSpec(seed=1))
    assert spec_hash(a) != spec_hash(ExperimentSpec(n_sweep=(32,)))


def test_spec_round_trips_through_json(tmp_path):
    original = ExperimentSpec(regime="mmwave_los", scheduler="pf", l2=5,
                              n_sweep=(4, 16), gamma_db_sweep=(140.0, 150.0),
                              outputs=("sumse", "dominance"), seed=7)
    reloaded = load_spec(write(tmp_path, json.dumps(spec_to_dict(original))))
    assert reloaded == original
    assert spec_hash(reloaded) == spec_hash(original)


def readme_tables(section: str) -> list[list[list[str]]]:
    """Each markdown table of one README section, as its body rows of stripped cells."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    tables, rows = [], []
    for line in body.splitlines() + [""]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            tables.append(rows[2:])   # drop the header and its rule
            rows = []
    return tables


def test_readme_config_schema_matches_the_spec():
    """README's field table names exactly the spec's fields, each JSON default
    equal to the dataclass default (tuples read as lists), and its outputs
    table lists exactly OUTPUT_KINDS."""
    field_rows, output_rows = readme_tables("Config schema")
    defaults = json.loads(json.dumps(spec_to_dict(ExperimentSpec())))
    named = []
    for name_cell, default_cell, _ in field_rows:
        names = re.findall(r"`(\w+)`", name_cell)
        named += names
        if default_cell != "see below":
            values = [json.loads(v) for v in re.findall(r"`([^`]+)`", default_cell)]
            assert values == [defaults[name] for name in names], name_cell
    assert named == [f.name for f in fields(ExperimentSpec)]
    assert [re.findall(r"`(\w+)`", row[0]) for row in output_rows] == [
        [kind] for kind in OUTPUT_KINDS]


def test_readme_private_names_exist():
    """Every backticked private name in README (one that starts with `_`) is
    a module-level attribute of some irsoob module, so README cannot keep
    naming a helper that was renamed or deleted."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`(_\w+)`", text))
    modules = [importlib.import_module(f"irsoob.{info.name}")
               for info in pkgutil.iter_modules(irsoob.__path__) if info.name != "__main__"]
    missing = sorted(name for name in names if not any(hasattr(m, name) for m in modules))
    assert names and not missing, missing


# Top-level package names that no package code names, each kept for a reason.
# Anything else that only tests reach belongs in tests/oracles.py.
TEST_ONLY_NAMES = {
    "irs.align": "the co-phasing rule the engine's vectorized trials are tested against",
    "irs.effective_channel": "the effective channel the engine's trials are tested against",
    "irs.sparse_cascade": "the sparse cascade the engine's mmWave trials are tested against",
    "analytics.ccdf_offset_sub6": "criterion 3's large-N offset CCDF",
    "analytics.__getattr__": "the benchmark tracer's `analytics.integrate` (ROADMAP item 18)",
}


def test_package_code_names_every_top_level_definition():
    """Every top-level function and class in src/irsoob is named by package
    code outside its own definition, apart from the TEST_ONLY_NAMES, so no
    library code that only tests reach lands silently."""
    package = Path(irsoob.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    named = []   # (the top-level statement, the names it mentions)
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            named.append((stmt, names))
    unnamed = {f"{module}.{stmt.name}"
               for module, tree in trees.items() for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and not any(stmt.name in names for other, names in named if other is not stmt)}
    assert unnamed == set(TEST_ONLY_NAMES)
