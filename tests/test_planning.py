"""``dprep.planning`` stays data-free, and the public API stays pinned.

Planning outputs are free only as post-processing: no planning output may
depend on the confidential table.  ``import dprep`` loads every module, so
a runtime ``sys.modules`` check cannot show what ``planning`` imports; the
rule is read from its source instead.  The README's planning examples then
run with the pipeline's entry points made to fail."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import test_planning_cli

import dprep
from dprep import planning

ROOT = Path(__file__).parent.parent

# the only dprep modules planning may import, and the names it may take from each
ALLOWED_DPREP = {
    "errors": None,  # any exception type
    "privacy": {"Laplace", "integer", "real", "fraction", "positive", "count", "seed", "pair",
                "grid"},
}
ALLOWED_THIRD_PARTY = {"numpy", "scipy.special"}


def _imports(path: Path):
    """Every Import and ImportFrom of a module, nested ones too, as
    (module, names, relative level)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, 0
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", {alias.name for alias in node.names}, node.level


def test_planning_imports_no_part_of_the_pipeline():
    for module, names, level in _imports(Path(planning.__file__)):
        if level:
            assert level == 1 and module in ALLOWED_DPREP, module
            allowed = ALLOWED_DPREP[module]
            assert allowed is None or names <= allowed, (module, names - allowed)
        elif module.startswith("dprep"):
            raise AssertionError(f"planning imports {module} by its absolute name")
        else:
            top = module.split(".")[0]
            assert (top in sys.stdlib_module_names or top == "__future__"
                    or module in ALLOWED_THIRD_PARTY), module


@pytest.mark.parametrize("module", sorted(ALLOWED_DPREP))
def test_what_planning_imports_imports_no_dprep_module_but_errors(module):
    path = Path(planning.__file__).with_name(f"{module}.py")
    for imported, _, level in _imports(path):
        assert not level or imported == "errors", (module, imported)
        assert not imported.startswith("dprep"), (module, imported)


@pytest.fixture()
def no_pipeline(monkeypatch):
    """Make the pipeline's entry points raise, in every dprep module that
    holds one."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a planning command reached the pipeline")

    for original in (dprep.tabular.read_table, dprep.partition.make_partition,
                     dprep.linmod.fit_subsets, dprep.privacy.BudgetLedger):
        holders = [(module, key) for name, module in list(sys.modules.items())
                   if name == "dprep" or name.startswith("dprep.")
                   for key, value in vars(module).items() if value is original]
        assert holders, original
        for module, key in holders:
            monkeypatch.setattr(module, key, forbidden)


@pytest.mark.parametrize("name", sorted(test_planning_cli.CONTOURS))
def test_readme_contours_run_without_the_pipeline(no_pipeline, tmp_path, capsys, name):
    test_planning_cli.test_readme_contour_matches_the_recorded_csv(tmp_path, capsys, name)


def test_readme_invert_runs_without_the_pipeline(no_pipeline, capsys):
    test_planning_cli.test_readme_invert_matches_the_recorded_output(capsys)


PUBLIC_API = [
    "ADConfig", "ADPosterior", "AMConfig", "AMPosterior", "BudgetExceededError",
    "BudgetLedger", "ConfidenceInterval", "ConfigError", "ContourGrid", "Dataset",
    "DegenerateIntervalError", "DprepError", "FitResult", "IngestionError",
    "InsufficientDataError", "InversionAssumption", "Laplace", "LedgerCorruptError",
    "ModelSpec", "NoisyRelease", "OverlapResult", "PartitionPlan", "Released", "RngStream", "RobustnessGrid", "SingularFitError", "Term", "ToleranceRegion",
    "TransformDomainError", "UncappedBudgetWarning", "ad_verify", "am_verify",
    "average_overlap", "build_fixed_region", "build_inflated_region", "compute_indicator_count",
    "confidence_interval", "credible_interval", "delta_star", "encode_categoricals",
    "error_bound", "fit_ols", "fit_summary", "gibbs_posterior", "invert_credible_interval",
    "invert_overlap", "make_partition", "null_assumption_lengths", "parse_formula",
    "posterior_nu", "read_schema", "read_table", "reference_contour", "release_count",
    "release_overlap", "release_scalar", "robustness_contour", "t_quantile", "theta_hat",
]


def test_public_api_is_pinned():
    assert sorted(dprep.__all__) == PUBLIC_API
    assert len(set(dprep.__all__)) == len(dprep.__all__)
    assert all(hasattr(dprep, name) for name in dprep.__all__)
    public = {name for name, value in vars(dprep).items() if not name.startswith("_")
              and type(value) is not type(dprep)}
    assert public == set(PUBLIC_API)


def test_public_api_holds_every_name_the_benchmark_and_demos_import():
    # `from dprep import cli` imports a submodule, not a name of the API
    imported = set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        for module, names, _ in _imports(path):
            if module == "dprep" and names:
                imported |= {name for name in names
                             if importlib.util.find_spec(f"dprep.{name}") is None}
    assert imported and imported <= set(dprep.__all__), imported - set(dprep.__all__)
