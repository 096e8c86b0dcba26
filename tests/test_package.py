import ast
from pathlib import Path

import bnpmmd

# the public API; a name leaves or joins it only together with this list
PUBLIC = {
    "DiscreteMeasure", "sample_dp_posterior", "sample_dp_prior", "sample_stick_breaking",
    "stopping_rule_N",
    "deviation_tail_bound", "generalization_bound", "grad_mmd2_atoms", "mmd2_empirical",
    "mmd2_weighted", "prior_mean_upper_bound",
    "KernelSpec", "eval_kernel", "gaussian_kernel", "gaussian_mixture",
    "median_heuristic", "parse_kernel",
    "RBConfig", "RBReport", "ecdf_eval", "empirical_quantile", "estimate_rb_strength",
    "run_gof_test",
    "SCENARIOS", "RocCurve", "ScenarioSpec", "fnp_permutation_test", "roc_from_scores",
    "run_roc_study", "sample_scenario",
    "GeneratorNet", "TrainConfig", "TrainHistory", "eight_gaussian_ring", "generator_forward",
    "loss_and_grad", "mmds_score", "train",
    "load_idx_images",
}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from bnpmmd import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(bnpmmd.__all__) == PUBLIC
    assert len(bnpmmd.__all__) == len(PUBLIC)


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_import_check_sees_one():
    assert _unused_imports("import math\nimport numpy as np\nfrom os import path, sep\n"
                           "np.zeros(path)") == {"math", "sep"}


def test_modules_use_every_name_they_import():
    unused = {path.name: names
              for path in sorted(Path(bnpmmd.__file__).parent.glob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))}
    assert unused == {}
