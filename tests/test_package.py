import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import bnpmmd

SRC = Path(bnpmmd.__file__).resolve().parent.parent

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


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports the package from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_scipy_loads_only_with_the_first_block_off_the_expansion(tmp_path):
    # d = 20 blocks all take the guarded expansion, so neither the CLI import
    # nor a test nor a ROC study there needs scipy; a d = 5 block loads it
    run_fresh(f"""
        import sys
        import numpy as np
        from bnpmmd import cli, kernels, rb, scenarios
        assert "scipy" not in sys.modules, "import bnpmmd.cli"
        rng = np.random.default_rng(0)
        rb.run_gof_test(rng.standard_normal((50, 20)), scenarios.null_model_sampler(20),
                        rb.RBConfig(mc_reps=100), rng)
        assert "scipy" not in sys.modules, "d = 20 test"
        assert cli.dispatch(["roc", "--null", "no_difference", "--alt", "mean_shift",
                             "--d", "20", "--n", "50", "--reps", "2", "--ell", "100",
                             "--seed", "3", "--out", {str(tmp_path / "roc.csv")!r}]) == 0
        assert "scipy" not in sys.modules, "d = 20 roc"
        kernels.gram(kernels.gaussian_kernel(1.0), rng.standard_normal((4, 5)),
                     rng.standard_normal((3, 5)))
        import scipy.spatial.distance
        assert kernels.cdist is scipy.spatial.distance.cdist
    """)


def test_loading_scipy_never_replaces_a_patched_name():
    run_fresh("""
        import sys
        import numpy as np
        from bnpmmd import kernels
        calls = []

        def fake(*args, **kwargs):
            calls.append(args)
            from scipy.spatial.distance import cdist
            return cdist(*args, **kwargs)

        kernels.cdist = fake
        assert "scipy" not in sys.modules
        rng = np.random.default_rng(0)
        kernels.self_gram(kernels.gaussian_kernel(1.0), rng.standard_normal((157, 2)))
        import scipy.spatial.distance
        assert kernels.pdist is scipy.spatial.distance.pdist  # loaded through the triangle
        kernels.gram(kernels.gaussian_kernel(1.0), rng.standard_normal((4, 5)),
                     rng.standard_normal((3, 5)))
        assert len(calls) == 1 and kernels.cdist is fake
    """)
