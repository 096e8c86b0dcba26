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
    # Gaussian MMD terms take the split form of the Gram matrix and d = 20
    # distance blocks the guarded expansion, so neither the CLI import nor a
    # test (at d = 20 or d = 5), a ROC study or an empirical MMD needs scipy;
    # a d = 5 distance block loads it
    run_fresh(f"""
        import sys
        import numpy as np
        from bnpmmd import cli, discrepancy, kernels, rb, scenarios
        assert "scipy" not in sys.modules, "import bnpmmd.cli"
        rng = np.random.default_rng(0)
        rb.run_gof_test(rng.standard_normal((50, 20)), scenarios.null_model_sampler(20),
                        rb.RBConfig(mc_reps=100), rng)
        assert "scipy" not in sys.modules, "d = 20 test"
        assert cli.dispatch(["roc", "--null", "no_difference", "--alt", "mean_shift",
                             "--d", "20", "--n", "50", "--reps", "2", "--ell", "100",
                             "--seed", "3", "--out", {str(tmp_path / "roc.csv")!r}]) == 0
        assert "scipy" not in sys.modules, "d = 20 roc"
        spec = kernels.parse_kernel("gaussian:80")
        rb.run_gof_test(rng.standard_normal((50, 5)), scenarios.null_model_sampler(5),
                        rb.RBConfig(mc_reps=100, kernel=spec), rng)
        assert "scipy" not in sys.modules, "d = 5 test"
        discrepancy.mmd2_empirical(rng.standard_normal((30, 5)), rng.standard_normal((20, 5)),
                                   kernels.gaussian_mixture())
        assert "scipy" not in sys.modules, "d = 5 mmd2_empirical"
        kernels.gram(kernels.gaussian_kernel(1.0), rng.standard_normal((4, 5)),
                     rng.standard_normal((3, 5)))
        import scipy.spatial.distance
        assert kernels.cdist is scipy.spatial.distance.cdist
    """)


def test_loading_scipy_never_replaces_a_patched_name():
    # a wrapper around the stand-in (as perfbench/spans.py binds one) stays
    # bound when the stand-in's first call, from a d < 16 block, loads scipy
    run_fresh("""
        import sys
        import numpy as np
        from bnpmmd import kernels
        calls, stand_in = [], kernels.cdist

        def wrapper(*args, **kwargs):
            calls.append(args)
            return stand_in(*args, **kwargs)

        kernels.cdist = wrapper
        assert "scipy" not in sys.modules
        rng = np.random.default_rng(0)
        spec = kernels.gaussian_kernel(1.0)
        kernels.self_gram(spec, rng.standard_normal((157, 2)))
        assert "scipy.spatial.distance" in sys.modules
        kernels.gram(spec, rng.standard_normal((4, 5)), rng.standard_normal((3, 5)))
        assert len(calls) == 2 and kernels.cdist is wrapper
    """)


def _scipy_names(source: str) -> set[str]:
    """Every scipy module or name that ``source`` imports, as a dotted path."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "scipy"}
    return names


def test_scipy_is_used_only_for_cdist():
    assert _scipy_names("import scipy.stats\nfrom scipy.spatial import distance\nimport os") == {
        "scipy.stats", "scipy.spatial.distance"}
    used = set().union(*(_scipy_names(path.read_text())
                         for path in Path(bnpmmd.__file__).parent.glob("*.py")))
    assert used == {"scipy.spatial.distance.cdist"}
    from bnpmmd import kernels
    assert not hasattr(kernels, "pdist") and not hasattr(kernels, "squareform")


def _atleast_2d_calls(source: str) -> int:
    """Calls in ``source`` of ``atleast_2d``, as ``np.atleast_2d`` or imported bare."""
    return sum(isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "atleast_2d"
               for node in ast.walk(ast.parse(source)))


def test_only_errors_calls_atleast_2d():
    # the shape rule is errors.as_rows; np.atleast_2d beside it let a (c, N, d)
    # stack or a wrong width through to numpy's own errors
    assert _atleast_2d_calls("import numpy as np\nfrom numpy import atleast_2d\n"
                             "np.atleast_2d(x)\natleast_2d(y)\nnp.asarray(x)") == 2
    calls = {path.name: _atleast_2d_calls(path.read_text())
             for path in Path(bnpmmd.__file__).parent.glob("*.py")}
    assert {name for name, n in calls.items() if n} == {"errors.py"}
