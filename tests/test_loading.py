"""The package's loading contract: `import slopespectra` runs no submodule,
each CLI command runs only the submodules it calls, first use is
thread-safe, and every exported name still imports.

A submodule has run when its `sys.modules` entry is a plain module; until
then it is registered there unrun.  Each check that needs a fresh
interpreter starts one."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import slopespectra
from slopespectra.cli import EXIT_OK, EXIT_REFUTED, main

CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(slopespectra.__file__).parents[1])}

# defines run(): the submodules that have run, by short name
PRELUDE = ("import sys\n"
           "def run():\n"
           "    return sorted(name.partition('.')[2] for name, m in list(sys.modules.items())\n"
           "                  if name.startswith('slopespectra.') and type(m) is type(sys))\n")

SUBMODULES = {"_frozen", "conics", "errors", "generators", "geometry", "pointfile",
              "regularity", "render", "report", "scalars", "slopes", "verifier"}
CLI_BASE = {"cli", "_frozen", "errors", "geometry", "pointfile", "scalars"}
VERIFIER = {"verifier", "conics", "regularity", "slopes"}

# the names the package bound before its exports became lazy: these and
# the submodules in BOUND_MODULES
EXPORTED = """
    Backend EXACT float_backend
    Configuration Direction Point SlopeClass convex_position_order direction
    direction_from_vector directions_parallel is_general_position orientation
    points_equal segments_parallel
    Criticality CriticalityReport Forbidden ParallelWitness SlopeSpectrum
    classify_criticality forbidden_slope_table forbidden_slopes_at lemma1_dichotomy
    slope_spectrum
    Applicable Conic ConicGroup NotApplicable coconic_6 coconic_determinant
    conic_through_5 group_add group_neg group_scalar_mul is_on_conic
    pascal_parallel_coconic second_intersection tangent_direction
    AffineMap RegularityCertificate is_affinely_regular korchmaros_chain
    normalize_to_regular regular_vertex solve_affine_map
    GeneratorSpec SplitMix64 apply_affine delete_vertices perturb random_affine_map
    random_convex_position random_general_position random_noncollinear
    random_with_interior_point regular_polygon
    CaseTag Certificate ProofCase Refutation Stage TheoremVerdict classify_proof_case
    reconstruct_missing_vertex verify_theorem
    parse_point_text serialize_points render_svg
""".split()
BOUND_MODULES = ["conics", "errors", "generators", "geometry", "pointfile", "regularity",
                 "render", "scalars", "slopes", "verifier"]


def child(code: str, *args: str) -> str:
    """The stdout of `code`, after PRELUDE, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code, *args],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def point_files(tmp_path_factory):
    """An 11-of-12-gon (verify certifies it) and a random 12-point set."""
    root = tmp_path_factory.mktemp("points")
    files = {}
    for name, argv in (("gon", ["--polygon", "12", "--delete", "1"]),
                       ("random", ["--random", "12", "--seed", "3"])):
        path = root / f"{name}.txt"
        with open(path, "w") as out, contextlib.redirect_stdout(out):
            assert main(["generate", *argv]) == EXIT_OK
        files[name] = str(path)
    return files


def test_import_runs_no_submodule():
    out = child("import slopespectra\n"
                "print(run(), sorted(n for n in sys.modules if n.startswith('slopespectra.')))")
    registered = sorted(f"slopespectra.{name}" for name in SUBMODULES)
    assert out.strip() == f"[] {registered}"


def test_write_and_delete_run_the_module_first():
    """A name set or deleted on an unrun module stays so: the run comes first."""
    out = child("import slopespectra\n"
                "render = sys.modules['slopespectra.render']\n"
                "slopes = sys.modules['slopespectra.slopes']\n"
                "render.render_svg = 'patched'\n"
                "del slopes.slope_spectrum\n"
                "print(render.render_svg, hasattr(slopes, 'slope_spectrum'), run())\n")
    ran = ["_frozen", "conics", "errors", "geometry", "pointfile", "render", "scalars", "slopes"]
    assert out == f"patched False {ran}\n"


@pytest.mark.parametrize("argv, expected, code", [
    (["verify", "{gon}", "--json"], CLI_BASE | VERIFIER | {"report"}, EXIT_OK),
    (["verify", "{gon}", "{random}", "--jobs", "2"], CLI_BASE | VERIFIER | {"report"},
     EXIT_REFUTED),
    (["case", "{gon}"], CLI_BASE | VERIFIER | {"report"}, EXIT_OK),
    (["analyze", "{random}", "--json"], CLI_BASE | {"report", "slopes"}, EXIT_OK),
    (["generate", "--polygon", "9", "--delete", "1", "--affine", "1,2,3,4,5,6"],
     CLI_BASE | {"generators", "regularity", "conics"}, EXIT_OK),
    (["render", "{gon}", "--highlight", "conic"],
     CLI_BASE | {"render", "slopes", "conics"}, EXIT_OK),
], ids=["verify", "verify-jobs", "case", "analyze", "generate", "render"])
def test_command_runs_only_what_it_calls(point_files, argv, expected, code):
    argv = [a.format(**point_files) for a in argv]
    out = child("import io\n"
                "from slopespectra.cli import main\n"
                "sys.stdout, stdout = io.StringIO(), sys.stdout\n"
                "code = main(sys.argv[1:])\n"
                "print(code, run(), file=stdout)\n", *argv)
    assert out.strip() == f"{code} {sorted(expected)}"


def test_first_use_is_thread_safe():
    """Eight threads read one attribute of an unrun submodule at once; the
    module runs once and every thread gets the function."""
    out = child("import threading\n"
                "import slopespectra\n"
                "sys.setswitchinterval(1e-6)\n"
                "barrier, got = threading.Barrier(8), []\n"
                "def read():\n"
                "    barrier.wait()\n"
                "    try:\n"
                "        got.append(sys.modules['slopespectra.verifier'].verify_theorem)\n"
                "    except Exception as exc:\n"
                "        got.append(exc)\n"
                "threads = [threading.Thread(target=read) for _ in range(8)]\n"
                "for t in threads:\n"
                "    t.start()\n"
                "for t in threads:\n"
                "    t.join(timeout=60)\n"
                "from slopespectra.verifier import verify_theorem\n"
                "print(sum(t.is_alive() for t in threads), len(got),\n"
                "      sum(f is verify_theorem for f in got))\n")
    assert out.split() == ["0", "8", "8"]


def test_every_name_imports():
    for name in EXPORTED + BOUND_MODULES:
        namespace = {}
        exec(f"from slopespectra import {name}", namespace)
        assert namespace[name] is getattr(slopespectra, name), name
        assert isinstance(namespace[name], ModuleType) == (name in SUBMODULES), name


def test_star_import_and_dir_list_every_name():
    assert len(EXPORTED) == 69
    namespace = {}
    exec("from slopespectra import *", namespace)
    expected = {*EXPORTED, *BOUND_MODULES}
    assert expected <= namespace.keys()
    assert expected <= set(dir(slopespectra))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        getattr(slopespectra, "nonexistent")
    with pytest.raises(ImportError):
        exec("from slopespectra import nonexistent", {})


def test_cli_not_registered_so_runpy_does_not_warn(point_files):
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "slopespectra.cli",
                           "verify", point_files["gon"], "--json"],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK and proc.stderr == "", proc.stderr
