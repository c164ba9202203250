import ast
import pathlib

import resetloop

#: the one private name a module may import from a sibling: the tuner streams
#: the harmonic kernel's blocks (importer, module, name)
PRIVATE_IMPORTS = {("synthesis", "reset", "_harmonic_blocks")}

#: the public API, pinned: a name joins or leaves ``__all__`` only here too
PUBLIC_API = [
    "ApproxBand", "ComplexOrder", "ComplexOrderFilter", "ControllerSpec",
    "CroneApprox", "FrequencyResponse", "HarmonicResponse", "OpenLoopView",
    "ResetSystem", "SampledLoop", "SimConfig", "SimResult", "SimulationDiverged",
    "SingularFrequencyError", "StateSpace", "Trajectory", "TransferFunction",
    "__version__", "build_benchmark_suite", "build_cglp", "build_pid", "clegg",
    "controller_harmonic", "controller_harmonics", "crone_place", "crossover_pm",
    "describing_function", "feedforward_signal", "fore", "freq_response",
    "generate_trajectory", "harmonics", "hosidf", "hz", "lag_chain", "load_frf",
    "log_grid", "make_feedforward", "metrics", "normalize_open_loop_gain",
    "normalized_third", "open_loop", "open_loop_view", "order_to_slopes",
    "save_frf", "series", "simulate_closed_loop", "simulate_linear_closed_loop",
    "slope_estimate", "sore", "split_reset", "stage_plant",
    "steady_state_harmonics", "tf_to_ss", "to_hz", "tune_arho",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 56
    assert sorted(resetloop.__all__) == PUBLIC_API
    for name in resetloop.__all__:
        assert hasattr(resetloop, name), name
        assert not name.startswith("_") or name == "__version__", name


def test_no_module_imports_a_private_name_from_a_sibling():
    # function-local imports count too: ast.walk visits every node
    found = set()
    for path in pathlib.Path(resetloop.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("resetloop")):
                module = (node.module or "").rpartition(".")[2]
                found.update((path.stem, module, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_")
                             and not alias.name.startswith("__"))
    assert found == PRIVATE_IMPORTS
