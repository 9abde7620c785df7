import ast
from pathlib import Path

import dp_la
from dp_la import audit, data, experiment, mechanisms, model, pipelines

MODULES = (audit, data, experiment, mechanisms, model, pipelines)


def test_package_exports_every_module_all():
    assert dp_la.__all__ == [name for module in MODULES for name in module.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(dp_la, name) is getattr(module, name), name


def test_draws_import_from_the_package():
    from dp_la import draw_input_noise, draw_objective_noise

    assert draw_input_noise is pipelines.draw_input_noise
    assert draw_objective_noise is pipelines.draw_objective_noise


def test_no_module_imports_a_private_name_of_another():
    # what one module keeps private no other module reads; names the modules
    # share live public in a module of their own
    crossing = []
    for path in sorted(Path(dp_la.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing += [f"{path.stem} <- {node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert crossing == []
