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
