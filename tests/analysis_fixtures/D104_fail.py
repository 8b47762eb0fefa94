"""D104 failing fixture: exact float equality in a numeric package
(the fixture test lints it as module="repro.pilfill.fx"), also inside a
call argument — the rule has no expression-DSL exemption."""


def is_unit(x: float) -> bool:
    return x == 1.0


def pin(model: object, x: object) -> None:
    model.add_constraint(x == 1.0)
