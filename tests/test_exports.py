"""The names the package exports."""

import types

import apfree


def test_public_names():
    """Exactly these public, non-module names, so a removed export cannot
    come back and a kept one cannot vanish unnoticed."""
    public = {name for name, value in vars(apfree).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "BudgetError", "BuildOptions", "BuildingBlock", "DegeneratePieceError",
        "DiscreteSet", "OutsideDomainError", "ParameterError", "VerificationReport",
        "area_oracle", "behrend_set", "best_slice", "build_fpn_set", "build_group_set",
        "build_integer_set", "build_integer_set_direct", "check_sweeps", "choose_dimension",
        "choose_moduli", "crt_encode", "density_estimate", "fiber_reduce", "first_primes",
        "halfbox_set", "search_shift", "verify_group_set", "verify_integer_set",
    }
