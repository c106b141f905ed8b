"""Exact computations with Burnside rings and relative B-groups."""

from .groups import (
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    direct_product,
    make_cyclic,
    quotient,
    semidirect_product,
)

__all__ = [
    "Group",
    "GroupError",
    "Homomorphism",
    "Subgroup",
    "direct_product",
    "make_cyclic",
    "quotient",
    "semidirect_product",
    "GroupOverK",
    "beta_k",
    "is_bk_group",
    "BurnsideElement",
    "gluck_idempotent",
    "m_const",
]


def __getattr__(name: str):
    """The overk and burnside names of `__all__`, imported on first access
    (PEP 562), so that `import bgroups.cli` loads neither module for a
    command that does not run it."""
    if name in ("GroupOverK", "beta_k", "is_bk_group"):
        from .overk import GroupOverK, beta_k, is_bk_group
    elif name in ("BurnsideElement", "gluck_idempotent", "m_const"):
        from .burnside import BurnsideElement, gluck_idempotent, m_const
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = locals()
    globals().update({k: v for k, v in found.items() if k != "name"})
    return found[name]
