"""Merge tree edit distances and their stability under minimal vertex
perturbations: field and merge tree construction, eight edit distances,
a perturbation classifier and empirical stability verification.

Import each name from its module (``mtstab.field``, ``mtstab.mergetree``,
``mtstab.distances``, ``mtstab.perturb``, ``mtstab.stability``, ...); the
package root holds only ``__version__``."""

__version__ = "0.1.0"
