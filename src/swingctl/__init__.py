"""Swing-equation network simulation with structurally safe learned control.

Import names from the module that defines them, e.g.
`from swingctl.dynamics import rollout`.
"""

__version__ = "0.1.0"
