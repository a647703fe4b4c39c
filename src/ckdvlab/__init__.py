"""Numerical laboratory for the cylindrical KdV long-wave regime.

Implements the periodic spectral toolbox, a self-contained Airy evaluator,
the closed-form solitary wave with its decay diagnostics, radial
integrators for the cylindrical KdV equation and the transformed Boussinesq
equation, the ansatz-residual scaling experiments, and a CLI that emits
reproducible CSV/SVG artifacts.  Each name is imported from the module that
defines it, e.g. ``from ckdvlab.ckdv import ckdv_evolve``; importing the
package itself loads no submodule.
"""

__version__ = "0.1.0"
