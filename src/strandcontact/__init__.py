"""Strand algebras of arc diagrams and contact category algebras over GF(2)."""

from .arcdiag import (
    ArcDiagram,
    ArcDiagramError,
    InvalidDiagramError,
    ParseError,
    parse_arc_diagram,
    is_valid,
    require_valid,
    surgery_circle,
    to_quad_surface,
)

__version__ = "0.1.0"

__all__ = [
    "ArcDiagram",
    "ArcDiagramError",
    "InvalidDiagramError",
    "ParseError",
    "parse_arc_diagram",
    "is_valid",
    "require_valid",
    "surgery_circle",
    "to_quad_surface",
    "__version__",
]
