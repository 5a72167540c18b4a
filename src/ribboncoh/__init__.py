"""Ribbon graph complexes: enumeration, differentials, exact cohomology."""

from .ribbon import RibbonGraph, InvalidGraph, DisconnectedGraph
from .canonical import (
    EVEN,
    ODD,
    OrientedClass,
    automorphisms,
    canonical_form,
    class_of,
    orientation_sign,
    to_oriented_class,
)
from .diff import FormalSum, attach_edge, bridge, delta, project_ge3
from .enumeration import EnumSpec, enumerate_bruteforce, enumerate_classes
from .complexes import ComplexSpec, build, cohomology, euler

__version__ = "0.1.0"
