"""Bloch-sphere point constellations for multiqubit pure states.

Two encodings of an N-qubit pure state as points on the sphere: the
Majorana construction (binomially weighted amplitude polynomial, rigid
under collective spin rotations) and the plain amplitude polynomial
(which factors exactly for tensor-product states). Plus Wigner rotation
matrices, a tensor-product decision procedure, and SVG rendering.
"""

# each module's __all__ is the one list of public names
from .altsep import *
from .geometry import *
from .majorana import *
from .polyroots import *
from .render import *
from .rotations import *
from .serialize import *
from .states import *

__version__ = "0.1.0"
