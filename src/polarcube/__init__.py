"""polarcube: spectro-polarimetric imaging toolbox.

Forward simulation of full-Stokes cameras (sequential hyperspectral and
single-shot mosaic), per-pixel least-squares Stokes reconstruction,
polarimetric feature extraction and dataset statistics, and two
compressive representations (patch-PCA and a coordinate network).

Each module's ``__all__`` is the only list of its public names; the
package republishes exactly those names.
"""

from .analysis import *
from .camera import *
from .errors import *
from .image import *
from .inr import *
from .io import *
from .labels import *
from .pca import *
from .reconstruct import *
from .scenes import *
from .stokes import *

__version__ = "0.1.0"
