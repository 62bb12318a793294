"""BEES: Bandwidth- and Energy-Efficient Image Sharing — a reproduction.

Reproduces Zuo, Hua, Liu, Feng, Xia, Cao, Wu, Sun, Guo, *BEES:
Bandwidth- and Energy-Efficient Image Sharing for Real-Time Situation
Awareness* (ICDCS 2017), including every substrate the prototype
depends on: an OpenCV-free feature stack (ORB/SIFT/PCA-SIFT), a
JPEG-style codec, SSIM, an LSH feature index, and smartphone
battery/radio/network simulation.

Quickstart::

    from repro import BeesScheme, Smartphone, build_server
    from repro.datasets import DisasterDataset

    batch = DisasterDataset().make_batch(n_images=20, n_inbatch_similar=3)
    scheme = BeesScheme()
    report = scheme.process_batch(Smartphone(), build_server(scheme), batch)
    print(report.n_uploaded, "of", report.n_images, "images uploaded")
"""

from .baselines import DirectUpload, Mrc, SharingScheme, SmartEye, make_bees_ea
from .core import BeesConfig, BeesScheme, BeesServer
from .energy import Battery, DeviceProfile, EnergyMeter
from .errors import BeesError
from .imaging import Image, SceneGenerator
from .obs import Observability
from .obs import configure as configure_observability
from .obs import disable as disable_observability
from .obs import get_obs as get_observability
from .sim import (
    CoverageExperiment,
    LifetimeExperiment,
    Smartphone,
    UploadSession,
    build_server,
)

__version__ = "1.0.0"

__all__ = [
    "Battery",
    "BeesConfig",
    "BeesError",
    "BeesScheme",
    "BeesServer",
    "CoverageExperiment",
    "DeviceProfile",
    "DirectUpload",
    "EnergyMeter",
    "Image",
    "LifetimeExperiment",
    "Mrc",
    "Observability",
    "SceneGenerator",
    "SharingScheme",
    "SmartEye",
    "Smartphone",
    "UploadSession",
    "__version__",
    "build_server",
    "configure_observability",
    "disable_observability",
    "get_observability",
    "make_bees_ea",
]
