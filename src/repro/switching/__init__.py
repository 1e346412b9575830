"""Two-stage load-balanced switching substrate and baseline switches."""

from .baseline import BaselineLoadBalancedSwitch
from .cms import CmsSwitch
from .foff import FoffSwitch
from .hashing import TcpHashingSwitch
from .output_queued import OutputQueuedSwitch
from .packet import Packet
from .pf import PaddedFramesSwitch
from .ports import FifoQueue, PerOutputBank, VoqBank
from .resequencer import ReorderingDetector, Resequencer
from .switch_base import TwoStageSwitch
from .ufs import UfsSwitch

__all__ = [
    "BaselineLoadBalancedSwitch",
    "CmsSwitch",
    "FifoQueue",
    "FoffSwitch",
    "OutputQueuedSwitch",
    "Packet",
    "PaddedFramesSwitch",
    "PerOutputBank",
    "ReorderingDetector",
    "Resequencer",
    "TcpHashingSwitch",
    "TwoStageSwitch",
    "UfsSwitch",
    "VoqBank",
]
