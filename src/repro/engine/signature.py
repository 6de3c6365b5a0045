"""Topology signatures: grouping instances that share TPN structure.

The timed Petri net of an instance is determined by two ingredients
(:mod:`repro.petri.builder`): the communication model and the mapping's
replication counts ``m_i`` (which fix ``m = lcm(m_i)``, the round-robin
row structure and every place of the net).  A processor executes at
most one stage (rule 1 of :mod:`repro.core.mapping`), so every resource
circuit belongs to exactly one *slot* — one position of the mapping's
stage-then-replica order (:attr:`~repro.core.mapping.Mapping.used_processors`).
Which processor sits in a slot, like stage works, file sizes, processor
speeds and link bandwidths, only enters as *transition durations* —
edge weights of the reduced cycle-ratio graph.

Hence two instances with equal ``(model, mapping.replication_counts)``
share the entire structural pipeline: net layout, liveness check, SCC
decomposition, CSR solver preparation and the cycle-time plan.
:func:`topology_signature` is the cache key the batch engine groups by;
:func:`slot_processors` gathers the per-instance processor ids that the
cached, processor-free structures index by slot.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..core.instance import Instance
from ..core.models import CommModel

__all__ = ["slot_processors", "topology_signature"]


def topology_signature(
    inst: Instance, model: CommModel | str
) -> tuple[str, tuple[int, ...]]:
    """Hashable key of the TPN structure shared by a sweep group.

    Examples
    --------
    Instances differing only in times, or in which processors fill the
    replica slots, share a signature:

    >>> from repro import Application, Platform, Mapping, Instance
    >>> app = Application(works=[1, 1], file_sizes=[1])
    >>> slow, fast = Platform.homogeneous(3), Platform.homogeneous(3, speed=2.0)
    >>> a = Instance(app, slow, Mapping([(0,), (1, 2)]))
    >>> b = Instance(app, fast, Mapping([(2,), (0, 1)]))
    >>> topology_signature(a, "overlap") == topology_signature(b, "overlap")
    True
    >>> topology_signature(a, "overlap") == topology_signature(a, "strict")
    False
    """
    return (CommModel.parse(model).value, inst.mapping.replication_counts)


def slot_processors(
    instances: Instance | Sequence[Instance],
) -> npt.NDArray[np.int64]:
    """Processor id of every slot: shape ``(S,)``, or ``(B, S)`` for a group.

    Slots follow :attr:`~repro.core.mapping.Mapping.used_processors`, so
    a group sharing one signature stacks into a rectangular matrix.
    """
    if isinstance(instances, Instance):
        return np.asarray(instances.mapping.used_processors, dtype=np.int64)
    return np.array(
        [inst.mapping.used_processors for inst in instances], dtype=np.int64
    )
