"""Content & replication plane: what the overlay's hits actually serve.

The paper evaluates Makalu on query *hits*; this package makes those hits
stand for something durable.  Objects are chunked under a digest manifest
(:mod:`repro.content.manifest`), held in per-node stores
(:mod:`repro.content.store`), placed as ``k`` replicas — owner plus
``k - 1`` neighbor-biased copies — over the overlay
(:mod:`repro.content.placement`), and kept alive under churn and injected
faults by read-repair on fetch plus a scheduled healing sweep — decided
once, in :mod:`repro.content.policy`, and executed by
:mod:`repro.content.plane` on the simulator and
:mod:`repro.content.live` on the asyncio runtime.

Everything is deterministic under the repo's seeded RNG discipline: the
owner of a key is content-addressed (a splitmix64 hash), replica choices
draw from per-object child streams (:func:`repro.util.rng.derive_seed`),
and healing/repair target selection is preference-ordered with no RNG at
all — so attaching a content plane to a :class:`~repro.sim.churn.ChurnSimulation`
never perturbs the churn trajectory.
"""

from repro.content.manifest import (
    DEFAULT_CHUNK_SIZE,
    MANIFEST_SCHEMA_VERSION,
    ContentObject,
    IntegrityError,
    Manifest,
    chunk_object,
    generate_objects,
    reassemble,
)
from repro.content.placement import ContentPlacement, place_content
from repro.content.plane import ContentConfig, ContentPlane, DurabilityReport
from repro.content.store import ContentStore

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "MANIFEST_SCHEMA_VERSION",
    "ContentConfig",
    "ContentObject",
    "ContentPlacement",
    "ContentPlane",
    "ContentStore",
    "DurabilityReport",
    "IntegrityError",
    "Manifest",
    "chunk_object",
    "generate_objects",
    "place_content",
    "reassemble",
]
