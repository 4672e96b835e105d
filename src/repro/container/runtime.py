"""The container engine a worker drives."""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set

from repro.container.container import Container
from repro.container.image import Image, ImageLayer, ImageRegistry, \
    default_registry
from repro.container.limits import ResourceLimits
from repro.container.volumes import VolumeMount


class Pull(NamedTuple):
    """What one :meth:`ContainerRuntime.pull` request costs its caller."""

    #: Seconds until every layer of the image is here.
    seconds: float
    #: Layer bytes this request started transferring (counted here, once).
    bytes: int
    #: True when it waits on layers another request is still fetching.
    joined: bool


class ContainerRuntime:
    """Per-worker Docker-engine stand-in.

    Tracks a *layer-addressed* local image cache: a job needing an image
    waits for the registry pull ("if the machine does not have the Docker
    image, then it's pulled from the Docker repository", §V Worker
    Operations step 3) — but only for the layers this engine does not hold.
    Whitelisted course images share their CUDA base layer, so a worker
    that already pulled one image starts the others after transferring
    just their unique top layers.

    Every layer the engine has asked for carries the instant it is (or
    will be) available.  A :meth:`pull` transfers the layers nobody has
    asked for, in manifest order at ``pull_bandwidth_bps``, and waits for
    the ones already in flight instead of fetching them again; bytes are
    counted once, by the request that started them.  Images share layers
    as a common base (Docker identifies a layer together with everything
    below it), so a layer in flight is queued only behind layers the
    waiting image needs too: no pull waits longer than fetching every
    layer not yet here from scratch, which is what one cost before
    in-flight layers were tracked.  :meth:`create_container` pulls what
    was never asked for instantly (an operator pre-pulling a fleet pays
    no simulated time).
    """

    def __init__(self, registry: Optional[ImageRegistry] = None,
                 pull_bandwidth_bps: float = 100e6,
                 clock: Optional[Callable[[], float]] = None):
        self.registry = registry if registry is not None else default_registry()
        self.pull_bandwidth_bps = pull_bandwidth_bps
        self.clock = clock
        #: Layer digest → when it is (or will be) available here.
        self._available_at: Dict[str, float] = {}
        self._layer_cache_bytes = 0
        self._pulled_images: Set[str] = set()
        self.containers: List[Container] = []
        self.total_created = 0
        self.total_destroyed = 0
        self.total_bytes_pulled = 0
        self.total_bytes_pull_saved = 0

    def _now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def _plan(self, image: Image, now: float):
        """``(layers to start, done_at, joined)`` for a pull of ``image``
        requested at ``now``, committing nothing."""
        start, joined_at = [], now
        for layer in image.effective_layers():
            at = self._available_at.get(layer.digest)
            if at is None:
                start.append(layer)
            else:
                joined_at = max(joined_at, at)
        own = now + sum(layer.size_bytes for layer in start) \
            / self.pull_bandwidth_bps
        return start, max(joined_at, own), joined_at > now

    def pull_cost_seconds(self, image_name: str) -> float:
        """Seconds a :meth:`pull` of ``image_name`` requested now waits.

        Layers held cost nothing, layers in flight what is left of their
        transfer, missing layers their bytes over the pull bandwidth.
        """
        now = self._now()
        _, done_at, _ = self._plan(self.registry.get(image_name), now)
        return done_at - now

    def pull(self, image_name: str) -> Pull:
        """Start fetching what ``image_name`` lacks; return the wait.

        Raises :class:`~repro.errors.ImageNotWhitelisted` /
        :class:`~repro.errors.ImageNotFound` before anything is fetched.
        """
        image = self.registry.get(image_name)
        now = self._now()
        start, done_at, joined = self._plan(image, now)
        started = self._start(start, now)
        # Saved: what this request found here or already on its way.
        self.total_bytes_pull_saved += sum(
            layer.size_bytes for layer in image.effective_layers()) - started
        self._pulled_images.add(image.name)
        return Pull(done_at - now, started, joined)

    def _start(self, layers: List[ImageLayer], now: float,
               instant: bool = False) -> int:
        """Transfer ``layers`` (none yet asked for) one after another from
        ``now``, or all at once when ``instant``; returns their bytes."""
        sent = 0
        for layer in layers:
            sent += layer.size_bytes
            self._available_at[layer.digest] = \
                now if instant else now + sent / self.pull_bandwidth_bps
        self._layer_cache_bytes += sent
        self.total_bytes_pulled += sent
        return sent

    def create_container(self, image_name: str,
                         limits: Optional[ResourceLimits] = None,
                         mounts: Optional[List[VolumeMount]] = None,
                         gpu_device=None,
                         on_output=None) -> Container:
        """Validate against the whitelist, pull instantly what was never
        asked for, and create.

        Raises :class:`~repro.errors.ImageNotWhitelisted` /
        :class:`~repro.errors.ImageNotFound` before any resources are
        committed.
        """
        image = self.registry.get(image_name)
        self._start([layer for layer in image.effective_layers()
                     if layer.digest not in self._available_at],
                    self._now(), instant=True)
        self._pulled_images.add(image.name)
        container = Container(
            image=image,
            limits=limits or ResourceLimits(),
            mounts=mounts or [],
            gpu_device=gpu_device,
            on_output=on_output,
            clock=self.clock,
        )
        self.containers.append(container)
        self.total_created += 1
        return container

    def destroy_container(self, container: Container) -> None:
        container.destroy()
        if container in self.containers:
            self.containers.remove(container)
        self.total_destroyed += 1

    @property
    def live_count(self) -> int:
        return len(self.containers)

    def stats(self) -> dict:
        now = self._now()
        return {
            "created": self.total_created,
            "destroyed": self.total_destroyed,
            "live": self.live_count,
            "cached_images": sorted(self._pulled_images),
            "cached_layers": sum(at <= now
                                 for at in self._available_at.values()),
            "layers_in_flight": sum(at > now
                                    for at in self._available_at.values()),
            "cached_layer_bytes": self._layer_cache_bytes,
            "bytes_pulled": self.total_bytes_pulled,
            "bytes_pull_saved": self.total_bytes_pull_saved,
        }
