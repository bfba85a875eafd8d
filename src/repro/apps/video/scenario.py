"""Assembly of the full §5 scenario: cluster, CCS spec, flush roles.

The critical communication segment of the video stream is one packet's
journey per destination: ``encode → send → receive → decode`` (§3: "the
transmission of each datagram packet is a critical communication
segment").  CIDs are ``seq * stride + client_index`` so each multicast
destination is its own segment.

The **flush provider** encodes the global-safe-condition analysis:

* composite actions touching an encoder *and* decoders (Table 2's A6–A9,
  A13–A15) block the server until the drain marker has flushed the
  channel — this is why the paper costs them ~10× a single action;
* decoder-only actions that *reduce* decode capability on a process
  (e.g. A4 replaces the 128/64 decoder D2 with the 128-only D3) need the
  upstream to inject a marker but **not** to block: packets after the
  marker are decodable by the new chain because the target configuration
  is safe (the dependency invariants are exactly decode-compatibility);
* capability-preserving swaps (A2: D1→D2, D2 decodes everything D1 did)
  need no drain at all — matching §5.2's "the global safe state of this
  action is the same as the local safe state of the device".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.apps.video.client import VideoClientApp
from repro.apps.video.server import VideoServerApp
from repro.apps.video.system import (
    DECODER_SCHEMES,
    ENCODER_SCHEMES,
    paper_source,
    paper_target,
    video_actions,
    video_invariants,
    video_universe,
)
from repro.ccs import CCSSpec
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.model import ComponentUniverse, Configuration
from repro.protocol.failures import FailurePolicy
from repro.safety import SafetyReport, check_safe
from repro.sim.cluster import AdaptationCluster, AdaptationOutcome, ProcessApp
from repro.sim.net import DelayModel, FixedDelay, LossModel

CID_STRIDE = 8
CLIENTS: Tuple[str, ...] = ("handheld", "laptop")

VIDEO_CCS = CCSSpec([("encode", "send", "receive", "decode")], name="video-packet")


def cid_for(seq: int, client_index: int) -> int:
    """The critical-communication identifier of (packet, destination)."""
    return seq * CID_STRIDE + client_index


def _decoder_processes(universe: ComponentUniverse, action: AdaptiveAction) -> FrozenSet[str]:
    return frozenset(
        universe.process_of(name)
        for name in action.touched
        if name in DECODER_SCHEMES
    )


def _capability_reduced(action: AdaptiveAction, process: str,
                        universe: ComponentUniverse) -> bool:
    """Does *process* lose any decode scheme it had, under this action?

    Compares the schemes of the decoders removed from the process against
    the union of schemes of decoders added on it — losing a scheme means
    in-flight packets under that scheme could become undecodable, so the
    channel must be drained first.
    """
    removed: FrozenSet[str] = frozenset()
    gained: FrozenSet[str] = frozenset()
    for name in action.removes:
        if name in DECODER_SCHEMES and universe.process_of(name) == process:
            removed |= DECODER_SCHEMES[name]
    for name in action.adds:
        if name in DECODER_SCHEMES and universe.process_of(name) == process:
            gained |= DECODER_SCHEMES[name]
    return bool(removed - gained)


def make_video_flush_provider(universe: Optional[ComponentUniverse] = None):
    """Build the flush provider for the video topology (see module doc)."""
    universe = universe or video_universe()
    encoder_host = universe.process_of("E1")

    def provider(
        action: AdaptiveAction, participants: FrozenSet[str]
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        touches_encoder = bool(set(ENCODER_SCHEMES) & action.touched)
        decoder_procs = _decoder_processes(universe, action)
        if touches_encoder and decoder_procs:
            # Composite encoder+decoder action: server blocks after the
            # marker; every decoder-side participant drains before its swap.
            return frozenset((encoder_host,)), decoder_procs
        reduced = frozenset(
            p for p in decoder_procs if _capability_reduced(action, p, universe)
        )
        if reduced:
            # Decoder-only, capability-reducing: marker without blocking.
            return frozenset((encoder_host,)), reduced
        return frozenset(), frozenset()

    return provider


# Default provider instance over the standard video universe.
video_flush_provider = make_video_flush_provider()


def make_strict_flush_provider(universe: Optional[ComponentUniverse] = None):
    """Conservative ablation variant: drain on *every* decoder-touching step.

    Ignores the capability analysis — even capability-preserving swaps
    like A2 wait for a marker.  Safe but strictly more disruptive; the
    drain-policy ablation bench quantifies the cost of the conservatism.
    """
    universe = universe or video_universe()
    encoder_host = universe.process_of("E1")

    def provider(
        action: AdaptiveAction, participants: FrozenSet[str]
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        decoder_procs = _decoder_processes(universe, action)
        if not decoder_procs:
            return frozenset(), frozenset()
        return frozenset((encoder_host,)), decoder_procs

    return provider


# Drain-policy registry for the ablation benches: "none" disables the
# global safe condition entirely (demonstrably unsafe, even on the MAP);
# "capability" is the default minimal-drain analysis; "always" is the
# conservative variant.
FLUSH_MODES = ("none", "capability", "always")


def flush_provider_for_mode(mode: str, universe: Optional[ComponentUniverse] = None):
    from repro.protocol.manager import no_flush

    if mode == "none":
        return no_flush
    if mode == "capability":
        return make_video_flush_provider(universe)
    if mode == "always":
        return make_strict_flush_provider(universe)
    raise ValueError(f"unknown flush mode {mode!r}; options: {FLUSH_MODES}")


def build_video_cluster(
    *,
    seed: int = 0,
    initial: Optional[Configuration] = None,
    frame_interval: float = 2.0,
    data_delay: Optional[DelayModel] = None,
    control_delay: Optional[DelayModel] = None,
    data_loss: Optional[LossModel] = None,
    control_loss: Optional[LossModel] = None,
    policy: Optional[FailurePolicy] = None,
    flush_mode: str = "capability",
    extended: bool = False,
    bus=None,
) -> AdaptationCluster:
    """Assemble the full simulated video system of Figure 3.

    Data-plane channels (server → client data endpoints) default to a
    5 ms one-way delay so several packets are in flight at any moment —
    the situation that makes unsafe adaptation observable.  Control
    channels default to 1 ms.  ``flush_mode`` selects the drain policy
    (see :data:`FLUSH_MODES`); anything but the default exists for the
    drain-policy ablation.
    """
    if extended:
        from repro.apps.video.extended import (
            extended_actions,
            extended_invariants,
            extended_source,
            extended_universe,
        )

        universe = extended_universe()
        invariants = extended_invariants()
        actions = extended_actions()
        default_initial = extended_source()
    else:
        universe = video_universe()
        invariants = video_invariants()
        actions = video_actions()
        default_initial = paper_source(universe)
    initial = initial if initial is not None else default_initial
    apps: Dict[str, ProcessApp] = {
        "server": VideoServerApp(
            clients=CLIENTS,
            frame_interval=frame_interval,
            camera_seed=seed,
            cid_stride=CID_STRIDE,
        ),
    }
    for index, client in enumerate(CLIENTS):
        apps[client] = VideoClientApp(client_index=index, cid_stride=CID_STRIDE)
    cluster = AdaptationCluster(
        universe,
        invariants,
        actions,
        initial,
        seed=seed,
        apps=apps,
        policy=policy,
        flush_provider=flush_provider_for_mode(flush_mode, universe),
        default_delay=control_delay or FixedDelay(1.0),
        default_loss=control_loss,
        bus=bus,
    )
    data_delay = data_delay or FixedDelay(5.0)
    for client in CLIENTS:
        cluster.network.set_channel(
            "server", f"{client}.data", delay=data_delay, loss=data_loss
        )
    cluster.start_apps()
    return cluster


class VideoScenario:
    """End-to-end runner for the §5.2 walk-through (and variations).

    Streams for a warm-up period, performs the adaptation to the target
    configuration, streams a cool-down period so in-flight traffic lands,
    then checks the paper's safety definition over the full trace.
    """

    def __init__(self, cluster: Optional[AdaptationCluster] = None, **kwargs):
        self.cluster = cluster or build_video_cluster(**kwargs)

    @property
    def server(self) -> VideoServerApp:
        return self.cluster.hosts["server"].app  # type: ignore[return-value]

    def client(self, name: str) -> VideoClientApp:
        return self.cluster.hosts[name].app  # type: ignore[return-value]

    def run(
        self,
        target: Optional[Configuration] = None,
        warmup: float = 50.0,
        cooldown: float = 50.0,
        until: float = 1_000_000.0,
    ) -> AdaptationOutcome:
        """Warm up, adapt, cool down; returns the adaptation outcome."""
        sim = self.cluster.sim
        target = target if target is not None else paper_target(self.cluster.universe)
        sim.run(until=sim.now + warmup)
        outcome = self.cluster.adapt_to(target, until=until)
        sim.run(until=sim.now + cooldown)
        return outcome

    def safety_report(self, check_discipline: bool = True) -> SafetyReport:
        return check_safe(
            self.cluster.trace,
            self.cluster.invariants,
            ccs=VIDEO_CCS,
            check_discipline=check_discipline,
        )

    def stream_stats(self) -> Mapping[str, int]:
        """Aggregate data-plane counters for reports and assertions."""
        stats = {
            "frames_sent": self.server.frames_sent,
            "packets_sent": self.server.packets_sent,
        }
        for name in CLIENTS:
            app = self.client(name)
            stats[f"{name}_received"] = app.packets_received
            stats[f"{name}_ok"] = app.packets_ok
            stats[f"{name}_corrupt"] = app.packets_corrupt
            stats[f"{name}_frames"] = app.frames_played
        return stats
