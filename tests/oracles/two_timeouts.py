"""Two posted timeouts per probe: the oracle for the probe deadline.

What ``SwimAgent._probe_tick`` did before an outstanding probe became its own
``Deadline``: post the direct timeout and the final timeout at the tick, let
both fire whatever happened in between, and have each look the probe up. Five
events for an acked probe instead of three; for an un-acked one, the same
ping-reqs and the same suspicion at the same instants.
"""

from __future__ import annotations

from repro.gossip.swim import _PROBE_PIGGYBACK, PING, SwimAgent, _PendingProbe


class TwoTimeoutSwimAgent(SwimAgent):
    def _probe_tick(self):
        target_name = self._next_probe_target()
        if target_name is None:
            return
        target_address = self.members.alive_address(target_name)
        if target_address is None:
            return
        self._seq += 1
        seq = self._seq
        self._pending_probes[seq] = _PendingProbe(target_name, self.sim.now)
        updates, usize = self.broadcasts.take_with_size(_PROBE_PIGGYBACK)
        self.send(
            target_address,
            PING,
            {"seq": seq, "from": self._self_wire, "u": updates},
            size=24 + self._self_wire_size + usize,
        )
        self.post(self.config.probe_timeout, self._direct_probe_timeout, seq)
        self.post(self.config.probe_timeout * 3, self._final_probe_timeout, seq)

    def _direct_probe_timeout(self, seq):
        probe = self._pending_probes.get(seq)
        if probe is not None:
            self._send_ping_reqs(seq, probe.target)
