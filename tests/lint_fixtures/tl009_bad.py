"""TL009 bad: a projection-aware client issuing unguarded RPCs.

This is the shape of the real ``CorfuClient.trim`` gap: every other
public operation ran the retry loop, but trim called straight through
to the chain, so a trim racing a reconfiguration leaked SealedError to
the application's GC driver.
"""


class Client:
    def __init__(self, cluster):
        self._cluster = cluster
        self._projection = cluster.projection
        self._chain = cluster.chain

    def refresh_projection(self):
        self._projection = self._cluster.projection

    def trim(self, offset):
        rset, address = self._projection.map_offset(offset)
        # No retry loop: SealedError / NodeDownError / RpcTimeout all
        # escape to the caller.
        self._chain.trim(rset, address, self._projection.epoch)

    def check(self):
        while True:
            try:
                return self._cluster.sequencer.query((), epoch=self._projection.epoch)
            except SealedError:
                # Handles the seal but not dead nodes or timeouts.
                self.refresh_projection()

    def read(self, offset):
        return self._retry(lambda proj: self._read_once(proj, offset))

    def _read_once(self, proj, offset):
        rset, address = proj.map_offset(offset)
        return self._chain.read(rset, address, proj.epoch)

    def _retry(self, attempt):
        # The shared retry helper dropped its RpcTimeout handler: every
        # operation routed through it now leaks timeouts.
        for _ in range(32):
            try:
                return attempt(self._projection)
            except SealedError:
                self.refresh_projection()
            except NodeDownError:
                self.refresh_projection()
        raise RuntimeError("retries exhausted")


class SealedError(Exception):
    pass


class NodeDownError(Exception):
    pass
