#!/usr/bin/env python
"""Protocol walkthrough: the paper's Figure 1 flows, message by message.

Builds the figure's system — a CPU with a MESI cache, a GPU with a
GPU-coherence cache, and an accelerator with a DeNovo cache, all
attached to the Spandex LLC through translation units — and replays
the four request-handling examples (Figures 1a-1d), printing every
network message as it is sent.

Run:  python examples/protocol_walkthrough.py
"""

from repro.coherence.messages import atomic_add
from repro.protocols.base import Access
from repro.system import System, scaled_config
from repro.system.config import KB

LINE = 0x1000


class FigureSystem(System):
    """CPU (MESI) + GPU (GPU coherence) + accelerator (DeNovo).

    The builder wires whatever devices :meth:`_devices` lists, one
    ``(L1 name, protocol, role)`` each, behind translation units.
    """

    def __init__(self):
        super().__init__(scaled_config(
            "SMG", 1, 2, l1_size=4 * KB, llc_size=64 * KB,
            llc_access_latency=3, dram_latency=20, net_default=5,
            net_cpu_llc=5, net_gpu_llc=5, tu_nack_retry_limit=0))
        self.network.trace_hook = self._print_message

    def _devices(self):
        return [("cpu", "MESI", "cpu"), ("gpu", "GPU", "gpu"),
                ("acc", "DeNovo", "gpu")]

    def _l1_kwargs(self):
        return dict(super()._l1_kwargs(), coalesce_delay=1)

    def _print_message(self, msg, delivery):
        data = (f" data={dict(list(msg.data.items())[:3])}"
                if msg.data else "")
        print(f"    t={self.engine.now:>5}  {msg.kind.value:<11} "
              f"{msg.src:>4} -> {msg.dst:<4} mask=0x{msg.mask:04x}"
              f"{data}")

    def store(self, device, mask, values):
        self.l1s[device].try_access(
            Access("store", LINE, mask, values=values,
                   callback=lambda _v: None))
        done = []
        self.l1s[device].fence_release(lambda: done.append(True))
        self.engine.run()
        assert done

    def rmw(self, device, mask, atomic):
        result = {}
        self.l1s[device].try_access(
            Access("rmw", LINE, mask, atomic=atomic,
                   callback=lambda v: result.update(v)))
        self.engine.run()
        return result

    def load(self, device, mask):
        result = {}
        self.l1s[device].try_access(
            Access("load", LINE, mask, callback=lambda v: result.update(v)))
        self.engine.run()
        return result


def main() -> None:
    print(__doc__)
    system = FigureSystem()

    print("== Figure 1a: word-granularity ReqO and ReqWT ==")
    print("  accelerator stores words 0-1 (ReqO: ownership, no data);")
    system.store("acc", 0b0011, {0: 11, 1: 12})
    print("  GPU writes through words 2-3 of the same line (ReqWT):")
    system.store("gpu", 0b1100, {2: 13, 3: 14})
    print("  -> disjoint words, no false sharing, no revocation\n")

    print("== Figure 1b: ReqWT+data for remotely owned data ==")
    print("  GPU atomic to word 0 (owned by the accelerator):")
    old = system.rmw("gpu", 0b1, atomic_add(100))
    print(f"  -> RvkO / RspRvkO revoked the owner; old value = {old[0]}\n")

    print("== Figure 1c: line-granularity ReqV ==")
    print("  accelerator re-owns word 5; then the GPU reads the line:")
    system.store("acc", 0b100000, {5: 55})
    values = system.load("gpu", 0xFFFF)
    print(f"  -> LLC answered its words, owner answered word 5 "
          f"directly: word5={values[5]}, word0={values[0]}\n")

    print("== Figure 1d: ReqWT with a line-granularity (MESI) owner ==")
    print("  CPU takes the whole line (MESI RFO):")
    system.store("cpu", 0b1, {0: 900})
    print("  GPU writes through word 1:")
    system.store("gpu", 0b10, {1: 901})
    print("  -> the MESI cache downgraded, answered the requestor, and"
          " wrote back the 15 untouched words\n")

    resident = system.llc.array.lookup(LINE, touch=False)
    print("final LLC line state:", resident.state.value)
    print("final LLC data words 0-5:", resident.data[:6])


if __name__ == "__main__":
    main()
