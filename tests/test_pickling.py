"""Positional pickling of the compile records, and records pickled
before it: an envelope written by an earlier build still loads."""

import pickle
from dataclasses import dataclass, field

import pytest

from repro.codegen.vir import Instr, Op, VReg
from repro.gpu.arch import KEPLER_K20XM
from repro.gpu.occupancy import Occupancy
from repro.gpu.registers import PtxasInfo
from repro.gpu.timing import KernelTiming, ThreadProfile
from repro.pickling import positional_pickle

OCCUPANCY = Occupancy(8, 4, 32, 0.5, "registers")
PROFILE = ThreadProfile(12.5, 300.0, 256.0, 3.0, 1.0)
TIMING = KernelTiming("k_k1", 4096, 128, OCCUPANCY, 100.0, 50.0, 200.0, 0.25, "latency", PROFILE)
INFO = PtxasInfo("k_k1", 32, 1, 2, 1, 8, 40)
VREG = VReg(7, 64, "b_base")

#: The same three records as pickled by the default slotted-dataclass
#: reduction (protocol 5): a ``(None, {field: value})`` slot state, and a
#: field list for the frozen ``Occupancy``.
DEFAULT_PICKLES = {
    "timing": (
        b"\x80\x05\x95\xc6\x01\x00\x00\x00\x00\x00\x00\x8c\x10repro.gpu.timing\x94"
        b"\x8c\x0cKernelTiming\x94\x93\x94)\x81\x94N}\x94(\x8c\x04name\x94\x8c\x04k_k1\x94"
        b"\x8c\rtotal_threads\x94M\x00\x10\x8c\x11threads_per_block\x94K\x80\x8c\toccupancy\x94"
        b"\x8c\x13repro.gpu.occupancy\x94\x8c\tOccupancy\x94\x93\x94)\x81\x94]\x94(K\x08K\x04K "
        b"G?\xe0\x00\x00\x00\x00\x00\x00\x8c\tregisters\x94K eb\x8c\x0ecompute_cycles\x94"
        b"G@Y\x00\x00\x00\x00\x00\x00\x8c\x10bandwidth_cycles\x94G@I\x00\x00\x00\x00\x00\x00"
        b"\x8c\x0elatency_cycles\x94G@i\x00\x00\x00\x00\x00\x00\x8c\x07time_ms\x94"
        b"G?\xd0\x00\x00\x00\x00\x00\x00\x8c\x05bound\x94\x8c\x07latency\x94\x8c\x07profile\x94"
        b"h\x00\x8c\rThreadProfile\x94\x93\x94)\x81\x94N}\x94(\x8c\x0cissue_cycles\x94"
        b"G@)\x00\x00\x00\x00\x00\x00\x8c\x0bmem_latency\x94G@r\xc0\x00\x00\x00\x00\x00"
        b"\x8c\x0emem_bytes_warp\x94G@p\x00\x00\x00\x00\x00\x00\x8c\x05loads\x94"
        b"G@\x08\x00\x00\x00\x00\x00\x00\x8c\x06stores\x94G?\xf0\x00\x00\x00\x00\x00\x00"
        b"u\x86\x94bu\x86\x94b."
    ),
    "ptxas": (
        b"\x80\x05\x95\xa7\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.gpu.registers\x94"
        b"\x8c\tPtxasInfo\x94\x93\x94)\x81\x94N}\x94(\x8c\x0bkernel_name\x94\x8c\x04k_k1\x94"
        b"\x8c\tregisters\x94K \x8c\rspilled_vregs\x94K\x01\x8c\x0bspill_loads\x94K\x02"
        b"\x8c\x0cspill_stores\x94K\x01\x8c\x0bspill_bytes\x94K\x08\x8c\x0craw_pressure\x94K(u\x86\x94b."
    ),
    "vreg": (
        b"\x80\x05\x95I\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.codegen.vir\x94\x8c\x04VReg\x94"
        b"\x93\x94)\x81\x94N}\x94(\x8c\x02id\x94K\x07\x8c\x04bits\x94K@\x8c\x04hint\x94"
        b"\x8c\x06b_base\x94u\x86\x94b."
    ),
}


def fields_of(obj):
    return [getattr(obj, name) for name in type(obj).__slots__]


class TestDefaultPicklesStillLoad:
    def test_timing_with_occupancy_and_profile(self):
        loaded = pickle.loads(DEFAULT_PICKLES["timing"])
        assert loaded == TIMING
        assert loaded.occupancy == OCCUPANCY and loaded.profile == PROFILE

    def test_ptxas_info(self):
        assert pickle.loads(DEFAULT_PICKLES["ptxas"]) == INFO

    def test_vreg(self):
        assert fields_of(pickle.loads(DEFAULT_PICKLES["vreg"])) == fields_of(VREG)


class TestPositionalPickles:
    @pytest.mark.parametrize("record", [OCCUPANCY, PROFILE, TIMING, INFO])
    def test_round_trip(self, record):
        data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(data) == record
        # No field names in the bytes: the state is positional.
        assert b"issue_cycles" not in data and b"kernel_name" not in data

    def test_shorter_than_the_default_pickles(self):
        for record, key in ((TIMING, "timing"), (INFO, "ptxas"), (VREG, "vreg")):
            data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(data) < len(DEFAULT_PICKLES[key])

    def test_instructions_share_their_registers(self):
        a, b = VReg(1), VReg(2, 64, "x")
        instrs = [Instr(Op.MOV_IMM, dst=a, imm=1), Instr(Op.ADD, dst=b, srcs=(a, a))]
        loaded = pickle.loads(pickle.dumps(instrs, protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded[0].dst is loaded[1].srcs[0] is loaded[1].srcs[1]
        assert fields_of(loaded[1].dst) == fields_of(b)

    def test_scaled_timing_is_a_copy(self):
        scaled = TIMING.for_launches(3, KEPLER_K20XM)
        assert scaled.profile == PROFILE and scaled.profile is not PROFILE
        assert scaled.time_ms == 3 * TIMING.cycles / (KEPLER_K20XM.clock_mhz * 1e3)
        assert fields_of(scaled)[:7] == fields_of(TIMING)[:7]
        assert scaled.bound == TIMING.bound

    def test_rejects_records_it_cannot_rebuild(self):
        @dataclass
        class Lazy:
            a: int
            b: int = field(default=0, init=False)

        with pytest.raises(TypeError):
            positional_pickle(Lazy)


class TestVersion4Detail:
    #: A pass report's ``ReplacementResult`` as a version-4 disk entry's
    #: detail section pickled it, with its ``loads_saved_per_iteration``
    #: estimate (default slotted-dataclass reduction, protocol 5).
    V4_REPLACEMENT = (
        b"\x80\x05\x95\x8b\x00\x00\x00\x00\x00\x00\x00\x8c#repro.transforms.scalar_replacement"
        b"\x94\x8c\x11ReplacementResult\x94\x93\x94)\x81\x94N}\x94(\x8c\x05group\x94N"
        b"\x8c\x05temps\x94]\x94\x8c\x19loads_saved_per_iteration\x94K\x02"
        b"\x8c\x0esequentializes\x94\x88u\x86\x94b."
    )

    def test_v4_detail_cannot_load_so_v4_envelopes_are_misses(self):
        from repro.pipeline.diskcache import FORMAT_VERSION

        with pytest.raises(AttributeError, match="loads_saved_per_iteration"):
            pickle.loads(self.V4_REPLACEMENT)
        assert FORMAT_VERSION > 4
