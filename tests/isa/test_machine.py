"""Tests for the VPA interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.isa.assembler import assemble
from repro.isa.instructions import to_signed64
from repro.isa.machine import Machine, run_program


def run_body(body: str, data: str = "", input_values=(), **kwargs):
    sections = f".data\n{data}\n" if data else ""
    source = f"{sections}.text\n.proc main nargs=0\n{body}\nhalt\n.endproc\n"
    return run_program(assemble(source), input_values=input_values, **kwargs)


class TestArithmetic:
    def test_add_sub(self):
        result = run_body("li r1, 7\nli r2, 3\nadd r3, r1, r2\nsub r4, r1, r2\nout r3\nout r4")
        assert result.output == [10, 4]

    def test_immediates(self):
        result = run_body("li r1, 10\naddi r2, r1, 5\nsubi r3, r1, 5\nmuli r4, r1, 3\nout r2\nout r3\nout r4")
        assert result.output == [15, 5, 30]

    def test_mul(self):
        result = run_body("li r1, -4\nli r2, 6\nmul r3, r1, r2\nout r3")
        assert result.output == [-24]

    def test_div_truncates_toward_zero(self):
        result = run_body(
            "li r1, 7\nli r2, 2\ndiv r3, r1, r2\nout r3\n"
            "li r1, -7\ndiv r3, r1, r2\nout r3"
        )
        assert result.output == [3, -3]

    def test_rem_sign_follows_dividend(self):
        result = run_body(
            "li r1, 7\nli r2, 3\nrem r3, r1, r2\nout r3\n"
            "li r1, -7\nrem r3, r1, r2\nout r3"
        )
        assert result.output == [1, -1]

    def test_division_by_zero_faults(self):
        with pytest.raises(MachineError):
            run_body("li r1, 1\nli r2, 0\ndiv r3, r1, r2")

    def test_wraparound_64bit(self):
        result = run_body(f"li r1, {2**63 - 1}\naddi r2, r1, 1\nout r2")
        assert result.output == [-(2**63)]

    def test_bitwise(self):
        result = run_body(
            "li r1, 0b1100\nli r2, 0b1010\n"
            "and r3, r1, r2\nor r4, r1, r2\nxor r5, r1, r2\n"
            "out r3\nout r4\nout r5"
        )
        assert result.output == [0b1000, 0b1110, 0b0110]

    def test_shifts(self):
        result = run_body(
            "li r1, -8\nsrai r2, r1, 1\nout r2\n"
            "li r3, 8\nslli r4, r3, 2\nout r4\n"
            "li r5, -1\nsrli r6, r5, 60\nout r6"
        )
        assert result.output == [-4, 32, 15]

    def test_compare_sets(self):
        result = run_body(
            "li r1, 3\nli r2, 5\n"
            "slt r3, r1, r2\nseq r4, r1, r2\nsne r5, r1, r2\n"
            "slti r6, r1, 4\nseqi r7, r1, 3\nsnei r8, r1, 3\n"
            "out r3\nout r4\nout r5\nout r6\nout r7\nout r8"
        )
        assert result.output == [1, 0, 1, 1, 1, 0]


class TestRegisterZero:
    def test_r0_reads_zero(self):
        result = run_body("li r1, 5\nadd r2, zero, zero\nout r2")
        assert result.output == [0]

    def test_writes_to_r0_discarded(self):
        result = run_body("li r0, 99\nout r0")
        assert result.output == [0]

    def test_load_into_r0_discarded(self):
        result = run_body("la r1, v\nld r0, 0(r1)\nout r0", data="v: .word 42")
        assert result.output == [0]


class TestMemory:
    def test_load_store_roundtrip(self):
        result = run_body(
            "la r1, buf\nli r2, 77\nst r2, 3(r1)\nld r3, 3(r1)\nout r3",
            data="buf: .space 8",
        )
        assert result.output == [77]

    def test_data_image_loaded(self):
        result = run_body("la r1, v\nld r2, 1(r1)\nout r2", data="v: .word 10, 20")
        assert result.output == [20]

    def test_memory_holds_data_image_then_zeros(self):
        program = assemble(".data\nv: .word 10, 20, 30\n.text\n.proc main nargs=0\nhalt\n.endproc\n")
        machine = Machine(program, memory_words=64)
        assert machine.memory == [10, 20, 30] + [0] * 61
        assert len(Machine(program, memory_words=3).memory) == 3

    def test_out_of_range_load_faults(self):
        with pytest.raises(MachineError):
            run_body("li r1, -5\nld r2, 0(r1)")

    def test_out_of_range_store_faults(self):
        with pytest.raises(MachineError):
            run_body(f"li r1, {1 << 22}\nst r1, 0(r1)", memory_words=1024)

    def test_stack_push_pop(self):
        result = run_body("li r1, 11\npush r1\nli r1, 22\npop r2\nout r2")
        assert result.output == [11]

    def test_data_image_too_big_rejected(self):
        program = assemble(".data\nbig: .space 100\n.text\n.proc main nargs=0\nhalt\n.endproc\n")
        with pytest.raises(MachineError):
            Machine(program, memory_words=50)


class TestControlFlow:
    def test_branch_taken_and_not_taken(self):
        result = run_body(
            "li r1, 1\nli r2, 1\nbeq r1, r2, yes\nli r3, 0\nj end\nyes:\nli r3, 9\nend:\nout r3"
        )
        assert result.output == [9]

    def test_all_branch_conditions(self):
        body = """
    li r1, 2
    li r2, 5
    li r9, 0
    blt r1, r2, a
    j end
a:  bgt r2, r1, b
    j end
b:  ble r1, r1, c
    j end
c:  bge r2, r2, d
    j end
d:  bne r1, r2, e
    j end
e:  li r9, 1
end:
    out r9
"""
        assert run_body(body).output == [1]

    def test_loop(self):
        result = run_body(
            "li r1, 0\nli r2, 5\nloop:\nbeqz r2, done\nadd r1, r1, r2\ndec r2\nj loop\ndone:\nout r1"
        )
        assert result.output == [15]

    def test_call_and_return(self):
        source = """
.text
.proc main nargs=0
    li r1, 20
    call double
    out r1
    halt
.endproc
.proc double nargs=1
    add r1, r1, r1
    ret
.endproc
"""
        assert run_program(assemble(source)).output == [40]

    def test_indirect_jump_through_table(self):
        source = """
.data
table: .word t0, t1
.text
.proc main nargs=0
    la r1, table
    ld r2, 1(r1)
    jr r2
t0:
    li r3, 0
    j end
t1:
    li r3, 1
end:
    out r3
    halt
.endproc
"""
        assert run_program(assemble(source)).output == [1]

    def test_jalr_records_link(self):
        source = """
.data
fptr: .word f
.text
.proc main nargs=0
    la r1, fptr
    ld r2, 0(r1)
    jalr r10, r2
    out r1
    halt
.endproc
.proc f nargs=0
    li r1, 5
    jr r10
.endproc
"""
        assert run_program(assemble(source)).output == [5]

    def test_pc_out_of_range_faults(self):
        # Jump via jr to an invalid pc.
        with pytest.raises(MachineError):
            run_body("li r1, 12345\njr r1")

    def test_instruction_budget(self):
        with pytest.raises(MachineError):
            run_body("spin:\nj spin", max_instructions=1000)


class TestIO:
    def test_input_stream(self):
        result = run_body("in r1\nin r2\nadd r3, r1, r2\nout r3", input_values=[4, 6])
        assert result.output == [10]

    def test_input_exhausted_reads_zero(self):
        result = run_body("in r1\nin r2\nout r2", input_values=[9])
        assert result.output == [0]

    def test_input_wraps_to_signed(self):
        machine_result = run_body("in r1\nout r1", input_values=[2**64 - 1])
        assert machine_result.output == [-1]


class TestCounters:
    def test_dynamic_counts(self):
        result = run_body(
            "la r1, v\nld r2, 0(r1)\nst r2, 1(r1)\nout r2",
            data="v: .space 2",
        )
        assert result.dynamic_loads == 1
        assert result.dynamic_stores == 1

    def test_procedure_call_counts(self):
        source = """
.text
.proc main nargs=0
    call f
    call f
    halt
.endproc
.proc f nargs=0
    ret
.endproc
"""
        result = run_program(assemble(source))
        assert result.procedure_calls == {"f": 2}
        assert result.dynamic_calls == 2

    def test_instructions_executed_counted(self):
        result = run_body("nop\nnop")
        assert result.instructions_executed == 3  # 2 nops + halt


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**32), max_value=2**32),
    st.integers(min_value=-(2**32), max_value=2**32),
)
def test_property_add_matches_wrapped_python(a, b):
    result = run_body(f"li r1, {a}\nli r2, {b}\nadd r3, r1, r2\nout r3")
    assert result.output == [to_signed64(a + b)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**30), max_value=2**30),
    st.integers(min_value=1, max_value=2**20),
)
def test_property_div_rem_identity(a, b):
    result = run_body(
        f"li r1, {a}\nli r2, {b}\ndiv r3, r1, r2\nrem r4, r1, r2\n"
        "mul r5, r3, r2\nadd r5, r5, r4\nout r5"
    )
    assert result.output == [to_signed64(a)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=20))
def test_property_memory_roundtrip(values):
    stores = "\n".join(f"li r2, {v}\nst r2, {i}(r1)" for i, v in enumerate(values))
    loads = "\n".join(f"ld r3, {i}(r1)\nout r3" for i in range(len(values)))
    result = run_body(f"la r1, buf\n{stores}\n{loads}", data="buf: .space 32")
    assert result.output == values
