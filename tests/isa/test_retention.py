"""A halted Machine must be garbage once its caller drops it.

Each machine owns its whole data memory (a ``memory_words``-slot list),
so anything that outlives a run and still references the machine — a
frame, a handler closure, a traceback — leaks that memory for the rest
of the process.  These tests run halting programs on every engine, drop
them, and check through weak references that nothing survives.
"""

import gc
import types
import weakref

import pytest

import repro.isa.engine as engine_module
import repro.isa.machine as machine_module
import repro.isa.tier2 as tier2_module
from repro.isa.assembler import assemble
from repro.isa.machine import Machine, run_program

ENGINES = ("simple", "threaded", "tier2")
RUNS = 6
MEMORY_WORDS = 4096

_LOOP = """
.data
vals: .word 3, 5, 7, 9
.text
.proc main nargs=0
    li r1, 0
    li r2, 0
loop:
    andi r3, r1, 3
    la r4, vals
    add r4, r4, r3
    ld r5, 0(r4)
    add r2, r2, r5
    addi r1, r1, 1
    slti r6, r1, 200
    bne r6, r0, loop
    out r2
    halt
.endproc
"""

_CALLS = """
.text
.proc main nargs=0
    in r1
    call double
    out r1
    halt
.endproc
.proc double nargs=1
    add r1, r1, r1
    ret
.endproc
"""


@pytest.fixture(scope="module")
def programs():
    return [assemble(_LOOP), assemble(_CALLS)]


@pytest.fixture
def tracked_refs(monkeypatch):
    """Weak references to every Machine that ``run_program`` builds."""
    refs = []

    class Tracked(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(machine_module, "Machine", Tracked)
    return refs


def _live(refs):
    gc.collect()
    return sum(ref() is not None for ref in refs)


def _traceback_lengths():
    """Traceback depth of every exception instance held at module level."""
    lengths = {}
    for module in (engine_module, machine_module, tier2_module):
        for name, value in vars(module).items():
            if isinstance(value, BaseException):
                depth, tb = 0, value.__traceback__
                while isinstance(tb, types.TracebackType):
                    depth, tb = depth + 1, tb.tb_next
                lengths[f"{module.__name__}.{name}"] = depth
    return lengths


@pytest.mark.parametrize("engine", ENGINES)
def test_run_program_drops_halted_machines(engine, programs, tracked_refs, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    for _ in range(RUNS):
        for program in programs:
            result = run_program(program, input_values=[21], memory_words=MEMORY_WORDS)
            assert result.halted
    assert len(tracked_refs) == RUNS * len(programs)
    assert _live(tracked_refs) == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_machine_run_drops_halted_machines(engine, programs):
    refs = []
    for _ in range(RUNS):
        for program in programs:
            machine = Machine(program, memory_words=MEMORY_WORDS, engine=engine)
            machine.set_input([21])
            assert machine.run().halted
            assert machine.engine == engine
            refs.append(weakref.ref(machine))
            del machine
    assert _live(refs) == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_no_traceback_chain_grows_with_runs(engine, programs):
    def run_all():
        for program in programs:
            machine = Machine(program, memory_words=MEMORY_WORDS, engine=engine)
            machine.set_input([21])
            machine.run()

    run_all()
    before = _traceback_lengths()
    for _ in range(RUNS):
        run_all()
    assert _traceback_lengths() == before
