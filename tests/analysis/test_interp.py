"""The whole-program abstract interpreter: call graph, ranges, loops.

Small hand-written images exercise each capability the verifier leans
on -- constant-derived trip counts, jal/jr call-return resolution,
dead-branch proofs, and the assumed-bound escape hatch -- so a interp
regression is localized here before it surfaces as a refused bound in
``verify --all``.
"""

import pytest

from repro.analysis.absdom import AbsState, AbsVal
from repro.analysis.cfg import AsmProgram, build_cfg
from repro.analysis.interp import _build_function, analyze_image
from repro.analysis.registry import KERNELS
from repro.analysis.verify import analyze_spec

HALT = "\n__halt:\n    halt\n"


def _interp(src, name="t", assume_trips=None):
    program = AsmProgram.from_source(src + HALT, name=name)
    halt = program.labels["__halt"]
    result = analyze_image(program, 0,
                           entry_values={31: program.address(halt)},
                           assume_trips=assume_trips)
    return program, result


def test_constant_trip_count_inferred():
    program, result = _interp("""
        li $t0, 4
    loop:
        addiu $t0, $t0, -1
        bne $t0, $zero, loop
        nop
        jr $ra
        nop
    """)
    header = program.labels["loop"]
    # trip_bounds are upper bounds: sound (never below the 4 actual
    # iterations), allowed one conservative extra
    assert 4 <= result.trip_bounds[(0, header)] <= 5
    assert result.assumed_loops == []
    assert not result.findings


def test_call_and_return_resolved():
    program, result = _interp("""
        move $t7, $ra
        jal callee
        nop
        jr $t7
        nop
    callee:
        addu $v0, $a0, $a1
        jr $ra
        nop
    """)
    callee = program.labels["callee"]
    assert list(result.calls.values()) == [callee]
    assert len(result.functions) == 2
    # the callee's jr resolves back to the call site, the outer jr to
    # the harness halt stub
    assert not result.findings


def test_dead_branch_proved():
    _, result = _interp("""
        li $t0, 0
        bne $t0, $zero, dead
        nop
        jr $ra
        nop
    dead:
        sw $zero, 0($zero)
        jr $ra
        nop
    """)
    assert [(i, d) for i, d in result.dead_branches] and \
        result.dead_branches[0][1] == "fall"
    # the never-taken arm is never walked
    feas = result.branch_feasible[result.dead_branches[0][0]]
    assert feas == frozenset({"fall"})


def test_unbounded_loop_reported_then_assumable():
    src = """
    loop:
        lw $t0, 0($a0)
        bne $t0, $zero, loop
        nop
        jr $ra
        nop
    """
    program, result = _interp(src)
    assert any(f.check == "unbounded-loop" for f in result.findings)

    header = program.labels["loop"]
    program, result = _interp(src, assume_trips={header: 8})
    assert not result.findings
    assert (header, 8) in result.assumed_loops
    assert result.trip_bounds[(0, header)] == 8


def test_slt_signed_on_wrapped_negative():
    # regression: slt is a *signed* compare.  0xFFFFFFFF is -1, so
    # slt $t1, $t0, $zero is 1 and the bne is always taken; deciding
    # it with the unsigned order proved the wrong side dead and pruned
    # the path hardware actually takes.
    program, result = _interp("""
        addiu $t0, $zero, -1
        slt $t1, $t0, $zero
        bne $t1, $zero, neg
        nop
        jr $ra
        nop
    neg:
        jr $ra
        nop
    """)
    assert (2, "taken") in result.dead_branches
    assert program.labels["neg"] in result.reached


def test_sltu_still_decided_unsigned():
    _, result = _interp("""
        addiu $t0, $zero, -1
        sltu $t1, $t0, $zero
        bne $t1, $zero, taken
        nop
        jr $ra
        nop
    taken:
        jr $ra
        nop
    """)
    # 0xFFFFFFFF is the largest unsigned value: sltu yields 0
    assert (2, "fall") in result.dead_branches


def test_slti_compares_signed_immediate():
    _, result = _interp("""
        addiu $t0, $zero, -10
        slti $t1, $t0, -5
        bne $t1, $zero, taken
        nop
        jr $ra
        nop
    taken:
        jr $ra
        nop
    """)
    # -10 < -5 in the signed order, wrapped forms notwithstanding
    assert (2, "taken") in result.dead_branches


def test_slt_on_symbolic_operands_undecided():
    _, result = _interp("""
        slt $t1, $a0, $a1
        bne $t1, $zero, other
        nop
        jr $ra
        nop
    other:
        jr $ra
        nop
    """)
    # unknown entry values may sit on either side of 2^31
    assert result.branch_feasible[1] == frozenset({"taken", "fall"})


def test_call_in_loop_clobbers_callee_written_registers():
    # regression: the helper writes $v0 inside the loop, so the header
    # state must not keep the iteration-0 value $v0 = 0 -- hardware
    # takes the exit branch from iteration 2
    src = """
        move $t7, $ra
        li $v0, 0
    loop:
        bne $v0, $zero, done
        nop
        jal helper
        nop
        b loop
        nop
    done:
        jr $t7
        nop
    helper:
        li $v0, 1
        jr $ra
        nop
    """
    program, result = _interp(src)
    header = program.labels["loop"]
    assert result.branch_feasible[header] == frozenset({"taken", "fall"})
    assert not any(i == header for i, _ in result.dead_branches)
    assert program.labels["done"] in result.reached
    # $v0 ($2) holds no stale value at the header...
    assert result.states[header].get(2).is_top
    # ...and the derived-trip machinery cannot bound the loop either
    # (the callee may rewrite the counter); only an assumption can
    assert any(f.check == "unbounded-loop" for f in result.findings)

    program, result = _interp(src, assume_trips={header: 4})
    assert not any(f.check == "unbounded-loop" for f in result.findings)
    assert (header, 4) in result.assumed_loops
    assert result.states[header].get(2).is_top


def test_jr_target_in_delay_slot_refused():
    # a jump-table target inside another instruction's delay slot would
    # be walked with the owner's control semantics (branching, where
    # slot-entered hardware falls through); refuse it instead
    program, result = _interp("""
        la $t0, br
        addiu $t0, $t0, 4
        jr $t0
        nop
    br: beq $zero, $zero, out
        .ds nop
    out:
        jr $ra
        nop
    """)
    assert any(f.check == "jump-into-delay-slot" for f in result.findings)
    slot = program.labels["br"] + 1
    assert slot in result.cfg.slots and slot not in result.reached


def test_ranged_clobber_honors_zero_upper_bound():
    # regression: hi == 0 is a legitimate upper bound, not "absent"
    s = AbsState().store_word((4, 0), AbsVal.const(5))
    assert not s.load_word((4, 0)).is_top
    assert s.clobber_memory(4, -8, 0).load_word((4, 0)).is_top


def test_value_range_tracks_loop_counter():
    program, result = _interp("""
        li $t0, 0
        li $t1, 6
    loop:
        addiu $t0, $t0, 1
        bne $t0, $t1, loop
        nop
        jr $ra
        nop
    """)
    header = program.labels["loop"]
    assert 6 <= result.trip_bounds[(0, header)] <= 7


# ---------------------------------------------------------------------------
# Back edges: the retreating-edge filter loses none
# ---------------------------------------------------------------------------


def _dominators(fn):
    """Dominator sets by the textbook fixpoint: Dom(entry) = {entry},
    Dom(n) = {n} | the intersection of Dom(p) over n's predecessors."""
    dom = {n: set(fn.nodes) for n in fn.nodes}
    dom[fn.entry] = {fn.entry}
    changed = True
    while changed:
        changed = False
        for n in fn.nodes - {fn.entry}:
            new = {n} | set.intersection(*(dom[p] for p in fn.preds[n]))
            if new != dom[n]:
                dom[n], changed = new, True
    return dom


def _has_cycle(nodes, edges):
    indegree = dict.fromkeys(nodes, 0)
    for _, v in edges:
        indegree[v] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for x, v in edges:
            if x == u:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
    return removed < len(nodes)


def _assert_back_edges_by_dominance(fn):
    """Every edge whose target dominates its source is a back edge, and
    the region is irreducible iff the other edges still form a cycle."""
    dom = _dominators(fn)
    edges = {(u, v) for u, targets in fn.succ.items() for v in targets}
    back = {(u, v) for u, v in edges if v in dom[u]}
    assert fn.back_edges == back
    assert fn.irreducible == _has_cycle(fn.nodes, edges - back)


@pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.name)
def test_back_edges_equal_dominance_test_over_kernels(spec):
    _, result = analyze_spec(spec)
    for fn in result.functions.values():
        _assert_back_edges_by_dominance(fn)


def _function(src, extra=None):
    program = AsmProgram.from_source(src + HALT, name="t")
    fn = _build_function(program, build_cfg(program), 0, extra or {})
    _assert_back_edges_by_dominance(fn)
    return program, fn


def test_back_edges_of_a_self_loop():
    # the intraprocedural CFG has a self-edge only where a jump table
    # sends a jr's slot to itself
    _, fn = _function("""
        jr $t0
        nop
        jr $ra
        nop
    """, extra={1: (1, 2)})
    assert fn.back_edges == {(1, 1)}
    assert fn.loops[1].body == {1} and not fn.irreducible


def test_back_edges_of_nested_loops():
    program, fn = _function("""
        li $t0, 3
    outer:
        li $t1, 4
    inner:
        addiu $t1, $t1, -1
        bne $t1, $zero, inner
        nop
        addiu $t0, $t0, -1
        bne $t0, $zero, outer
        nop
        jr $ra
        nop
    """)
    outer, inner = program.labels["outer"], program.labels["inner"]
    assert {v for _, v in fn.back_edges} == {outer, inner}
    assert fn.loops[inner].parent == outer
    assert not fn.irreducible


def test_back_edges_of_an_irreducible_region():
    # the loop a -> b -> a is entered at both a and b: neither dominates
    # the other, so its retreating edge is no back edge
    _, fn = _function("""
        beq $a0, $zero, b
        nop
    a:
        addiu $t0, $t0, 1
    b:
        addiu $t1, $t1, 1
        bne $t1, $a1, a
        nop
        jr $ra
        nop
    """)
    assert fn.back_edges == frozenset() and fn.loops == {}
    assert fn.irreducible
