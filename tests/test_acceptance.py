"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""
import time

import numpy as np
import pytest

from mqgsim.baseline import synth_baseline_dirty, table1_compare
from mqgsim.circuit import metrics, mqg_roles
from mqgsim.nmr import LatticeConfig, canonical_sequence, verify_identity
from mqgsim.sim import (
    McxOracle,
    output_columns,
    run_all,
    wire_columns,
)
from mqgsim.stages import check_stages
from mqgsim.symbolic import run_anf
from mqgsim.synthesis import layer_templates, pin_mask, synth_mqg_network
from network_reference import (
    appendix_identities,
    closed_form_outputs,
    mcx_table,
    network_masks,
    table_columns,
)
from nmr_reference import dense_verdict


def network(n):
    return synth_mqg_network(n)


def oracle(n):
    return McxOracle(*network_masks(n))


def report(num, name, ok):
    print(f"\nCRITERION {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_exhaustive_n1():
    t0 = time.monotonic()
    rep = run_all(network(1), oracle(1))
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.mode == "exhaustive" and rep.qubits == 9 and elapsed < 1.0
    report(1, f"exhaustive equivalence n=1 ({elapsed:.2f}s)", ok)


def test_criterion_2_exhaustive_n2():
    t0 = time.monotonic()
    rep = run_all(network(2), oracle(2))
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.mode == "exhaustive" and rep.qubits == 17 and elapsed < 30.0
    report(2, f"exhaustive equivalence n=2 ({elapsed:.2f}s)", ok)


def test_criterion_3_symbolic_n3():
    t0 = time.monotonic()
    ok = run_anf(network(3)) == closed_form_outputs(3)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(3, f"symbolic proof n=3, 33 qubits ({elapsed:.2f}s)", ok)


def test_criterion_4_block_recurrences():
    ok = True
    # Every input at once (512 at n=1, 131072 at n=2), bit-sliced.
    for n in (1, 2):
        stages = check_stages(n, wire_columns(network(n).num_qubits))
        ok &= len(stages) == 4**n and all(st.match for st in stages)
    # The stage check runs the layer pair it builds; the synthesized network
    # is that pair, 2^(n+1) times.
    for n in (1, 2, 3):
        ok &= network(n).layers == layer_templates(n) * 2 ** (n + 1)

    # Exact ANF identities; at n=1 the final-stage ones are the worked stage-2 forms.
    for n in (1, 2, 3):
        ok &= all(lhs == rhs for _, lhs, rhs in appendix_identities(n))
    report(4, "block recurrences, worked forms, appendix identities", ok)


def test_criterion_5_table1_and_baseline():
    ok = True
    for n in range(1, 5):
        row = table1_compare(n)
        N = 2 ** (n + 1) + 2
        ok &= row.N == N
        ok &= metrics(network(n)).mqg_count == 2 * N - 4
        ok &= metrics(synth_baseline_dirty(N - 1)).toffoli_count == 4 * (N - 3)
    for m in (3, 4, 5):
        c = synth_baseline_dirty(m)
        M = c.num_qubits
        # Controls first, target last.
        expected = mcx_table((1 << m) - 1, 1 << (M - 1), M)
        ok &= output_columns(c) == table_columns(expected, M)
    report(5, "unit-count formulas and dirty-ancilla baseline m=3,4,5", ok)


def test_criterion_6_ancilla_independence():
    ok = True
    for n in (1, 2, 3):
        c = network(n)
        M = c.num_qubits
        m = 2**n
        anc = [f"A{l}" for l in range(1, m)] + [f"D{l}" for l in range(1, m + 1)]
        anc_bits = [mqg_roles(n).index(label) for label in anc]
        anc_mask = sum(1 << b for b in anc_bits)
        others = [i for i in range(M) if not anc_mask >> i & 1]
        # Symbolic form, exact at any n: no other output ANF has an ancilla variable.
        anf = run_anf(c)
        ok &= all(not mono & anc_mask for i in others for mono in anf[i].monomials)
        if n == 3:
            continue
        ident = wire_columns(M)
        outs = output_columns(c)
        ones = (1 << (1 << M)) - 1
        # Ancilla wires come back unchanged on every input.
        ok &= all(outs[b] == ident[b] for b in anc_bits)
        # Flipping ancilla bit b swaps each block of 2^b states that have
        # bit b at 0 with the next block, which has it at 1. No other output
        # column changes under that swap.
        for b in anc_bits:
            high, shift = ident[b], 1 << b
            low = ones ^ high
            for i in others:
                col = outs[i]
                ok &= ((col & low) << shift | (col & high) >> shift) == col
    report(6, "outputs independent of dirty ancilla values n=1,2 (table), n=1,2,3 (ANF)", ok)


def test_criterion_7_nmr_identities():
    t0 = time.monotonic()
    ok = True
    cases = 0
    for rows in (2, 3):
        for boundary in ("periodic", "open"):
            cfg = LatticeConfig(rows, boundary)
            # The integer verdict reads no draw and no time: one per kind.
            reps = {kind: verify_identity(kind, cfg) for kind in range(1, 7)}
            for kind, rep in reps.items():
                ok &= rep.passed
                # Sign algebra must agree with the walk, and must reduce to
                # the published single-coupling form away from the odd-ring
                # parity seam.
                if not (rows % 2 and boundary == "periodic" and kind in (3, 6)):
                    ok &= rep.matches_published
            for draw in range(5):
                rng = np.random.default_rng([rows, draw, 99])
                couplings = tuple(rng.uniform(0.2, 2.0, 6))
                for t in (0.3, 0.7, 1.9):
                    for kind, rep in reps.items():
                        # The dense action at this draw and time must give
                        # the integer verdict.
                        seq = canonical_sequence(kind)
                        ok &= dense_verdict(seq, t, cfg, couplings)[0] == rep.passed
                        cases += 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(
        7,
        f"six refocusing identities, dense action agrees on {cases} cases ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_8_mutation_sensitivity():
    ok = True
    c = network(1)
    ref = oracle(1)
    for drop in range(len(c.layers)):
        layers = c.layers[:drop] + c.layers[drop + 1 :]
        rep = run_all(c._replace(layers=layers), ref)
        ok &= not rep.passed

    rng = np.random.default_rng(77)
    couplings = tuple(rng.uniform(0.2, 2.0, 6))
    cfg = LatticeConfig(2, "periodic")
    seq = canonical_sequence(1)
    for gi, group in enumerate(seq):
        for cls in sorted(group):
            groups = list(seq)
            groups[gi] = group - {cls}
            rep = verify_identity(1, cfg, groups=groups)
            ok &= not rep.passed
            ok &= dense_verdict(groups, 0.7, cfg, couplings)[0] == rep.passed
    report(8, "single-layer and single-pulse deletions all detected", ok)


def test_criterion_9_padding():
    ok = True
    circuit = network(1)
    M = circuit.num_qubits
    control_mask, target_mask = network_masks(1)
    outs = output_columns(circuit)
    for active in (2, 3, 4):
        pinned = pin_mask(1, active)
        ok &= bin(control_mask & ~pinned).count("1") == active
        oracle = McxOracle(control_mask & ~pinned, target_mask)
        expected = oracle.apply(wire_columns(M), (1 << (1 << M)) - 1)
        # Bit s of held is set on the states with every pinned control at 1.
        held = sum(1 << s for s in range(1 << M) if s & pinned == pinned)
        ok &= bin(held).count("1") == 1 << (M - bin(pinned).count("1"))
        ok &= all((out ^ exp) & held == 0 for out, exp in zip(outs, expected))
    report(9, "padded networks act as smaller multi-controlled NOTs", ok)
