"""Layered Toffoli-network synthesis with exact GF(2) and NMR verification."""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    CircuitError,
    CircuitParseError,
    LayerDisjointnessError,
    LayerError,
    Metrics,
    QubitRef,
    metrics,
    mqg_roles,
    parse,
    serialize,
)
from .gf2 import Anf, block_A, block_Z, closed_form_outputs, verify_appendix
from .synthesis import (
    ComparisonRow,
    control_target_masks,
    pin_mask,
    synth_baseline_dirty,
    synth_mqg_network,
    table1_compare,
)
from .sim import (
    EquivReport,
    McxOracle,
    check_anf,
    mcx_oracle,
    run_all,
    run_anf,
    run_basis,
    run_statevector,
    trace_blocks,
)
from .nmr import (
    LatticeConfig,
    RefocusSequence,
    SpinRef,
    ZZTerm,
    build_hamiltonian,
    canonical_sequence,
    effective_evolution,
    sequence_action,
    verify_identity,
)
