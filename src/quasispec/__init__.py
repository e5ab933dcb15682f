"""Spectral diagnostics for one-frequency quasiperiodic Schrodinger
operators: transfer-matrix cocycles, Weyl m-functions, subordinacy
ladders, resonance arithmetic, and conjugation schemes."""

from .arithmetic import (
    Frequency,
    RationalDetected,
    ResonanceSet,
    expand,
    from_terms,
    resolve_alpha,
    resonance_repulsion_check,
    resonances,
    torus_norm,
)
from .cocycle import (
    GrowthProfile,
    Potential,
    growth_profile,
    iterate,
    lyapunov,
)
from .conjugation import (
    BandFunction,
    MatFunction,
    NotContracting,
    TriangularCocycle,
    schrodinger_reduction,
    tx_asymptotics_check,
    tx_bruteforce,
    tx_closed_form,
)
from .spectral import (
    GapRecord,
    HolderFit,
    IdsTable,
    ThoulessRecord,
    gap_edges,
    holder_fit,
    ids,
    thouless_check,
)
from .subordinacy import (
    BracketRecord,
    PMatrix,
    SubordinacyProfile,
    det_via_beta_scan,
    jl_bracket_check,
    p_matrix,
    profile,
)
from .weyl import (
    MTriple,
    NoConvergence,
    M_function,
    m_minus,
    m_plus,
    m_plus_lanes,
    m_triple,
    phi,
    psi,
    rotate_beta,
)

__version__ = "0.1.0"
