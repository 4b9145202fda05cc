"""qsslab: exact simulator and security analysis for a Grover-based (2,2)
quantum secret-sharing protocol."""

from .errors import (
    CertificationError,
    PlanIncompleteError,
    ProtocolError,
    QsslabError,
    UnsupportedCaseError,
    ValidationError,
)
from .linalg import (
    TOL,
    bloch_from_density,
    canonical_purification,
    density_from_bloch,
    fidelity,
    max_overlap_unitary,
    partial_trace_E,
    pure_density,
    state_fidelity,
    tensor,
)
from .nonces import (
    NonceSet,
    SECRETS,
    builtin_nonce_set,
    load_nonce_set,
    reflection,
    share_state,
)
from .protocol import (
    DETECT,
    EAVESDROPPER_DETECTED,
    RETIRED,
    ROUND_DROPPED,
    SECRET,
    RoundConfig,
    RoundTranscript,
    estimate_detection,
    outcome_distribution,
    run_round,
    run_rounds,
    stage_iv_verdict,
)
from .adversary import (
    AttackPlan,
    honest_strategy,
    ifr_strategy,
    imr_guess_strategy,
    load_plan,
    save_plan,
    synthesize_plan,
)
from .analysis import (
    CertificationReport,
    certify,
    check_imr,
    check_recoverability,
    check_secrecy,
    detection_bounds,
    max_average_fidelity,
    r_of_s,
)

__version__ = "0.1.0"
