"""circuq: probabilistic circuits with closed-form dropout uncertainty.

Log-space sum-product circuits with standard likelihood inference, a
single-pass propagation of dropout-induced expectations/variances/covariances,
a Monte Carlo dropout baseline, random tensorized structure construction,
discriminative training, and an out-of-distribution evaluation harness.
"""

from .circuit import (
    CategoricalLeaf,
    Circuit,
    Evidence,
    GaussianLeaf,
    ProductNode,
    SumNode,
    ValidationReport,
    deserialize,
    load,
    log_likelihood,
    log_likelihood_batch,
    save,
    serialize,
    validate,
)
from .datasets import Dataset, corrupt, load_csv, load_idx, rotate, save_csv, synth_blobs
from .enumeration import enumerate_dropout_moments, linear_forward
from .errors import (
    CircuitError,
    DegenerateSampleError,
    ManualSpecError,
    ParameterError,
    SerializationError,
    ShapeError,
    StructureError,
    UnderflowError,
)
from .evaluation import (
    EvalConfig,
    SweepResult,
    corrupt_sweep,
    ood_sweep,
    perturb_sweep,
)
from .mcd import ComparisonTable, McdConfig, McdResult, mcd_infer, mcd_vs_tdi_report
from .moments import (
    CovarianceStrategy,
    DropoutConfig,
    MomentFrame,
    PosteriorMoments,
    SignedLog,
    TaylorMethod,
    posterior_moments,
    posterior_moments_batch,
    posterior_summary_batch,
    tdi_pass,
    tdi_pass_batch,
)
from .structures import (
    RatConfig,
    build_manual,
    build_rat,
    copy_paste_expand,
    random_dag_circuit,
    random_evidence,
    random_tree_circuit,
    structure_stats,
)
from .train import ParameterSpace, TrainConfig, TrainHistory, accuracy, fit, loss_and_grad

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
