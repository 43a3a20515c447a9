"""Dense Tucker decompositions with randomized mode-wise sketching."""

from .tensor import (
    as_tensor,
    from_vec,
    to_vec,
    matricize,
    mode_multiply,
    multi_mode_multiply,
    inner,
    norm,
)
from .tucker import (
    TuckerDecomposition,
    reconstruct,
    mode_coherence,
    apply_mode_map,
    norm_via_gram,
    psi_matrix,
)
from .embeddings import (
    make_embedding,
    draw_signs,
    mix,
    unmix_factor,
    is_eps_jl,
    sample_size,
)
from .decompose import (
    DecomposerConfig,
    RunReport,
    decompose,
    hosvd,
    reconstruction_error,
)
from .bounds import (
    BoundParams,
    BoundReport,
    embedding_dim_bound,
    residual_embedding_dim_bound,
    check_inner_product_bound,
    check_prop1,
    check_multimode_distortion,
    check_residual_distortion,
)
from .bench import BenchConfig, BenchRow, synth_tensor, run_bench
from .fileio import read_tensor, write_tensor, read_decomposition, write_decomposition

__version__ = "0.1.0"
