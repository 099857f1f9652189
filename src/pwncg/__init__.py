"""Power-weighted noncentral complex Gaussian distribution family.

Log densities on the complex plane and the derived amplitude, power, and
integer mixing laws; closed-form moments; exact and Metropolis-Hastings
samplers; maximum-likelihood fitting of the exponential, gamma,
noncentral-gamma, and proposed power models; and a speech power-spectrum
fitting harness exposed through the ``pwncg`` CLI.
"""

__version__ = "0.1.0"

from .distributions import (
    AmplitudeParams,
    ComplexParams,
    PoissonTypeParams,
    PowerParams,
    log_pdf_amplitude,
    log_pdf_complex,
    log_pdf_exponential,
    log_pdf_gamma,
    log_pdf_nakagami,
    log_pdf_noncentral_gamma,
    log_pdf_power,
    log_pdf_rice,
    log_pmf_poisson_type,
)
from .fitting import (
    FitResult,
    fit_exponential,
    fit_gamma,
    fit_model,
    fit_noncentral_gamma,
    fit_proposed,
    paired_t_test_one_sided,
)
from .moments import (
    excess_kurtosis,
    kurtosis_sweep,
    mean_variance,
    ncgamma_cumulant,
    raw_moment,
)
from .sampling import (
    MhConfig,
    rng_stream,
    sample_complex,
    sample_gamma,
    sample_poisson_type_mh,
    sample_poisson_type_truncated,
    sample_power,
    sample_von_mises,
)
from .special import (
    SeriesConvergenceError,
    log_bessel_i0,
    log_bessel_i_nu,
    log_laguerre_neg,
    log_laguerre_pos_arg,
)
from .spectral import (
    ExperimentReport,
    LoadedWav,
    Patch,
    StftConfig,
    load_wav,
    run_experiment,
    stft_power,
    tile_patches,
)
