"""Denoising diffusion over basis-structured noise.

The forward process x_t = s(t) x_0 + s(t) sigma(t) N injects noise assembled
from an arbitrary basis set [h_1 .. h_M] with a stochasticity mediator
eta >= 0 between the maximally stochastic (eta = 0) and deterministic
(eta -> inf) regimes.  The package carries the matching reverse-time
machinery (scores, probability-flow ODE, analytic and learned denoisers),
training, deterministic samplers, synthetic restoration tasks, self-check
suites and a CLI.
"""

from .bases import (BasisSet, CovarianceOp, SingularCovarianceError,
                    legendre_trig_basis, pixel_basis, residual_basis)
from .denoisers import (ConstantDenoiser, Denoiser, DiracDataset,
                        DiracMixtureDenoiser, PreconditionedDenoiser,
                        TinyNetwork, load_network, save_network)
from .fields import (PSNR_EXACT_MATCH, Field, Rng, field_from_bytes,
                     field_to_bytes, psnr, read_field, rmse, write_field,
                     write_pgm)
from .process import ConditionalMoments, DiffusionProcess, KnotTable
from .samplers import (euler_trajectory, make_time_grid, sample_reference,
                       write_trajectory_csv)
from .schedules import (EndpointError, Schedule, SdeCoefficients,
                        make_ddpm_schedule, make_vp_schedule,
                        sde_coefficients)
from .tasks import (RestorationResult, TaskInstance, case3_discrete_demo,
                    centered_poisson_sampler, gen_residual_task,
                    gen_smooth_field_task, run_restoration, tv_distance)
from .training import (OBJECTIVES, TrainConfig, compute_loss, train,
                       weight_from_mask, write_loss_trace)
from .verify import CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BasisSet", "CovarianceOp", "SingularCovarianceError",
    "legendre_trig_basis", "pixel_basis", "residual_basis",
    "ConstantDenoiser", "Denoiser", "DiracMixtureDenoiser",
    "PreconditionedDenoiser", "TinyNetwork", "load_network",
    "save_network", "PSNR_EXACT_MATCH", "Field", "Rng", "field_from_bytes",
    "field_to_bytes", "psnr", "read_field", "rmse", "write_field",
    "write_pgm", "ConditionalMoments", "DiffusionProcess", "DiracDataset",
    "KnotTable",
    "euler_trajectory", "make_time_grid", "sample_reference",
    "write_trajectory_csv",
    "EndpointError", "Schedule", "SdeCoefficients", "make_ddpm_schedule",
    "make_vp_schedule", "sde_coefficients", "RestorationResult",
    "TaskInstance", "case3_discrete_demo", "centered_poisson_sampler",
    "gen_residual_task", "gen_smooth_field_task", "run_restoration",
    "tv_distance", "OBJECTIVES", "TrainConfig",
    "compute_loss", "train", "weight_from_mask", "write_loss_trace",
    "CheckResult", "SuiteReport", "run_suite",
]
