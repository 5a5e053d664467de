"""Discrete-time Matsumoto-Yor walk on lower-triangular SL2 matrices.

A random walk with Generalized Inverse Gaussian increments on the diagonal,
together with the numerical certification of its structure: closed-form
Markov kernels and their intertwining relation, a GIG characterization via
conditional laws, the inverse-gamma stationary measure and discrete Dufresne
identity, path reconstruction from the lower corner, and the diffusion
scaling limit.
"""

from .gig import (GigParams, InvGammaParams, gig_cdf, gig_log_moment_asymptotic,
                  gig_log_moment_numeric, gig_logpdf, gig_mean, gig_pdf,
                  gig_sample, gig_scale, inverse_gamma_cdf, inverse_gamma_mean,
                  inverse_gamma_pdf, inverse_gamma_sample, spawn_rngs)
from .kernels import (LogGrid, characterization_discrepancy,
                      check_detailed_balance, check_stationarity, compose,
                      conditional_x2_given_z2, conditional_x3_given_z3_z2,
                      ktilde_density, lambda_density,
                      my_generator_coefficients, p_density, pi_density,
                      q_density)
from .specfun import bessel_k, log_bessel_k
from .stats import (BrownianConfig, KsResult, donsker_check, dufresne_test,
                    generator_drift_check, kolmogorov_critical, ks_one_sample,
                    ks_two_sample, n_part_statistics, scaling_limit_test,
                    simulate_my_continuous, z_independence_check)
from .walk import (NParts, WalkConfig, WalkPath, f_n, n_infinity_batch,
                   n_parts, path_to_csv, phi_forward, phi_inverse,
                   phi_jacobian_det, reconstruct_x_finite, reconstruct_x_limit,
                   simulate_batch, simulate_path)

__version__ = "0.1.0"
