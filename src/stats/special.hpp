// Special functions needed by the chi-square distribution: the regularised
// incomplete gamma functions P(a, x) and Q(a, x). Implemented from scratch
// (series expansion for x < a + 1, Lentz continued fraction otherwise) so the
// library has no dependency beyond <cmath>'s lgamma.
#pragma once

namespace locpriv::stats {

/// Regularised lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).
/// Preconditions: a > 0, x >= 0. Monotone in x from 0 to 1.
double regularized_gamma_p(double a, double x);

/// Regularised upper incomplete gamma Q(a, x) = 1 - P(a, x).
double regularized_gamma_q(double a, double x);

/// P(a, x) and Q(a, x) from one series or continued-fraction evaluation;
/// each is bit-identical to the separate call.
struct GammaPQ {
  double p = 0.0;
  double q = 1.0;
};
GammaPQ regularized_gamma_pq(double a, double x);

/// Natural log of the Gamma function (thin wrapper; centralises the call so
/// a custom implementation could be swapped in).
double log_gamma(double x);

}  // namespace locpriv::stats
