#include "stats/special.hpp"

#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace locpriv::stats {

double log_gamma(double x) { return std::lgamma(x); }

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;

// Series representation: P(a,x) = e^{-x} x^a / Gamma(a) * sum x^n / (a)_{n+1}.
// Converges quickly for x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double denom = a;
  for (int n = 0; n < kMaxIterations; ++n) {
    denom += 1.0;
    term *= x / denom;
    sum += term;
    if (std::abs(term) < std::abs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Continued fraction (modified Lentz): Q(a,x) for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
  const double tiny = std::numeric_limits<double>::min() / kEpsilon;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

}  // namespace

GammaPQ regularized_gamma_pq(double a, double x) {
  LOCPRIV_EXPECT(a > 0.0);
  LOCPRIV_EXPECT(x >= 0.0);
  if (x == 0.0) return {0.0, 1.0};
  if (x < a + 1.0) {
    const double p = gamma_p_series(a, x);
    return {p, 1.0 - p};
  }
  const double q = gamma_q_continued_fraction(a, x);
  return {1.0 - q, q};
}

double regularized_gamma_p(double a, double x) { return regularized_gamma_pq(a, x).p; }

double regularized_gamma_q(double a, double x) { return regularized_gamma_pq(a, x).q; }

}  // namespace locpriv::stats
