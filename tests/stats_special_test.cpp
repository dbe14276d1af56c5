#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/special.hpp"
#include "util/expect.hpp"

namespace locpriv::stats {
namespace {

TEST(RegularizedGamma, BoundaryValues) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(1.0, 0.0), 1.0);
}

TEST(RegularizedGamma, ExponentialSpecialCase) {
  // P(1, x) = 1 - e^{-x} exactly.
  for (const double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12)
        << "x=" << x;
  }
}

TEST(RegularizedGamma, ErlangSpecialCase) {
  // P(2, x) = 1 - e^{-x}(1 + x).
  for (const double x : {0.2, 1.0, 3.0, 8.0}) {
    EXPECT_NEAR(regularized_gamma_p(2.0, x), 1.0 - std::exp(-x) * (1.0 + x), 1e-12)
        << "x=" << x;
  }
}

class GammaComplementTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GammaComplementTest, PPlusQIsOne) {
  const auto [a, x] = GetParam();
  EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GammaComplementTest,
    ::testing::Values(std::pair{0.5, 0.1}, std::pair{0.5, 2.0}, std::pair{1.0, 1.0},
                      std::pair{3.0, 0.5}, std::pair{3.0, 10.0}, std::pair{10.0, 9.0},
                      std::pair{50.0, 60.0}, std::pair{100.0, 80.0},
                      std::pair{0.25, 5.0}));

// regularized_gamma_p / _q as they stood before regularized_gamma_pq, frozen
// here: each call runs its own series or continued fraction.
double separate_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double denom = a;
  for (int n = 0; n < 500; ++n) {
    denom += 1.0;
    term *= x / denom;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-14) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

double separate_continued_fraction(double a, double x) {
  const double tiny = std::numeric_limits<double>::min() / 1e-14;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-14) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}

double separate_p(double a, double x) {
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return separate_series(a, x);
  return 1.0 - separate_continued_fraction(a, x);
}

double separate_q(double a, double x) {
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - separate_series(a, x);
  return separate_continued_fraction(a, x);
}

TEST(RegularizedGamma, PairedEvaluationIsBitIdenticalToSeparateCalls) {
  // The grid covers x == 0, the series branch (x < a + 1) and the continued
  // fraction (x >= a + 1), including x == a + 1 exactly.
  std::size_t series = 0;
  std::size_t fraction = 0;
  for (const double a : {0.25, 0.5, 1.0, 1.5, 2.0, 3.5, 7.0, 19.5, 50.0, 120.0}) {
    for (const double x : {0.0, 1e-9, 0.1, 0.5, a, a + 0.5, a + 1.0, a + 3.0, 2.0 * a + 5.0,
                           10.0 * a + 40.0}) {
      const GammaPQ pq = regularized_gamma_pq(a, x);
      EXPECT_EQ(pq.p, separate_p(a, x)) << "a=" << a << " x=" << x;
      EXPECT_EQ(pq.q, separate_q(a, x)) << "a=" << a << " x=" << x;
      EXPECT_EQ(pq.p, regularized_gamma_p(a, x)) << "a=" << a << " x=" << x;
      EXPECT_EQ(pq.q, regularized_gamma_q(a, x)) << "a=" << a << " x=" << x;
      if (x > 0.0) ++(x < a + 1.0 ? series : fraction);
    }
  }
  EXPECT_GT(series, 20u);
  EXPECT_GT(fraction, 20u);
  EXPECT_THROW(regularized_gamma_pq(0.0, 1.0), util::ContractViolation);
  EXPECT_THROW(regularized_gamma_pq(1.0, -1.0), util::ContractViolation);
}

TEST(RegularizedGamma, MonotoneInX) {
  double previous = -1.0;
  for (double x = 0.0; x <= 30.0; x += 0.25) {
    const double p = regularized_gamma_p(4.0, x);
    EXPECT_GE(p, previous);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    previous = p;
  }
}

TEST(RegularizedGamma, MedianNearShapeForLargeA) {
  // For large a, the gamma(a,1) median is close to a - 1/3.
  for (const double a : {20.0, 50.0, 100.0}) {
    EXPECT_NEAR(regularized_gamma_p(a, a - 1.0 / 3.0), 0.5, 0.01) << "a=" << a;
  }
}

TEST(RegularizedGamma, Preconditions) {
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), util::ContractViolation);
  EXPECT_THROW(regularized_gamma_p(1.0, -0.1), util::ContractViolation);
  EXPECT_THROW(regularized_gamma_q(-1.0, 1.0), util::ContractViolation);
}

TEST(LogGamma, KnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(0.5), std::log(std::sqrt(std::acos(-1.0))), 1e-12);
}

}  // namespace
}  // namespace locpriv::stats
