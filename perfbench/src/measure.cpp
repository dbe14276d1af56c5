#include "measure.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double exact = pct / 100.0 * static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary summarize(std::vector<double> samples) {
  Summary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  summary.p50 = median(samples);
  std::sort(samples.begin(), samples.end());
  summary.tail = samples.back();
  summary.tail_pct = 100.0;
  for (const double pct : {99.0, 90.0, 75.0, 50.0}) {
    const double exact = pct / 100.0 * static_cast<double>(samples.size());
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    if (samples.size() - rank >= kTailBeyond) {
      summary.tail = nearest_rank(samples, pct);
      summary.tail_pct = pct;
      break;
    }
  }
  return summary;
}

Summary composed_pass(const std::vector<double>& samples, std::size_t cells) {
  Summary pass;
  if (cells == 0 || samples.size() < cells) return pass;
  pass.n = samples.size() / cells;
  std::vector<double> call(pass.n);
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t i = 0; i < pass.n; ++i) call[i] = samples[i * cells + c];
    const Summary one = summarize(call);
    pass.p50 += one.p50;
    pass.tail += one.tail;
    pass.tail_pct = one.tail_pct;
  }
  return pass;
}

double OfferTally::fail_ratio() const {
  const std::uint64_t tried = attempted();
  return tried == 0 ? 0.0
                    : static_cast<double>(failed()) / static_cast<double>(tried);
}

}  // namespace perfbench
