#include "stats/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/status.h"

namespace daisy::stats {

double NormalizedMutualInformation(const std::vector<size_t>& a,
                                   const std::vector<size_t>& b) {
  DAISY_CHECK(a.size() == b.size());
  DAISY_CHECK(!a.empty());
  const double n = static_cast<double>(a.size());

  std::unordered_map<size_t, double> ca, cb;
  std::unordered_map<uint64_t, double> cab;
  for (size_t i = 0; i < a.size(); ++i) {
    ca[a[i]] += 1.0;
    cb[b[i]] += 1.0;
    cab[(static_cast<uint64_t>(a[i]) << 32) | b[i]] += 1.0;
  }

  auto entropy = [n](const std::unordered_map<size_t, double>& counts) {
    double h = 0.0;
    for (const auto& [_, c] : counts) {
      const double p = c / n;
      h -= p * std::log(p);
    }
    return h;
  };
  const double ha = entropy(ca);
  const double hb = entropy(cb);

  double mi = 0.0;
  for (const auto& [key, c] : cab) {
    const size_t ia = key >> 32, ib = key & 0xFFFFFFFFULL;
    const double pab = c / n;
    const double pa = ca[ia] / n;
    const double pb = cb[ib] / n;
    mi += pab * std::log(pab / (pa * pb));
  }

  const double denom = std::sqrt(ha * hb);
  if (denom < 1e-12) return ha < 1e-12 && hb < 1e-12 ? 1.0 : 0.0;
  return std::clamp(mi / denom, 0.0, 1.0);
}

double KlDivergence(const std::vector<double>& p_counts,
                    const std::vector<double>& q_counts, double smoothing) {
  DAISY_CHECK(p_counts.size() == q_counts.size());
  DAISY_CHECK(!p_counts.empty());
  double ps = 0.0, qs = 0.0;
  for (size_t i = 0; i < p_counts.size(); ++i) {
    DAISY_CHECK(p_counts[i] >= 0.0 && q_counts[i] >= 0.0);
    ps += p_counts[i] + smoothing;
    qs += q_counts[i] + smoothing;
  }
  double kl = 0.0;
  for (size_t i = 0; i < p_counts.size(); ++i) {
    const double p = (p_counts[i] + smoothing) / ps;
    const double q = (q_counts[i] + smoothing) / qs;
    if (p > 0.0) kl += p * std::log(p / q);
  }
  return std::max(kl, 0.0);
}

std::vector<double> Histogram(const std::vector<double>& values, double lo,
                              double hi, size_t bins) {
  DAISY_CHECK(bins > 0);
  DAISY_CHECK(hi >= lo);
  std::vector<double> h(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : values) {
    size_t idx;
    if (width <= 0.0 || v <= lo) {
      idx = 0;
    } else if (v >= hi) {
      idx = bins - 1;
    } else {
      idx = static_cast<size_t>((v - lo) / width);
      idx = std::min(idx, bins - 1);
    }
    h[idx] += 1.0;
  }
  return h;
}

std::vector<double> HistogramWithOutliers(const std::vector<double>& values,
                                          double lo, double hi, size_t bins) {
  DAISY_CHECK(bins > 0);
  DAISY_CHECK(hi >= lo);
  std::vector<double> h(bins + 2, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : values) {
    size_t idx;
    if (v < lo) {
      idx = 0;  // underflow
    } else if (v > hi) {
      idx = bins + 1;  // overflow
    } else if (width <= 0.0 || v <= lo) {
      idx = 1;
    } else if (v >= hi) {
      idx = bins;
    } else {
      idx = 1 + static_cast<size_t>((v - lo) / width);
      idx = std::min(idx, bins);
    }
    h[idx] += 1.0;
  }
  return h;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  DAISY_CHECK(x.size() == y.size());
  DAISY_CHECK(x.size() >= 2);
  const double n = static_cast<double>(x.size());
  double mx = 0, my = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  const double denom = std::sqrt(sxx * syy);
  if (denom < 1e-12) return 0.0;
  return sxy / denom;
}

}  // namespace daisy::stats
