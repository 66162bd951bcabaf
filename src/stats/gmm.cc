#include "stats/gmm.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numbers>

#include "core/parallel.h"
#include "core/status.h"

namespace daisy::stats {

namespace {

// log N(v; mean, stddev) from a precomputed log(stddev), in the
// operation order -0.5*z*z - log(stddev) - 0.5*log(2*pi).
double LogNormalPdf(double v, double mean, double stddev, double log_sd) {
  const double z = (v - mean) / stddev;
  return -0.5 * z * z - log_sd - 0.5 * std::log(2.0 * std::numbers::pi);
}

// The floor keeps a zero weight's log finite.
double LogWeight(double w) { return std::log(std::max(w, 1e-300)); }

// log(sum_j exp(logp(j))) over j < k, shifted by the max.
template <typename LogP>
double LogSumExp(size_t k, const LogP& logp) {
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < k; ++j) mx = std::max(mx, logp(j));
  if (!std::isfinite(mx)) return mx;
  double s = 0.0;
  for (size_t j = 0; j < k; ++j) s += std::exp(logp(j) - mx);
  return mx + std::log(s);
}

}  // namespace

Gmm1d Gmm1d::Fit(const std::vector<double>& values, const Options& opts,
                 Rng* rng) {
  auto fit = FitStreaming(VectorSource(values), opts, rng);
  DAISY_CHECK(fit.ok());  // a vector always reads
  return fit.take();
}

Result<Gmm1d> Gmm1d::FitStreaming(const ValueSource& values,
                                  const Options& opts, Rng* rng,
                                  size_t cache_rows) {
  const size_t n = values.size();
  DAISY_CHECK(n > 0);
  const size_t k = std::max<size_t>(1, std::min(opts.components, n));

  Gmm1d gmm;
  gmm.means_.resize(k);
  gmm.stddevs_.assign(k, 0.0);
  gmm.weights_.assign(k, 1.0 / static_cast<double>(k));

  // Windowed scans: window boundaries are multiples of kRowGrain, so
  // the per-window ParallelForIndexed calls below partition rows into
  // the same chunks a whole-range call would, whatever the window, and
  // the chunk-indexed partials reduce in one fixed order. The grain
  // amortizes dispatch over the per-row work of k components.
  constexpr size_t kRowGrain = 256;
  constexpr size_t kWindowRows = 64 * kRowGrain;
  std::vector<double> window(std::min(n, kWindowRows));
  const auto for_each_window =
      [&](const std::function<void(size_t, size_t, const double*)>& fn) {
        for (size_t b = 0; b < n; b += kWindowRows) {
          const size_t e = std::min(n, b + kWindowRows);
          DAISY_RETURN_IF_ERROR(values.Read(b, e, window.data()));
          fn(b, e, window.data());
        }
        return Status::OK();
      };
  const auto set_mean = [&](size_t j, size_t i) {
    auto v = values.At(i);
    if (v.ok()) gmm.means_[j] = v.value();
    return v.status();
  };

  // k-means++ seeding: one UniformInt for the first mean, then per
  // extra component the draw Rng::Categorical would make over the min
  // squared distances. Categorical sums the weights in ascending order,
  // draws Uniform()*total and subtract-scans — and consumes no Uniform
  // at all when total <= 0 — so it is re-enacted here as two streaming
  // scans.
  DAISY_RETURN_IF_ERROR(set_mean(0, rng->UniformInt(n)));
  for (size_t c = 1; c < k; ++c) {
    const auto min_d2 = [&](double v) {
      double best = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < c; ++j) {
        const double d = v - gmm.means_[j];
        best = std::min(best, d * d);
      }
      return best;
    };
    double total = 0.0;
    DAISY_RETURN_IF_ERROR(
        for_each_window([&](size_t b, size_t e, const double* vals) {
          for (size_t i = b; i < e; ++i) total += min_d2(vals[i - b]);
        }));
    size_t pick = n - 1;
    if (total > 0.0) {
      double x = rng->Uniform() * total;
      bool found = false;
      for (size_t b = 0; b < n && !found; b += kWindowRows) {
        const size_t e = std::min(n, b + kWindowRows);
        DAISY_RETURN_IF_ERROR(values.Read(b, e, window.data()));
        for (size_t i = b; i < e; ++i) {
          x -= min_d2(window[i - b]);
          if (x < 0.0) {
            pick = i;
            found = true;
            break;
          }
        }
      }
    }
    DAISY_RETURN_IF_ERROR(set_mean(c, pick));
  }

  // Global mean then variance, each a serial ascending scan.
  double global_var = 0.0, global_mean = 0.0;
  DAISY_RETURN_IF_ERROR(
      for_each_window([&](size_t b, size_t e, const double* vals) {
        for (size_t i = b; i < e; ++i) global_mean += vals[i - b];
      }));
  global_mean /= static_cast<double>(n);
  DAISY_RETURN_IF_ERROR(
      for_each_window([&](size_t b, size_t e, const double* vals) {
        for (size_t i = b; i < e; ++i)
          global_var +=
              (vals[i - b] - global_mean) * (vals[i - b] - global_mean);
      }));
  global_var /= static_cast<double>(n);
  const double init_sd =
      std::max(opts.min_stddev, std::sqrt(global_var / static_cast<double>(k)));
  for (auto& s : gmm.stddevs_) s = init_sd;

  const size_t num_chunks = (n + kRowGrain - 1) / kRowGrain;
  std::vector<double> ll_part(num_chunks);
  std::vector<std::vector<double>> nj_part(num_chunks);
  std::vector<std::vector<double>> mu_part(num_chunks);
  std::vector<std::vector<double>> var_part(num_chunks);
  // Each row's log-sum-exp from scan 1, for scan 2; empty above the cap.
  std::vector<double> row_lse(n <= cache_rows ? n : 0);
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (size_t iter = 0; iter < opts.max_iters; ++iter) {
    // Both scans use these E-step parameters: the M step writes the
    // new ones only after scan 2.
    gmm.CacheLogTerms();

    // Scan 1: E step fused with the (nj, sum resp*v) partials; the
    // responsibilities are never stored.
    DAISY_RETURN_IF_ERROR(for_each_window([&](size_t wb, size_t we,
                                              const double* vals) {
      par::ParallelForIndexed(wb, we, kRowGrain,
                              [&](size_t c, size_t b, size_t e) {
        const size_t chunk = wb / kRowGrain + c;
        std::vector<double> logp(k);
        const auto at = [&](size_t j) { return logp[j]; };
        double lsum = 0.0;
        nj_part[chunk].assign(k, 0.0);
        mu_part[chunk].assign(k, 0.0);
        for (size_t i = b; i < e; ++i) {
          const double v = vals[i - wb];
          for (size_t j = 0; j < k; ++j) logp[j] = gmm.LogJoint(j, v);
          const double lse = LogSumExp(k, at);
          if (!row_lse.empty()) row_lse[i] = lse;
          lsum += lse;
          for (size_t j = 0; j < k; ++j) {
            const double r = std::exp(logp[j] - lse);
            nj_part[chunk][j] += r;
            mu_part[chunk][j] += r * v;
          }
        }
        ll_part[chunk] = lsum;
      });
    }));
    double ll = 0.0;
    for (size_t c = 0; c < num_chunks; ++c) ll += ll_part[c];
    std::vector<double> nj(k, 0.0);
    std::vector<double> mu(k, 0.0);
    for (size_t c = 0; c < num_chunks; ++c)
      for (size_t j = 0; j < k; ++j) {
        nj[j] += nj_part[c][j];
        mu[j] += mu_part[c][j];
      }
    const auto dead = [&](size_t j) { return nj[j] < 1e-10; };
    for (size_t j = 0; j < k; ++j)
      if (!dead(j)) mu[j] /= nj[j];

    // Scan 2: variance partials around the new means.
    DAISY_RETURN_IF_ERROR(for_each_window([&](size_t wb, size_t we,
                                              const double* vals) {
      par::ParallelForIndexed(wb, we, kRowGrain,
                              [&](size_t c, size_t b, size_t e) {
        const size_t chunk = wb / kRowGrain + c;
        std::vector<double> logp(k);
        const auto at = [&](size_t j) { return logp[j]; };
        var_part[chunk].assign(k, 0.0);
        for (size_t i = b; i < e; ++i) {
          const double v = vals[i - wb];
          for (size_t j = 0; j < k; ++j) logp[j] = gmm.LogJoint(j, v);
          const double lse = row_lse.empty() ? LogSumExp(k, at) : row_lse[i];
          for (size_t j = 0; j < k; ++j) {
            const double d = v - mu[j];
            var_part[chunk][j] += std::exp(logp[j] - lse) * d * d;
          }
        }
      });
    }));

    // M step in ascending j, so dead-component reseeds consume the rng
    // in a fixed order.
    for (size_t j = 0; j < k; ++j) {
      if (dead(j)) {
        DAISY_RETURN_IF_ERROR(set_mean(j, rng->UniformInt(n)));
        gmm.stddevs_[j] = init_sd;
        gmm.weights_[j] = 1.0 / static_cast<double>(n);
        continue;
      }
      double var = 0.0;
      for (size_t c = 0; c < num_chunks; ++c) var += var_part[c][j];
      var /= nj[j];
      gmm.means_[j] = mu[j];
      gmm.stddevs_[j] = std::max(opts.min_stddev, std::sqrt(var));
      gmm.weights_[j] = nj[j] / static_cast<double>(n);
    }
    // Renormalize: a reseed assigns 1/n without taking that mass from
    // anyone, so the weights only sum to 1 up to reseeds.
    // Responsibilities, LogLikelihood and Sample all assume a proper
    // mixture.
    double wsum = 0.0;
    for (double w : gmm.weights_) wsum += w;
    if (wsum > 0.0)
      for (auto& w : gmm.weights_) w /= wsum;
    if (std::fabs(ll - prev_ll) < opts.tol * static_cast<double>(n)) break;
    prev_ll = ll;
  }
  gmm.CacheLogTerms();
  return gmm;
}

Gmm1d Gmm1d::FromParams(std::vector<double> means,
                        std::vector<double> stddevs,
                        std::vector<double> weights) {
  DAISY_CHECK(!means.empty());
  DAISY_CHECK(means.size() == stddevs.size() &&
              means.size() == weights.size());
  for (double s : stddevs) DAISY_CHECK(s > 0.0);
  Gmm1d gmm;
  gmm.means_ = std::move(means);
  gmm.stddevs_ = std::move(stddevs);
  gmm.weights_ = std::move(weights);
  gmm.CacheLogTerms();
  return gmm;
}

void Gmm1d::CacheLogTerms() {
  log_weights_.resize(weights_.size());
  log_stddevs_.resize(stddevs_.size());
  for (size_t j = 0; j < weights_.size(); ++j) {
    log_weights_[j] = LogWeight(weights_[j]);
    log_stddevs_[j] = std::log(stddevs_[j]);
  }
}

double Gmm1d::LogJoint(size_t j, double v) const {
  return log_weights_[j] +
         LogNormalPdf(v, means_[j], stddevs_[j], log_stddevs_[j]);
}

std::vector<double> Gmm1d::Responsibilities(double v) const {
  const double lse = LogLikelihood(v);
  std::vector<double> out(means_.size());
  for (size_t j = 0; j < means_.size(); ++j)
    out[j] = std::exp(LogJoint(j, v) - lse);
  return out;
}

size_t Gmm1d::MostLikelyComponent(double v) const {
  // The exps stay: two components whose log terms differ can still
  // round to equal responsibilities, and the first of them must win.
  if (means_.empty()) return 0;
  const double lse = LogLikelihood(v);
  size_t best = 0;
  double best_r = std::exp(LogJoint(0, v) - lse);
  for (size_t j = 1; j < means_.size(); ++j) {
    const double r = std::exp(LogJoint(j, v) - lse);
    if (best_r < r) {
      best = j;
      best_r = r;
    }
  }
  return best;
}

double Gmm1d::LogLikelihood(double v) const {
  return LogSumExp(means_.size(), [&](size_t j) { return LogJoint(j, v); });
}

double Gmm1d::Sample(Rng* rng) const {
  const size_t j = rng->Categorical(weights_);
  return rng->Gaussian(means_[j], stddevs_[j]);
}

}  // namespace daisy::stats
