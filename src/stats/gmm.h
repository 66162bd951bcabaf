// One-dimensional Gaussian Mixture Model fitted with EM — the engine
// behind mode-specific ("GMM-based") normalization in paper Section 4.
#ifndef DAISY_STATS_GMM_H_
#define DAISY_STATS_GMM_H_

#include <limits>
#include <vector>

#include "core/rng.h"
#include "core/status.h"

namespace daisy::stats {

/// Read-only access to a sequence of doubles that may live out of
/// core (e.g. one column of a paged table). `Read` is the streaming
/// primitive; `At` serves point lookups (k-means++ reseeds). A source
/// that cannot read its values says why through the Status.
class ValueSource {
 public:
  virtual ~ValueSource() = default;
  virtual size_t size() const = 0;
  virtual Result<double> At(size_t i) const = 0;
  /// Fills out[0 .. end-begin) with values [begin, end).
  virtual Status Read(size_t begin, size_t end, double* out) const = 0;
};

/// In-memory adapter over a vector (what Fit streams from).
class VectorSource final : public ValueSource {
 public:
  explicit VectorSource(const std::vector<double>& values)
      : values_(values) {}
  size_t size() const override { return values_.size(); }
  Result<double> At(size_t i) const override { return values_[i]; }
  Status Read(size_t begin, size_t end, double* out) const override {
    for (size_t i = begin; i < end; ++i) out[i - begin] = values_[i];
    return Status::OK();
  }

 private:
  const std::vector<double>& values_;
};

/// A fitted 1-D mixture of `s` Gaussians.
class Gmm1d {
 public:
  struct Options {
    size_t components = 5;
    size_t max_iters = 100;
    double tol = 1e-6;        // stop when log-likelihood improves less
    double min_stddev = 1e-3; // variance floor to avoid collapse
  };

  Gmm1d() = default;

  /// Fits by EM with k-means++-style initialization of the means: the
  /// in-memory entry to FitStreaming, with no cap on its row cache.
  static Gmm1d Fit(const std::vector<double>& values, const Options& opts,
                   Rng* rng);

  /// The one EM body. Streams `values` in fixed windows instead of
  /// requiring them in memory, with EM work fanned out over fixed
  /// kRowGrain-row chunks whose partials reduce in ascending order, so
  /// the fitted parameters do not depend on DAISY_THREADS. Each EM
  /// iteration makes two scans: the E step with the means and weights,
  /// then the variances around the new means. While n <= `cache_rows`,
  /// the first scan keeps each row's log-sum-exp (n doubles) for the
  /// second to reuse; above it, the second scan recomputes it. The
  /// first read error of `values` ends the fit and is returned.
  static Result<Gmm1d> FitStreaming(
      const ValueSource& values, const Options& opts, Rng* rng,
      size_t cache_rows = std::numeric_limits<size_t>::max());

  /// Reconstructs a fitted model from its parameters (persistence).
  static Gmm1d FromParams(std::vector<double> means,
                          std::vector<double> stddevs,
                          std::vector<double> weights);

  size_t num_components() const { return means_.size(); }
  double mean(size_t i) const { return means_[i]; }
  double stddev(size_t i) const { return stddevs_[i]; }
  double weight(size_t i) const { return weights_[i]; }

  /// Posterior responsibilities p(component | v), normalized.
  std::vector<double> Responsibilities(double v) const;

  /// Index of the most likely component for v (argmax responsibility).
  size_t MostLikelyComponent(double v) const;

  /// Log-likelihood of a value under the mixture.
  double LogLikelihood(double v) const;

  /// Draws one value from the mixture.
  double Sample(Rng* rng) const;

 private:
  /// log(weight_j) + log N(v; mean_j, stddev_j).
  double LogJoint(size_t j, double v) const;
  /// Fills log_weights_ / log_stddevs_ from the parameters.
  void CacheLogTerms();

  std::vector<double> means_;
  std::vector<double> stddevs_;
  std::vector<double> weights_;
  std::vector<double> log_weights_;
  std::vector<double> log_stddevs_;
};

}  // namespace daisy::stats

#endif  // DAISY_STATS_GMM_H_
