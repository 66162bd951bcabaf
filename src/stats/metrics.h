// Information-theoretic and descriptive metrics shared across the
// library: NMI for clustering quality, discrete KL divergence for the
// VTrain warm-up term and distribution-fidelity reporting, histograms,
// and Pearson correlation.
#ifndef DAISY_STATS_METRICS_H_
#define DAISY_STATS_METRICS_H_

#include <cstddef>
#include <vector>

namespace daisy::stats {

/// Normalized mutual information between two labelings of the same n
/// items (values may be arbitrary small non-negative integers).
/// Returns a value in [0, 1]; 1 means identical partitions.
double NormalizedMutualInformation(const std::vector<size_t>& a,
                                   const std::vector<size_t>& b);

/// KL(p || q) over discrete distributions given as unnormalized counts.
/// q is smoothed with `smoothing` mass per bin so the result is finite.
double KlDivergence(const std::vector<double>& p_counts,
                    const std::vector<double>& q_counts,
                    double smoothing = 1e-6);

/// Equi-width histogram of `values` over [lo, hi] with `bins` buckets.
/// Values outside the range are clamped into the terminal buckets.
std::vector<double> Histogram(const std::vector<double>& values, double lo,
                              double hi, size_t bins);

/// Like Histogram, but with explicit outlier buckets: returns bins + 2
/// counts where [0] holds values strictly below lo, [bins + 1] values
/// strictly above hi, and [1 .. bins] the in-range equi-width buckets.
/// Divergence metrics use this so out-of-support mass is penalized
/// instead of being silently clamped into the edge bins.
std::vector<double> HistogramWithOutliers(const std::vector<double>& values,
                                          double lo, double hi, size_t bins);

/// Pearson correlation coefficient of two equal-length series.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace daisy::stats

#endif  // DAISY_STATS_METRICS_H_
