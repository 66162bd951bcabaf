#include "eval/privacy.h"

#include <cmath>
#include <limits>

#include "core/parallel.h"

namespace daisy::eval {

namespace {

// Both metrics read the attribute types of the original table's schema
// for both tables.
std::vector<char> CategoricalFlags(const data::Table& original) {
  std::vector<char> categorical(original.num_attributes());
  for (size_t j = 0; j < categorical.size(); ++j)
    categorical[j] = original.schema().attribute(j).is_categorical();
  return categorical;
}

// The categorical cells of `table`, each rounded once with std::llround
// (half away from zero), row-major over the flagged columns only. The
// scans compare these codes instead of rounding both cells of every
// pair.
std::vector<long long> CategoryCodes(const data::Table& table,
                                     const std::vector<char>& categorical) {
  std::vector<long long> codes;
  for (size_t i = 0; i < table.num_records(); ++i) {
    const double* row = table.cells().row(i);
    for (size_t j = 0; j < categorical.size(); ++j)
      if (categorical[j]) codes.push_back(std::llround(row[j]));
  }
  return codes;
}

Status ValidateTables(const data::Table& original,
                      const data::Table& synthetic) {
  if (original.num_records() == 0 || synthetic.num_records() == 0)
    return Status::InvalidArgument(
        "privacy metrics require non-empty original and synthetic tables");
  if (original.num_attributes() != synthetic.num_attributes())
    return Status::InvalidArgument(
        "privacy metrics require tables of the same width");
  return Status::OK();
}

// Per-probe-row scans are heavy (O(n x m) each); a small grain keeps
// the partial buffers short while still amortizing dispatch.
constexpr size_t kSampleGrain = 8;

}  // namespace

Result<double> HittingRate(const data::Table& original,
                           const data::Table& synthetic,
                           const HittingRateOptions& opts, Rng* rng) {
  if (opts.num_synthetic_samples == 0)
    return Status::InvalidArgument(
        "HittingRateOptions::num_synthetic_samples must be > 0");
  if (!(opts.range_divisor > 0.0))
    return Status::InvalidArgument(
        "HittingRateOptions::range_divisor must be > 0");
  DAISY_RETURN_IF_ERROR(ValidateTables(original, synthetic));
  const size_t m = original.num_attributes();

  // Per-attribute numeric thresholds from the original table.
  const std::vector<char> categorical = CategoricalFlags(original);
  std::vector<double> thresholds(m, 0.0);
  for (size_t j = 0; j < m; ++j) {
    if (!categorical[j]) {
      thresholds[j] = (original.AttributeMax(j) - original.AttributeMin(j)) /
                      opts.range_divisor;
    }
  }
  const std::vector<long long> orig_codes =
      CategoryCodes(original, categorical);
  const std::vector<long long> synth_codes =
      CategoryCodes(synthetic, categorical);
  const size_t mc = orig_codes.size() / original.num_records();

  const size_t samples =
      std::min(opts.num_synthetic_samples, synthetic.num_records());
  // Draw every probe row serially first: the rng stream is consumed in
  // sample order regardless of the thread count, and the scans below
  // only read shared state.
  std::vector<size_t> probe_rows(samples);
  for (auto& r : probe_rows) r = rng->UniformInt(synthetic.num_records());

  std::vector<size_t> chunk_hits(par::NumChunks(0, samples, kSampleGrain), 0);
  par::ParallelForIndexed(
      0, samples, kSampleGrain, [&](size_t chunk, size_t b, size_t e) {
        size_t h = 0;
        for (size_t s = b; s < e; ++s) {
          const size_t row = probe_rows[s];
          const double* sv = synthetic.cells().row(row);
          const long long* sc = synth_codes.data() + row * mc;
          bool hit = false;
          for (size_t i = 0; i < original.num_records() && !hit; ++i) {
            const double* ov = original.cells().row(i);
            const long long* oc = orig_codes.data() + i * mc;
            bool similar = true;
            for (size_t j = 0, c = 0; j < m && similar; ++j) {
              if (categorical[j]) {
                similar = sc[c] == oc[c];
                ++c;
              } else {
                similar = std::fabs(sv[j] - ov[j]) <= thresholds[j];
              }
            }
            hit = similar;
          }
          if (hit) ++h;
        }
        chunk_hits[chunk] = h;
      });
  size_t hits = 0;
  for (size_t h : chunk_hits) hits += h;
  return static_cast<double>(hits) / static_cast<double>(samples);
}

Result<double> DistanceToClosestRecord(const data::Table& original,
                                       const data::Table& synthetic,
                                       const DcrOptions& opts, Rng* rng) {
  if (opts.num_original_samples == 0)
    return Status::InvalidArgument(
        "DcrOptions::num_original_samples must be > 0");
  DAISY_RETURN_IF_ERROR(ValidateTables(original, synthetic));
  const size_t m = original.num_attributes();

  // Min-max scale of each numeric attribute of the original table.
  const std::vector<char> categorical = CategoricalFlags(original);
  std::vector<double> inv_range(m, 1.0);
  for (size_t j = 0; j < m; ++j) {
    if (!categorical[j]) {
      const double lo = original.AttributeMin(j);
      const double hi = original.AttributeMax(j);
      inv_range[j] = hi > lo ? 1.0 / (hi - lo) : 1.0;
    }
  }
  const std::vector<long long> orig_codes =
      CategoryCodes(original, categorical);
  const std::vector<long long> synth_codes =
      CategoryCodes(synthetic, categorical);
  const size_t mc = orig_codes.size() / original.num_records();

  const size_t samples =
      std::min(opts.num_original_samples, original.num_records());
  std::vector<size_t> probe_rows(samples);
  for (auto& r : probe_rows) r = rng->UniformInt(original.num_records());

  // Per-chunk partial sums, reduced in ascending chunk order below:
  // the partition is a pure function of (samples, grain), so the
  // floating-point accumulation order never depends on DAISY_THREADS.
  std::vector<double> chunk_totals(par::NumChunks(0, samples, kSampleGrain),
                                   0.0);
  par::ParallelForIndexed(
      0, samples, kSampleGrain, [&](size_t chunk, size_t b, size_t e) {
        double total = 0.0;
        for (size_t s = b; s < e; ++s) {
          const size_t row = probe_rows[s];
          const double* ov = original.cells().row(row);
          const long long* oc = orig_codes.data() + row * mc;
          double best = std::numeric_limits<double>::infinity();
          for (size_t i = 0; i < synthetic.num_records(); ++i) {
            const double* sv = synthetic.cells().row(i);
            const long long* sc = synth_codes.data() + i * mc;
            double d2 = 0.0;
            for (size_t j = 0, c = 0; j < m && d2 < best; ++j) {
              double diff;
              if (categorical[j]) {
                diff = oc[c] == sc[c] ? 0.0 : 1.0;
                ++c;
              } else {
                diff = (ov[j] - sv[j]) * inv_range[j];
              }
              d2 += diff * diff;
            }
            best = std::min(best, d2);
          }
          total += std::sqrt(best);
        }
        chunk_totals[chunk] = total;
      });
  double total = 0.0;
  for (double t : chunk_totals) total += t;
  return total / static_cast<double>(samples);
}

}  // namespace daisy::eval
