// Phase I / Phase III of the paper's framework (Section 4): reversible
// transformation between records with mixed attribute types and the
// numeric samples fed to GAN/VAE models.
//
//   categorical  -> ordinal encoding          (1 value)
//                 | one-hot encoding          (domain-size values)
//   numerical    -> simple normalization      (1 value in [-1, 1])
//                 | GMM-based normalization   (1 + components values)
//
// Samples are assembled in vector form (concatenation; MLP/LSTM) or
// matrix form (square zero-padded matrix; CNN — which restricts the
// per-attribute schemes to the 1-value ones, as the paper notes).
#ifndef DAISY_TRANSFORM_RECORD_TRANSFORMER_H_
#define DAISY_TRANSFORM_RECORD_TRANSFORMER_H_

#include <functional>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "data/table.h"
#include "stats/gmm.h"

namespace daisy::data {
class PagedTable;
}

namespace daisy::transform {

enum class CategoricalEncoding { kOrdinal, kOneHot };
enum class NumericalNormalization { kSimple, kGmm };
enum class SampleForm { kVector, kMatrix };

struct TransformOptions {
  CategoricalEncoding categorical = CategoricalEncoding::kOneHot;
  NumericalNormalization numerical = NumericalNormalization::kGmm;
  SampleForm form = SampleForm::kVector;
  /// Mixture size for GMM-based normalization.
  size_t gmm_components = 5;
  /// Drop the label attribute from the sample (conditional GAN feeds it
  /// separately as a condition vector).
  bool exclude_label = false;
};

/// How one attribute maps into the sample; drives both decoding and the
/// attribute-aware generator output heads (paper cases C1-C4).
struct AttrSegment {
  enum class Kind {
    kSimpleNumeric,  // 1 value, tanh head
    kGmmNumeric,     // 1 value (tanh) + components one-hot (softmax)
    kOneHotCat,      // domain-size one-hot (softmax)
    kOrdinalCat,     // 1 value, sigmoid head mapped over the domain
  };

  Kind kind;
  size_t attr_index;  // column in the (sub-)schema being transformed
  size_t source_col;  // column in the original (full) table
  size_t offset;      // first sample dimension of this segment
  size_t width;       // number of sample dimensions

  // kSimpleNumeric / kOrdinalCat range parameters.
  double v_min = 0.0, v_max = 1.0;  // original value range (numeric)
  double lo = -1.0, hi = 1.0;       // encoded target range
  size_t domain = 0;                // categorical domain size

  stats::Gmm1d gmm;  // kGmmNumeric only
};

/// One column of a paged table as a streaming value source (what
/// RecordTransformer::FitStreaming fits each GMM from). Reads load
/// whole pages and keep the last one, so a scan in windows smaller
/// than a page reads and checksums each page once; the rare point
/// lookups (k-means++ reseeds) fault through the table's page cache.
/// A page that reads short or fails its CRC comes back as the
/// PagedTable's Status. One source per thread.
class PagedColumnSource final : public stats::ValueSource {
 public:
  PagedColumnSource(const data::PagedTable& table, size_t col)
      : table_(table), col_(col) {}
  size_t size() const override;
  Result<double> At(size_t i) const override;
  Status Read(size_t begin, size_t end, double* out) const override;

 private:
  const data::PagedTable& table_;
  size_t col_;
  mutable std::vector<double> page_;  // row group page_group_ of col_
  mutable size_t page_group_ = static_cast<size_t>(-1);
};

/// Fits per-attribute statistics on a table, then maps records to
/// samples and back. Thread-compatible after Fit.
class RecordTransformer {
 public:
  /// Learns min/max (simple) or a GMM (gmm) per numerical attribute.
  /// With matrix form, `options.categorical` / `options.numerical` are
  /// forced to ordinal / simple (the only compatible schemes).
  static RecordTransformer Fit(const data::Table& table,
                               const TransformOptions& options, Rng* rng);

  /// Out-of-core Fit over a paged table: simple-normalization ranges
  /// come from the .dcol footer (written with Table::AttributeMin/Max
  /// accumulation order) and GMM stats from Gmm1d::FitStreaming, which
  /// scans each numeric column in bounded windows and caches per-row EM
  /// state only while it fits in one page budget. Consumes the rng in
  /// the same order as Fit, so the fitted state is bitwise identical
  /// to Fit on the equivalent in-memory table. A page read error ends
  /// the fit: it lands in *read_error and the returned transformer must
  /// not be used (without `read_error` the error is fatal).
  static RecordTransformer FitStreaming(const data::PagedTable& table,
                                        const TransformOptions& options,
                                        Rng* rng,
                                        Status* read_error = nullptr);

  /// Reconstructs a fitted transformer from persisted state. The
  /// segments must be internally consistent (offsets/widths); the
  /// derived dimensions are recomputed.
  static RecordTransformer FromState(const TransformOptions& options,
                                     const data::Schema& schema,
                                     std::vector<AttrSegment> segments);

  /// Dimensionality d of a transformed sample.
  size_t sample_dim() const { return sample_dim_; }
  /// Side length for matrix-formed samples (0 for vector form).
  size_t matrix_side() const { return matrix_side_; }
  const TransformOptions& options() const { return options_; }
  /// The schema actually transformed (label removed when excluded).
  const data::Schema& schema() const { return schema_; }
  const std::vector<AttrSegment>& segments() const { return segments_; }

  /// Encodes every record into a row of the returned n x d matrix.
  Matrix Transform(const data::Table& table) const;

  /// Decodes samples back into records under schema(). Values are
  /// clamped into valid ranges; categorical blocks decode via argmax.
  data::Table InverseTransform(const Matrix& samples) const;

 private:
  TransformOptions options_;
  data::Schema schema_;
  std::vector<AttrSegment> segments_;
  size_t sample_dim_ = 0;
  size_t matrix_side_ = 0;

  /// Shared fitting body: Fit / FitStreaming differ only in where the
  /// per-column statistics come from.
  struct ColumnStats {
    std::function<Result<stats::Gmm1d>(size_t col,
                                       const stats::Gmm1d::Options&, Rng*)>
        fit_gmm;
    std::function<double(size_t col)> attr_min;
    std::function<double(size_t col)> attr_max;
  };
  static Result<RecordTransformer> FitImpl(const data::Schema& full,
                                           const TransformOptions& options,
                                           Rng* rng,
                                           const ColumnStats& stats);

  void EncodeRecord(const data::Table& table, size_t record,
                    double* out) const;
};

}  // namespace daisy::transform

#endif  // DAISY_TRANSFORM_RECORD_TRANSFORMER_H_
