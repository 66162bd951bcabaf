// The condition vector G and D are fed (Figure 2), behind one seam
// (DESIGN.md §5l). At most one source owns it: none; the label (paper
// §5.3; under kCTrain also label-aware sampling, Algorithm 3);
// training-by-sampling attribute conditions (CTGAN, arXiv:2010.00638);
// or encoded parent rows (the relational layer, Row Conditional-TGAN,
// arXiv:2211.07588). ResolveConditionKind is the only code that decides
// which; a ConditionSource then owns everything that depends on it.
#ifndef DAISY_SYNTH_CONDITION_H_
#define DAISY_SYNTH_CONDITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/serial.h"
#include "core/status.h"
#include "synth/config.h"
#include "synth/train_source.h"
#include "transform/record_transformer.h"

namespace daisy::synth {

enum class ConditionKind { kNone, kLabel, kTbs, kParentRows };

/// The one condition rule: label conditioning (`conditional` or
/// kCTrain), TBS and parent rows are mutually exclusive.
Result<ConditionKind> ResolveConditionKind(const GanOptions& opts,
                                           bool parent_rows);

/// At least one record, and a label under label conditioning.
Status CheckTrainingData(const data::Schema& schema, size_t num_records,
                         ConditionKind kind);

/// Real minibatch rows and each row's condition (empty when dim() == 0).
struct CondBatch {
  std::vector<size_t> rows;
  Matrix cond;
};

/// The trainer's index stream (uniform or chunked-shuffle sampler).
using RowStream = std::function<std::vector<size_t>(size_t m)>;

/// Draws consume the caller's rng in the fixed per-row order of
/// DESIGN.md §5l. The base class is the unconditional source.
class ConditionSource {
 public:
  virtual ~ConditionSource() = default;

  virtual ConditionKind kind() const { return ConditionKind::kNone; }
  /// Cond width; 0 means G and D take no condition.
  virtual size_t dim() const { return 0; }

  // Training: only a source from MakeConditionSource, until EndTraining.
  /// m real rows (from `rows`; TBS draws its own) and their conditions.
  virtual CondBatch DrawReal(size_t m, const RowStream& rows, Rng*) const {
    return {rows(m), Matrix()};
  }
  /// Conditions for the m-row fake batch that accompanies `real`.
  virtual Matrix DrawFakeCond(const CondBatch& /*real*/, size_t /*m*/,
                              Rng*) const {
    return Matrix();
  }
  /// Adds the source's own term of L_G for `fake` generated under
  /// `cond` (TBS: the conditional cross-entropy).
  virtual void AddGeneratorLoss(const Matrix& /*cond*/,
                                const Matrix& /*fake*/, double* /*loss*/,
                                Matrix* /*grad_fake*/) const {}
  /// Algorithm 3 strata (labels, under kCTrain): one D+G update each
  /// per iteration, on m rows of the stratum sharing its condition
  /// (none when the stratum is empty).
  virtual size_t strata() const { return 0; }
  virtual CondBatch DrawStratum(size_t /*s*/, size_t /*m*/, Rng*) const {
    return {};
  }
  /// Frees the training-only state (pools, labels, parent rows).
  virtual void EndTraining() {}

  // Generation.
  /// Fills row i of *cond (n x dim()) and (*labels)[i]; parent rows
  /// draw nothing (the caller supplies them).
  virtual void DrawGenerationRow(size_t /*i*/, Rng*, Matrix* /*cond*/,
                                 std::vector<size_t>* /*labels*/) const {}
  /// Full-schema column DecodeRows fills from the drawn labels (the
  /// label, under label conditioning); SIZE_MAX for none.
  virtual size_t supplied_column() const { return SIZE_MAX; }

  /// Writes the model file's condition slots (label weights, "tbs").
  virtual void Save(Serializer* out) const;
};

/// Builds the training source for `opts` over `data` (plus the parent
/// rows, num_records x width, if any). InvalidArgument when the rule or
/// CheckTrainingData refuses, TBS finds no one-hot categorical
/// attribute, or the parent rows do not match the records.
Result<std::unique_ptr<ConditionSource>> MakeConditionSource(
    const GanOptions& opts, const transform::RecordTransformer& transformer,
    const TrainDataSource& data, const Matrix* parent_rows);

/// Rebuilds a model file's source for generation from its condition
/// slots; weights that do not fit the layout are InvalidArgument.
Result<std::unique_ptr<ConditionSource>> LoadConditionSource(
    Deserializer* in, ConditionKind kind, size_t parent_dim,
    const data::Schema& full,
    const std::vector<transform::AttrSegment>& segments);

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_CONDITION_H_
