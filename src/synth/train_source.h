// Where training minibatches come from (the arrow between Figure 2's
// Sampler and the trainer). GanTrainer::Train is written against this
// interface so the same training loop runs over an in-memory table
// (records pre-transformed once, the historical hot path) or an
// out-of-core paged .dcol table (raw cells faulted per batch under a
// page budget, transformed on the fly). Both yield bitwise-identical
// encoded batches for the same row indices, which is what makes paged
// training byte-identical to in-memory training.
#ifndef DAISY_SYNTH_TRAIN_SOURCE_H_
#define DAISY_SYNTH_TRAIN_SOURCE_H_

#include <vector>

#include "core/matrix.h"
#include "data/columnar.h"
#include "data/table.h"
#include "transform/record_transformer.h"

namespace daisy::synth {

/// Read-only view of the (transformed) training set. Implementations
/// must be deterministic: GatherSamples(rows) is a pure function of the
/// underlying data and `rows`, independent of call history, page
/// budgets or thread counts.
class TrainDataSource {
 public:
  virtual ~TrainDataSource() = default;

  /// Full schema of the underlying table (including the label column).
  virtual const data::Schema& schema() const = 0;
  virtual size_t num_records() const = 0;

  /// Encoded minibatch: row i of the result is the transformed record
  /// rows[i] (d = transformer sample_dim columns).
  virtual Matrix GatherSamples(const std::vector<size_t>& rows) const = 0;

  /// Per-record category indices of the ORIGINAL table column
  /// `source_col` (which must be categorical). The label and TBS
  /// condition sources build their labels and row pools from this —
  /// one call per column at training start, never in the hot loop.
  virtual std::vector<size_t> CategoryColumn(size_t source_col) const = 0;
};

/// The historical path: transforms every record once up front, then
/// serves batches as row gathers of the encoded matrix. Fastest per
/// batch; holds n x sample_dim doubles resident.
class InMemoryTrainSource final : public TrainDataSource {
 public:
  /// `table` and `transformer` must outlive this source.
  InMemoryTrainSource(const data::Table& table,
                      const transform::RecordTransformer* transformer);

  const data::Schema& schema() const override { return table_.schema(); }
  size_t num_records() const override { return table_.num_records(); }
  Matrix GatherSamples(const std::vector<size_t>& rows) const override {
    return real_all_.GatherRows(rows);
  }
  std::vector<size_t> CategoryColumn(size_t source_col) const override;

 private:
  const data::Table& table_;
  Matrix real_all_;            // n x sample_dim, transformed once
};

/// Out-of-core path over a paged .dcol table: each batch gathers raw
/// cells through the table's page cache (never more than its page
/// budget resident) and encodes just those records. EncodeRecord is
/// per-record and deterministic, so the encoded batch is bitwise equal
/// to the in-memory source's gather of the same rows.
class PagedTrainSource final : public TrainDataSource {
 public:
  /// `table` and `transformer` must outlive this source.
  PagedTrainSource(const data::PagedTable* table,
                   const transform::RecordTransformer* transformer);

  const data::Schema& schema() const override { return table_->schema(); }
  size_t num_records() const override { return table_->num_records(); }
  Matrix GatherSamples(const std::vector<size_t>& rows) const override;
  std::vector<size_t> CategoryColumn(size_t source_col) const override;

 private:
  const data::PagedTable* table_;
  const transform::RecordTransformer* transformer_;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_TRAIN_SOURCE_H_
