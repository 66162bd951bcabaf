// Minibatch samplers over the training table (Figure 2's Sampler).
#ifndef DAISY_SYNTH_SAMPLER_H_
#define DAISY_SYNTH_SAMPLER_H_

#include <vector>

#include "core/rng.h"
#include "data/table.h"

namespace daisy::synth {

/// Uniform sampling with replacement — the default GAN minibatch.
class RandomSampler {
 public:
  explicit RandomSampler(size_t num_records) : n_(num_records) {
    DAISY_CHECK(n_ > 0);
  }

  std::vector<size_t> SampleBatch(size_t m, Rng* rng) const {
    std::vector<size_t> out(m);
    for (auto& idx : out) idx = rng->UniformInt(n_);
    return out;
  }

 private:
  size_t n_;
};

/// Epoch-style sampler tuned for out-of-core training: visits the
/// table as shuffled fixed-size chunks of consecutive records,
/// shuffling within each chunk, so one epoch touches every record
/// exactly once while any minibatch spans at most a couple of chunks —
/// O(1) resident pages under a paged table instead of random faults
/// across the whole file.
///
/// Determinism contract: the index stream is a pure function of
/// (num_records, chunk_rows, seed) and the number of indices drawn so
/// far — independent of batch boundaries, page budgets and thread
/// counts. The sampler owns its rng streams (per-epoch chunk order and
/// per-chunk permutations are derived from `seed`), consuming nothing
/// from the training rng, and AdvanceRows fast-forwards to any stream
/// position without materializing skipped permutations — how a resumed
/// run re-aligns the sampler with its checkpoint.
class ChunkedShuffleSampler {
 public:
  ChunkedShuffleSampler(size_t num_records, size_t chunk_rows,
                        uint64_t seed);

  /// m record indices, continuing the stream (batches freely cross
  /// chunk and epoch boundaries).
  std::vector<size_t> SampleBatch(size_t m);

  /// Skips `rows` indices, as if they had been drawn and discarded.
  void AdvanceRows(uint64_t rows);

  size_t num_chunks() const { return num_chunks_; }
  size_t epoch() const { return epoch_; }

 private:
  void StartEpoch();
  void AdvanceChunk();
  size_t ChunkSize(size_t chunk) const;
  size_t NextIndex();

  size_t n_;
  size_t chunk_rows_;
  size_t num_chunks_;
  uint64_t seed_;

  size_t epoch_ = 0;
  std::vector<size_t> chunk_order_;   // visit order of chunks this epoch
  std::vector<uint64_t> chunk_seeds_; // per visit-position shuffle seed
  size_t visit_pos_ = 0;              // position in chunk_order_
  std::vector<size_t> within_;        // lazily materialized permutation
  size_t pos_within_ = 0;             // indices consumed in this chunk
  size_t drawn_in_epoch_ = 0;         // indices consumed this epoch
};

/// Label-aware sampling (paper §5.3): draws a batch restricted to one
/// label so minority labels get fair training opportunities.
class LabelAwareSampler {
 public:
  explicit LabelAwareSampler(const data::Table& table);

  /// Same pools built from a label vector (how the label condition
  /// source builds them). Every entry must be < num_labels.
  LabelAwareSampler(const std::vector<size_t>& labels, size_t num_labels);

  size_t num_labels() const { return by_label_.size(); }
  /// Number of training records carrying the label.
  size_t label_count(size_t label) const { return by_label_[label].size(); }

  /// m record indices, all with the requested label. Labels with no
  /// records yield an empty batch.
  std::vector<size_t> SampleBatchWithLabel(size_t label, size_t m,
                                           Rng* rng) const;

 private:
  std::vector<std::vector<size_t>> by_label_;
};

/// CTGAN-style training-by-sampling (arXiv:2010.00638), generalizing
/// label-aware sampling from "condition on the label" to "condition on
/// any one-hot categorical attribute": each draw picks a conditionable
/// column uniformly, a category from that column's log-frequency
/// distribution (log(1 + count), so rare categories get orders of
/// magnitude more minibatch appearances than their raw frequency would
/// give), and then a row uniformly among the rows carrying that
/// category. Rare modes thus receive gradient signal every few batches
/// instead of once per epoch.
///
/// Determinism contract: every draw consumes exactly three values from
/// the caller's rng (column, category, row), all serially — the draw
/// stream is a pure function of the rng state and the table contents,
/// independent of DAISY_THREADS and DAISY_SIMD.
class TrainingBySamplingSampler {
 public:
  /// One (row, condition) pair: row index to train on, plus the
  /// (block, category) pair that selects the cond-vector bit.
  struct Draw {
    size_t row = 0;
    size_t block = 0;     // index into the CondBlock layout
    size_t category = 0;  // category within that block
  };

  /// `columns[b]` holds the per-row category indices of conditionable
  /// column b (CondBlock order); `domains[b]` its domain size. Every
  /// entry of columns[b] must be < domains[b]. At least one column with
  /// at least one row is required.
  TrainingBySamplingSampler(const std::vector<std::vector<size_t>>& columns,
                            const std::vector<size_t>& domains);

  size_t num_blocks() const { return pools_.size(); }
  /// Rows carrying category c of block b.
  size_t pool_size(size_t b, size_t c) const { return pools_[b][c].size(); }
  /// log(1 + count) sampling weight of category c of block b (0 for
  /// absent categories — they are never drawn).
  double category_weight(size_t b, size_t c) const {
    return log_weights_[b][c];
  }

  /// m (row, block, category) draws. Absent categories are never
  /// selected, so every draw yields a row.
  std::vector<Draw> SampleBatch(size_t m, Rng* rng) const;

 private:
  // pools_[b][c] = row indices with category c in block b.
  std::vector<std::vector<std::vector<size_t>>> pools_;
  std::vector<std::vector<double>> log_weights_;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_SAMPLER_H_
