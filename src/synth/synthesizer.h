// Public facade over the three-phase pipeline (paper Figure 2):
// Fit() = Phase I (transformation) + Phase II (adversarial training),
// Generate() = Phase III (sampling + inverse transformation).
#ifndef DAISY_SYNTH_SYNTHESIZER_H_
#define DAISY_SYNTH_SYNTHESIZER_H_

#include <functional>
#include <iosfwd>
#include <memory>

#include "ckpt/checkpoint.h"
#include "synth/config.h"
#include "synth/discriminator.h"
#include "synth/generator.h"
#include "synth/trainer.h"

namespace daisy::synth {

/// End-to-end relational-table synthesizer. Typical use:
///
///   GanOptions opts;             // pick the design-space point
///   TableSynthesizer synth(opts, transform_options);
///   synth.Fit(train_table);
///   data::Table fake = synth.Generate(train_table.num_records(), &rng);
///
/// Snapshot selection (paper §6.2) is supported via UseSnapshot().
class TableSynthesizer {
 public:
  TableSynthesizer(const GanOptions& options,
                   const transform::TransformOptions& transform_options);

  /// Fits the transformer and trains the GAN on `train`.
  /// Must be called exactly once before Generate. When `sink` is
  /// non-null it receives per-iteration training telemetry (see
  /// GanTrainer::Train). Returns the run's health: OK when all
  /// iterations ran; a descriptive error when the divergence sentinel
  /// stopped training early — in which case the generator holds the
  /// last healthy snapshot and Generate still works.
  Status Fit(const data::Table& train, obs::MetricSink* sink = nullptr);

  /// Out-of-core Fit over a paged .dcol table: transformer statistics
  /// come from streaming fits (RecordTransformer::FitStreaming) and
  /// training minibatches fault through the table's page cache, so
  /// peak memory is bounded by the page budget + model size instead of
  /// the table size. Consumes this synthesizer's rng exactly like the
  /// in-memory Fit, so for equivalent data the fitted model is bitwise
  /// identical at any page budget / thread count. Prefer
  /// GanOptions::SamplerKind::kChunkedShuffle with this overload —
  /// uniform sampling random-faults pages every batch.
  Status Fit(const data::PagedTable& train, obs::MetricSink* sink = nullptr);

  /// Parent-conditioned Fit (requires GanOptions::parent_cond_dim > 0):
  /// trains with row i of `row_cond` (num_records x parent_cond_dim) as
  /// the condition vector of record i — the relational layer's encoded
  /// parent attributes. The fitted model generates via
  /// GenerateConditioned only.
  Status FitConditioned(const data::Table& train, const Matrix& row_cond,
                        obs::MetricSink* sink = nullptr);
  /// Out-of-core parent-conditioned Fit (see the paged Fit overload for
  /// the memory contract). `row_cond` is dense in memory — one encoded
  /// parent row per record — which the relational layer keeps small by
  /// encoding only the parent's modeled columns.
  Status FitConditioned(const data::PagedTable& train, const Matrix& row_cond,
                        obs::MetricSink* sink = nullptr);

  /// Health of the training run (same Status that Fit returned).
  const Status& health() const { return result_.health; }

  /// Persists the fitted model (transformer state + generator
  /// parameters) so Generate can run in a later process without
  /// retraining. Snapshots are not saved — the current generator
  /// parameters are. The file is the SaveToStream payload plus the
  /// core/durable checksum trailer, written atomically.
  Status Save(const std::string& path) const;

  /// Restores a model written by Save. The returned synthesizer is
  /// ready for Generate (Fit must not be called on it). A damaged file
  /// fails its checksum (InvalidArgument); a missing one is IOError.
  static Result<std::unique_ptr<TableSynthesizer>> Load(
      const std::string& path);

  /// Stream forms of Save/Load: the exact model payload without the
  /// checksum/atomic-write envelope, so a container format (the
  /// relational bundle) can embed many models in one checksummed file.
  Status SaveToStream(std::ostream& os) const;
  static Result<std::unique_ptr<TableSynthesizer>> LoadFromStream(
      std::istream& is);

  /// Generates n synthetic records. With a conditional model, labels
  /// are drawn from the training label distribution and appended as
  /// the label column; otherwise the GAN generates the label attribute
  /// like any other.
  ///
  /// Latents are consumed from `rng` in a fixed per-row order (for each
  /// row: noise_dim gaussians, then — for conditional models — one
  /// categorical label), so the output is a pure function of the model
  /// state and the rng stream, independent of internal batching.
  data::Table Generate(size_t n, Rng* rng) const;

  /// Streaming Generate: emits the n records as a sequence of decoded
  /// tables of at most `chunk_rows` rows each, holding only one chunk
  /// in memory at a time (how the serving path keeps a 10M-row request
  /// bounded). Because latents are drawn per row from the single `rng`
  /// stream, the concatenated chunks are bitwise identical to a
  /// single-shot Generate(n, rng) for ANY chunk size.
  void GenerateChunked(
      size_t n, size_t chunk_rows, Rng* rng,
      const std::function<void(const data::Table&)>& emit) const;

  /// Generation for a parent-conditioned model: one output record per
  /// row of `cond` (cond.rows() x parent_cond_dim), record i generated
  /// under condition row i, in order. Latents are noise-only, drawn in
  /// strict per-row order, so the output is independent of internal
  /// batching. Fails unless the model was fitted with
  /// parent_cond_dim == cond.cols().
  Result<data::Table> GenerateConditioned(const Matrix& cond,
                                          Rng* rng) const;

  /// Serving hooks — the three phases of one Generate chunk, exposed
  /// separately so a request scheduler can draw latents per request
  /// (own rng) yet run coalesced generator passes across requests.
  /// All three are const and safe to call concurrently.
  ///
  /// Fills z (n x noise_dim), cond (n x num_labels, empty when
  /// unconditional) and labels (n, zeros when unconditional) drawing in
  /// the fixed per-row order documented at Generate.
  void DrawLatents(size_t n, Rng* rng, Matrix* z, Matrix* cond,
                   std::vector<size_t>* labels) const;
  /// Transformed samples for drawn latents: one inference-only
  /// generator pass. Per-row outputs do not depend on which other rows
  /// share the batch, so callers may concatenate latents from many
  /// requests into one pass and split the result.
  Matrix InferenceSamples(const Matrix& z, const Matrix& cond) const;
  /// Inverse-transforms generator output and reassembles full-schema
  /// records (re-inserting the label column for conditional models).
  data::Table DecodeRows(const Matrix& samples,
                         const std::vector<size_t>& labels) const;

  /// Number of generator snapshots captured during training.
  size_t num_snapshots() const { return result_.snapshots.size(); }
  /// Loads snapshot i's parameters into the generator.
  void UseSnapshot(size_t i);
  /// Restores the final trained parameters.
  void UseFinal();

  /// Overlays the generator weights stored in a training checkpoint
  /// onto this (already Load-ed or Fit-ted) synthesizer. Checkpoints
  /// store generator params/buffers first, then the discriminator's, so
  /// the generator prefix is taken; every matrix must match the live
  /// generator's shape or the overlay is rejected untouched. This is
  /// how the serving registry refreshes a model from a training run's
  /// checkpoint directory without a full Save.
  Status OverlayCheckpoint(const ckpt::TrainCheckpoint& c);

  /// Schema of generated tables (the full training schema, including a
  /// conditional model's label column).
  const data::Schema& schema() const { return full_schema_; }

  const TrainResult& train_result() const { return result_; }
  const transform::RecordTransformer& transformer() const {
    return *transformer_;
  }
  const GanOptions& options() const { return opts_; }

 private:
  /// Builds generator + discriminator for the current options and
  /// transformer (shared by Fit and Load). Under training-by-sampling
  /// this also derives the cond-vector layout (tbs_blocks_) from the
  /// transformer segments.
  void BuildNetworks();

  /// True when the cond vector carries training-by-sampling attribute
  /// conditions instead of the label (kCTrain ignores the sampler knob).
  bool UsesTbs() const {
    return opts_.sampler == SamplerKind::kTrainingBySampling &&
           opts_.algo != TrainAlgo::kCTrain;
  }

  GanOptions opts_;
  transform::TransformOptions topts_;
  Rng rng_;

  std::unique_ptr<transform::RecordTransformer> transformer_;
  std::unique_ptr<Generator> g_;
  std::unique_ptr<Discriminator> d_;
  TrainResult result_;
  StateDict final_state_;

  // Full schema + label distribution kept for conditional generation.
  data::Schema full_schema_;
  std::vector<double> label_weights_;

  // Training-by-sampling state: cond-vector layout (from the segments)
  // and the raw per-category frequencies of each conditionable column.
  // Generation draws its conditions from the RAW frequencies — the
  // log-flattened weights are a training-time reweighting only, and
  // using them at generation time would oversample rare categories in
  // the output (see arXiv:2010.00638).
  std::vector<CondBlock> tbs_blocks_;
  std::vector<std::vector<double>> tbs_weights_;

  bool fitted_ = false;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_SYNTHESIZER_H_
