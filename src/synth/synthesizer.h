// Public facade over the three-phase pipeline (paper Figure 2):
// Fit() = Phase I (transformation) + Phase II (adversarial training),
// Generate() = Phase III (sampling + inverse transformation).
#ifndef DAISY_SYNTH_SYNTHESIZER_H_
#define DAISY_SYNTH_SYNTHESIZER_H_

#include <functional>
#include <iosfwd>
#include <memory>

#include "ckpt/checkpoint.h"
#include "synth/condition.h"
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
  /// last healthy snapshot and Generate still works. Data the
  /// condition source refuses (MakeConditionSource), and a DP engine the
  /// discriminator cannot run (ResolveDpEngine), are InvalidArgument
  /// and leave the synthesizer unfitted.
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

  /// Parent-conditioned Fit, in memory or paged: trains with row i of
  /// `row_cond` (num_records x width, dense in memory) as the condition
  /// vector of record i — the relational layer's encoded parent
  /// attributes. The model generates via GenerateConditioned only.
  Status FitConditioned(const data::Table& train, const Matrix& row_cond,
                        obs::MetricSink* sink = nullptr);
  Status FitConditioned(const data::PagedTable& train, const Matrix& row_cond,
                        obs::MetricSink* sink = nullptr);

  /// Health of the training run (same Status that Fit returned).
  const Status& health() const { return result_.health; }

  /// True once Fit trained (even if it stopped early) or Load restored.
  bool fitted() const { return fitted_; }

  /// OK when Generate and GenerateChunked can run; InvalidArgument for
  /// a parent-conditioned model, which needs its relational bundle.
  Status CheckStandalone() const;

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
  /// Latents are consumed from `rng` in a fixed per-row order (noise_dim
  /// gaussians, then the condition source's draws; DESIGN.md §5l), so
  /// the output is a pure function of the model state and the rng
  /// stream, independent of internal batching.
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
  /// row of `cond` (cond.rows() x condition().dim()), record i generated
  /// under condition row i, in order. Latents are noise-only, drawn in
  /// strict per-row order, so the output is independent of internal
  /// batching. Fails unless the model was fitted by FitConditioned with
  /// rows as wide as `cond`.
  Result<data::Table> GenerateConditioned(const Matrix& cond,
                                          Rng* rng) const;

  /// Serving hooks — the three phases of one Generate chunk, exposed
  /// separately so a request scheduler can draw latents per request
  /// (own rng) yet run coalesced generator passes across requests.
  /// All three are const and safe to call concurrently.
  ///
  /// Fills z (n x noise_dim), cond (n x condition().dim(); all-zero
  /// under parent rows, which the caller supplies) and labels (n, zeros
  /// unless label-conditioned) in the per-row order of Generate.
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
  /// What the cond vector carries (valid once fitted()).
  const ConditionSource& condition() const { return *cond_; }

 private:
  /// The one Fit body: exactly one of `table`/`paged` is set.
  Status FitFrom(const data::Table* table, const data::PagedTable* paged,
                 const Matrix* parent_rows, obs::MetricSink* sink);

  /// Builds generator + discriminator for the current options,
  /// transformer and condition source (shared by Fit and Load).
  void BuildNetworks();

  /// The one chunk loop; `cond_rows`, when set, holds one condition row
  /// per output record.
  void GenerateChunks(
      size_t n, size_t chunk_rows, Rng* rng, const Matrix* cond_rows,
      const std::function<void(const data::Table&)>& emit) const;
  data::Table GenerateAll(size_t n, Rng* rng, const Matrix* cond_rows) const;

  GanOptions opts_;
  transform::TransformOptions topts_;
  Rng rng_;

  std::unique_ptr<transform::RecordTransformer> transformer_;
  std::unique_ptr<Generator> g_;
  std::unique_ptr<Discriminator> d_;
  TrainResult result_;
  StateDict final_state_;

  // Full schema of generated tables (with a conditional model's label).
  data::Schema full_schema_;
  std::unique_ptr<ConditionSource> cond_;

  bool fitted_ = false;
};

}  // namespace daisy::synth

#endif  // DAISY_SYNTH_SYNTHESIZER_H_
