#include "synth/synthesizer.h"

#include <algorithm>

#include "core/parallel.h"
#include "synth/cnn_nets.h"
#include "synth/lstm_nets.h"
#include "synth/mlp_nets.h"

namespace daisy::synth {

TableSynthesizer::TableSynthesizer(
    const GanOptions& options,
    const transform::TransformOptions& transform_options)
    : opts_(options), topts_(transform_options), rng_(options.seed) {
  if (opts_.generator == GeneratorArch::kCnn) {
    // CNN works on matrix-formed samples (which also forces ordinal +
    // simple normalization inside the transformer).
    topts_.form = transform::SampleForm::kMatrix;
    opts_.discriminator = DiscriminatorArch::kCnn;
  }
  if (opts_.algo == TrainAlgo::kCTrain) opts_.conditional = true;
  DAISY_CHECK(ResolveConditionKind(opts_, /*parent_rows=*/false).ok());
  // The label is the condition, not a generated attribute.
  if (opts_.conditional) topts_.exclude_label = true;
}

Status TableSynthesizer::Fit(const data::Table& train,
                             obs::MetricSink* sink) {
  return FitFrom(&train, nullptr, nullptr, sink);
}

Status TableSynthesizer::Fit(const data::PagedTable& train,
                             obs::MetricSink* sink) {
  return FitFrom(nullptr, &train, nullptr, sink);
}

Status TableSynthesizer::FitConditioned(const data::Table& train,
                                        const Matrix& row_cond,
                                        obs::MetricSink* sink) {
  return FitFrom(&train, nullptr, &row_cond, sink);
}

Status TableSynthesizer::FitConditioned(const data::PagedTable& train,
                                        const Matrix& row_cond,
                                        obs::MetricSink* sink) {
  return FitFrom(nullptr, &train, &row_cond, sink);
}

Status TableSynthesizer::FitFrom(const data::Table* table,
                                 const data::PagedTable* paged,
                                 const Matrix* parent_rows,
                                 obs::MetricSink* sink) {
  DAISY_CHECK(!fitted_);
  const data::Schema& schema = table != nullptr ? table->schema()
                                                : paged->schema();
  const size_t n =
      table != nullptr ? table->num_records() : paged->num_records();
  // Refusals come before the transformer fit and leave it unfitted.
  auto kind = ResolveConditionKind(opts_, parent_rows != nullptr);
  DAISY_RETURN_IF_ERROR(kind.status());
  DAISY_RETURN_IF_ERROR(CheckTrainingData(schema, n, kind.value()));
  if (opts_.num_threads > 0) par::SetNumThreads(opts_.num_threads);
  full_schema_ = schema;

  // The paged path fits streaming statistics and faults minibatches
  // through the page cache, consuming rng_ exactly like the other.
  std::unique_ptr<TrainDataSource> data;
  if (table != nullptr) {
    transformer_ = std::make_unique<transform::RecordTransformer>(
        transform::RecordTransformer::Fit(*table, topts_, &rng_));
    data = std::make_unique<InMemoryTrainSource>(*table, transformer_.get());
  } else {
    Status read = Status::OK();
    transformer_ = std::make_unique<transform::RecordTransformer>(
        transform::RecordTransformer::FitStreaming(*paged, topts_, &rng_,
                                                   &read));
    DAISY_RETURN_IF_ERROR(read);
    data = std::make_unique<PagedTrainSource>(paged, transformer_.get());
  }
  auto cond = MakeConditionSource(opts_, *transformer_, *data, parent_rows);
  DAISY_RETURN_IF_ERROR(cond.status());
  cond_ = cond.take();
  BuildNetworks();
  if (opts_.algo == TrainAlgo::kDPTrain)
    DAISY_RETURN_IF_ERROR(ResolveDpEngine(d_.get(), opts_.dp_engine).status());

  GanTrainer trainer(g_.get(), d_.get(), transformer_.get(), opts_);
  Rng train_rng = rng_.Split();
  result_ = trainer.Train(*data, *cond_, &train_rng, sink);
  cond_->EndTraining();
  // A refused resume trained nothing: the model stays unfitted.
  if (result_.refused) return result_.health;
  fitted_ = true;
  // On divergence the trainer has already rolled the generator back to
  // the last healthy snapshot, so this is always a sane state.
  final_state_ = GetState(g_->Params());
  return result_.health;
}

void TableSynthesizer::BuildNetworks() {
  const size_t cond_dim = cond_->dim();
  const auto& segments = transformer_->segments();

  Rng init_rng = rng_.Split();
  switch (opts_.generator) {
    case GeneratorArch::kMlp:
      g_ = std::make_unique<MlpGenerator>(opts_.noise_dim, cond_dim,
                                          opts_.g_hidden, segments,
                                          &init_rng);
      break;
    case GeneratorArch::kLstm:
      g_ = std::make_unique<LstmGenerator>(opts_.noise_dim, cond_dim,
                                           opts_.lstm_hidden,
                                           opts_.lstm_feature, segments,
                                           &init_rng);
      break;
    case GeneratorArch::kCnn:
      g_ = std::make_unique<CnnGenerator>(opts_.noise_dim, cond_dim,
                                          transformer_->matrix_side(),
                                          &init_rng);
      break;
  }
  switch (opts_.discriminator) {
    case DiscriminatorArch::kMlp:
      d_ = std::make_unique<MlpDiscriminator>(
          transformer_->sample_dim(), cond_dim, opts_.d_hidden,
          opts_.simplified_discriminator, &init_rng);
      break;
    case DiscriminatorArch::kLstm:
      d_ = std::make_unique<LstmDiscriminator>(segments, cond_dim,
                                               opts_.lstm_hidden, &init_rng);
      break;
    case DiscriminatorArch::kCnn:
      d_ = std::make_unique<CnnDiscriminator>(transformer_->matrix_side(),
                                              cond_dim, &init_rng);
      break;
  }
}

void TableSynthesizer::UseSnapshot(size_t i) {
  DAISY_CHECK(fitted_ && i < result_.snapshots.size());
  SetState(g_->Params(), result_.snapshots[i]);
}

void TableSynthesizer::UseFinal() {
  DAISY_CHECK(fitted_);
  SetState(g_->Params(), final_state_);
}

Status TableSynthesizer::OverlayCheckpoint(const ckpt::TrainCheckpoint& c) {
  DAISY_CHECK(fitted_);
  const auto params = g_->Params();
  const auto buffers = g_->Buffers();
  if (c.params.size() < params.size())
    return Status::InvalidArgument(
        "checkpoint holds fewer params than the generator");
  if (c.buffers.size() < buffers.size())
    return Status::InvalidArgument(
        "checkpoint holds fewer buffers than the generator");
  for (size_t i = 0; i < params.size(); ++i)
    if (!params[i]->value.SameShape(c.params[i]))
      return Status::InvalidArgument(
          "checkpoint param shape mismatch at index " + std::to_string(i));
  for (size_t i = 0; i < buffers.size(); ++i)
    if (!buffers[i]->SameShape(c.buffers[i]))
      return Status::InvalidArgument(
          "checkpoint buffer shape mismatch at index " + std::to_string(i));
  for (size_t i = 0; i < params.size(); ++i) params[i]->value = c.params[i];
  for (size_t i = 0; i < buffers.size(); ++i) *buffers[i] = c.buffers[i];
  final_state_ = GetState(params);
  return Status::OK();
}

Status TableSynthesizer::CheckStandalone() const {
  DAISY_CHECK(fitted_);
  if (cond_->kind() != ConditionKind::kParentRows) return Status::OK();
  return Status::InvalidArgument(
      "parent-conditioned model: each row needs an encoded parent row, so "
      "it generates only inside its relational bundle (daisy_cli gen-rel)");
}

void TableSynthesizer::DrawLatents(size_t n, Rng* rng, Matrix* z,
                                   Matrix* cond,
                                   std::vector<size_t>* labels) const {
  DAISY_CHECK(fitted_);
  const size_t noise_dim = g_->noise_dim();
  *z = Matrix(n, noise_dim);
  labels->assign(n, 0);
  *cond = cond_->dim() > 0 ? Matrix(n, cond_->dim()) : Matrix();
  // Strict per-row order — noise first, then the condition draws — so
  // the stream position after row i never depends on how rows are
  // batched into chunks. That invariant is what makes GenerateChunked
  // bitwise equal to a single-shot Generate for any chunk size.
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < noise_dim; ++c)
      (*z)(i, c) = rng->Gaussian(0.0, 1.0);
    cond_->DrawGenerationRow(i, rng, cond, labels);
  }
}

Matrix TableSynthesizer::InferenceSamples(const Matrix& z,
                                          const Matrix& cond) const {
  DAISY_CHECK(fitted_);
  return g_->InferenceForward(z, cond);
}

data::Table TableSynthesizer::DecodeRows(
    const Matrix& samples, const std::vector<size_t>& labels) const {
  DAISY_CHECK(fitted_);
  DAISY_CHECK(labels.size() == samples.rows());
  data::Table decoded = transformer_->InverseTransform(samples);

  // Reassemble rows under the full schema (re-inserting the label
  // column when it was excluded from the transform).
  data::Table out(full_schema_);
  out.Reserve(samples.rows());
  std::vector<double> record(full_schema_.num_attributes());
  const data::Schema& sub = transformer_->schema();
  const size_t supplied = cond_->supplied_column();
  for (size_t i = 0; i < samples.rows(); ++i) {
    size_t sub_j = 0;
    for (size_t j = 0; j < full_schema_.num_attributes(); ++j) {
      if (j == supplied) {
        record[j] = static_cast<double>(labels[i]);
      } else {
        DAISY_CHECK(sub_j < sub.num_attributes());
        record[j] = decoded.value(i, sub_j);
        ++sub_j;
      }
    }
    out.AppendRecord(record);
  }
  return out;
}

void TableSynthesizer::GenerateChunked(
    size_t n, size_t chunk_rows, Rng* rng,
    const std::function<void(const data::Table&)>& emit) const {
  DAISY_CHECK(CheckStandalone().ok());
  GenerateChunks(n, chunk_rows, rng, nullptr, emit);
}

void TableSynthesizer::GenerateChunks(
    size_t n, size_t chunk_rows, Rng* rng, const Matrix* cond_rows,
    const std::function<void(const data::Table&)>& emit) const {
  DAISY_CHECK(fitted_);
  DAISY_CHECK(chunk_rows > 0);
  for (size_t produced = 0; produced < n;) {
    const size_t m = std::min(chunk_rows, n - produced);
    Matrix z;
    Matrix cond;
    std::vector<size_t> labels;
    DrawLatents(m, rng, &z, &cond, &labels);
    if (cond_rows != nullptr)
      cond = cond_rows->RowRange(produced, produced + m);
    emit(DecodeRows(InferenceSamples(z, cond), labels));
    produced += m;
  }
}

data::Table TableSynthesizer::GenerateAll(size_t n, Rng* rng,
                                          const Matrix* cond_rows) const {
  constexpr size_t kGenBatch = 256;
  data::Table out(full_schema_);
  out.Reserve(n);
  std::vector<double> record(full_schema_.num_attributes());
  GenerateChunks(n, kGenBatch, rng, cond_rows, [&](const data::Table& chunk) {
    for (size_t i = 0; i < chunk.num_records(); ++i) {
      for (size_t j = 0; j < record.size(); ++j) record[j] = chunk.value(i, j);
      out.AppendRecord(record);
    }
  });
  return out;
}

Result<data::Table> TableSynthesizer::GenerateConditioned(const Matrix& cond,
                                                          Rng* rng) const {
  DAISY_CHECK(fitted_);
  if (cond_->kind() != ConditionKind::kParentRows ||
      cond.cols() != cond_->dim())
    return Status::InvalidArgument(
        "GenerateConditioned needs a model fitted by FitConditioned on "
        "rows of " + std::to_string(cond.cols()) + " columns");
  return GenerateAll(cond.rows(), rng, &cond);
}

data::Table TableSynthesizer::Generate(size_t n, Rng* rng) const {
  DAISY_CHECK(CheckStandalone().ok());
  return GenerateAll(n, rng, nullptr);
}

}  // namespace daisy::synth
