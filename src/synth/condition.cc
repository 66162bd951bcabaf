#include "synth/condition.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "synth/sampler.h"

namespace daisy::synth {

namespace {

using SourcePtr = std::unique_ptr<ConditionSource>;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt model file: " + what);
}

// Weights as Rng::Categorical requires them.
bool WeightsOk(const std::vector<double>& w, size_t n) {
  return w.size() == n && n > 0 &&
         std::all_of(w.begin(), w.end(),
                     [](double x) { return x >= 0.0 && std::isfinite(x); });
}

void WriteSlots(Serializer* out, const std::vector<double>& label_weights,
                const std::vector<std::vector<double>>& tbs_weights) {
  out->WriteDoubleVector(label_weights);
  out->WriteTag("tbs");
  out->WriteU64(tbs_weights.size());
  for (const auto& w : tbs_weights) out->WriteDoubleVector(w);
}

Matrix OneHot(const std::vector<size_t>& hot, size_t dim) {
  Matrix cond(hot.size(), dim);
  for (size_t i = 0; i < hot.size(); ++i) cond(i, hot[i]) = 1.0;
  return cond;
}

// The label, one-hot. Fake-batch and generation labels follow the label
// counts; under kCTrain the label also stratifies sampling (Algorithm 3:
// label-restricted real minibatches, one D+G update per label).
class LabelSource final : public ConditionSource {
 public:
  LabelSource(size_t label_col, std::vector<double> counts,
              std::vector<size_t> labels = {}, bool stratified = false)
      : label_col_(label_col), counts_(std::move(counts)),
        labels_(std::move(labels)) {
    if (stratified)
      pools_ = std::make_unique<LabelAwareSampler>(labels_, counts_.size());
  }

  ConditionKind kind() const override { return ConditionKind::kLabel; }
  size_t dim() const override { return counts_.size(); }
  CondBatch DrawReal(size_t m, const RowStream& rows, Rng*) const override {
    CondBatch b{rows(m), Matrix()};
    std::vector<size_t> ls(b.rows.size());
    for (size_t i = 0; i < ls.size(); ++i) ls[i] = labels_[b.rows[i]];
    b.cond = OneHot(ls, dim());
    return b;
  }
  Matrix DrawFakeCond(const CondBatch&, size_t m, Rng* rng) const override {
    std::vector<size_t> ls(m);
    for (auto& l : ls) l = rng->Categorical(counts_);
    return OneHot(ls, dim());
  }
  size_t strata() const override { return pools_ ? counts_.size() : 0; }
  CondBatch DrawStratum(size_t s, size_t m, Rng* rng) const override {
    std::vector<size_t> rows = pools_->SampleBatchWithLabel(s, m, rng);
    return {rows, OneHot(std::vector<size_t>(rows.size(), s), dim())};
  }
  void EndTraining() override { labels_ = {}; pools_.reset(); }
  void DrawGenerationRow(size_t i, Rng* rng, Matrix* cond,
                         std::vector<size_t>* labels) const override {
    (*labels)[i] = rng->Categorical(counts_);
    (*cond)(i, (*labels)[i]) = 1.0;
  }
  size_t supplied_column() const override { return label_col_; }
  void Save(Serializer* out) const override { WriteSlots(out, counts_, {}); }

 private:
  size_t label_col_;
  std::vector<double> counts_;
  std::vector<size_t> labels_;
  std::unique_ptr<LabelAwareSampler> pools_;
};

// One one-hot block per kOneHotCat segment, in segment order.
struct CondBlock {
  size_t source_col = 0;     // column in the original full table
  size_t cond_offset = 0;    // first column of this block in the cond vector
  size_t sample_offset = 0;  // the attribute's softmax block in the sample
  size_t domain = 0;
};

std::vector<CondBlock> BuildCondBlocks(
    const std::vector<transform::AttrSegment>& segments) {
  std::vector<CondBlock> blocks;
  size_t cond_offset = 0;
  for (const auto& seg : segments) {
    if (seg.kind != transform::AttrSegment::Kind::kOneHotCat) continue;
    blocks.push_back({seg.source_col, cond_offset, seg.offset, seg.width});
    cond_offset += seg.width;
  }
  return blocks;
}

// Weight of the generator's conditional cross-entropy term under
// training-by-sampling (AddGeneratorLoss below).
constexpr double kTbsCeWeight = 1.0;

// Training-by-sampling: each row sets one bit, cond_offset + category of
// its block, drawn by the log-frequency sampler; the fake batch shares
// the real batch's conditions so D compares like with like. Generation
// draws from the RAW counts, so generated marginals track the data.
class TbsSource final : public ConditionSource {
 public:
  TbsSource(std::vector<CondBlock> blocks,
            std::vector<std::vector<double>> counts,
            const std::vector<std::vector<size_t>>* columns = nullptr,
            double ce_weight = 0.0)
      : blocks_(std::move(blocks)), counts_(std::move(counts)),
        ce_weight_(ce_weight) {
    std::vector<size_t> domains;
    for (const CondBlock& b : blocks_) {
      domains.push_back(b.domain);
      for (size_t c = 0; c < b.domain; ++c)
        sample_col_.push_back(b.sample_offset + c);
    }
    if (columns != nullptr)
      sampler_ =
          std::make_unique<TrainingBySamplingSampler>(*columns, domains);
  }

  ConditionKind kind() const override { return ConditionKind::kTbs; }
  size_t dim() const override { return sample_col_.size(); }
  CondBatch DrawReal(size_t m, const RowStream&, Rng* rng) const override {
    const auto draws = sampler_->SampleBatch(m, rng);
    CondBatch b{std::vector<size_t>(m), Matrix(m, dim())};
    for (size_t i = 0; i < m; ++i) {
      b.rows[i] = draws[i].row;
      b.cond(i, blocks_[draws[i].block].cond_offset + draws[i].category) = 1;
    }
    return b;
  }
  Matrix DrawFakeCond(const CondBatch& real, size_t, Rng*) const override {
    return real.cond;
  }
  // Conditional cross-entropy (CTGAN's cond term of L_G): each row pays
  // -log of the probability its conditioned softmax block gives the
  // requested category; without it G is free to ignore the cond vector.
  // dCE/dp = -w/(m*p), p floored to keep the gradient finite.
  void AddGeneratorLoss(const Matrix& cond, const Matrix& fake, double* loss,
                        Matrix* grad_fake) const override {
    if (!(ce_weight_ > 0.0)) return;
    DAISY_CHECK(cond.rows() == fake.rows() && cond.cols() == dim());
    const double w = ce_weight_;
    const double inv_m = 1.0 / static_cast<double>(cond.rows());
    for (size_t i = 0; i < cond.rows(); ++i) {
      size_t j = 0;
      while (j < dim() && cond(i, j) == 0.0) ++j;  // the row's one set bit
      DAISY_CHECK(j < dim());
      const size_t col = sample_col_[j];
      const double p = std::max(fake(i, col), 1e-12);
      *loss += w * inv_m * -std::log(p);
      (*grad_fake)(i, col) += w * inv_m * (-1.0 / p);
    }
  }
  void EndTraining() override { sampler_.reset(); }
  void DrawGenerationRow(size_t i, Rng* rng, Matrix* cond,
                         std::vector<size_t>*) const override {
    const size_t b = static_cast<size_t>(rng->UniformInt(blocks_.size()));
    const size_t c = rng->Categorical(counts_[b]);
    (*cond)(i, blocks_[b].cond_offset + c) = 1.0;
  }
  void Save(Serializer* out) const override { WriteSlots(out, {}, counts_); }

 private:
  std::vector<CondBlock> blocks_;
  std::vector<std::vector<double>> counts_;
  std::vector<size_t> sample_col_;  // cond column -> its sample column
  double ce_weight_;
  std::unique_ptr<TrainingBySamplingSampler> sampler_;
};

// Encoded parent records: training record i is conditioned on row i,
// fake batches on the rows of uniformly drawn records (the empirical
// parent distribution). Generation takes the caller's rows.
// Loaded models hold a 0 x width matrix: the width is all they need.
class ParentRowsSource final : public ConditionSource {
 public:
  explicit ParentRowsSource(Matrix rows) : rows_(std::move(rows)) {}

  ConditionKind kind() const override { return ConditionKind::kParentRows; }
  size_t dim() const override { return rows_.cols(); }
  CondBatch DrawReal(size_t m, const RowStream& rows, Rng*) const override {
    CondBatch b{rows(m), Matrix()};
    b.cond = rows_.GatherRows(b.rows);
    return b;
  }
  Matrix DrawFakeCond(const CondBatch&, size_t m, Rng* rng) const override {
    std::vector<size_t> rows(m);
    for (auto& r : rows) r = rng->UniformInt(rows_.rows());
    return rows_.GatherRows(rows);
  }
  void EndTraining() override { rows_ = Matrix(0, rows_.cols()); }

 private:
  Matrix rows_;
};

}  // namespace

void ConditionSource::Save(Serializer* out) const { WriteSlots(out, {}, {}); }

Result<ConditionKind> ResolveConditionKind(const GanOptions& opts,
                                           bool parent_rows) {
  const bool label = opts.conditional || opts.algo == TrainAlgo::kCTrain;
  const bool tbs = opts.sampler == SamplerKind::kTrainingBySampling;
  if (label + tbs + parent_rows > 1)
    return Status::InvalidArgument(
        "more than one condition source: label conditioning (conditional "
        "or ctrain), training-by-sampling (sampler tbs) and parent rows "
        "each claim the whole condition vector");
  if (label) return ConditionKind::kLabel;
  if (tbs) return ConditionKind::kTbs;
  return parent_rows ? ConditionKind::kParentRows : ConditionKind::kNone;
}

Status CheckTrainingData(const data::Schema& schema, size_t num_records,
                         ConditionKind kind) {
  if (num_records == 0)
    return Status::InvalidArgument(
        "cannot train on an empty table: no records to sample");
  if (kind == ConditionKind::kLabel && !schema.has_label())
    return Status::InvalidArgument(
        "label conditioning (conditional or ctrain) needs a labeled table");
  return Status::OK();
}

Result<std::unique_ptr<ConditionSource>> MakeConditionSource(
    const GanOptions& opts, const transform::RecordTransformer& transformer,
    const TrainDataSource& data, const Matrix* parent_rows) {
  auto kind = ResolveConditionKind(opts, parent_rows != nullptr);
  DAISY_RETURN_IF_ERROR(kind.status());
  DAISY_RETURN_IF_ERROR(
      CheckTrainingData(data.schema(), data.num_records(), kind.value()));
  switch (kind.value()) {
    case ConditionKind::kNone:
      return std::make_unique<ConditionSource>();
    case ConditionKind::kLabel: {
      const size_t col = data.schema().label_index();
      std::vector<size_t> labels = data.CategoryColumn(col);
      std::vector<double> counts(data.schema().num_labels(), 0.0);
      for (size_t l : labels) counts[l] += 1.0;
      return SourcePtr(std::make_unique<LabelSource>(
          col, std::move(counts), std::move(labels),
          opts.algo == TrainAlgo::kCTrain));
    }
    case ConditionKind::kTbs: {
      std::vector<CondBlock> blocks = BuildCondBlocks(transformer.segments());
      if (blocks.empty())
        return Status::InvalidArgument(
            "training-by-sampling needs at least one one-hot categorical "
            "attribute; this table has none");
      // One column scan per block feeds the row pools and the raw counts.
      std::vector<std::vector<size_t>> columns;
      std::vector<std::vector<double>> counts;
      for (const CondBlock& b : blocks) {
        columns.push_back(data.CategoryColumn(b.source_col));
        counts.emplace_back(b.domain, 0.0);
        for (size_t c : columns.back()) counts.back()[c] += 1.0;
      }
      return SourcePtr(std::make_unique<TbsSource>(
          std::move(blocks), std::move(counts), &columns, kTbsCeWeight));
    }
    case ConditionKind::kParentRows:
      if (parent_rows->rows() != data.num_records() ||
          parent_rows->cols() == 0)
        return Status::InvalidArgument(
            "parent-conditioned training needs one non-empty condition row "
            "per record: " + std::to_string(data.num_records()) +
            " records, got " + std::to_string(parent_rows->rows()) + " x " +
            std::to_string(parent_rows->cols()));
      return SourcePtr(std::make_unique<ParentRowsSource>(*parent_rows));
  }
  return Status::Internal("unknown condition kind");
}

Result<std::unique_ptr<ConditionSource>> LoadConditionSource(
    Deserializer* in, ConditionKind kind, size_t parent_dim,
    const data::Schema& full,
    const std::vector<transform::AttrSegment>& segments) {
  std::vector<double> label_counts = in->ReadDoubleVector();
  in->ExpectTag("tbs");
  const size_t num_tbs = in->ReadU64();
  if (!in->ok() || num_tbs > 100000) return Corrupt(in->error());
  std::vector<std::vector<double>> tbs_counts(num_tbs);
  for (auto& w : tbs_counts) w = in->ReadDoubleVector();
  if (!in->ok()) return Corrupt(in->error());
  switch (kind) {
    case ConditionKind::kNone:
      return std::make_unique<ConditionSource>();
    case ConditionKind::kLabel:
      if (!full.has_label() || !WeightsOk(label_counts, full.num_labels()))
        return Corrupt("conditional model without a label distribution");
      return SourcePtr(std::make_unique<LabelSource>(full.label_index(),
                                                     std::move(label_counts)));
    case ConditionKind::kTbs: {
      std::vector<CondBlock> blocks = BuildCondBlocks(segments);
      bool ok = !blocks.empty() && tbs_counts.size() == blocks.size();
      for (size_t b = 0; ok && b < blocks.size(); ++b)
        ok = WeightsOk(tbs_counts[b], blocks[b].domain);
      if (!ok)
        return Corrupt("TBS weights do not match the cond-vector layout");
      return SourcePtr(std::make_unique<TbsSource>(std::move(blocks),
                                                   std::move(tbs_counts)));
    }
    case ConditionKind::kParentRows:
      return SourcePtr(
          std::make_unique<ParentRowsSource>(Matrix(0, parent_dim)));
  }
  return Corrupt("unknown condition kind");
}

}  // namespace daisy::synth
