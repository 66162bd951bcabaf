#include "transform/record_transformer.h"

#include <algorithm>
#include <cmath>

#include "core/kernels/kernels.h"
#include "data/columnar.h"

namespace daisy::transform {

namespace {

size_t CeilSqrt(size_t n) {
  size_t s = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  while (s * s < n) ++s;
  return s;
}

}  // namespace

Result<RecordTransformer> RecordTransformer::FitImpl(
    const data::Schema& full, const TransformOptions& options, Rng* rng,
    const ColumnStats& stats) {
  RecordTransformer t;
  t.options_ = options;
  if (options.form == SampleForm::kMatrix) {
    // Matrix-formed samples need exactly one value per attribute, so
    // one-hot and GMM-based schemes are not applicable (paper §4).
    t.options_.categorical = CategoricalEncoding::kOrdinal;
    t.options_.numerical = NumericalNormalization::kSimple;
  }

  std::vector<size_t> source_cols;
  std::vector<data::Attribute> attrs;
  for (size_t j = 0; j < full.num_attributes(); ++j) {
    if (options.exclude_label && full.has_label() && j == full.label_index())
      continue;
    source_cols.push_back(j);
    attrs.push_back(full.attribute(j));
  }
  int label_index = -1;
  if (!options.exclude_label && full.has_label()) {
    for (size_t i = 0; i < source_cols.size(); ++i)
      if (source_cols[i] == full.label_index())
        label_index = static_cast<int>(i);
  }
  t.schema_ = data::Schema(attrs, label_index);

  size_t offset = 0;
  for (size_t i = 0; i < attrs.size(); ++i) {
    const data::Attribute& a = attrs[i];
    AttrSegment seg;
    seg.attr_index = i;
    seg.source_col = source_cols[i];
    seg.offset = offset;
    if (a.is_categorical()) {
      seg.domain = a.domain_size();
      DAISY_CHECK(seg.domain >= 1);
      if (t.options_.categorical == CategoricalEncoding::kOneHot) {
        seg.kind = AttrSegment::Kind::kOneHotCat;
        seg.width = seg.domain;
      } else {
        seg.kind = AttrSegment::Kind::kOrdinalCat;
        seg.width = 1;
        // Vector form pairs ordinal with a sigmoid head -> [0, 1];
        // matrix form flows through tanh -> [-1, 1].
        if (t.options_.form == SampleForm::kMatrix) {
          seg.lo = -1.0;
          seg.hi = 1.0;
        } else {
          seg.lo = 0.0;
          seg.hi = 1.0;
        }
      }
    } else {
      if (t.options_.numerical == NumericalNormalization::kGmm) {
        seg.kind = AttrSegment::Kind::kGmmNumeric;
        stats::Gmm1d::Options gopts;
        gopts.components = options.gmm_components;
        auto gmm = stats.fit_gmm(seg.source_col, gopts, rng);
        if (!gmm.ok()) return gmm.status();
        seg.gmm = gmm.take();
        seg.width = 1 + seg.gmm.num_components();
      } else {
        seg.kind = AttrSegment::Kind::kSimpleNumeric;
        seg.width = 1;
        seg.v_min = stats.attr_min(seg.source_col);
        seg.v_max = stats.attr_max(seg.source_col);
        if (seg.v_max <= seg.v_min) seg.v_max = seg.v_min + 1.0;
        seg.lo = -1.0;
        seg.hi = 1.0;
      }
    }
    offset += seg.width;
    t.segments_.push_back(std::move(seg));
  }
  t.sample_dim_ = offset;

  if (t.options_.form == SampleForm::kMatrix) {
    t.matrix_side_ = CeilSqrt(t.sample_dim_);
    t.sample_dim_ = t.matrix_side_ * t.matrix_side_;  // zero padding
  }
  return t;
}

RecordTransformer RecordTransformer::Fit(const data::Table& table,
                                         const TransformOptions& options,
                                         Rng* rng) {
  DAISY_CHECK(table.num_records() > 0);
  ColumnStats stats;
  stats.fit_gmm = [&table](size_t col, const stats::Gmm1d::Options& gopts,
                           Rng* r) {
    return stats::Gmm1d::Fit(table.Column(col), gopts, r);
  };
  stats.attr_min = [&table](size_t col) { return table.AttributeMin(col); };
  stats.attr_max = [&table](size_t col) { return table.AttributeMax(col); };
  auto fit = FitImpl(table.schema(), options, rng, stats);
  DAISY_CHECK(fit.ok());  // in-memory columns always read
  return fit.take();
}

size_t PagedColumnSource::size() const { return table_.num_records(); }

Result<double> PagedColumnSource::At(size_t i) const {
  return table_.ValueAt(i, col_);
}

Status PagedColumnSource::Read(size_t begin, size_t end, double* out) const {
  DAISY_CHECK(begin <= end && end <= size());
  const size_t page_rows = table_.page_rows();
  while (begin < end) {
    const size_t group = begin / page_rows;
    if (group != page_group_) {
      // A failed load leaves page_ unspecified: forget which page it is.
      page_group_ = static_cast<size_t>(-1);
      DAISY_RETURN_IF_ERROR(table_.LoadPage(group, col_, &page_));
      page_group_ = group;
    }
    const size_t first = group * page_rows;
    const size_t take = std::min(end, first + page_.size()) - begin;
    std::copy_n(page_.data() + (begin - first), take, out);
    out += take;
    begin += take;
  }
  return Status::OK();
}

RecordTransformer RecordTransformer::FitStreaming(
    const data::PagedTable& table, const TransformOptions& options, Rng* rng,
    Status* read_error) {
  DAISY_CHECK(table.num_records() > 0);
  ColumnStats stats;
  // The EM row cache may hold as many doubles as the page cache does,
  // so a paged fit's peak memory grows by at most one page budget.
  const size_t cache_rows = table.page_budget() * table.page_rows();
  stats.fit_gmm = [&table, cache_rows](size_t col,
                                       const stats::Gmm1d::Options& gopts,
                                       Rng* r) {
    return stats::Gmm1d::FitStreaming(PagedColumnSource(table, col), gopts,
                                      r, cache_rows);
  };
  stats.attr_min = [&table](size_t col) { return table.attribute_min(col); };
  stats.attr_max = [&table](size_t col) { return table.attribute_max(col); };
  auto fit = FitImpl(table.schema(), options, rng, stats);
  if (fit.ok()) return fit.take();
  DAISY_CHECK(read_error != nullptr);
  *read_error = fit.status();
  return RecordTransformer();
}

RecordTransformer RecordTransformer::FromState(
    const TransformOptions& options, const data::Schema& schema,
    std::vector<AttrSegment> segments) {
  RecordTransformer t;
  t.options_ = options;
  t.schema_ = schema;
  t.segments_ = std::move(segments);
  size_t dim = 0;
  for (const auto& seg : t.segments_) {
    DAISY_CHECK(seg.offset == dim);
    DAISY_CHECK(seg.attr_index < t.schema_.num_attributes());
    dim += seg.width;
  }
  t.sample_dim_ = dim;
  if (t.options_.form == SampleForm::kMatrix) {
    t.matrix_side_ = CeilSqrt(dim);
    t.sample_dim_ = t.matrix_side_ * t.matrix_side_;
  }
  return t;
}

void RecordTransformer::EncodeRecord(const data::Table& table, size_t record,
                                     double* out) const {
  for (const AttrSegment& seg : segments_) {
    const double raw = table.value(record, seg.source_col);
    switch (seg.kind) {
      case AttrSegment::Kind::kSimpleNumeric: {
        const double norm =
            -1.0 + 2.0 * (raw - seg.v_min) / (seg.v_max - seg.v_min);
        out[seg.offset] = std::clamp(norm, -1.0, 1.0);
        break;
      }
      case AttrSegment::Kind::kGmmNumeric: {
        const size_t k = seg.gmm.MostLikelyComponent(raw);
        const double vgmm =
            (raw - seg.gmm.mean(k)) / (2.0 * seg.gmm.stddev(k));
        out[seg.offset] = std::clamp(vgmm, -1.0, 1.0);
        for (size_t c = 0; c < seg.gmm.num_components(); ++c)
          out[seg.offset + 1 + c] = (c == k) ? 1.0 : 0.0;
        break;
      }
      case AttrSegment::Kind::kOneHotCat: {
        const size_t idx = table.category(record, seg.source_col);
        for (size_t c = 0; c < seg.domain; ++c)
          out[seg.offset + c] = (c == idx) ? 1.0 : 0.0;
        break;
      }
      case AttrSegment::Kind::kOrdinalCat: {
        const size_t idx = table.category(record, seg.source_col);
        const double denom =
            seg.domain > 1 ? static_cast<double>(seg.domain - 1) : 1.0;
        out[seg.offset] =
            seg.lo + (seg.hi - seg.lo) * static_cast<double>(idx) / denom;
        break;
      }
    }
  }
}

Matrix RecordTransformer::Transform(const data::Table& table) const {
  Matrix out(table.num_records(), sample_dim_);
  for (size_t i = 0; i < table.num_records(); ++i)
    EncodeRecord(table, i, out.row(i));
  return out;
}

data::Table RecordTransformer::InverseTransform(const Matrix& samples) const {
  DAISY_CHECK(samples.cols() == sample_dim_);
  const kern::KernelTable& kt = kern::Active();
  data::Table out(schema_);
  out.Reserve(samples.rows());
  std::vector<double> record(schema_.num_attributes());
  for (size_t i = 0; i < samples.rows(); ++i) {
    const double* s = samples.row(i);
    for (const AttrSegment& seg : segments_) {
      double v = 0.0;
      switch (seg.kind) {
        case AttrSegment::Kind::kSimpleNumeric: {
          const double norm = std::clamp(s[seg.offset], -1.0, 1.0);
          v = seg.v_min + (norm + 1.0) / 2.0 * (seg.v_max - seg.v_min);
          break;
        }
        case AttrSegment::Kind::kGmmNumeric: {
          // Dispatched first-max-wins argmax over the component
          // selector (softmax outputs are NaN-free by construction).
          const size_t k =
              kt.argmax(s + seg.offset + 1, seg.gmm.num_components());
          const double vgmm = std::clamp(s[seg.offset], -1.0, 1.0);
          v = vgmm * 2.0 * seg.gmm.stddev(k) + seg.gmm.mean(k);
          break;
        }
        case AttrSegment::Kind::kOneHotCat: {
          v = static_cast<double>(kt.argmax(s + seg.offset, seg.domain));
          break;
        }
        case AttrSegment::Kind::kOrdinalCat: {
          const double norm = std::clamp(s[seg.offset], seg.lo, seg.hi);
          const double denom = seg.hi - seg.lo;
          const double scaled = (norm - seg.lo) / denom *
                                (static_cast<double>(seg.domain) - 1.0);
          v = std::clamp(std::round(scaled), 0.0,
                         static_cast<double>(seg.domain) - 1.0);
          break;
        }
      }
      record[seg.attr_index] = v;
    }
    out.AppendRecord(record);
  }
  return out;
}

}  // namespace daisy::transform
