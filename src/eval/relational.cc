#include "eval/relational.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "obs/timer.h"

namespace daisy::eval {

namespace {

/// Children-per-parent counts keyed by parent ROW (zero included).
/// Child rows whose FK matches no parent are skipped here — dangling
/// links are FkValidityRate's finding, not a join size.
std::vector<size_t> ChildrenPerParent(const data::Table& parent,
                                      size_t parent_pk,
                                      const data::Table& child,
                                      size_t child_fk) {
  std::unordered_map<double, size_t> pk_row;
  pk_row.reserve(parent.num_records());
  for (size_t r = 0; r < parent.num_records(); ++r)
    pk_row.emplace(parent.value(r, parent_pk), r);
  std::vector<size_t> counts(parent.num_records(), 0);
  for (size_t r = 0; r < child.num_records(); ++r) {
    const auto it = pk_row.find(child.value(r, child_fk));
    if (it != pk_row.end()) ++counts[it->second];
  }
  return counts;
}

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = x.size();
  if (n == 0) return 0.0;
  double mx = 0.0, my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

Status CheckKeyColumn(const data::Table& t, size_t col, const char* what) {
  if (col >= t.num_attributes())
    return Status::InvalidArgument(std::string(what) +
                                   " column index out of range");
  if (t.schema().attribute(col).is_categorical())
    return Status::InvalidArgument(std::string(what) +
                                   " column must be numerical");
  return Status::OK();
}

}  // namespace

Result<double> FkValidityRate(const data::Table& parent, size_t parent_pk,
                              const data::Table& child, size_t child_fk) {
  DAISY_RETURN_IF_ERROR(CheckKeyColumn(parent, parent_pk, "parent key"));
  DAISY_RETURN_IF_ERROR(CheckKeyColumn(child, child_fk, "child key"));
  if (child.num_records() == 0) return 1.0;
  std::unordered_set<double> keys;
  keys.reserve(parent.num_records());
  for (size_t r = 0; r < parent.num_records(); ++r)
    keys.insert(parent.value(r, parent_pk));
  size_t valid = 0;
  for (size_t r = 0; r < child.num_records(); ++r)
    if (keys.count(child.value(r, child_fk)) > 0) ++valid;
  return static_cast<double>(valid) /
         static_cast<double>(child.num_records());
}

Result<double> JoinSizeKl(const data::Table& real_parent, size_t real_pk,
                          const data::Table& real_child, size_t real_fk,
                          const data::Table& synth_parent, size_t synth_pk,
                          const data::Table& synth_child, size_t synth_fk) {
  DAISY_RETURN_IF_ERROR(CheckKeyColumn(real_parent, real_pk, "parent key"));
  DAISY_RETURN_IF_ERROR(CheckKeyColumn(real_child, real_fk, "child key"));
  DAISY_RETURN_IF_ERROR(CheckKeyColumn(synth_parent, synth_pk, "parent key"));
  DAISY_RETURN_IF_ERROR(CheckKeyColumn(synth_child, synth_fk, "child key"));
  if (real_parent.num_records() == 0 || synth_parent.num_records() == 0)
    return Status::InvalidArgument("join-size KL needs non-empty parents");

  const auto real_counts =
      ChildrenPerParent(real_parent, real_pk, real_child, real_fk);
  const auto synth_counts =
      ChildrenPerParent(synth_parent, synth_pk, synth_child, synth_fk);

  const size_t max_real =
      *std::max_element(real_counts.begin(), real_counts.end());
  const size_t max_synth =
      *std::max_element(synth_counts.begin(), synth_counts.end());
  const size_t support = std::max(max_real, max_synth) + 1;

  std::vector<double> p(support, 0.0), q(support, 0.0);
  for (size_t c : real_counts) p[c] += 1.0;
  for (size_t c : synth_counts) q[c] += 1.0;

  // Laplace smoothing over the union support keeps KL finite when the
  // synthetic fan-out misses a count the real data has.
  const double eps = 1.0;
  const double np = static_cast<double>(real_counts.size()) +
                    eps * static_cast<double>(support);
  const double nq = static_cast<double>(synth_counts.size()) +
                    eps * static_cast<double>(support);
  double kl = 0.0;
  for (size_t c = 0; c < support; ++c) {
    const double pc = (p[c] + eps) / np;
    const double qc = (q[c] + eps) / nq;
    kl += pc * std::log(pc / qc);
  }
  return kl;
}

Result<double> CrossTableCorrDiff(
    const data::RelationalSchema& schema, size_t child_index,
    const data::Table& real_parent, const data::Table& real_child,
    const data::Table& synth_parent, const data::Table& synth_child) {
  const data::ForeignKey* edge = schema.ParentEdge(child_index);
  if (edge == nullptr)
    return Status::InvalidArgument("table '" +
                                   schema.table(child_index).name +
                                   "' has no parent edge");
  const int pi = schema.FindTable(edge->parent_table);
  DAISY_CHECK(pi >= 0);
  const size_t parent_index = static_cast<size_t>(pi);
  const size_t parent_pk = schema.PrimaryKeyColumn(parent_index);
  const int fk = schema.table(child_index)
                     .schema.FindAttribute(edge->child_column);
  DAISY_CHECK(fk >= 0);
  const size_t child_fk = static_cast<size_t>(fk);

  // Numeric non-key columns on both sides.
  std::vector<size_t> pcols, ccols;
  for (size_t j : schema.ModeledColumns(parent_index))
    if (!schema.table(parent_index).schema.attribute(j).is_categorical())
      pcols.push_back(j);
  for (size_t j : schema.ModeledColumns(child_index))
    if (!schema.table(child_index).schema.attribute(j).is_categorical())
      ccols.push_back(j);
  if (pcols.empty() || ccols.empty()) return 0.0;

  // corr over the FK inner join, per table pair.
  auto join_corrs = [&](const data::Table& parent, const data::Table& child)
      -> std::vector<double> {
    std::unordered_map<double, size_t> pk_row;
    pk_row.reserve(parent.num_records());
    for (size_t r = 0; r < parent.num_records(); ++r)
      pk_row.emplace(parent.value(r, parent_pk), r);
    std::vector<size_t> child_rows, parent_rows;
    for (size_t r = 0; r < child.num_records(); ++r) {
      const auto it = pk_row.find(child.value(r, child_fk));
      if (it == pk_row.end()) continue;
      child_rows.push_back(r);
      parent_rows.push_back(it->second);
    }
    std::vector<double> corrs;
    corrs.reserve(pcols.size() * ccols.size());
    std::vector<double> x(child_rows.size()), y(child_rows.size());
    for (size_t a : pcols) {
      for (size_t i = 0; i < parent_rows.size(); ++i)
        x[i] = parent.value(parent_rows[i], a);
      for (size_t b : ccols) {
        for (size_t i = 0; i < child_rows.size(); ++i)
          y[i] = child.value(child_rows[i], b);
        corrs.push_back(Pearson(x, y));
      }
    }
    return corrs;
  };

  const auto real_corrs = join_corrs(real_parent, real_child);
  const auto synth_corrs = join_corrs(synth_parent, synth_child);
  DAISY_CHECK(real_corrs.size() == synth_corrs.size());
  if (real_corrs.empty()) return 0.0;
  double diff = 0.0;
  for (size_t i = 0; i < real_corrs.size(); ++i)
    diff += std::fabs(real_corrs[i] - synth_corrs[i]);
  return diff / static_cast<double>(real_corrs.size());
}

Result<SuiteReport> RunRelationalSuite(
    const data::RelationalSchema& schema,
    const std::vector<data::Table>& real,
    const std::vector<data::Table>& synth, obs::MetricSink* sink) {
  if (real.size() != schema.num_tables() ||
      synth.size() != schema.num_tables())
    return Status::InvalidArgument(
        "relational suite: table vectors must parallel the schema");
  SuiteReport report;
  MetricEmitter emit(&report, sink, /*seed=*/0);

  for (size_t i = 0; i < schema.num_tables(); ++i) {
    const data::ForeignKey* edge = schema.ParentEdge(i);
    if (edge == nullptr) continue;
    const std::string& child = schema.table(i).name;
    const size_t p = static_cast<size_t>(schema.FindTable(edge->parent_table));
    const size_t parent_pk = schema.PrimaryKeyColumn(p);
    const int fk = schema.table(i).schema.FindAttribute(edge->child_column);
    DAISY_CHECK(fk >= 0);

    {
      obs::WallTimer t;
      auto v = FkValidityRate(synth[p], parent_pk, synth[i],
                              static_cast<size_t>(fk));
      DAISY_RETURN_IF_ERROR(v.status());
      emit.Add("relational.fk_validity." + child, v.value(), t.ElapsedMs());
    }
    {
      obs::WallTimer t;
      auto v = JoinSizeKl(real[p], parent_pk, real[i],
                          static_cast<size_t>(fk), synth[p], parent_pk,
                          synth[i], static_cast<size_t>(fk));
      DAISY_RETURN_IF_ERROR(v.status());
      emit.Add("relational.join_size_kl." + child, v.value(), t.ElapsedMs());
    }
    {
      obs::WallTimer t;
      auto v = CrossTableCorrDiff(schema, i, real[p], real[i], synth[p],
                                  synth[i]);
      DAISY_RETURN_IF_ERROR(v.status());
      emit.Add("relational.xcorr_diff." + child, v.value(), t.ElapsedMs());
    }
  }
  report.total_ms = emit.ElapsedMs();
  if (sink != nullptr) DAISY_RETURN_IF_ERROR(sink->Flush());
  return report;
}

}  // namespace daisy::eval
