#include "relational/relational_synthesizer.h"

#include <cmath>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace daisy::rel {

namespace {

/// Declared table schema vs the schema the data actually arrived with
/// (CSV inference can disagree on types; catching it here beats a
/// cryptic transform failure three layers down).
Status CheckInputSchema(const data::RelationalTableDef& def,
                        const data::Schema& got) {
  if (got.num_attributes() != def.schema.num_attributes())
    return Status::InvalidArgument(
        "table '" + def.name + "': data has " +
        std::to_string(got.num_attributes()) + " columns, schema declares " +
        std::to_string(def.schema.num_attributes()));
  for (size_t j = 0; j < got.num_attributes(); ++j) {
    const auto& d = def.schema.attribute(j);
    const auto& g = got.attribute(j);
    if (d.name != g.name)
      return Status::InvalidArgument("table '" + def.name + "' column " +
                                     std::to_string(j) + ": data has '" +
                                     g.name + "', schema declares '" +
                                     d.name + "'");
    if (d.is_categorical() != g.is_categorical())
      return Status::InvalidArgument("table '" + def.name + "' column '" +
                                     d.name +
                                     "': categorical/numerical type differs "
                                     "between data and schema");
  }
  return Status::OK();
}

size_t InputRows(const RelationalInput& in) {
  return in.table != nullptr ? in.table->num_records()
                             : in.paged->num_records();
}

const data::Schema& InputSchema(const RelationalInput& in) {
  return in.table != nullptr ? in.table->schema() : in.paged->schema();
}

Result<std::vector<double>> ReadInputColumn(const RelationalInput& in,
                                            size_t col) {
  if (in.table != nullptr) return in.table->Column(col);
  std::vector<double> out(in.paged->num_records());
  DAISY_RETURN_IF_ERROR(
      in.paged->ScanColumn(col, 0, out.size(), out.data()));
  return out;
}

/// Training min/max of a column. The paged footer values are bitwise
/// equal to Table::AttributeMin/Max, which keeps the encoder — and so
/// the fitted model — byte-identical across the two input paths.
double InputMin(const RelationalInput& in, size_t col) {
  return in.table != nullptr ? in.table->AttributeMin(col)
                             : in.paged->attribute_min(col);
}
double InputMax(const RelationalInput& in, size_t col) {
  return in.table != nullptr ? in.table->AttributeMax(col)
                             : in.paged->attribute_max(col);
}

/// Encodes every record of a parent input (the real one at fit time, the
/// synthetic one at generation) with the child's encoder, reading
/// through the parent's kept columns.
Result<Matrix> EncodeParentInput(const RelationalInput& in,
                                 const std::vector<size_t>& kept,
                                 const ParentCondEncoder& encoder) {
  std::vector<std::vector<double>> cols;
  cols.reserve(encoder.features().size());
  for (const auto& f : encoder.features()) {
    auto col = ReadInputColumn(in, kept[f.source_col]);
    DAISY_RETURN_IF_ERROR(col.status());
    cols.push_back(std::move(col.value()));
  }
  return encoder.EncodeColumns(cols, InputRows(in));
}

/// Reassembles full-schema records around the GAN's modeled columns:
/// sequential synthetic primary keys 1..n, the FK column (if any) from
/// `fk_vals`, everything else from the modeled table in kept order.
data::Table AssembleTable(const data::Schema& full,
                          const std::vector<size_t>& kept,
                          const data::Table& modeled, size_t pk_col,
                          int fk_col, const std::vector<double>& fk_vals) {
  data::Table out(full);
  out.Reserve(modeled.num_records());
  std::vector<double> rec(full.num_attributes(), 0.0);
  for (size_t i = 0; i < modeled.num_records(); ++i) {
    rec[pk_col] = static_cast<double>(i + 1);
    if (fk_col >= 0) rec[static_cast<size_t>(fk_col)] = fk_vals[i];
    for (size_t k = 0; k < kept.size(); ++k)
      rec[kept[k]] = modeled.value(i, k);
    out.AppendRecord(rec);
  }
  return out;
}

}  // namespace

RelationalSynthesizer::RelationalSynthesizer(RelationalOptions options)
    : opts_(std::move(options)) {}

Status RelationalSynthesizer::Fit(const data::RelationalSchema& schema,
                                  const std::vector<RelationalInput>& inputs,
                                  obs::MetricSink* sink) {
  DAISY_CHECK(!fitted_);
  if (inputs.size() != schema.num_tables())
    return Status::InvalidArgument(
        "relational fit: " + std::to_string(inputs.size()) +
        " inputs for " + std::to_string(schema.num_tables()) + " tables");
  schema_ = schema;
  models_.clear();
  models_.resize(schema_.num_tables());

  for (size_t i = 0; i < inputs.size(); ++i) {
    const RelationalInput& in = inputs[i];
    if ((in.table != nullptr) == (in.paged != nullptr))
      return Status::InvalidArgument(
          "relational fit: table '" + schema_.table(i).name +
          "' must arrive as exactly one of in-memory or paged");
    DAISY_RETURN_IF_ERROR(CheckInputSchema(schema_.table(i), InputSchema(in)));
    if (InputRows(in) == 0)
      return Status::InvalidArgument("relational fit: table '" +
                                     schema_.table(i).name + "' is empty");
  }

  for (size_t t : schema_.TopologicalOrder()) {
    const data::RelationalTableDef& def = schema_.table(t);
    const RelationalInput& in = inputs[t];
    TableModel& tm = models_[t];
    tm.kept_cols = schema_.ModeledColumns(t);
    if (tm.kept_cols.empty())
      return Status::InvalidArgument("relational fit: table '" + def.name +
                                     "' has no non-key columns to model");
    tm.real_rows = InputRows(in);

    // One deterministic seed per DECLARED table index, so the per-table
    // parameter-init and training streams are independent of the topo
    // traversal and of every other table's data.
    synth::GanOptions gopts = opts_.gan;
    gopts.seed = opts_.gan.seed + t;

    const data::ForeignKey* edge = schema_.ParentEdge(t);
    Matrix row_cond;
    if (edge != nullptr) {
      const int pi = schema_.FindTable(edge->parent_table);
      DAISY_CHECK(pi >= 0);
      const size_t p = static_cast<size_t>(pi);
      const RelationalInput& pin = inputs[p];

      // Parent PK -> parent row. Duplicate keys break the join
      // semantics, so they are a hard error, not a quiet overwrite.
      auto pk_vals = ReadInputColumn(pin, schema_.PrimaryKeyColumn(p));
      DAISY_RETURN_IF_ERROR(pk_vals.status());
      std::unordered_map<double, size_t> pk_row;
      pk_row.reserve(pk_vals.value().size());
      for (size_t r = 0; r < pk_vals.value().size(); ++r) {
        if (!pk_row.emplace(pk_vals.value()[r], r).second)
          return Status::InvalidArgument(
              "relational fit: duplicate primary key in table '" +
              edge->parent_table + "'");
      }

      const int fk_col = def.schema.FindAttribute(edge->child_column);
      DAISY_CHECK(fk_col >= 0);
      auto fk_vals = ReadInputColumn(in, static_cast<size_t>(fk_col));
      DAISY_RETURN_IF_ERROR(fk_vals.status());
      std::vector<size_t> parent_row(fk_vals.value().size());
      std::vector<size_t> counts(pk_vals.value().size(), 0);
      for (size_t r = 0; r < fk_vals.value().size(); ++r) {
        const auto it = pk_row.find(fk_vals.value()[r]);
        if (it == pk_row.end())
          return Status::InvalidArgument(
              "relational fit: table '" + def.name + "' row " +
              std::to_string(r) + " has a dangling foreign key (no '" +
              edge->parent_table + "' row with that key)");
        parent_row[r] = it->second;
        ++counts[it->second];
      }

      auto card = CardinalityModel::Fit(counts);
      DAISY_RETURN_IF_ERROR(card.status());
      tm.cardinality = std::move(card.value());

      // Encoder over the parent's MODELED columns, min/max from the
      // training data (paged footers are bitwise equal to in-memory).
      const std::vector<size_t>& pkept = models_[p].kept_cols;
      const data::Schema pmodeled =
          data::ProjectSchema(schema_.table(p).schema, pkept);
      std::vector<double> mins(pkept.size()), maxs(pkept.size());
      for (size_t k = 0; k < pkept.size(); ++k) {
        mins[k] = InputMin(pin, pkept[k]);
        maxs[k] = InputMax(pin, pkept[k]);
      }
      tm.encoder = ParentCondEncoder::Build(pmodeled, mins, maxs);

      auto enc = EncodeParentInput(pin, pkept, tm.encoder);
      DAISY_RETURN_IF_ERROR(enc.status());
      row_cond = enc.value().GatherRows(parent_row);
    }

    tm.model =
        std::make_unique<synth::TableSynthesizer>(gopts, opts_.transform);
    Status health = Status::OK();
    if (in.table != nullptr) {
      const data::Table proj = data::ProjectColumns(*in.table, tm.kept_cols);
      health = edge != nullptr ? tm.model->FitConditioned(proj, row_cond, sink)
                               : tm.model->Fit(proj, sink);
    } else {
      auto proj = in.paged->Project(tm.kept_cols);
      DAISY_RETURN_IF_ERROR(proj.status());
      health = edge != nullptr
                   ? tm.model->FitConditioned(*proj.value(), row_cond, sink)
                   : tm.model->Fit(*proj.value(), sink);
    }
    if (!health.ok())
      return Status::InvalidArgument("relational fit: table '" + def.name +
                                     "': " + health.message());
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<data::Table>> RelationalSynthesizer::Generate(
    double scale, Rng* rng) const {
  if (!fitted_)
    return Status::FailedPrecondition(
        "relational generate: synthesizer is not fitted");
  if (!(scale > 0.0))
    return Status::InvalidArgument("relational generate: scale must be > 0");

  std::vector<data::Table> out(schema_.num_tables());
  for (size_t t : schema_.TopologicalOrder()) {
    const data::RelationalTableDef& def = schema_.table(t);
    const TableModel& tm = models_[t];
    const size_t pk_col = schema_.PrimaryKeyColumn(t);
    const data::ForeignKey* edge = schema_.ParentEdge(t);

    if (edge == nullptr) {
      const size_t n = std::max<size_t>(
          1, static_cast<size_t>(
                 std::llround(scale * static_cast<double>(tm.real_rows))));
      const data::Table modeled = tm.model->Generate(n, rng);
      out[t] = AssembleTable(def.schema, tm.kept_cols, modeled, pk_col, -1,
                             {});
      continue;
    }

    const size_t p = static_cast<size_t>(schema_.FindTable(edge->parent_table));
    const data::Table& parent = out[p];
    const size_t parent_pk = schema_.PrimaryKeyColumn(p);
    const size_t n_parent = parent.num_records();

    // rng draw order for a child table: ALL cardinality draws first
    // (one per synthetic parent, in parent row order), then the per-row
    // generation latents inside GenerateConditioned. Fixed order keeps
    // the output a pure function of (bundle, seed).
    std::vector<size_t> counts(n_parent);
    size_t total = 0;
    for (size_t r = 0; r < n_parent; ++r) {
      counts[r] = tm.cardinality.Sample(rng);
      total += counts[r];
    }
    if (total == 0) {
      out[t] = data::Table(def.schema);
      continue;
    }

    auto enc = EncodeParentInput({&parent, nullptr}, models_[p].kept_cols,
                                 tm.encoder);
    DAISY_RETURN_IF_ERROR(enc.status());
    std::vector<size_t> parent_of;
    parent_of.reserve(total);
    for (size_t r = 0; r < n_parent; ++r)
      for (size_t c = 0; c < counts[r]; ++c) parent_of.push_back(r);

    auto modeled =
        tm.model->GenerateConditioned(enc.value().GatherRows(parent_of), rng);
    DAISY_RETURN_IF_ERROR(modeled.status());

    const int fk_col = def.schema.FindAttribute(edge->child_column);
    DAISY_CHECK(fk_col >= 0);
    std::vector<double> fk_vals(total);
    for (size_t i = 0; i < total; ++i)
      fk_vals[i] = parent.value(parent_of[i], parent_pk);
    out[t] = AssembleTable(def.schema, tm.kept_cols, modeled.value(), pk_col,
                           fk_col, fk_vals);
  }
  return out;
}

Status RelationalSynthesizer::Save(const std::string& path) const {
  if (!fitted_)
    return Status::FailedPrecondition("cannot save an unfitted relational "
                                      "model");
  RelationalBundle b;
  b.tables.reserve(schema_.num_tables());
  for (size_t i = 0; i < schema_.num_tables(); ++i) {
    const data::RelationalTableDef& def = schema_.table(i);
    const TableModel& tm = models_[i];
    BundleTable bt;
    bt.name = def.name;
    bt.schema = def.schema;
    bt.primary_key = def.primary_key;
    const data::ForeignKey* edge = schema_.ParentEdge(i);
    if (edge != nullptr) {
      bt.has_parent = true;
      bt.fk_column = edge->child_column;
      bt.fk_parent_table = edge->parent_table;
      bt.fk_parent_column = edge->parent_column;
      bt.cardinality = tm.cardinality;
      bt.encoder = tm.encoder;
    }
    bt.real_rows = tm.real_rows;
    bt.kept_cols.assign(tm.kept_cols.begin(), tm.kept_cols.end());
    std::ostringstream os;
    DAISY_RETURN_IF_ERROR(tm.model->SaveToStream(os));
    bt.model_blob = os.str();
    b.tables.push_back(std::move(bt));
  }
  return SaveBundle(b, path);
}

Result<std::unique_ptr<RelationalSynthesizer>> RelationalSynthesizer::Load(
    const std::string& path) {
  auto bundle = LoadBundle(path);
  DAISY_RETURN_IF_ERROR(bundle.status());
  const RelationalBundle& b = bundle.value();

  // Rebuild and re-validate the relational schema: a bundle that names
  // a missing parent table or a non-PK reference is corrupt in a way
  // the checksum cannot see (it protects bytes, not semantics).
  std::vector<data::RelationalTableDef> defs;
  std::vector<data::ForeignKey> fks;
  defs.reserve(b.tables.size());
  for (const BundleTable& bt : b.tables) {
    defs.push_back({bt.name, bt.schema, bt.primary_key});
    if (bt.has_parent)
      fks.push_back(
          {bt.name, bt.fk_column, bt.fk_parent_table, bt.fk_parent_column});
  }
  auto schema = data::RelationalSchema::Create(std::move(defs),
                                               std::move(fks));
  DAISY_RETURN_IF_ERROR(schema.status());

  auto synth = std::make_unique<RelationalSynthesizer>(RelationalOptions{});
  synth->schema_ = std::move(schema.value());
  synth->models_.resize(b.tables.size());
  for (size_t i = 0; i < b.tables.size(); ++i) {
    const BundleTable& bt = b.tables[i];
    TableModel& tm = synth->models_[i];
    tm.real_rows = bt.real_rows;
    tm.kept_cols.assign(bt.kept_cols.begin(), bt.kept_cols.end());
    const std::vector<size_t> expect = synth->schema_.ModeledColumns(i);
    if (tm.kept_cols != expect)
      return Status::InvalidArgument(
          "bundle table '" + bt.name +
          "': stored modeled columns disagree with its schema");
    std::istringstream is(bt.model_blob);
    auto model = synth::TableSynthesizer::LoadFromStream(is);
    if (!model.ok())
      return Status::InvalidArgument("bundle table '" + bt.name +
                                     "': " + model.status().message());
    tm.model = std::move(model.value());
    // A child's model conditions on parent rows as wide as its encoder
    // output; a root's model never conditions on parent rows.
    const synth::ConditionSource& cond = tm.model->condition();
    const size_t parent_width =
        cond.kind() == synth::ConditionKind::kParentRows ? cond.dim() : 0;
    if (parent_width != (bt.has_parent ? bt.encoder.cond_dim() : 0))
      return Status::InvalidArgument(
          "bundle table '" + bt.name +
          "': its model's parent-row width disagrees with its parent edge");
    if (bt.has_parent) {
      tm.cardinality = bt.cardinality;
      tm.encoder = bt.encoder;
      if (tm.cardinality.weights().empty())
        return Status::InvalidArgument("bundle table '" + bt.name +
                                       "': empty cardinality model");
    }
  }
  synth->fitted_ = true;
  return synth;
}

}  // namespace daisy::rel
