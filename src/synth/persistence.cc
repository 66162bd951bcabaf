// Model persistence for TableSynthesizer (Save/Load declared in
// synthesizer.h). The payload is the tagged text stream of
// core/serial.h led by the "daisy-model-v3" tag. SaveToStream/
// LoadFromStream carry exactly that payload, so a container format (the
// relational bundle) can embed many models inside one checksummed file;
// the path forms add the core/durable checksum trailer and write
// through an AtomicFile. Every enum goes through its wire-code table,
// and LoadFromStream checks every code, width and layout field before
// it builds anything, so a forged stream is refused with
// InvalidArgument rather than a crash.
#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>

#include "core/durable.h"
#include "core/serial.h"
#include "data/schema_serial.h"
#include "synth/synthesizer.h"

namespace daisy::synth {

namespace {

// The only payload version read (DESIGN.md §5k).
constexpr char kFormatTag[] = "daisy-model-v3";

// Far above the paper's configurations (widths <= 512), small enough
// that a forged width cannot drive a pathological allocation.
constexpr uint64_t kMaxWidth = 1u << 12;
constexpr uint64_t kMaxCondDim = 1u << 16;

// The code that stands for one enumerator in the payload. Each
// persisted enum has one table of them (DESIGN.md §5k), so the file
// format does not depend on declaration order. A code names one
// enumerator for good: deleting an enumerator retires its code, which
// is never reused, and the reader refuses it like any unknown code.
template <typename E>
struct WireCode {
  E value;
  uint64_t code;
};

using transform::AttrSegment;
using transform::CategoricalEncoding;
using transform::NumericalNormalization;
using transform::SampleForm;

constexpr WireCode<GeneratorArch> kGeneratorCodes[] = {
    {GeneratorArch::kMlp, 0}, {GeneratorArch::kLstm, 1},
    {GeneratorArch::kCnn, 2}};
// Code 2 (a bidirectional LSTM) is retired.
constexpr WireCode<DiscriminatorArch> kDiscriminatorCodes[] = {
    {DiscriminatorArch::kMlp, 0}, {DiscriminatorArch::kLstm, 1},
    {DiscriminatorArch::kCnn, 3}};
constexpr WireCode<SamplerKind> kSamplerCodes[] = {
    {SamplerKind::kUniform, 0}, {SamplerKind::kChunkedShuffle, 1},
    {SamplerKind::kTrainingBySampling, 2}};
constexpr WireCode<CategoricalEncoding> kCategoricalCodes[] = {
    {CategoricalEncoding::kOrdinal, 0}, {CategoricalEncoding::kOneHot, 1}};
constexpr WireCode<NumericalNormalization> kNumericalCodes[] = {
    {NumericalNormalization::kSimple, 0}, {NumericalNormalization::kGmm, 1}};
constexpr WireCode<SampleForm> kFormCodes[] = {{SampleForm::kVector, 0},
                                               {SampleForm::kMatrix, 1}};
constexpr WireCode<AttrSegment::Kind> kSegmentKindCodes[] = {
    {AttrSegment::Kind::kSimpleNumeric, 0},
    {AttrSegment::Kind::kGmmNumeric, 1},
    {AttrSegment::Kind::kOneHotCat, 2},
    {AttrSegment::Kind::kOrdinalCat, 3}};

template <typename E, size_t N>
void WriteCode(Serializer* out, const WireCode<E> (&codes)[N], E value) {
  const auto* it =
      std::find_if(std::begin(codes), std::end(codes),
                   [value](const auto& c) { return c.value == value; });
  DAISY_CHECK(it != std::end(codes));
  out->WriteU64(it->code);
}

// Reads one code of `codes`, latching a failure on any other value.
template <typename E, size_t N>
E ReadCode(Deserializer* in, const WireCode<E> (&codes)[N],
           const char* what) {
  const uint64_t v = in->ReadU64();
  for (const auto& c : codes)
    if (c.code == v) return c.value;
  if (in->ok())
    in->Fail("unknown " + std::string(what) + " code " + std::to_string(v));
  return codes[0].value;
}

void WriteSegments(Serializer* out,
                   const std::vector<AttrSegment>& segments) {
  out->WriteTag("segments");
  out->WriteU64(segments.size());
  for (const auto& seg : segments) {
    WriteCode(out, kSegmentKindCodes, seg.kind);
    out->WriteU64(seg.attr_index);
    out->WriteU64(seg.source_col);
    out->WriteU64(seg.offset);
    out->WriteU64(seg.width);
    out->WriteDouble(seg.v_min);
    out->WriteDouble(seg.v_max);
    out->WriteDouble(seg.lo);
    out->WriteDouble(seg.hi);
    out->WriteU64(seg.domain);
    const bool has_gmm = seg.kind == AttrSegment::Kind::kGmmNumeric;
    out->WriteU64(has_gmm ? seg.gmm.num_components() : 0);
    if (has_gmm) {
      for (size_t c = 0; c < seg.gmm.num_components(); ++c) {
        out->WriteDouble(seg.gmm.mean(c));
        out->WriteDouble(seg.gmm.stddev(c));
        out->WriteDouble(seg.gmm.weight(c));
      }
    }
  }
}

std::vector<AttrSegment> ReadSegments(Deserializer* in) {
  in->ExpectTag("segments");
  const size_t n = in->ReadU64();
  if (!in->ok() || n > 100000) return {};
  std::vector<AttrSegment> segments(n);
  for (auto& seg : segments) {
    seg.kind = ReadCode(in, kSegmentKindCodes, "segment kind");
    seg.attr_index = in->ReadU64();
    seg.source_col = in->ReadU64();
    seg.offset = in->ReadU64();
    seg.width = in->ReadU64();
    seg.v_min = in->ReadDouble();
    seg.v_max = in->ReadDouble();
    seg.lo = in->ReadDouble();
    seg.hi = in->ReadDouble();
    seg.domain = in->ReadU64();
    const size_t gmm_components = in->ReadU64();
    if (!in->ok() || gmm_components > 1000) return {};
    if (gmm_components > 0) {
      std::vector<double> means(gmm_components), sds(gmm_components),
          ws(gmm_components);
      for (size_t c = 0; c < gmm_components; ++c) {
        means[c] = in->ReadDouble();
        sds[c] = in->ReadDouble();
        ws[c] = in->ReadDouble();
      }
      if (std::any_of(sds.begin(), sds.end(),
                      [](double sd) { return !(sd > 0.0); }))
        in->Fail("non-positive gmm stddev");
      if (!in->ok()) return {};
      seg.gmm = stats::Gmm1d::FromParams(std::move(means), std::move(sds),
                                         std::move(ws));
    }
  }
  return segments;
}

// Refuses, as InvalidArgument, what Fit could never have written:
// implausible widths, and schemas or segments that FromState,
// BuildNetworks or DecodeRows would trip over. The condition rule and
// the condition slots are checked as they are read.
Status Validate(const GanOptions& o, ConditionKind kind, size_t parent_dim,
                SampleForm form, const data::Schema& full,
                const data::Schema& sub,
                const std::vector<AttrSegment>& segments) {
  const auto bad = [](const std::string& what) {
    return Status::InvalidArgument("corrupt model file: " + what);
  };
  const auto width_ok = [](size_t w) { return w >= 1 && w <= kMaxWidth; };
  const bool label = kind == ConditionKind::kLabel;
  if (!width_ok(o.noise_dim) || !width_ok(o.lstm_hidden) ||
      !width_ok(o.lstm_feature) || parent_dim > kMaxCondDim ||
      !std::all_of(o.g_hidden.begin(), o.g_hidden.end(), width_ok) ||
      !std::all_of(o.d_hidden.begin(), o.d_hidden.end(), width_ok))
    return bad("implausible network width");
  // One segment per attribute, in schema order, minus the label under
  // label conditioning (DecodeRows re-inserts it).
  if (segments.empty() || segments.size() != sub.num_attributes() ||
      sub.num_attributes() + (label ? 1 : 0) != full.num_attributes())
    return bad("transformed schema does not match the table schema");
  using Kind = AttrSegment::Kind;
  size_t i = 0, dim = 0;
  for (size_t j = 0; j < full.num_attributes(); ++j) {
    if (label && j == full.label_index()) continue;
    const AttrSegment& seg = segments[i];
    const data::Attribute& a = full.attribute(j);
    const bool categorical =
        seg.kind == Kind::kOneHotCat || seg.kind == Kind::kOrdinalCat;
    const size_t width = seg.kind == Kind::kOneHotCat ? seg.domain
                         : seg.kind == Kind::kGmmNumeric
                             ? 1 + seg.gmm.num_components()
                             : 1;
    if (a.type != sub.attribute(i).type ||
        a.domain_size() != sub.attribute(i).domain_size() ||
        categorical != a.is_categorical() || seg.attr_index != i ||
        seg.source_col != j || seg.offset != dim || seg.width != width ||
        (categorical && (seg.domain == 0 || seg.domain != a.domain_size())) ||
        (seg.kind == Kind::kOrdinalCat && !(seg.hi > seg.lo)) ||
        (seg.kind == Kind::kGmmNumeric && seg.gmm.num_components() == 0))
      return bad("segment " + std::to_string(i) + " does not match its "
                 "attribute");
    dim += seg.width;
    ++i;
  }
  // The generator's output must be as wide as the transformer's sample,
  // and the CNN nets need a square sample of side >= 2.
  const bool cnn_g = o.generator == GeneratorArch::kCnn;
  const bool matrix = cnn_g || form == SampleForm::kMatrix;
  size_t side = 0;
  while (side * side < dim) ++side;
  if ((cnn_g || o.discriminator == DiscriminatorArch::kCnn) &&
      (!matrix || side < 2))
    return bad("CNN networks need a matrix-formed sample");
  if (matrix && !cnn_g && side * side != dim)
    return bad("generator output does not match the sample width");
  return Status::OK();
}

}  // namespace

Status TableSynthesizer::SaveToStream(std::ostream& os) const {
  if (!fitted_)
    return Status::FailedPrecondition("cannot save an unfitted model");
  Serializer out(&os);

  out.WriteTag(kFormatTag);
  // Options needed to rebuild the networks.
  WriteCode(&out, kGeneratorCodes, opts_.generator);
  WriteCode(&out, kDiscriminatorCodes, opts_.discriminator);
  out.WriteU64(opts_.conditional ? 1 : 0);
  out.WriteU64(opts_.simplified_discriminator ? 1 : 0);
  out.WriteU64(opts_.noise_dim);
  out.WriteU64(opts_.g_hidden.size());
  for (size_t w : opts_.g_hidden) out.WriteU64(w);
  out.WriteU64(opts_.d_hidden.size());
  for (size_t w : opts_.d_hidden) out.WriteU64(w);
  out.WriteU64(opts_.lstm_hidden);
  out.WriteU64(opts_.lstm_feature);
  out.WriteU64(opts_.seed);
  // With the conditional flag, the sampler kind and the parent width
  // decide the condition source at load time (ResolveConditionKind).
  WriteCode(&out, kSamplerCodes, opts_.sampler);
  out.WriteU64(cond_->kind() == ConditionKind::kParentRows ? cond_->dim()
                                                           : 0);
  // Transform options.
  WriteCode(&out, kCategoricalCodes, topts_.categorical);
  WriteCode(&out, kNumericalCodes, topts_.numerical);
  WriteCode(&out, kFormCodes, topts_.form);
  out.WriteU64(topts_.gmm_components);
  out.WriteU64(topts_.exclude_label ? 1 : 0);

  data::SerializeSchema(&out, full_schema_);
  data::SerializeSchema(&out, transformer_->schema());
  WriteSegments(&out, transformer_->segments());
  cond_->Save(&out);

  // Current generator parameters and buffers.
  auto* self = const_cast<TableSynthesizer*>(this);
  const StateDict state = GetState(self->g_->Params());
  out.WriteTag("generator");
  out.WriteU64(state.size());
  for (const Matrix& m : state) out.WriteMatrix(m);
  const auto buffers = self->g_->Buffers();
  out.WriteTag("buffers");
  out.WriteU64(buffers.size());
  for (const Matrix* m : buffers) out.WriteMatrix(*m);

  os.flush();
  if (!os) return Status::IOError("model stream write failed");
  return Status::OK();
}

Status TableSynthesizer::Save(const std::string& path) const {
  std::ostringstream os;
  DAISY_RETURN_IF_ERROR(SaveToStream(os));
  std::string bytes = std::move(os).str();
  AppendChecksumTrailer(&bytes);
  return WriteFileAtomic(path, bytes);
}

Result<std::unique_ptr<TableSynthesizer>> TableSynthesizer::LoadFromStream(
    std::istream& file) {
  Deserializer in(&file);
  in.ExpectTag(kFormatTag);
  if (!in.ok())
    return Status::InvalidArgument("not a " + std::string(kFormatTag) +
                                   " model: " + in.error());

  GanOptions opts;
  opts.generator = ReadCode(&in, kGeneratorCodes, "generator");
  opts.discriminator = ReadCode(&in, kDiscriminatorCodes, "discriminator");
  opts.conditional = in.ReadU64() == 1;
  opts.simplified_discriminator = in.ReadU64() == 1;
  opts.noise_dim = in.ReadU64();
  const size_t ng = in.ReadU64();
  if (!in.ok() || ng > 64)
    return Status::InvalidArgument("corrupt model file: " + in.error());
  opts.g_hidden.assign(ng, 0);
  for (auto& w : opts.g_hidden) w = in.ReadU64();
  const size_t nd = in.ReadU64();
  if (!in.ok() || nd > 64)
    return Status::InvalidArgument("corrupt model file: " + in.error());
  opts.d_hidden.assign(nd, 0);
  for (auto& w : opts.d_hidden) w = in.ReadU64();
  opts.lstm_hidden = in.ReadU64();
  opts.lstm_feature = in.ReadU64();
  opts.seed = in.ReadU64();
  opts.sampler = ReadCode(&in, kSamplerCodes, "sampler");
  const size_t parent_dim = in.ReadU64();
  auto kind = ResolveConditionKind(opts, parent_dim > 0);
  if (!kind.ok()) return kind.status().WithPrefix("corrupt model file: ");

  transform::TransformOptions topts;
  topts.categorical = ReadCode(&in, kCategoricalCodes, "categorical encoding");
  topts.numerical = ReadCode(&in, kNumericalCodes, "numerical normalization");
  topts.form = ReadCode(&in, kFormCodes, "sample form");
  topts.gmm_components = in.ReadU64();
  topts.exclude_label = in.ReadU64() == 1;

  data::Schema full_schema = data::DeserializeSchema(&in);
  data::Schema sub_schema = data::DeserializeSchema(&in);
  auto segments = ReadSegments(&in);
  auto cond = LoadConditionSource(&in, kind.value(), parent_dim, full_schema,
                                  segments);
  DAISY_RETURN_IF_ERROR(cond.status());

  in.ExpectTag("generator");
  const size_t num_params = in.ReadU64();
  if (!in.ok() || num_params > 10000)
    return Status::InvalidArgument("corrupt model file: " + in.error());
  StateDict state(num_params);
  for (auto& m : state) m = in.ReadMatrix();
  in.ExpectTag("buffers");
  const size_t num_buffers = in.ReadU64();
  if (!in.ok() || num_buffers > 10000)
    return Status::InvalidArgument("corrupt model file: " + in.error());
  std::vector<Matrix> buffers(num_buffers);
  for (auto& m : buffers) m = in.ReadMatrix();
  if (!in.ok())
    return Status::InvalidArgument("corrupt model file: " + in.error());
  DAISY_RETURN_IF_ERROR(Validate(opts, kind.value(), parent_dim, topts.form,
                                 full_schema, sub_schema, segments));

  auto synth = std::unique_ptr<TableSynthesizer>(
      new TableSynthesizer(opts, topts));
  synth->full_schema_ = std::move(full_schema);
  synth->cond_ = cond.take();
  synth->transformer_ = std::make_unique<transform::RecordTransformer>(
      transform::RecordTransformer::FromState(synth->topts_, sub_schema,
                                              std::move(segments)));
  synth->BuildNetworks();
  const auto params = synth->g_->Params();
  const auto buffer_ptrs = synth->g_->Buffers();
  if (!ShapesMatch(params, state) || !BufferShapesMatch(buffer_ptrs, buffers))
    return Status::InvalidArgument("model file does not match its networks");
  SetState(params, state);
  SetBufferState(buffer_ptrs, buffers);
  synth->final_state_ = std::move(state);
  synth->fitted_ = true;
  return synth;
}

Result<std::unique_ptr<TableSynthesizer>> TableSynthesizer::Load(
    const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == Status::Code::kNotFound)
      return Status::IOError("cannot open for read: " + path);
    return bytes.status();
  }
  auto payload_len = VerifyChecksumTrailer(bytes.value(), "model");
  if (!payload_len.ok())
    return payload_len.status().WithPrefix("model '" + path + "': ");
  bytes.value().resize(payload_len.value());
  std::istringstream is(bytes.take());
  return LoadFromStream(is);
}

}  // namespace daisy::synth
