#include "synth/sampler.h"

#include <algorithm>
#include <cmath>

namespace daisy::synth {

ChunkedShuffleSampler::ChunkedShuffleSampler(size_t num_records,
                                             size_t chunk_rows,
                                             uint64_t seed)
    : n_(num_records), chunk_rows_(chunk_rows), seed_(seed) {
  DAISY_CHECK(n_ > 0);
  if (chunk_rows_ == 0 || chunk_rows_ > n_) chunk_rows_ = n_;
  num_chunks_ = (n_ + chunk_rows_ - 1) / chunk_rows_;
  StartEpoch();
}

size_t ChunkedShuffleSampler::ChunkSize(size_t chunk) const {
  const size_t begin = chunk * chunk_rows_;
  return std::min(n_, begin + chunk_rows_) - begin;
}

void ChunkedShuffleSampler::StartEpoch() {
  visit_pos_ = 0;
  pos_within_ = 0;
  drawn_in_epoch_ = 0;
  within_.clear();
  // One derived stream per epoch; the golden-gamma multiplier keeps
  // consecutive epoch seeds far apart in splitmix64's input space.
  Rng rng(seed_ + 0x9E3779B97F4A7C15ULL *
                      (static_cast<uint64_t>(epoch_) + 1));
  chunk_order_ = rng.Permutation(num_chunks_);
  chunk_seeds_.resize(num_chunks_);
  for (auto& s : chunk_seeds_) s = rng.Next();
}

void ChunkedShuffleSampler::AdvanceChunk() {
  ++visit_pos_;
  pos_within_ = 0;
  within_.clear();
  if (visit_pos_ == num_chunks_) {
    ++epoch_;
    StartEpoch();
  }
}

size_t ChunkedShuffleSampler::NextIndex() {
  if (within_.empty()) {
    // Materialize the current chunk's permutation on first use (an
    // AdvanceRows skip may have left pos_within_ mid-chunk).
    const size_t chunk = chunk_order_[visit_pos_];
    Rng rng(chunk_seeds_[visit_pos_]);
    within_ = rng.Permutation(ChunkSize(chunk));
    const size_t base = chunk * chunk_rows_;
    for (auto& idx : within_) idx += base;
  }
  ++drawn_in_epoch_;
  const size_t idx = within_[pos_within_++];
  // Roll chunk (and epoch) boundaries eagerly, so the sampler state
  // after drawing k rows is identical to AdvanceRows(k) — epoch()
  // included — which is what makes resume fast-forward exact.
  if (pos_within_ >= within_.size()) AdvanceChunk();
  return idx;
}

std::vector<size_t> ChunkedShuffleSampler::SampleBatch(size_t m) {
  std::vector<size_t> out(m);
  for (auto& idx : out) idx = NextIndex();
  return out;
}

void ChunkedShuffleSampler::AdvanceRows(uint64_t rows) {
  // Resolve epoch crossings first, so the chunk walk below never has
  // to roll an epoch (it always consumes < n_ rows from the current
  // position).
  const uint64_t total = static_cast<uint64_t>(drawn_in_epoch_) + rows;
  if (total >= n_) {
    epoch_ += static_cast<size_t>(total / n_);
    rows = total % n_;
    StartEpoch();
  }
  while (rows > 0) {
    const uint64_t avail = ChunkSize(chunk_order_[visit_pos_]) - pos_within_;
    if (rows >= avail) {
      rows -= avail;
      drawn_in_epoch_ += static_cast<size_t>(avail);
      AdvanceChunk();  // whole-chunk skip: no permutation materialized
    } else {
      pos_within_ += static_cast<size_t>(rows);
      drawn_in_epoch_ += static_cast<size_t>(rows);
      rows = 0;
    }
  }
}

LabelAwareSampler::LabelAwareSampler(const data::Table& table)
    : LabelAwareSampler(table.Labels(), table.schema().num_labels()) {}

LabelAwareSampler::LabelAwareSampler(const std::vector<size_t>& labels,
                                     size_t num_labels) {
  by_label_.resize(num_labels);
  for (size_t i = 0; i < labels.size(); ++i) {
    DAISY_CHECK(labels[i] < num_labels);
    by_label_[labels[i]].push_back(i);
  }
}

std::vector<size_t> LabelAwareSampler::SampleBatchWithLabel(size_t label,
                                                            size_t m,
                                                            Rng* rng) const {
  DAISY_CHECK(label < by_label_.size());
  const auto& pool = by_label_[label];
  if (pool.empty()) return {};
  std::vector<size_t> out(m);
  for (auto& idx : out) idx = pool[rng->UniformInt(pool.size())];
  return out;
}

TrainingBySamplingSampler::TrainingBySamplingSampler(
    const std::vector<std::vector<size_t>>& columns,
    const std::vector<size_t>& domains) {
  DAISY_CHECK(!columns.empty());
  DAISY_CHECK(columns.size() == domains.size());
  pools_.resize(columns.size());
  log_weights_.resize(columns.size());
  bool any_rows = false;
  for (size_t b = 0; b < columns.size(); ++b) {
    DAISY_CHECK(domains[b] > 0);
    pools_[b].resize(domains[b]);
    for (size_t i = 0; i < columns[b].size(); ++i) {
      DAISY_CHECK(columns[b][i] < domains[b]);
      pools_[b][columns[b][i]].push_back(i);
    }
    log_weights_[b].resize(domains[b]);
    for (size_t c = 0; c < domains[b]; ++c) {
      const size_t count = pools_[b][c].size();
      // log1p flattens the head of a skewed distribution while keeping
      // absent categories at exactly zero weight (never drawn — there
      // is no row to pair the condition with).
      log_weights_[b][c] =
          count > 0 ? std::log1p(static_cast<double>(count)) : 0.0;
      any_rows = any_rows || count > 0;
    }
  }
  DAISY_CHECK(any_rows);
}

std::vector<TrainingBySamplingSampler::Draw>
TrainingBySamplingSampler::SampleBatch(size_t m, Rng* rng) const {
  std::vector<Draw> out(m);
  for (auto& d : out) {
    // Three serial rng draws per item, always in this order; a block
    // whose every category is absent cannot occur (blocks are built
    // from the table's own rows, so each block has >= 1 occupied
    // category whenever the table is non-empty).
    d.block = static_cast<size_t>(rng->UniformInt(pools_.size()));
    d.category = rng->Categorical(log_weights_[d.block]);
    const auto& pool = pools_[d.block][d.category];
    DAISY_CHECK(!pool.empty());
    d.row = pool[rng->UniformInt(pool.size())];
  }
  return out;
}

}  // namespace daisy::synth
