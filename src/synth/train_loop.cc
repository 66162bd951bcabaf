#include "synth/train_loop.h"

#include <algorithm>

#include "core/parallel.h"
#include "obs/sentinel.h"

namespace daisy::synth {

namespace {

Status Refuse(const std::string& why) {
  return Status::InvalidArgument("checkpoint " + why);
}

}  // namespace

TrainLoop::TrainLoop(const LoopOptions& options, std::string run,
                     uint64_t seed, uint64_t num_phases,
                     obs::MetricSink* sink)
    : opts_(options), run_(std::move(run)), seed_(seed),
      num_phases_(num_phases), sink_(sink) {
  if (!opts_.checkpoint_dir.empty())
    store_ = std::make_unique<ckpt::CheckpointStore>(opts_.checkpoint_dir,
                                                     opts_.checkpoint_keep);
}

LoopOutcome TrainLoop::Run(const LoopPhase& p) {
  LoopOutcome out;
  // The generation path at the end of the last healthy iteration: what
  // the method keeps if the sentinel trips later. Buffers (batch-norm
  // running stats) are tracked too: inference reads them, and they
  // drift on every training-mode forward pass.
  StateDict last_healthy = GetState(p.healthy_params);
  StateDict last_healthy_buffers = GetBufferState(p.healthy_buffers);
  size_t start = 0;
  out.health = Resume(p, &start, &last_healthy, &last_healthy_buffers);
  if (!out.health.ok()) {
    out.refused = true;
    return out;
  }
  out.completed_iters = start;

  const obs::DivergenceSentinel sentinel(opts_.sentinel);
  const size_t log_every = std::max<size_t>(1, opts_.log_every);
  for (size_t iter = start; iter < p.iterations; ++iter) {
    obs::WallTimer iter_timer;
    auto stepped = p.step(iter);
    if (!stepped.ok()) {
      out.health = stepped.status();
      break;
    }
    obs::MetricRecord rec = stepped.take();
    rec.run = p.tag;
    rec.iter = iter + 1;
    rec.param_norm = nn::GlobalParamNorm(p.healthy_params);
    rec.iter_ms = iter_timer.ElapsedMs();
    rec.wall_ms = run_timer_.ElapsedMs();
    rec.threads = par::NumThreads();
    rec.seed = seed_;

    out.health = sentinel.Check(rec);
    if (!out.health.ok()) {
      // Always surface the failing record, regardless of cadence — it
      // is the one record a post-mortem needs.
      if (sink_ != nullptr) sink_->Log(rec);
      break;
    }
    out.completed_iters = iter + 1;
    if (p.on_healthy) p.on_healthy(rec);
    if (sink_ != nullptr &&
        ((iter + 1) % log_every == 0 || iter + 1 == p.iterations))
      sink_->Log(rec);
    last_healthy = GetState(p.healthy_params);
    last_healthy_buffers = GetBufferState(p.healthy_buffers);

    if (store_ != nullptr && opts_.checkpoint_every > 0 &&
        (iter + 1) % opts_.checkpoint_every == 0) {
      // The checkpoint record goes to the sink FIRST so the cursor
      // stored in the checkpoint covers it — a resumed run then
      // re-emits the exact same record sequence as an uninterrupted
      // one.
      obs::MetricRecord ckpt_rec = std::move(rec);
      ckpt_rec.run += ".ckpt";
      if (sink_ != nullptr) sink_->Log(ckpt_rec);
      // Fail fast: training on while checkpoints silently rot defeats
      // their purpose.
      out.health = store_->Save(
          MakeCheckpoint(p, iter + 1, last_healthy, last_healthy_buffers));
      if (!out.health.ok()) break;
    }

    ++iters_this_run_;
    if (opts_.max_iters_per_run > 0 &&
        iters_this_run_ >= opts_.max_iters_per_run &&
        (iter + 1 < p.iterations || p.more_after)) {
      out.paused = true;
      break;
    }
  }

  if (!out.health.ok()) RollBack(p, &last_healthy, &last_healthy_buffers);
  if (sink_ != nullptr) sink_->Flush();
  return out;
}

Status TrainLoop::Resume(const LoopPhase& p, size_t* start,
                         StateDict* healthy, StateDict* healthy_buffers) {
  if (!opts_.resume || store_ == nullptr) return Status::OK();
  if (!loaded_) {
    loaded_ = true;
    // NotFound: nothing saved yet — a cold start with resume requested
    // is a fresh run, so schedulers can always pass --resume. Any other
    // failure means checkpoints exist but none verifies: refusing to
    // silently restart protects the surviving log/model artifacts.
    auto loaded = store_->LoadLatest();
    if (!loaded.ok())
      return loaded.status().code() == Status::Code::kNotFound
                 ? Status::OK()
                 : loaded.status();
    const ckpt::TrainCheckpoint& c = loaded.value();
    if (c.run != run_)
      return Refuse("is for run '" + c.run + "', this run is '" + run_ +
                    "'");
    if (c.seed != seed_)
      return Refuse("seed " + std::to_string(c.seed) + " != options seed " +
                    std::to_string(seed_));
    if (c.phase >= num_phases_)
      return Refuse("phase " + std::to_string(c.phase) +
                    " is not a phase " + run_ + " writes");
    pending_ = loaded.take();
  }
  if (!pending_.has_value() || pending_->phase < p.phase) return Status::OK();
  if (pending_->phase > p.phase) {
    // A later phase's checkpoint: this one finished before it was taken.
    *start = p.iterations;
    return Status::OK();
  }

  const ckpt::TrainCheckpoint c = std::move(*pending_);
  pending_.reset();
  DAISY_RETURN_IF_ERROR(Check(c, p));
  // Optimizer blobs are validated by loading them — the one check the
  // shape tests above cannot make. Each load is all-or-nothing; a later
  // failure, or a sink that cannot rewind, reloads the previous state.
  std::vector<std::string> before;
  const auto undo = [&] {
    for (size_t j = 0; j < before.size(); ++j)
      (void)nn::LoadOptimizerBlob(p.optimizers[j], before[j], p.tag.c_str());
  };
  for (size_t i = 0; i < p.optimizers.size(); ++i) {
    before.push_back(nn::OptimizerBlob(*p.optimizers[i]));
    const Status loaded = nn::LoadOptimizerBlob(
        p.optimizers[i], c.optimizer_state[i], p.tag.c_str());
    if (!loaded.ok()) {
      undo();
      return loaded;
    }
  }
  if (sink_ != nullptr) {
    const Status rewound = sink_->ResumeAt(c.telemetry_records);
    if (!rewound.ok()) {
      undo();
      return rewound;
    }
  }

  // Everything below cannot fail: Check verified every shape, count and
  // rng word.
  for (size_t i = 0; i < p.rngs.size(); ++i) {
    const auto first = c.rng_state.begin() + i * Rng::kStateWords;
    (void)p.rngs[i]->SetState(
        std::vector<uint64_t>(first, first + Rng::kStateWords));
  }
  SetState(p.params, c.params);
  SetBufferState(p.buffers, c.buffers);
  *healthy = c.healthy_params;
  *healthy_buffers = c.healthy_buffers;
  for (size_t i = 0; i < p.extras.size(); ++i) *p.extras[i] = c.extra[i];
  if (p.apply) p.apply(c);
  *start = c.iter;
  return Status::OK();
}

Status TrainLoop::Check(const ckpt::TrainCheckpoint& c,
                        const LoopPhase& p) const {
  if (c.total_iters != p.iterations)
    return Refuse("is from a " + std::to_string(c.total_iters) +
                  "-iteration run, options say " +
                  std::to_string(p.iterations));
  if (c.iter > c.total_iters)
    return Refuse("iteration counter exceeds its configured run length");
  if (!ShapesMatch(p.params, c.params))
    return Refuse("parameters do not match this network");
  if (!BufferShapesMatch(p.buffers, c.buffers))
    return Refuse("buffers do not match this network");
  if (!ShapesMatch(p.healthy_params, c.healthy_params) ||
      !BufferShapesMatch(p.healthy_buffers, c.healthy_buffers))
    return Refuse("sentinel baseline does not match this network");
  if (c.optimizer_state.size() != p.optimizers.size())
    return Refuse("carries " + std::to_string(c.optimizer_state.size()) +
                  " optimizer blobs, " + p.tag + " has " +
                  std::to_string(p.optimizers.size()));
  if (c.rng_state.size() != Rng::kStateWords * p.rngs.size())
    return Refuse("carries " + std::to_string(c.rng_state.size()) +
                  " rng words, " + p.tag + " needs " +
                  std::to_string(Rng::kStateWords * p.rngs.size()));
  for (size_t i = 0; i < p.rngs.size(); ++i) {
    const auto first = c.rng_state.begin() + i * Rng::kStateWords;
    Rng probe = *p.rngs[i];
    DAISY_RETURN_IF_ERROR(probe.SetState(
        std::vector<uint64_t>(first, first + Rng::kStateWords)));
  }
  if (c.extra.size() != p.extras.size())
    return Refuse("carries " + std::to_string(c.extra.size()) +
                  " extra scalars, " + p.tag + " has " +
                  std::to_string(p.extras.size()));
  return p.validate ? p.validate(c) : Status::OK();
}

ckpt::TrainCheckpoint TrainLoop::MakeCheckpoint(
    const LoopPhase& p, size_t done, const StateDict& healthy,
    const StateDict& healthy_buffers) const {
  ckpt::TrainCheckpoint c;
  c.run = run_;
  c.phase = p.phase;
  c.iter = done;
  c.total_iters = p.iterations;
  c.seed = seed_;
  c.telemetry_records = sink_ != nullptr ? sink_->records_logged() : 0;
  for (const Rng* rng : p.rngs) {
    const std::vector<uint64_t> words = rng->GetState();
    c.rng_state.insert(c.rng_state.end(), words.begin(), words.end());
  }
  c.params = GetState(p.params);
  c.buffers = GetBufferState(p.buffers);
  for (const nn::Optimizer* opt : p.optimizers)
    c.optimizer_state.push_back(nn::OptimizerBlob(*opt));
  c.healthy_params = healthy;
  c.healthy_buffers = healthy_buffers;
  for (const double* e : p.extras) c.extra.push_back(*e);
  if (p.save) p.save(&c);
  return c;
}

void TrainLoop::RollBack(const LoopPhase& p, StateDict* healthy,
                         StateDict* healthy_buffers) const {
  // Durable fallback: the in-memory baseline can itself be poisoned
  // (BatchNorm running stats go non-finite without tripping the
  // param-norm check, or a resumed checkpoint carried a bad baseline).
  // Prefer the newest on-disk checkpoint of this run and phase whose
  // baseline is finite.
  if (store_ != nullptr &&
      (!AllFinite(*healthy) || !AllFinite(*healthy_buffers))) {
    auto fc = store_->LoadLatestWhere([&](const ckpt::TrainCheckpoint& c) {
      return c.run == run_ && c.phase == p.phase &&
             ShapesMatch(p.healthy_params, c.healthy_params) &&
             BufferShapesMatch(p.healthy_buffers, c.healthy_buffers) &&
             AllFinite(c.healthy_params) && AllFinite(c.healthy_buffers);
    });
    if (fc.ok()) {
      *healthy = std::move(fc.value().healthy_params);
      *healthy_buffers = std::move(fc.value().healthy_buffers);
    }
  }
  SetState(p.healthy_params, *healthy);
  SetBufferState(p.healthy_buffers, *healthy_buffers);
}

}  // namespace daisy::synth
