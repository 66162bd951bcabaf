#include "serve/registry.h"

#include <utility>

#include "ckpt/checkpoint.h"

namespace daisy::serve {

Status ModelRegistry::Load(const std::string& name,
                           const std::string& model_path,
                           const std::string& checkpoint_dir) {
  if (name.empty()) return Status::InvalidArgument("empty model name");
  if (models_.count(name) != 0)
    return Status::InvalidArgument("duplicate model name: " + name);

  auto loaded = synth::TableSynthesizer::Load(model_path);
  if (!loaded.ok())
    return loaded.status().WithPrefix("model '" + name + "': ");
  if (Status st = loaded.value()->CheckStandalone(); !st.ok())
    return st.WithPrefix("model '" + name + "': ");

  if (!checkpoint_dir.empty()) {
    ckpt::CheckpointStore store(checkpoint_dir);
    auto latest = store.LoadLatest();
    if (!latest.ok())
      return latest.status().WithPrefix("model '" + name +
                                        "' checkpoint overlay: ");
    if (Status st = loaded.value()->OverlayCheckpoint(latest.value());
        !st.ok())
      return st.WithPrefix("model '" + name + "' checkpoint overlay: ");
  }

  models_[name] = std::move(loaded.value());
  return Status::OK();
}

const synth::TableSynthesizer* ModelRegistry::Find(
    const std::string& name) const {
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ModelRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  return names;
}

}  // namespace daisy::serve
