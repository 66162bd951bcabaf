// Ordered composition of modules.
#ifndef DAISY_NN_SEQUENTIAL_H_
#define DAISY_NN_SEQUENTIAL_H_

#include <memory>
#include <utility>
#include <vector>

#include "nn/module.h"

namespace daisy::nn {

/// Chains modules: Forward left-to-right, Backward right-to-left.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns a raw pointer for later inspection.
  template <typename M, typename... Args>
  M* Emplace(Args&&... args) {
    auto layer = std::make_unique<M>(std::forward<Args>(args)...);
    M* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  void Append(std::unique_ptr<Module> m) { layers_.push_back(std::move(m)); }

  Matrix Forward(const Matrix& x, bool training) override {
    Matrix h = x;
    for (auto& layer : layers_) h = layer->Forward(h, training);
    return h;
  }

  Matrix InferenceForward(const Matrix& x) const override {
    Matrix h = x;
    for (const auto& layer : layers_) h = layer->InferenceForward(h);
    return h;
  }

  Matrix Backward(const Matrix& grad_out) override {
    Matrix g = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
      g = (*it)->Backward(g);
    return g;
  }

  std::vector<Parameter*> Params() override {
    std::vector<Parameter*> out;
    for (auto& layer : layers_) {
      auto ps = layer->Params();
      out.insert(out.end(), ps.begin(), ps.end());
    }
    return out;
  }

  std::vector<Matrix*> Buffers() override {
    std::vector<Matrix*> out;
    for (auto& layer : layers_) {
      auto bs = layer->Buffers();
      out.insert(out.end(), bs.begin(), bs.end());
    }
    return out;
  }

  size_t num_layers() const { return layers_.size(); }
  Module* layer(size_t i) { return layers_[i].get(); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace daisy::nn

#endif  // DAISY_NN_SEQUENTIAL_H_
