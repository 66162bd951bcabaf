#include "obs/sentinel.h"

#include <cmath>

#include "core/format.h"

namespace daisy::obs {

namespace {

std::string Render(double v) {
  std::string out;
  AppendG(v, kTextDigits, &out);
  return out;
}

Status Diverged(size_t iter, const char* metric, const char* why, double v) {
  return Status::FailedPrecondition(
      "divergence at iteration " + std::to_string(iter) + ": " + metric +
      " " + why + " (" + Render(v) + ")");
}

}  // namespace

Status DivergenceSentinel::Check(const MetricRecord& r) const {
  if (!opts_.enabled) return Status::OK();

  struct Probe {
    const char* name;
    double value;
    double limit;
  };
  const Probe probes[] = {
      {"d_loss", r.d_loss, opts_.loss_limit},
      {"g_loss", r.g_loss, opts_.loss_limit},
      {"d_grad_norm", r.d_grad_norm, opts_.grad_limit},
      {"g_grad_norm", r.g_grad_norm, opts_.grad_limit},
      {"param_norm", r.param_norm, opts_.param_limit},
  };
  for (const Probe& p : probes) {
    if (!std::isfinite(p.value))
      return Diverged(r.iter, p.name, "is non-finite", p.value);
    if (std::fabs(p.value) > p.limit)
      return Diverged(r.iter, p.name, "exceeded its explosion limit",
                      p.value);
  }
  return Status::OK();
}

}  // namespace daisy::obs
