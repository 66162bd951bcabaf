// Long-lived serving process: loads trained models into a registry,
// listens on a unix-domain socket, and answers line-protocol requests
// by streaming deterministic CSV (see src/serve/protocol.h for the
// wire format).
//
//   daisy_serve --socket /tmp/daisy.sock
//               --model adult=adult.daisy
//               --model census=census.daisy:ckpt_dir
//               [--chunk-rows N] [--max-batch-rows N] [--max-rows N]
//               [--threads T]
//
// Each --model is name=model_path, optionally :checkpoint_dir to
// overlay the newest valid training checkpoint's generator weights on
// the loaded model. --max-rows caps the rows of one GEN (0, the
// default, means no cap); a larger request gets "ERR rows exceed
// --max-rows" and the connection stays open. The process serves until
// a client sends SHUTDOWN (or SIGINT/SIGTERM), then drains queued
// requests and exits 0.
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "core/parallel.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace {

using Args = daisy::cli::FlagSet;
using daisy::Status;

daisy::serve::SocketServer* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-safety: Stop() takes locks, but both SIGINT/SIGTERM
  // arrive on an otherwise idle main thread blocked in Wait(), and the
  // tool is single-shot — acceptable for a local dev server.
  if (g_server != nullptr) g_server->Stop();
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  daisy_serve --socket PATH\n"
               "              --model NAME=MODEL_PATH[:CHECKPOINT_DIR] "
               "[--model ...]\n"
               "              [--chunk-rows N] [--max-batch-rows N]\n"
               "              [--max-rows N] [--threads T]\n");
  return 2;
}

// Splits "name=path[:ckptdir]" into its parts.
bool ParseModelSpec(const std::string& spec, std::string* name,
                    std::string* path, std::string* ckpt_dir) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *name = spec.substr(0, eq);
  std::string rest = spec.substr(eq + 1);
  const size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    *ckpt_dir = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  if (rest.empty()) return false;
  *path = rest;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  const std::vector<daisy::cli::FlagSpec> specs = {
      {"socket"},
      {"model", /*boolean=*/false, /*numeric=*/false, /*repeated=*/true},
      {"chunk-rows", false, /*numeric=*/true},
      {"max-batch-rows", false, /*numeric=*/true},
      {"max-rows", false, /*numeric=*/true},
      {"threads", false, /*numeric=*/true},
  };
  if (!args.Parse(argc, argv, 1, specs, &error)) {
    std::fprintf(stderr, "daisy_serve: %s\n", error.c_str());
    return Usage();
  }

  const std::string socket_path = args.Get("socket");
  const std::vector<std::string> model_specs = args.GetAll("model");
  if (socket_path.empty() || model_specs.empty()) return Usage();
  const long chunk_rows = args.GetInt("chunk-rows", 512);
  const long max_batch_rows = args.GetInt("max-batch-rows", 2048);
  if (chunk_rows <= 0 || max_batch_rows <= 0) {
    std::fprintf(stderr,
                 "daisy_serve: --chunk-rows and --max-batch-rows "
                 "must be positive\n");
    return 2;
  }
  const long max_rows = args.GetInt("max-rows", 0);
  if (max_rows < 0) {
    std::fprintf(stderr, "daisy_serve: --max-rows must not be negative\n");
    return 2;
  }
  if (const long threads = args.GetInt("threads", 0); threads > 0)
    daisy::par::SetNumThreads(static_cast<size_t>(threads));

  daisy::serve::ModelRegistry registry;
  for (const std::string& spec : model_specs) {
    std::string name, path, ckpt_dir;
    if (!ParseModelSpec(spec, &name, &path, &ckpt_dir)) {
      std::fprintf(stderr,
                   "daisy_serve: bad --model spec '%s' "
                   "(want NAME=PATH[:CHECKPOINT_DIR])\n",
                   spec.c_str());
      return 2;
    }
    if (Status st = registry.Load(name, path, ckpt_dir); !st.ok()) {
      std::fprintf(stderr, "daisy_serve: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "daisy_serve: loaded model '%s' from %s\n",
                 name.c_str(), path.c_str());
  }

  daisy::serve::ServeEngine::Options eopts;
  eopts.chunk_rows = static_cast<size_t>(chunk_rows);
  eopts.max_batch_rows = static_cast<size_t>(max_batch_rows);
  daisy::serve::ServeEngine engine(&registry, eopts);
  engine.Start();

  daisy::serve::SocketServer server(&registry, &engine, socket_path,
                                    static_cast<uint64_t>(max_rows));
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "daisy_serve: %s\n", st.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::fprintf(stderr, "daisy_serve: listening on %s\n",
               socket_path.c_str());

  server.Wait();
  server.Stop();
  g_server = nullptr;
  std::fprintf(stderr, "daisy_serve: drained, exiting\n");
  return 0;
}
