// AF_UNIX line-protocol front end over ServeEngine. One listener
// thread accepts connections; each connection gets a reader thread that
// parses protocol lines and submits jobs. Reply chunks for a GEN are
// written by the engine's scheduler thread while the reader blocks
// until the job is done, so writes to one socket are never interleaved.
//
// A connection that ends closes its own fd at once; its thread is
// joined at the next accept (or by Stop()), so a long-running server
// holds fds and threads only for live connections. A failed accept()
// (EMFILE and the like) is retried after a short pause; only Stop()
// ends the accept loop.
//
// Shutdown (SHUTDOWN verb or Stop()): the listener closes, queued jobs
// drain to completion, open connections are shut down, and every
// thread is joined — no request accepted before the shutdown is ever
// dropped.
#ifndef DAISY_SERVE_SERVER_H_
#define DAISY_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/engine.h"
#include "serve/registry.h"

namespace daisy::serve {

class SocketServer {
 public:
  /// `registry` and `engine` must outlive the server; the engine must
  /// be Start()ed by the caller. A GEN for more than `max_rows` rows is
  /// answered "ERR rows exceed --max-rows" (0 = no cap).
  SocketServer(const ModelRegistry* registry, ServeEngine* engine,
               std::string socket_path, uint64_t max_rows = 0);
  ~SocketServer();

  /// Binds the unix socket (removing a stale file), listens, and
  /// spawns the accept loop.
  Status Start();

  /// Blocks until a client sends SHUTDOWN or Stop() is called.
  void Wait();

  /// Graceful shutdown: stop accepting, drain the engine (in-flight
  /// GENs complete), close connections, join threads. Idempotent.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

  /// Connection threads not yet joined: the live ones plus those that
  /// ended since the last accept.
  size_t tracked_threads();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Ends connection `fd`: closes it and queues its thread to be
  /// joined. Runs last on that thread.
  void Retire(int fd);
  /// Joins the threads of connections that have ended.
  void ReapFinished();

  const ModelRegistry* registry_;
  ServeEngine* engine_;
  std::string socket_path_;
  uint64_t max_rows_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  // Live connections: fd -> reader thread. A reader that ends moves
  // its thread to finished_ and closes its fd, under mu_.
  std::unordered_map<int, std::thread> connections_;
  std::vector<std::thread> finished_;
};

}  // namespace daisy::serve

#endif  // DAISY_SERVE_SERVER_H_
