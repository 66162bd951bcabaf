#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "serve/protocol.h"

namespace daisy::serve {

namespace {

// Best-effort full write; the client may vanish mid-reply, in which
// case the engine still completes the job and the bytes go nowhere.
void WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

// Longest request line accepted. A peer that sends more without a
// newline gets "ERR line too long" and its connection is shut down, so
// a flood cannot grow the server's memory.
constexpr size_t kMaxLineBytes = 64 * 1024;

// Pause before accept() is retried after a failure such as EMFILE.
constexpr std::chrono::milliseconds kAcceptBackoff(10);

}  // namespace

SocketServer::SocketServer(const ModelRegistry* registry, ServeEngine* engine,
                           std::string socket_path, uint64_t max_rows)
    : registry_(registry), engine_(engine),
      socket_path_(std::move(socket_path)), max_rows_(max_rows) {
  DAISY_CHECK(registry_ != nullptr && engine_ != nullptr);
}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path))
    return Status::InvalidArgument("socket path too long: " + socket_path_);
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return Status::IOError("socket(): " + std::string(std::strerror(errno)));
  ::unlink(socket_path_.c_str());  // stale file from a previous run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st =
        Status::IOError("bind(" + socket_path_ + "): " +
                        std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status st =
        Status::IOError("listen(): " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      std::unique_lock<std::mutex> lock(mu_);
      if (stopped_) return;  // Stop() shut the listener down
      if (err == EINTR || err == ECONNABORTED) continue;
      // Out of fds or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) or some
      // other failure: the pending peer stays queued, so free what ended
      // connections still hold, wait a little and retry. Stop() cuts
      // the wait short.
      lock.unlock();
      ReapFinished();
      lock.lock();
      cv_.wait_for(lock, kAcceptBackoff, [&] { return stopped_; });
      continue;
    }
    ReapFinished();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      ::close(fd);
      return;
    }
    // The reader cannot retire before this insert completes: Retire
    // needs mu_.
    connections_.emplace(fd, std::thread([this, fd] {
                           HandleConnection(fd);
                           Retire(fd);
                         }));
  }
}

void SocketServer::Retire(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = connections_.find(fd);
    finished_.push_back(std::move(it->second));
    connections_.erase(it);
    // Closed under mu_, so Stop() never shuts down a reused fd number.
    ::close(fd);
  }
  cv_.notify_all();
}

void SocketServer::ReapFinished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done.swap(finished_);
  }
  for (auto& t : done) t.join();
}

size_t SocketServer::tracked_threads() {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size() + finished_.size();
}

void SocketServer::HandleConnection(int fd) {
  std::string buf;
  char tmp[4096];
  for (;;) {
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos && nl <= kMaxLineBytes) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      auto parsed = ParseRequest(line);
      if (!parsed.ok()) {
        WriteAll(fd, "ERR " + parsed.status().message() + "\n");
        continue;
      }
      const Request& req = parsed.value();
      switch (req.kind) {
        case Request::Kind::kPing:
          WriteAll(fd, "PONG\n");
          break;
        case Request::Kind::kList: {
          const auto names = registry_->Names();
          std::string reply = "OK " + std::to_string(names.size()) + "\n";
          for (const auto& name : names) reply += name + "\n";
          reply += "END\n";
          WriteAll(fd, reply);
          break;
        }
        case Request::Kind::kShutdown: {
          WriteAll(fd, "OK 0\nEND\n");
          {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_requested_ = true;
          }
          cv_.notify_all();
          break;
        }
        case Request::Kind::kGen: {
          if (max_rows_ > 0 && req.rows > max_rows_) {
            WriteAll(fd, "ERR rows exceed --max-rows\n");
            break;
          }
          // The reader blocks until the engine finishes this job, so
          // scheduler-thread chunk writes never interleave with reads
          // or other writes on this socket.
          struct WaitState {
            std::mutex m;
            std::condition_variable cv;
            bool done = false;
            bool first = true;
          };
          auto ws = std::make_shared<WaitState>();
          const uint64_t rows = req.rows;
          auto sink = [fd, rows, ws](const std::string& bytes, bool done) {
            if (done) {
              {
                std::lock_guard<std::mutex> lock(ws->m);
                ws->done = true;
              }
              ws->cv.notify_one();
              return;
            }
            if (ws->first) {
              // first is only touched by the scheduler thread.
              ws->first = false;
              WriteAll(fd, "OK " + std::to_string(rows) + "\n");
            }
            WriteAll(fd, bytes);
          };
          const Status st = engine_->SubmitGen(
              req.model, static_cast<size_t>(req.rows), req.seed, sink);
          if (!st.ok()) {
            WriteAll(fd, "ERR " + st.message() + "\n");
            break;
          }
          std::unique_lock<std::mutex> lock(ws->m);
          ws->cv.wait(lock, [&] { return ws->done; });
          WriteAll(fd, "END\n");
          break;
        }
      }
    }
    if (buf.size() > kMaxLineBytes) {
      WriteAll(fd, "ERR line too long\n");
      // The shutdown is what the peer sees as EOF, and it fails the
      // peer's further sends, so the drain below reads at most what is
      // already queued. Closing over unread bytes would turn the
      // peer's EOF into ECONNRESET.
      ::shutdown(fd, SHUT_RDWR);
      while (::read(fd, tmp, sizeof(tmp)) > 0) {
      }
      break;
    }
    const ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n <= 0) break;  // EOF, error, or Stop()'s shutdown(fd)
    buf.append(tmp, static_cast<size_t>(n));
  }
}

void SocketServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return shutdown_requested_; });
}

void SocketServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
  }
  cv_.notify_all();

  // 1. Stop accepting new connections. The shutdown wakes accept();
  //    the fd is closed and cleared only after the join, because the
  //    accept loop reads listen_fd_ until it returns.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain the engine: every GEN accepted before the shutdown
  //    finishes and its reply bytes reach the socket.
  engine_->Drain();

  // 3. Unblock idle readers, wait until each has closed its fd and
  //    retired, then join every connection thread.
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const auto& conn : connections_) ::shutdown(conn.first, SHUT_RDWR);
    cv_.wait(lock, [&] { return connections_.empty(); });
  }
  ReapFinished();
  ::unlink(socket_path_.c_str());
}

}  // namespace daisy::serve
