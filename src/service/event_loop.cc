#include "service/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include "util/logging.h"
#include "util/string_util.h"

namespace comptx::service {

namespace {

// epoll_event.data.u64 tags.  Connection ids start at 2 (next_conn_id_).
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

// Flow control: pause reading a connection once this many decoded frames
// are queued for handling (TCP backpressure does the rest), and hang up
// on a peer that lets this many response bytes pile up without reading
// them (a slow or absent consumer must not grow the buffer forever).
constexpr size_t kMaxPendingFrames = 1024;
constexpr size_t kMaxBufferedWriteBytes = 8u << 20;

}  // namespace

/// A frame queued for handling.  `error` non-OK marks a framing violation
/// (FrameParser::Next failed): the handler answers with a diagnostic in
/// the connection's last-seen protocol and the connection is doomed.  The
/// poison frame is always last — the owner thread stops reading when it
/// queues one.
struct QueuedFrame {
  WireFrame frame;
  Status error;
};

/// One connection.  The socket, parser and last_protocol belong to the
/// owner I/O thread; everything else is shared with the handler pool
/// under `mu`.  Flag lifecycle: `closing` dooms the connection (finish
/// pending work, flush, then close), `closed` means the fd is gone —
/// set under `mu` before the close, so a handler holding `mu` for a
/// send() can never race the descriptor's reuse.
struct EventLoop::Conn {
  uint64_t id = 0;
  size_t owner = 0;
  Socket socket;
  FrameParser parser;  // kMaxFrameBytes
  WireProtocol last_protocol = WireProtocol::kV1;

  std::mutex mu;
  std::deque<QueuedFrame> pending;
  bool handling = false;     // a handler thread is attached
  bool want_read = true;     // EPOLLIN interest
  bool want_write = false;   // EPOLLOUT interest (buffered response bytes)
  bool read_paused = false;  // flow control: pending hit the high watermark
  bool closing = false;
  bool closed = false;
  std::string write_buf;
  size_t write_pos = 0;
};

struct EventLoop::IoThread {
  ~IoThread() {
    if (epfd >= 0) ::close(epfd);
    if (wakefd >= 0) ::close(wakefd);
  }

  int epfd = -1;
  int wakefd = -1;
  std::thread thread;

  std::mutex mu;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns;
  std::vector<uint64_t> close_queue;
};

EventLoop::EventLoop(const EventLoopOptions& options, Handler handler,
                     ServiceMetrics* metrics)
    : options_(options), handler_(std::move(handler)), metrics_(metrics) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start(Socket listener) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  listener_ = std::move(listener);
  COMPTX_RETURN_IF_ERROR(SetNonBlocking(listener_.fd()));

  const size_t io_threads = std::max<size_t>(1, options_.io_threads);
  for (size_t i = 0; i < io_threads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (io->epfd < 0) {
      return Status::Internal(StrCat("epoll_create1: ", std::strerror(errno)));
    }
    io->wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (io->wakefd < 0) {
      return Status::Internal(StrCat("eventfd: ", std::strerror(errno)));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(io->epfd, EPOLL_CTL_ADD, io->wakefd, &ev) < 0) {
      return Status::Internal(StrCat("epoll_ctl: ", std::strerror(errno)));
    }
    io_.push_back(std::move(io));
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(io_[0]->epfd, EPOLL_CTL_ADD, listener_.fd(), &ev) < 0) {
    return Status::Internal(StrCat("epoll_ctl: ", std::strerror(errno)));
  }

  const size_t handlers = std::max<size_t>(1, options_.handler_threads);
  handler_threads_.reserve(handlers);
  for (size_t i = 0; i < handlers; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  for (size_t i = 0; i < io_.size(); ++i) {
    io_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }
  started_ = true;
  return Status::OK();
}

void EventLoop::Wake(size_t index) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(io_[index]->wakefd, &one, sizeof(one));
}

// ---- I/O threads ------------------------------------------------------

void EventLoop::IoLoop(size_t index) {
  IoThread& io = *io_[index];
  epoll_event events[128];
  for (;;) {
    const int n = ::epoll_wait(io.epfd, events,
                               static_cast<int>(std::size(events)), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      COMPTX_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        if (!stopping_.load(std::memory_order_relaxed)) AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(io.wakefd, &drained, sizeof(drained));
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::unique_lock<std::mutex> lock(io.mu);
        auto it = io.conns.find(tag);
        if (it != io.conns.end()) conn = it->second;
      }
      if (conn == nullptr) continue;  // closed while the event was in flight
      if ((events[i].events & EPOLLOUT) != 0) WriteReady(conn);
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        ReadReady(conn);
      }
    }
    // Closes requested by handler threads land here, on the fd's owner.
    std::vector<uint64_t> to_close;
    {
      std::unique_lock<std::mutex> lock(io.mu);
      to_close.swap(io.close_queue);
    }
    for (const uint64_t id : to_close) {
      std::shared_ptr<Conn> conn;
      {
        std::unique_lock<std::mutex> lock(io.mu);
        auto it = io.conns.find(id);
        if (it != io.conns.end()) conn = it->second;
      }
      if (conn != nullptr) CloseConn(conn);
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
  }
}

void EventLoop::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener is closing
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->owner = static_cast<size_t>(next_owner_.fetch_add(
                      1, std::memory_order_relaxed)) %
                  io_.size();
    conn->socket = Socket(fd);
    IoThread& owner = *io_[conn->owner];
    {
      std::unique_lock<std::mutex> lock(owner.mu);
      owner.conns.emplace(conn->id, conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(owner.epfd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      std::unique_lock<std::mutex> lock(owner.mu);
      owner.conns.erase(conn->id);
      continue;  // conn's destructor closes the fd
    }
    metrics_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    metrics_->active_connections.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoop::ReadReady(const std::shared_ptr<Conn>& conn) {
  // Cap the bytes pulled per readiness round so one fast connection
  // cannot monopolize its I/O thread; level-triggered epoll re-reports
  // the rest.
  constexpr size_t kMaxReadPerRound = 256u << 10;
  char buf[64 << 10];
  size_t total = 0;
  bool peer_done = false;
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->closed || !conn->want_read) return;
    while (total < kMaxReadPerRound) {
      const ssize_t n = ::recv(conn->socket.fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        conn->parser.Feed(buf, static_cast<size_t>(n));
        total += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      peer_done = true;  // clean EOF or a read error: no more requests
      break;
    }
  }
  if (total > 0) ExtractFrames(conn);
  if (!peer_done) return;
  bool close_now = false;
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closing = true;
    if (conn->want_read) {
      conn->want_read = false;
      UpdateInterestLocked(conn);
    }
    close_now = !conn->handling && conn->pending.empty() &&
                conn->write_pos == conn->write_buf.size();
  }
  // Pending frames or buffered responses: the handler pool / EPOLLOUT
  // path finishes them and closes — a pipelining client that half-closes
  // after its last request still gets every response.
  if (close_now) CloseConn(conn);
}

void EventLoop::ExtractFrames(const std::shared_ptr<Conn>& conn) {
  bool schedule = false;
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->closed || conn->closing) return;
    while (true) {
      if (conn->pending.size() >= kMaxPendingFrames) {
        // High watermark: stop reading until the handler drains the
        // queue; the kernel buffer fills and TCP pushes back.
        if (!conn->read_paused) {
          conn->read_paused = true;
          conn->want_read = false;
          UpdateInterestLocked(conn);
        }
        break;
      }
      WireFrame frame;
      auto got = conn->parser.Next(frame);
      if (!got.ok()) {
        // Framing violation: queue a poison frame (answered in order,
        // after the good requests ahead of it) and stop reading.
        QueuedFrame poison;
        poison.frame.protocol = conn->last_protocol;
        poison.error = got.status();
        conn->pending.push_back(std::move(poison));
        conn->want_read = false;
        UpdateInterestLocked(conn);
        break;
      }
      if (!*got) break;
      conn->last_protocol = frame.protocol;
      conn->pending.push_back(QueuedFrame{std::move(frame), Status::OK()});
    }
    if (!conn->handling && !conn->pending.empty()) {
      conn->handling = true;
      schedule = true;
    }
  }
  if (schedule) {
    std::unique_lock<std::mutex> lock(handler_mu_);
    handler_queue_.push_back(conn);
    handler_cv_.notify_one();
  }
}

void EventLoop::WriteReady(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    FlushLocked(conn);
    close_now = conn->closing && !conn->handling && conn->pending.empty() &&
                conn->write_pos == conn->write_buf.size();
  }
  if (close_now) CloseConn(conn);
}

void EventLoop::FlushLocked(const std::shared_ptr<Conn>& conn) {
  while (conn->write_pos < conn->write_buf.size()) {
    const ssize_t n =
        ::send(conn->socket.fd(), conn->write_buf.data() + conn->write_pos,
               conn->write_buf.size() - conn->write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateInterestLocked(conn);
      }
      return;
    }
    // Peer gone mid-response: nothing left to deliver.
    conn->write_buf.clear();
    conn->write_pos = 0;
    conn->closing = true;
    if (conn->want_read || conn->want_write) {
      conn->want_read = false;
      conn->want_write = false;
      UpdateInterestLocked(conn);
    }
    return;
  }
  conn->write_buf.clear();
  conn->write_pos = 0;
  if (conn->want_write) {
    conn->want_write = false;
    UpdateInterestLocked(conn);
  }
}

void EventLoop::QueueWriteLocked(const std::shared_ptr<Conn>& conn,
                                 const std::string& bytes) {
  if (conn->closed) return;
  conn->write_buf += bytes;
  FlushLocked(conn);
  if (conn->write_buf.size() - conn->write_pos > kMaxBufferedWriteBytes) {
    // The peer pipelines requests but does not read responses; refusing
    // to buffer unboundedly, we stop reading and close once (if ever)
    // the backlog flushes.
    conn->closing = true;
    if (conn->want_read) {
      conn->want_read = false;
      UpdateInterestLocked(conn);
    }
  }
}

void EventLoop::UpdateInterestLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  epoll_event ev{};
  ev.events = (conn->want_read ? EPOLLIN : 0u) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(io_[conn->owner]->epfd, EPOLL_CTL_MOD, conn->socket.fd(), &ev);
}

void EventLoop::RequestClose(const std::shared_ptr<Conn>& conn) {
  IoThread& owner = *io_[conn->owner];
  {
    std::unique_lock<std::mutex> lock(owner.mu);
    owner.close_queue.push_back(conn->id);
  }
  Wake(conn->owner);
}

void EventLoop::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
  }
  // No handler can touch the fd past this point (they check `closed`
  // under conn->mu before every send), so closing it cannot leak a write
  // into a reused descriptor.
  IoThread& owner = *io_[conn->owner];
  ::epoll_ctl(owner.epfd, EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
  conn->socket.Close();
  {
    std::unique_lock<std::mutex> lock(owner.mu);
    owner.conns.erase(conn->id);
  }
  metrics_->active_connections.fetch_sub(1, std::memory_order_relaxed);
}

// ---- handler pool -----------------------------------------------------

void EventLoop::HandlerLoop() {
  for (;;) {
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lock(handler_mu_);
      handler_cv_.wait(lock, [this] {
        return stop_handlers_ || !handler_queue_.empty();
      });
      if (handler_queue_.empty()) return;  // stop, and nothing left
      conn = std::move(handler_queue_.front());
      handler_queue_.pop_front();
    }
    ProcessConn(conn);
  }
}

void EventLoop::ProcessConn(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    QueuedFrame work;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (conn->pending.empty() || conn->closed) {
        conn->handling = false;
        const bool close_now = conn->closing && !conn->closed &&
                               conn->write_pos == conn->write_buf.size();
        if (!close_now && conn->read_paused && !conn->closing) {
          conn->read_paused = false;
          conn->want_read = true;
          UpdateInterestLocked(conn);
        }
        lock.unlock();
        if (close_now) RequestClose(conn);
        return;
      }
      work = std::move(conn->pending.front());
      conn->pending.pop_front();
      // Low watermark: resume reading once the backlog halves.
      if (conn->read_paused && !conn->closing &&
          conn->pending.size() <= kMaxPendingFrames / 2) {
        conn->read_paused = false;
        conn->want_read = true;
        UpdateInterestLocked(conn);
      }
    }

    // Decode and handle outside conn->mu: the owner thread keeps
    // reading and other connections keep flowing while Handle blocks
    // on backpressure, drain barriers or fsync.
    Response response;
    bool terminal = false;
    if (!work.error.ok()) {
      metrics_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      response = ErrorResponse("bad_request", work.error.message());
      terminal = true;  // framing is unrecoverable: answer, then hang up
    } else {
      auto request = DecodeRequestFrame(work.frame);
      if (!request.ok()) {
        // A malformed payload in a well-framed request: answer and keep
        // the connection, matching the v1 front end.
        metrics_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        response =
            ErrorResponse("bad_request", request.status().message());
      } else {
        response = handler_(*request);
      }
    }
    const std::string bytes = EncodeResponseFrame(
        work.frame.protocol, response, work.frame.session);
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      QueueWriteLocked(conn, bytes);
      if (terminal && !conn->closed) {
        conn->closing = true;
        if (conn->want_read) {
          conn->want_read = false;
          UpdateInterestLocked(conn);
        }
      }
    }
  }
}

// ---- teardown ---------------------------------------------------------

void EventLoop::Stop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  if (!started_ || stopped_) return;
  stopped_ = true;

  // 1. Stop accepting and reading: the I/O threads observe stopping_ on
  //    the wakeup and exit.  From here the set of queued requests is
  //    frozen.
  stopping_.store(true, std::memory_order_relaxed);
  for (size_t i = 0; i < io_.size(); ++i) Wake(i);
  for (const auto& io : io_) {
    if (io->thread.joinable()) io->thread.join();
  }

  // 2. Drain the handler pool: stop_handlers_ lets each thread exit only
  //    once the queue is empty, so every accepted request is answered
  //    (in particular the SHUTDOWN OK that triggered this teardown).
  {
    std::unique_lock<std::mutex> hlock(handler_mu_);
    stop_handlers_ = true;
    handler_cv_.notify_all();
  }
  for (std::thread& thread : handler_threads_) thread.join();
  handler_threads_.clear();

  // 3. Flush buffered responses, bounded: a peer that stopped reading
  //    must not wedge shutdown.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<std::shared_ptr<Conn>> conns;
  for (const auto& io : io_) {
    std::unique_lock<std::mutex> ilock(io->mu);
    for (const auto& [id, conn] : io->conns) conns.push_back(conn);
  }
  for (const std::shared_ptr<Conn>& conn : conns) {
    std::unique_lock<std::mutex> clock_(conn->mu);
    while (!conn->closed && conn->write_pos < conn->write_buf.size() &&
           std::chrono::steady_clock::now() < deadline) {
      const size_t before = conn->write_pos;
      FlushLocked(conn);
      if (conn->write_pos == before &&
          conn->write_pos < conn->write_buf.size()) {
        // EAGAIN with no progress: give the peer a moment to read.
        clock_.unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        clock_.lock();
      }
    }
  }

  // 4. Close everything.  Single-threaded now, so owner-thread closing
  //    rules are moot.
  for (const std::shared_ptr<Conn>& conn : conns) CloseConn(conn);
  listener_.Close();
  io_.clear();  // closes the epoll and event fds
}

}  // namespace comptx::service
