#ifndef COMPTX_SERVICE_EVENT_LOOP_H_
#define COMPTX_SERVICE_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/metrics.h"
#include "service/protocol.h"
#include "service/socket.h"

namespace comptx::service {

/// Front-end knobs (DESIGN.md §12).
struct EventLoopOptions {
  /// epoll threads.  Each owns one epoll instance and a share of the
  /// connections; the listener lives on thread 0, accepted connections
  /// are dealt round-robin.
  size_t io_threads = 2;

  /// Request-handler threads.  The service Handle() blocks (backpressure
  /// waits, drain barriers, fsync-before-ack), so it must never run on an
  /// I/O thread; parsed requests are handed to this pool instead.  Each
  /// connection is processed by at most one handler at a time, so
  /// pipelined responses keep request order.
  size_t handler_threads = 4;
};

/// The epoll front end: non-blocking sockets, per-connection read/write
/// buffers, request pipelining, both wire protocols auto-detected per
/// frame (service/protocol.h).
///
/// Threading: `io_threads` epoll loops own the sockets — only a
/// connection's owner thread reads it or closes its fd, so descriptor
/// reuse can never hand one connection's bytes to another.  Decoded
/// frames queue per connection and a handler pool runs the (blocking)
/// request callback, writing each response directly; a response that
/// would block is buffered and finished by the owner thread on EPOLLOUT.
/// Frames on one connection are handled strictly in arrival order
/// (at-most-one handler per connection), frames on different connections
/// in parallel — the pipelining contract the protocol documents.
///
/// Stop() is graceful: stop accepting and reading, let the handlers
/// drain every queued request, flush buffered responses (bounded), then
/// tear down.  A SHUTDOWN reply therefore always reaches the client
/// before its connection closes.
class EventLoop {
 public:
  /// The request callback (CertificationServer::Handle).  Called from
  /// handler threads, possibly concurrently for different connections.
  using Handler = std::function<Response(const Request&)>;

  EventLoop(const EventLoopOptions& options, Handler handler,
            ServiceMetrics* metrics);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Takes ownership of the bound listener and starts the threads.
  Status Start(Socket listener);

  /// Graceful teardown; idempotent, safe from any non-loop thread.
  void Stop();

 private:
  struct Conn;
  struct IoThread;

  void IoLoop(size_t index);
  void HandlerLoop();

  /// Drains one connection's pending frames (decode, handle, respond),
  /// then detaches.  At most one handler runs this per connection.
  void ProcessConn(const std::shared_ptr<Conn>& conn);

  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void WriteReady(const std::shared_ptr<Conn>& conn);

  /// Sends as much of the write buffer as the socket takes, arming
  /// EPOLLOUT for the rest and dooming the connection on a hard write
  /// error.  Requires conn->mu.
  void FlushLocked(const std::shared_ptr<Conn>& conn);

  /// Extracts complete frames from the connection's parser into its
  /// pending queue and schedules a handler if none is attached.  Owner
  /// thread only.
  void ExtractFrames(const std::shared_ptr<Conn>& conn);

  /// Appends response bytes and flushes as far as the socket allows,
  /// arming EPOLLOUT for the rest.  Requires conn->mu.
  void QueueWriteLocked(const std::shared_ptr<Conn>& conn,
                        const std::string& bytes);

  /// Re-registers the connection's epoll interest from its want_read /
  /// want_write flags.  Requires conn->mu.
  void UpdateInterestLocked(const std::shared_ptr<Conn>& conn);

  /// Asks the owner thread to close the connection (any thread).
  void RequestClose(const std::shared_ptr<Conn>& conn);

  /// Deregisters, closes and forgets the connection.  Owner thread (or
  /// teardown, after the owner was joined).
  void CloseConn(const std::shared_ptr<Conn>& conn);

  void Wake(size_t index);

  const EventLoopOptions options_;
  const Handler handler_;
  ServiceMetrics* const metrics_;

  Socket listener_;
  std::vector<std::unique_ptr<IoThread>> io_;
  std::atomic<uint64_t> next_conn_id_{2};  // 0 = listener, 1 = wakeup
  std::atomic<uint64_t> next_owner_{0};

  std::mutex handler_mu_;
  std::condition_variable handler_cv_;
  std::deque<std::shared_ptr<Conn>> handler_queue_;
  bool stop_handlers_ = false;
  std::vector<std::thread> handler_threads_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace comptx::service

#endif  // COMPTX_SERVICE_EVENT_LOOP_H_
