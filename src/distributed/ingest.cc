#include "distributed/ingest.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "service/protocol.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace comptx::distributed {

namespace {
constexpr uint64_t kMaxBackoffMs = 2000;
}  // namespace

UpstreamIngestor::UpstreamIngestor(EdgeConfig config, Delegate* delegate,
                                   service::ServiceMetrics* metrics)
    : config_(std::move(config)), delegate_(delegate), metrics_(metrics) {}

UpstreamIngestor::~UpstreamIngestor() { Stop(); }

void UpstreamIngestor::Start() {
  thread_ = std::thread([this] { Loop(); });
}

void UpstreamIngestor::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

bool UpstreamIngestor::SleepFor(uint64_t ms) {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleep_cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] {
    return stop_.load(std::memory_order_relaxed);
  });
  return !stop_.load(std::memory_order_relaxed);
}

void UpstreamIngestor::SetUp(bool up) {
  if (up_.exchange(up, std::memory_order_relaxed) != up) {
    delegate_->OnEdgeState(config_.edge, up);
  }
}

StatusOr<service::ServiceClient> UpstreamIngestor::Connect(uint64_t cursor) {
  service::Endpoint endpoint;
  endpoint.host = config_.host;
  endpoint.port = config_.port;
  COMPTX_ASSIGN_OR_RETURN(
      service::ServiceClient client,
      service::ServiceClient::Dial(endpoint, service::WireProtocol::kV2));
  COMPTX_ASSIGN_OR_RETURN(
      service::Response reply,
      client.Command(service::CommandKind::kSubscribe, config_.remote_session,
                     StrCat("from=", cursor + 1, " sub=", config_.edge)));
  if (!reply.ok) {
    return Status::FailedPrecondition(
        StrCat("SUBSCRIBE edge ", config_.edge, " from ", cursor + 1,
               " refused: ", reply.error_code, ": ", reply.error_message));
  }
  return client;
}

void UpstreamIngestor::Loop() {
  uint64_t cursor = delegate_->DurableCursor(config_.edge);
  uint64_t backoff = config_.backoff_ms;
  std::optional<service::ServiceClient> client;
  bool resubscribing = false;

  const auto fail = [&](const Status& status, const char* what) {
    COMPTX_LOG(Warn) << "edge " << config_.edge << " " << what << ": "
                     << status;
    client.reset();
    if (++failures_ >= config_.down_after) SetUp(false);
    backoff = std::min(backoff * 2, kMaxBackoffMs);
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    if (!client.has_value()) {
      if (failures_ > 0 && !SleepFor(backoff)) break;
      // The durable cursor may have been advanced by a batch whose apply
      // succeeded right before a connection loss; always resubscribe from
      // the delegate's truth, never from our stale local copy.
      cursor = delegate_->DurableCursor(config_.edge);
      auto connected = Connect(cursor);
      if (!connected.ok()) {
        fail(connected.status(), "connect failed");
        continue;
      }
      client.emplace(std::move(*connected));
      if (resubscribing) {
        metrics_->edge_resubscribes.fetch_add(1, std::memory_order_relaxed);
        resubscribing = false;
      }
    }

    auto reply = client->Command(
        service::CommandKind::kStream, config_.remote_session,
        StrCat("from=", cursor + 1, " max=", config_.batch_max,
               " wait_ms=", config_.poll_wait_ms, " ack=", cursor,
               " sub=", config_.edge));
    if (!reply.ok()) {
      resubscribing = true;
      fail(reply.status(), "fetch failed");
      continue;
    }
    if (!reply->ok) {
      // "gap" means the child trimmed past our cursor — impossible while
      // trims follow our own acks, so it (like any other refusal) signals
      // a child that lost state.  Drop the connection and revalidate via
      // SUBSCRIBE; that surfaces the definitive diagnosis.
      resubscribing = true;
      fail(Status::FailedPrecondition(
               StrCat(reply->error_code, ": ", reply->error_message)),
           "fetch refused");
      continue;
    }

    const uint64_t from = reply->FieldInt("from");
    if (from != cursor + 1) {
      resubscribing = true;
      fail(Status::Internal(StrCat("reply from=", from, ", expected ",
                                   cursor + 1)),
           "ordered delivery violated");
      continue;
    }

    std::vector<workload::TraceEvent> events;
    bool parse_ok = true;
    size_t start = 0;
    const std::string& body = reply->body;
    while (start < body.size()) {
      size_t end = body.find('\n', start);
      if (end == std::string::npos) end = body.size();
      auto event = workload::ParseTraceEventLine(body.substr(start, end - start));
      if (!event.ok()) {
        resubscribing = true;
        fail(event.status(), "undecodable stream event");
        parse_ok = false;
        break;
      }
      events.push_back(std::move(*event));
      start = end + 1;
    }
    if (!parse_ok) continue;

    if (!events.empty()) {
      auto applied = delegate_->ApplyBatch(config_.edge, from, events);
      if (!applied.ok()) {
        resubscribing = true;
        fail(applied.status(), "apply failed");
        continue;
      }
      cursor = *applied;
    }
    // Any reply — even an empty heartbeat — proves the child alive.
    failures_ = 0;
    backoff = config_.backoff_ms;
    SetUp(true);
  }
}

}  // namespace comptx::distributed
