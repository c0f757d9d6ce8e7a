#include "net/server.h"

#include <sys/socket.h>

#include <utility>

#include "util/logging.h"
#include "util/strings.h"

namespace staq::net {

AqTcpServer::AqTcpServer(serve::AqServer* server, Options options)
    : server_(server), options_(options) {}

AqTcpServer::~AqTcpServer() { Stop(); }

util::Status AqTcpServer::Start() {
  auto listener = Listener::Bind(options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  port_ = listener_.port();
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::OK();
}

void AqTcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    // Unblock the handler's recv; the thread then exits on kUnavailable.
    // The handler owns the close; holding close_mu keeps this shutdown
    // from landing on a closed fd number the kernel may have reused.
    std::lock_guard<std::mutex> lock(conn->close_mu);
    if (conn->socket.valid()) ::shutdown(conn->socket.fd(), SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

AqTcpServer::Stats AqTcpServer::stats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.frames = frames_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return stats;
}

void AqTcpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().code() == util::StatusCode::kCancelled) return;
      if (!running_.load(std::memory_order_acquire)) return;
      // Transient accept failure (fd exhaustion, injected fault): log and
      // keep accepting — one bad accept must not take the server down.
      util::LogWarning("accept failed: " + accepted.status().ToString());
      continue;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    Socket socket = std::move(accepted).value();
    if (options_.io_timeout_s > 0) {
      (void)socket.SetTimeout(options_.io_timeout_s);
    }
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    raw->socket = std::move(socket);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      // The handler reads from raw->socket directly so Stop() can shut the
      // fd down underneath a blocked recv.
      Socket& sock = raw->socket;
      while (running_.load(std::memory_order_acquire)) {
        auto frame = sock.RecvFrame();
        if (!frame.ok()) {
          // kUnavailable: client went away (normal). Anything else is a
          // protocol violation worth counting.
          if (frame.status().code() != util::StatusCode::kUnavailable) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        if (!ServeFrame(sock, frame.value())) break;
      }
      std::lock_guard<std::mutex> lock(raw->close_mu);
      sock.Close();
    });
  }
}

util::Status AqTcpServer::SendError(Socket& socket, uint64_t request_id,
                                    const util::Status& status) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint8_t> payload;
  EncodeErrorMsg(status, &payload);
  return socket.SendFrame(MsgType::kError, request_id, payload);
}

bool AqTcpServer::ServeFrame(Socket& socket, const Frame& frame) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  store::ByteReader in(frame.payload.data(), frame.payload.size());
  std::vector<uint8_t> payload;
  switch (frame.type) {
    case MsgType::kHello: {
      Hello hello;
      if (!DecodeHello(&in, &hello)) break;
      if (hello.protocol_version != kProtocolVersion) {
        (void)SendError(socket, frame.request_id,
                        util::Status::InvalidArgument(util::Format(
                            "unsupported protocol version %u (server speaks "
                            "%u)",
                            hello.protocol_version, kProtocolVersion)));
        return false;
      }
      HelloAck ack;
      ack.sequence = server_->sequence();
      EncodeHelloAck(ack, &payload);
      return socket.SendFrame(MsgType::kHelloAck, frame.request_id, payload)
          .ok();
    }
    case MsgType::kQuery: {
      QueryMsg msg;
      if (!DecodeQueryMsg(&in, &msg)) break;
      if (msg.min_sequence > server_->sequence()) {
        util::Status behind = util::Status::Unavailable(util::Format(
            "replica at sequence %llu, request requires %llu",
            static_cast<unsigned long long>(server_->sequence()),
            static_cast<unsigned long long>(msg.min_sequence)));
        return SendError(socket, frame.request_id, behind).ok();
      }
      serve::AqTicket ticket = server_->Submit(msg.request);
      const uint64_t admitted_epoch = ticket.epoch();
      auto result = ticket.Get();
      if (!result.ok()) {
        return SendError(socket, frame.request_id, result.status()).ok();
      }
      QueryResultMsg reply;
      reply.result = std::move(result).value();
      reply.sequence = admitted_epoch == serve::AqTicket::kNoEpoch
                           ? server_->sequence()
                           : server_->base_sequence() + admitted_epoch;
      EncodeQueryResultMsg(reply, &payload);
      return socket.SendFrame(MsgType::kQueryResult, frame.request_id, payload)
          .ok();
    }
    case MsgType::kMutate: {
      wal::MutationRecord record;
      if (!DecodeMutationRecord(&in, &record) || !in.exhausted()) break;
      if (!options_.allow_mutations) {
        return SendError(socket, frame.request_id,
                         util::Status::FailedPrecondition(
                             "read-only replica: mutations go to the "
                             "primary"))
            .ok();
      }
      util::Result<serve::ScenarioStore::MutationReport> report =
          util::Status::Internal("unreachable");
      switch (record.type) {
        case wal::MutationType::kAddPoi:
          report = server_->AddPoi(record.category, record.position);
          break;
        case wal::MutationType::kRemovePoi:
          report = server_->RemovePoi(record.poi_id);
          break;
        case wal::MutationType::kSetInterval:
          report = server_->SetInterval(record.interval);
          break;
        case wal::MutationType::kSuspendRoute:
          report = server_->SuspendRoute(record.target);
          break;
        case wal::MutationType::kCloseStop:
          report = server_->CloseStop(record.target);
          break;
        case wal::MutationType::kScaleHeadway:
          report = server_->ScaleHeadway(record.target, record.factor);
          break;
        case wal::MutationType::kSetFare:
          report = server_->SetFare(record.target, record.value);
          break;
        case wal::MutationType::kScaleWalkSpeed:
          report = server_->ScaleWalkSpeed(record.value);
          break;
      }
      if (!report.ok()) {
        return SendError(socket, frame.request_id, report.status()).ok();
      }
      MutateResultMsg reply;
      reply.report = report.value();
      reply.sequence = server_->base_sequence() + reply.report.epoch;
      EncodeMutateResultMsg(reply, &payload);
      return socket
          .SendFrame(MsgType::kMutateResult, frame.request_id, payload)
          .ok();
    }
    case MsgType::kInfo: {
      InfoResultMsg reply;
      reply.sequence = server_->sequence();
      reply.epoch = server_->epoch();
      EncodeInfoResultMsg(reply, &payload);
      return socket.SendFrame(MsgType::kInfoResult, frame.request_id, payload)
          .ok();
    }
    default:
      // Response types have no business arriving at a server.
      break;
  }
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  (void)SendError(socket, frame.request_id,
                  util::Status::InvalidArgument(
                      std::string("malformed ") + MsgTypeName(frame.type) +
                      " request"));
  return false;
}

}  // namespace staq::net
