// Zero-copy response path bench: a cached Redfish-style GET served through
// the scatter-gather epoll reactor against the earlier copy discipline,
// reconstructed in-bench. One keep-alive connection issues sequential GETs
// for a collection-sized JSON body; the rows report cached-GET ns/op,
// user-space body bytes copied per request, and server syscalls per request.
//
// The baseline reproduces what the pre-slab server did per cache hit, with
// every copy accounted through CountBodyCopy:
//   1. cache lookup hands out a body *string copy* (the old ResponseCache
//      returned std::string by value),
//   2. SerializeResponse concatenates head + body into a fresh wire string,
//   3. the wire string is appended to the connection outbox.
// Three full-body memcpys per request before a byte hits the socket. The
// zero-copy path queues [cached head slab][connection fragment][cached body
// slab] as iovecs — the measured rows assert body_bytes_copied == 0.
//
// Emits BENCH_zero_copy.json. In full mode the ISSUE's acceptance bar is
// asserted: >= 2x single-connection cached-GET throughput vs the copying
// baseline (exit non-zero on a miss). --smoke shrinks request counts for CI.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http/message.hpp"
#include "http/server.hpp"
#include "http/wire.hpp"
#include "json/serialize.hpp"

using namespace ofmf;
using json::Json;

namespace {

// A $expand-style Redfish collection body: enough endpoint members that the
// payload lands in the zero-copy size regime the cache actually serves
// (hundreds of KiB), so memcpy discipline — not syscall count — dominates.
std::shared_ptr<const std::string> BuildCollectionBody(std::size_t members) {
  json::Array rows;
  for (std::size_t i = 0; i < members; ++i) {
    const std::string id = "ep" + std::to_string(i);
    rows.push_back(Json::Obj(
        {{"@odata.id", "/redfish/v1/Fabrics/gen-z/Endpoints/" + id},
         {"Id", id},
         {"Name", "Endpoint " + id},
         {"EndpointProtocol", "GenZ"},
         {"ConnectedEntities",
          Json(json::Array{Json::Obj(
              {{"EntityType", "Processor"},
               {"EntityLink",
                Json::Obj({{"@odata.id", "/redfish/v1/Systems/node" +
                                             std::to_string(i) + "/Processors/0"}})}})})},
         {"Status", Json::Obj({{"State", "Enabled"}, {"Health", "OK"}})}}));
  }
  Json collection = Json::Obj(
      {{"@odata.id", "/redfish/v1/Fabrics/gen-z/Endpoints"},
       {"@odata.type", "#EndpointCollection.EndpointCollection"},
       {"Name", "Endpoint Collection"},
       {"Members@odata.count", static_cast<std::int64_t>(members)},
       {"Members", Json(std::move(rows))}});
  return std::make_shared<const std::string>(json::Serialize(collection));
}

// ------------------------------------------------------ PR 5 baseline ---

/// Blocking single-connection keep-alive server with the pre-slab copy
/// discipline (see file header). Transport shape is deliberately the
/// cheapest possible — blocking recv/send, no reactor, no worker handoff —
/// so the measured gap is the copy discipline, not reactor overhead the
/// baseline never paid.
class CopyingBaselineServer {
 public:
  ~CopyingBaselineServer() { Stop(); }

  bool Start(std::shared_ptr<const std::string> cache_body) {
    cache_body_ = std::move(cache_body);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    running_.store(true);
    thread_ = std::thread([this] { ServeLoop(); });
    return true;
  }

  void Stop() {
    if (!running_.exchange(false)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  std::uint16_t port() const { return port_; }
  std::uint64_t syscalls() const { return syscalls_.load(); }

 private:
  void ServeLoop() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    http::WireParser parser(http::WireParser::Mode::kRequest);
    char buffer[16384];
    while (running_.load()) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      syscalls_.fetch_add(1, std::memory_order_relaxed);
      if (n <= 0) break;
      parser.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      bool open = true;
      while (open && parser.HasMessage()) {
        auto request = parser.TakeRequest();
        if (!request.ok()) {
          open = false;
          break;
        }
        // (1) The old cache returned the body by value: one full copy.
        std::string body = *cache_body_;
        http::CountBodyCopy(body.size());
        http::Response response;
        response.status = 200;
        response.headers.Set("Content-Type", "application/json");
        response.headers.Set("ETag", "\"bench\"");
        response.headers.Set("Connection", "keep-alive");
        // (2) SerializeResponse concatenated head + body into the wire
        // string: a second full-body copy.
        std::string wire = http::SerializeResponseHead(response, body.size());
        wire += "Connection: keep-alive\r\n\r\n";
        wire += body;
        http::CountBodyCopy(body.size());
        // (3) The old outbox was a std::string the wire was appended to.
        outbox_.append(wire);
        http::CountBodyCopy(body.size());
        std::size_t off = 0;
        while (off < outbox_.size()) {
          const ssize_t sent =
              ::send(fd, outbox_.data() + off, outbox_.size() - off, MSG_NOSIGNAL);
          syscalls_.fetch_add(1, std::memory_order_relaxed);
          if (sent <= 0) {
            open = false;
            break;
          }
          off += static_cast<std::size_t>(sent);
        }
        outbox_.clear();
      }
      if (!open) break;
    }
    ::close(fd);
  }

  std::shared_ptr<const std::string> cache_body_;
  std::string outbox_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> syscalls_{0};
  std::thread thread_;
};

// ---------------------------------------------------------- the client ---

/// Minimal blocking client for one keep-alive connection. Parses just enough
/// of the response (Content-Length out of the header block) to know when a
/// message ends, discarding body bytes from a fixed buffer — it never
/// accumulates the payload, so the client side adds no user-space copies to
/// the process-wide WireCopyStats being asserted on.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// One GET round trip; true iff a 200 with a fully-read body came back.
  bool Get() {
    static const std::string kWire =
        "GET /redfish/v1/Fabrics/gen-z/Endpoints?$expand=. HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
    std::size_t off = 0;
    while (off < kWire.size()) {
      const ssize_t sent =
          ::send(fd_, kWire.data() + off, kWire.size() - off, MSG_NOSIGNAL);
      if (sent <= 0) return false;
      off += static_cast<std::size_t>(sent);
    }
    std::string head;  // header block only; body bytes are discarded
    std::size_t body_remaining = 0;
    bool in_body = false;
    while (true) {
      const ssize_t n = ::recv(fd_, buffer_, sizeof(buffer_), 0);
      if (n <= 0) return false;
      std::size_t consumed = 0;
      if (!in_body) {
        head.append(buffer_, static_cast<std::size_t>(n));
        const std::size_t end = head.find("\r\n\r\n");
        if (end == std::string::npos) continue;
        if (head.compare(0, 12, "HTTP/1.1 200") != 0) return false;
        const std::size_t cl = head.find("Content-Length:");
        if (cl == std::string::npos || cl > end) return false;
        body_remaining = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
        const std::size_t body_in_head = head.size() - (end + 4);
        body_remaining -= body_in_head < body_remaining ? body_in_head : body_remaining;
        in_body = true;
        consumed = static_cast<std::size_t>(n);  // all accounted via head
      }
      if (in_body && consumed == 0) {
        const std::size_t got = static_cast<std::size_t>(n);
        body_remaining -= got < body_remaining ? got : body_remaining;
      }
      if (in_body && body_remaining == 0) return true;
    }
  }

 private:
  int fd_ = -1;
  char buffer_[256 * 1024];
};

// ------------------------------------------------------------- the rows ---

struct Row {
  std::string name;
  std::size_t requests = 0;
  double ns_per_op = 0.0;
  double bytes_copied_per_request = 0.0;
  double syscalls_per_request = 0.0;
  std::size_t errors = 0;
};

void PrintRow(const Row& r) {
  std::printf("  %-18s %6zu reqs  %10.0f ns/op  %12.0f bytes-copied/req  "
              "%6.2f syscalls/req%s\n",
              r.name.c_str(), r.requests, r.ns_per_op, r.bytes_copied_per_request,
              r.syscalls_per_request, r.errors ? "  (ERRORS)" : "");
}

/// Drives `requests` sequential cached GETs on one keep-alive connection and
/// accounts time, copies, and syscalls. `syscalls_before/after` come from
/// whichever server shape is running.
template <typename SyscallsFn>
Row RunRequests(const std::string& name, std::uint16_t port, std::size_t requests,
                std::size_t warmup, SyscallsFn syscalls) {
  Row row;
  row.name = name;
  RawClient client(port);
  if (!client.ok()) {
    row.errors = requests;
    return row;
  }
  for (std::size_t i = 0; i < warmup; ++i) {
    if (!client.Get()) ++row.errors;
  }
  http::ResetWireCopyStats();
  const std::uint64_t syscalls_before = syscalls();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    if (!client.Get()) ++row.errors;
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const std::uint64_t syscalls_after = syscalls();
  const http::WireCopyStats copies = http::GetWireCopyStats();
  row.requests = requests;
  row.ns_per_op =
      std::chrono::duration<double, std::nano>(elapsed).count() / requests;
  row.bytes_copied_per_request =
      static_cast<double>(copies.body_bytes_copied) / requests;
  row.syscalls_per_request =
      static_cast<double>(syscalls_after - syscalls_before) / requests;
  return row;
}

/// A cache-hit handler: shared body slab + pre-serialized head attached, the
/// exact shape redfish::ResponseCache hands the transport on a hit. The
/// handler itself serializes nothing and copies nothing.
http::ServerHandler CacheHitHandler(std::shared_ptr<const std::string> body) {
  http::Response proto;
  proto.status = 200;
  proto.headers.Set("Content-Type", "application/json");
  proto.headers.Set("ETag", "\"bench\"");
  auto head = std::make_shared<const std::string>(
      http::SerializeResponseHead(proto, body->size()));
  return [body = std::move(body), head = std::move(head)](const http::Request&) {
    http::Response response;
    response.status = 200;
    response.body = http::Body(body);
    response.headers.Set("Content-Type", "application/json");
    response.headers.Set("ETag", "\"bench\"");
    response.set_wire_head(head);
    return response;
  };
}

std::uint64_t ReactorSyscalls(const http::TcpServer& server) {
  const http::ServerStats s = server.stats();
  return s.io_recv_calls + s.io_send_calls + s.backend_wait_calls + s.backend_ctl_calls;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_zero_copy.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const std::size_t members = smoke ? 256 : 4096;
  const std::size_t requests = smoke ? 40 : 400;
  const std::size_t warmup = smoke ? 4 : 16;
  constexpr double kRequiredSpeedup = 2.0;

  const auto body = BuildCollectionBody(members);
  std::printf("zero-copy response path bench%s: %zu-member collection, "
              "%zu-byte cached body, %zu cached GETs on one keep-alive "
              "connection per row\n\n",
              smoke ? " (smoke)" : "", members, body->size(), requests);

  std::vector<Row> rows;

  // PR 5 copy discipline, cheapest possible transport underneath it.
  {
    CopyingBaselineServer baseline;
    if (!baseline.Start(body)) {
      std::fprintf(stderr, "baseline server failed to start\n");
      return 1;
    }
    rows.push_back(RunRequests("copying-baseline", baseline.port(), requests,
                               warmup, [&] { return baseline.syscalls(); }));
    PrintRow(rows.back());
    baseline.Stop();
  }

  // The zero-copy reactor.
  {
    http::TcpServer server;
    if (!server.Start(CacheHitHandler(body), 0).ok()) {
      std::fprintf(stderr, "epoll reactor failed to start\n");
      return 1;
    }
    rows.push_back(RunRequests("reactor-epoll", server.port(), requests, warmup,
                               [&] { return ReactorSyscalls(server); }));
    PrintRow(rows.back());
    server.Stop();
  }

  // ------------------------------------------------------------ verdicts ---
  const Row& baseline = rows[0];
  const Row& reactor = rows[1];
  const double speedup_epoll =
      reactor.ns_per_op > 0 ? baseline.ns_per_op / reactor.ns_per_op : 0.0;
  bool zero_copy_held = true;
  std::size_t total_errors = 0;
  json::Array json_rows;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    total_errors += r.errors;
    if (i > 0 && r.bytes_copied_per_request != 0.0) zero_copy_held = false;
    json_rows.push_back(
        Json::Obj({{"name", r.name},
                   {"requests", static_cast<std::int64_t>(r.requests)},
                   {"cached_get_ns_per_op", r.ns_per_op},
                   {"bytes_copied_per_request", r.bytes_copied_per_request},
                   {"syscalls_per_request", r.syscalls_per_request},
                   {"errors", static_cast<std::int64_t>(r.errors)}}));
  }

  std::printf("\nspeedup (epoll reactor vs copying baseline): %.2fx "
              "(bar: >= %.1fx%s)\n",
              speedup_epoll, kRequiredSpeedup, smoke ? ", not enforced in smoke" : "");

  const bool bar_applies = !smoke;
  const bool bar_met = speedup_epoll >= kRequiredSpeedup;
  Json results = Json::Obj(
      {{"smoke", smoke},
       {"body_bytes", static_cast<std::int64_t>(body->size())},
       {"required_speedup", kRequiredSpeedup},
       {"speedup_epoll_vs_baseline", speedup_epoll},
       {"speedup_bar_met", !bar_applies || bar_met},
       {"zero_copy_held", zero_copy_held},
       {"errors", static_cast<std::int64_t>(total_errors)},
       {"rows", Json(std::move(json_rows))}});
  std::ofstream out(out_path);
  out << json::SerializePretty(results) << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (total_errors != 0) {
    std::fprintf(stderr, "FAIL: %zu request errors during the bench\n", total_errors);
    return 1;
  }
  if (!zero_copy_held) {
    std::fprintf(stderr, "FAIL: reactor rows copied body bytes in user space\n");
    return 1;
  }
  if (bar_applies && !bar_met) {
    std::fprintf(stderr, "FAIL: %.2fx cached-GET speedup, need >= %.1fx\n",
                 speedup_epoll, kRequiredSpeedup);
    return 1;
  }
  return 0;
}
