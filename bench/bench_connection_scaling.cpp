// Connection-scaling bench: the epoll reactor + keep-alive client pool
// against the seed transport (blocking thread-per-connection server, one
// fresh connection per request). Measures requests/s and p50/p99 latency at
// 1, 64, and 1024 concurrent client connections hammering a trivial handler,
// so the numbers isolate transport cost — accept/connect/thread churn vs a
// pooled fd and an event loop — not handler work.
//
// The seed baseline is reconstructed inside the bench: an accept loop that
// spawns one blocking thread per connection, exactly the shape the reactor
// replaced, driven by TcpClient with the pool disabled (Connection: close on
// every request, the old client behaviour).
//
// Emits BENCH_connection_scaling.json. In full mode the ISSUE's acceptance
// bar is asserted: >= 5x requests/s at 1024 concurrent keep-alive
// connections vs the thread-per-connection baseline (exit non-zero on a
// miss). --smoke shrinks connection counts and requests for CI.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "http/message.hpp"
#include "http/server.hpp"
#include "http/wire.hpp"
#include "json/serialize.hpp"

using namespace ofmf;
using json::Json;

namespace {

http::ServerHandler BenchHandler() {
  return [](const http::Request& request) {
    return http::MakeTextResponse(200, "ok:" + request.path);
  };
}

// ------------------------------------------------------- seed baseline ---

/// The pre-reactor TcpServer shape: blocking accept loop, one thread per
/// connection, blocking recv/parse/handle/send until the peer closes. A recv
/// timeout (absent in the seed — that was the Stop() hang) lets the bench
/// tear it down; it never fires on the measured path.
class ThreadPerConnServer {
 public:
  ~ThreadPerConnServer() { Stop(); }

  bool Start(http::ServerHandler handler) {
    handler_ = std::move(handler);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1024) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    running_.store(true);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  void Stop() {
    if (!running_.exchange(false)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : conn_threads_) t.join();
    conn_threads_.clear();
  }

  std::uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    while (running_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;  // the seed spin; benign here, Stop() ends it
      std::lock_guard<std::mutex> lock(threads_mu_);
      conn_threads_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  void Serve(int fd) {
    timeval tv{0, 200000};  // teardown aid only (the seed blocked forever)
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    http::WireParser parser(http::WireParser::Mode::kRequest);
    char buffer[4096];
    bool open = true;
    while (open && running_.load()) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n == 0) break;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        break;
      }
      parser.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      while (open && parser.HasMessage()) {
        auto request = parser.TakeRequest();
        if (!request.ok()) {
          open = false;
          break;
        }
        const bool close_after =
            request->headers.GetOr("Connection", "keep-alive") == "close";
        http::Response response = handler_(*request);
        response.headers.Set("Connection", close_after ? "close" : "keep-alive");
        const std::string wire = http::SerializeResponse(response);
        std::size_t off = 0;
        while (off < wire.size()) {
          const ssize_t sent = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
          if (sent <= 0) {
            open = false;
            break;
          }
          off += static_cast<std::size_t>(sent);
        }
        if (close_after) open = false;
      }
    }
    ::close(fd);
  }

  http::ServerHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex threads_mu_;
  std::vector<std::thread> conn_threads_;
};

// ------------------------------------------------------------ the drive ---

struct LevelResult {
  std::size_t connections = 0;
  std::size_t requests = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t errors = 0;
};

/// Event-driven load driver: one thread multiplexes all `connections`
/// non-blocking sockets through its own epoll, each connection a small state
/// machine issuing `requests_per_conn` sequential GETs (one in flight per
/// connection). A thread-per-connection load generator would spend the box's
/// single core context-switching among its own client threads and bury the
/// server cost being measured — the standard tools (wrk, h2load) are
/// event-driven for the same reason.
///
/// keep_alive=false reproduces the seed client wire behaviour: every request
/// opens a fresh connection, stamps Connection: close, and the measured
/// latency includes the connect — that is the per-request price the seed
/// paid. Keep-alive latency is measured send-to-parsed on the pooled fd.
LevelResult RunLevel(std::uint16_t port, std::size_t connections,
                     std::size_t requests_per_conn, bool keep_alive) {
  struct DriverConn {
    int fd = -1;
    http::WireParser parser{http::WireParser::Mode::kResponse};
    std::size_t out_off = 0;
    std::size_t remaining = 0;
    std::uint32_t mask = 0;
    std::chrono::steady_clock::time_point t0;
  };

  const std::string wire =
      "GET /bench HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: " +
      std::string(keep_alive ? "keep-alive" : "close") + "\r\n\r\n";

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<DriverConn> conns(connections);
  std::vector<double> latencies;
  latencies.reserve(connections * requests_per_conn);
  std::size_t errors = 0;
  std::size_t active = 0;

  const auto set_mask = [&](std::size_t i, std::uint32_t want) {
    DriverConn& c = conns[i];
    if (c.mask == want) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = i;
    ::epoll_ctl(ep, c.mask == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, c.fd, &ev);
    c.mask = want;
  };

  // Opens a fresh non-blocking connection and starts a request on it; the
  // latency clock starts here (connect included) in per-request mode.
  const auto open_and_send = [&](std::size_t i) -> bool {
    DriverConn& c = conns[i];
    c.t0 = std::chrono::steady_clock::now();
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(c.fd);
      c.fd = -1;
      return false;
    }
    c.out_off = 0;
    c.parser.Reset();
    c.mask = 0;
    set_mask(i, EPOLLOUT | EPOLLIN);
    return true;
  };

  const auto drop = [&](std::size_t i) {
    DriverConn& c = conns[i];
    if (c.fd >= 0) {
      ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
      c.mask = 0;
    }
  };

  // A request failed mid-flight: count it, spend it, and keep the
  // connection slot running until its budget is gone.
  const auto fail_request = [&](std::size_t i) {
    DriverConn& c = conns[i];
    ++errors;
    drop(i);
    if (c.remaining > 0) {
      --c.remaining;
      if (c.remaining > 0 && open_and_send(i)) return;
    }
    --active;
  };

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < connections; ++i) {
    conns[i].remaining = requests_per_conn;
    if (open_and_send(i)) {
      ++active;
    } else {
      ++errors;
    }
  }

  std::array<epoll_event, 512> events;
  char buffer[16384];
  while (active > 0) {
    const int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 10000);
    if (n <= 0) break;  // stall: counted below as missing requests
    for (int e = 0; e < n; ++e) {
      const std::size_t i = events[e].data.u64;
      DriverConn& c = conns[i];
      if (c.fd < 0) continue;

      if ((events[e].events & EPOLLOUT) != 0 && c.out_off < wire.size()) {
        const ssize_t sent = ::send(c.fd, wire.data() + c.out_off,
                                    wire.size() - c.out_off, MSG_NOSIGNAL);
        if (sent <= 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          fail_request(i);
          continue;
        }
        if (sent > 0) c.out_off += static_cast<std::size_t>(sent);
        if (c.out_off == wire.size()) set_mask(i, EPOLLIN);
      }

      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
      bool closed = false;
      while (true) {
        const ssize_t got = ::recv(c.fd, buffer, sizeof(buffer), 0);
        if (got > 0) {
          c.parser.Feed(std::string_view(buffer, static_cast<std::size_t>(got)));
          if (static_cast<std::size_t>(got) < sizeof(buffer)) break;
          continue;
        }
        if (got == 0) {
          closed = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        closed = true;  // RST and friends
        break;
      }

      if (c.parser.HasMessage()) {
        auto response = c.parser.TakeResponse();
        if (!response.ok() || response->status != 200) {
          fail_request(i);
          continue;
        }
        latencies.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - c.t0)
                                .count());
        --c.remaining;
        if (c.remaining == 0) {
          drop(i);
          --active;
        } else if (keep_alive && !closed) {
          // Next request rides the same fd.
          c.t0 = std::chrono::steady_clock::now();
          c.out_off = 0;
          set_mask(i, EPOLLOUT | EPOLLIN);
        } else {
          drop(i);
          if (!open_and_send(i)) {
            ++errors;
            --active;
          }
        }
      } else if (closed) {
        fail_request(i);
      }
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (std::size_t i = 0; i < connections; ++i) drop(i);
  ::close(ep);

  LevelResult result;
  result.connections = connections;
  result.requests = latencies.size();
  // Anything not completed — failed, stalled, or never started — counts.
  result.errors = connections * requests_per_conn - latencies.size();
  result.rps = elapsed > 0 ? static_cast<double>(latencies.size()) / elapsed : 0.0;
  if (!latencies.empty()) {
    result.p50_us = Percentile(latencies, 50.0);
    result.p99_us = Percentile(latencies, 99.0);
  }
  return result;
}

void PrintRow(const char* label, const LevelResult& r) {
  std::printf("  %-24s %5zu conns  %8.0f req/s  p50 %8.1f us  p99 %8.1f us%s\n",
              label, r.connections, r.rps, r.p50_us, r.p99_us,
              r.errors ? "  (ERRORS)" : "");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_connection_scaling.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  // Per-level request budgets keep baseline TIME_WAIT churn (one ephemeral
  // port per request) well inside the local port range.
  const std::vector<std::size_t> levels =
      smoke ? std::vector<std::size_t>{1, 16, 128}
            : std::vector<std::size_t>{1, 64, 1024};
  // rps is normalized per request, so the two configurations need the same
  // concurrency, not the same request count. The baseline budget is capped
  // by ephemeral-port churn (every request leaves a TIME_WAIT socket); the
  // keep-alive side runs longer at the top level so the one-time connect
  // ramp (1024 accepts) amortizes out of the steady state being measured.
  const auto requests_for = [&](std::size_t conns, bool keep_alive) -> std::size_t {
    if (smoke) return conns == 1 ? 200 : (conns <= 16 ? 25 : 8);
    if (conns == 1) return 2048;
    if (conns <= 64) return 64;  // 4096 total
    return keep_alive ? 32 : 8;  // 32768 vs 8192 total
  };
  constexpr double kRequiredSpeedupAt1024 = 5.0;

  std::printf("connection scaling bench%s: reactor + keep-alive pool vs "
              "thread-per-connection seed\n\n", smoke ? " (smoke)" : "");

  // Baseline: the seed pair — thread-per-connection server, per-request
  // client connections.
  std::vector<LevelResult> baseline;
  {
    ThreadPerConnServer seed;
    if (!seed.Start(BenchHandler())) {
      std::fprintf(stderr, "baseline server failed to start\n");
      return 1;
    }
    std::printf("thread-per-connection seed (Connection: close per request):\n");
    for (const std::size_t conns : levels) {
      baseline.push_back(RunLevel(seed.port(), conns, requests_for(conns, false), false));
      PrintRow("baseline", baseline.back());
    }
    seed.Stop();
  }

  // Reactor: epoll loop + worker pool, clients reusing pooled keep-alive
  // connections.
  std::vector<LevelResult> reactor;
  {
    http::TcpServer server;
    http::ServerOptions options;
    options.max_connections = 4096;       // above the largest level
    options.max_queued_requests = 16384;  // measure latency, not load shedding
    if (!server.Start(BenchHandler(), 0, options).ok()) {
      std::fprintf(stderr, "reactor server failed to start\n");
      return 1;
    }
    std::printf("\nepoll reactor (pooled keep-alive connections):\n");
    for (const std::size_t conns : levels) {
      reactor.push_back(RunLevel(server.port(), conns, requests_for(conns, true), true));
      PrintRow("reactor", reactor.back());
    }
    server.Stop();
  }

  std::printf("\nspeedup (reactor vs seed):\n");
  json::Array rows;
  double speedup_at_max = 0.0;
  std::size_t total_errors = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double speedup =
        baseline[i].rps > 0 ? reactor[i].rps / baseline[i].rps : 0.0;
    if (i + 1 == levels.size()) speedup_at_max = speedup;
    total_errors += baseline[i].errors + reactor[i].errors;
    std::printf("  %5zu conns: %6.1fx req/s, p99 %8.1f -> %8.1f us\n", levels[i],
                speedup, baseline[i].p99_us, reactor[i].p99_us);
    rows.push_back(Json::Obj({{"connections", static_cast<std::int64_t>(levels[i])},
                              {"requests", static_cast<std::int64_t>(reactor[i].requests)},
                              {"baseline_rps", baseline[i].rps},
                              {"baseline_p50_us", baseline[i].p50_us},
                              {"baseline_p99_us", baseline[i].p99_us},
                              {"reactor_rps", reactor[i].rps},
                              {"reactor_p50_us", reactor[i].p50_us},
                              {"reactor_p99_us", reactor[i].p99_us},
                              {"speedup_rps", speedup}}));
  }

  const bool bar_applies = !smoke;
  const bool bar_met = speedup_at_max >= kRequiredSpeedupAt1024;
  Json results = Json::Obj({{"smoke", smoke},
                            {"required_speedup_at_max_level", kRequiredSpeedupAt1024},
                            {"speedup_at_max_level", speedup_at_max},
                            {"speedup_bar_met", !bar_applies || bar_met},
                            {"errors", static_cast<std::int64_t>(total_errors)},
                            {"levels", Json(std::move(rows))}});
  std::ofstream out(out_path);
  out << json::SerializePretty(results) << "\n";
  std::printf("\nwrote %s\n", out_path.c_str());

  if (total_errors != 0) {
    std::fprintf(stderr, "FAIL: %zu request errors during the bench\n", total_errors);
    return 1;
  }
  if (bar_applies && !bar_met) {
    std::fprintf(stderr, "FAIL: %.1fx at %zu connections, need >= %.1fx\n",
                 speedup_at_max, levels.back(), kRequiredSpeedupAt1024);
    return 1;
  }
  return 0;
}
